import csv
import gc
import hashlib
import importlib.resources
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_text,
    count_ctrl_statements,
    marginal_mask,
    parse_qasm,
    reference_emit,
    reference_result_rows,
    reference_sweep_rows,
    simulate_stepwise,
)

import qcool
from qcool import (
    ConfigError,
    CustomProtocol,
    Dynamic,
    EnergyGap,
    NoiseModel,
    ResourceLimitError,
    SubOptimal,
    Temperature,
    build_circuit,
    config_from_json,
    dynamic_final_p,
    load_cycles_json,
    noisy_final_probability,
    probability_from_temperature,
    report,
    sub_optimal_final_p,
    thermal_product_vector,
    total_work_cost,
)
from qcool.cli import cli
from qcool.methods import _METHODS, _rounds

DYN3 = {"method": "dynamic", "n_qubits": 3}
SUBOPT = {"method": "suboptimal", "cluster_size": 3, "rounds": 2}
# Custom protocol swapping 000 and 100: it heats the target past 1/2.
HEAT = {"protocol": "custom", "cycles": [["000", "100"]]}


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_ok(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output + result.stderr
    return result.output


def result_schema():
    ref = importlib.resources.files("qcool.schemas") / "result_row.schema.json"
    return json.loads(ref.read_text())


# -- analyze ---------------------------------------------------------------


def test_analyze_json_row(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    out = run_ok(runner, ["analyze", "--config", cfg, "--initial-p", "0.1"])
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "dynamic-n3-minimal-work"
    assert row["total_qubits"] == 3
    assert row["initial_p"] == 0.1
    assert row["final_p"] == pytest.approx(0.028, abs=1e-15)
    assert row["work"] == pytest.approx(0.072, abs=1e-15)
    assert row["total_gates"] == 5
    assert row["resets"] == 0
    assert row["noise_p"] is None
    assert row["initial_temp_mk"] is None and row["final_temp_mk"] is None
    assert row["work_joules"] is None
    schema = result_schema()
    jsonschema.validate(row, schema)


def test_analyze_csv_matches_json(runner, tmp_path):
    cfg = write_config(tmp_path, SUBOPT)
    args = ["analyze", "--config", cfg, "--initial-p", "0.1"]
    json_row = json.loads(run_ok(runner, args))[0]
    csv_text = run_ok(runner, args + ["--csv"])
    reader = csv.DictReader(io.StringIO(csv_text))
    csv_row = next(iter(reader))
    for key, value in json_row.items():
        cell = csv_row[key]
        if value is None:
            assert cell == ""
        elif isinstance(value, str):
            assert cell == value
        else:
            assert float(cell) == value, key


def test_analyze_with_temperature(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    out = run_ok(
        runner,
        ["analyze", "--config", cfg, "--temp-mk", "50", "--freq-ghz", "5"],
    )
    row = json.loads(out)[0]
    gap = EnergyGap.from_frequency_ghz(5.0)
    p = probability_from_temperature(Temperature.from_millikelvin(50), gap)
    assert row["initial_p"] == pytest.approx(p, rel=1e-13)
    assert row["initial_temp_mk"] == pytest.approx(50.0, rel=1e-9)
    assert 0 < row["final_temp_mk"] < 50.0
    assert row["work_joules"] == pytest.approx(row["work"] * gap.value, rel=1e-12)
    jsonschema.validate(row, result_schema())


def test_analyze_out_file(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    dest = tmp_path / "row.json"
    stdout = run_ok(runner, ["analyze", "--config", cfg, "--initial-p", "0.1"])
    run_ok(
        runner,
        ["analyze", "--config", cfg, "--initial-p", "0.1", "--out", str(dest)],
    )
    assert dest.read_text() == stdout


def test_analyze_usage_errors(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    for args in (
        ["analyze", "--config", cfg],
        ["analyze", "--config", cfg, "--initial-p", "0.1", "--temp-mk", "50"],
        ["analyze", "--config", cfg, "--temp-mk", "50"],
    ):
        assert runner.invoke(cli, args).exit_code == 2, args


def test_analyze_bad_config_exit_2(runner, tmp_path):
    cfg = write_config(tmp_path, {"method": "dynamic"})
    result = runner.invoke(cli, ["analyze", "--config", cfg, "--initial-p", "0.1"])
    assert result.exit_code == 2
    assert "error" in result.stderr.lower()
    plain = tmp_path / "broken.json"
    plain.write_text("{not json")
    result = runner.invoke(
        cli, ["analyze", "--config", str(plain), "--initial-p", "0.1"]
    )
    assert result.exit_code == 2


def test_analyze_cap_exit_3(runner, tmp_path):
    cfg = write_config(tmp_path, {"method": "dynamic", "n_qubits": 25})
    result = runner.invoke(cli, ["analyze", "--config", cfg, "--initial-p", "0.1"])
    assert result.exit_code == 3
    assert "error" in result.stderr.lower()


def test_cap_applies_to_clusters_and_vectors(runner, tmp_path):
    s33 = write_config(tmp_path, {**SUBOPT, "rounds": 3}, "s33.json")
    row = json.loads(
        run_ok(runner, ["analyze", "--config", s33, "--initial-p", "0.1"])
    )[0]
    assert row["total_qubits"] == 27 and row["total_gates"] == 65
    assert row["final_p"] == sub_optimal_final_p(0.1, 3, 3)
    rows = json.loads(
        run_ok(runner, ["sweep", "--config", s33, "--probs", "0.1,0.2"])
    )
    assert rows[0] == row
    noise = ["noise-sweep", "--config", s33, "--initial-p", "0.1",
             "--noise-probs", "0,0.01"]
    rows = json.loads(run_ok(runner, noise + ["--placement", "per-gate"]))
    assert rows[0]["final_p"] == pytest.approx(row["final_p"], rel=1e-12)
    assert rows[1]["final_p"] > row["final_p"]
    qasm = run_ok(runner, ["generate", "--config", s33, "--initial-p", "0.1"])
    assert parse_qasm(qasm).n_qubits == 27
    assert count_ctrl_statements(qasm) == 65
    # per-layer rows hold at most 11 live qubits, not the 27-qubit register
    per_layer = noise[:-1] + ["0,1,0.01", "--placement", "per-layer"]
    rows = json.loads(run_ok(runner, per_layer))
    assert rows[0]["final_p"] == row["final_p"]
    # the last layer fully depolarizes the final cluster
    assert abs(rows[1]["final_p"] - 0.5) <= 4 * 2.0**-52
    assert row["final_p"] < rows[2]["final_p"] < 0.5
    for doc, message in (
        ({"method": "dynamic", "n_qubits": 25}, "25 qubits exceeds the cap of 24"),
        ({"method": "semiopen", "cluster_sizes": [2, 25]},
         "25 qubits exceeds the cap of 24"),
        ({"method": "suboptimal", "cluster_size": 2, "rounds": 6},
         "64 qubits exceeds the cap of 63"),
        # refused without computing or printing 3**3000000
        ({"method": "suboptimal", "cluster_size": 3, "rounds": 3_000_000},
         "3**3000000 qubits exceeds the cap of 63"),
    ):
        cfg = write_config(tmp_path, doc)
        for args in (
            ["analyze", "--config", cfg, "--initial-p", "0.1"],
            ["sweep", "--config", cfg, "--probs", "0.1"],
            ["noise-sweep", "--config", cfg, "--initial-p", "0.1",
             "--noise-probs", "0.01"],
            ["generate", "--config", cfg, "--initial-p", "0.1"],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 3, (doc, args)
            assert message in result.stderr, (doc, args)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: the round map of HBAC 4 with resets {4} has no pi, "
    "and its float work drifts linearly in the rounds",
)
def test_long_run_hbac_work_on_a_reducible_round_map(runner, tmp_path):
    # helpers.exact_walk at 50 digits gives 0.16800000000000000577 at
    # both 1,000 and 3,000 rounds: the steady work per round is 0.
    doc = {"method": "hbac", "cluster_size": 4, "rounds": 10**18, "reset_qubits": [4]}
    cfg = write_config(tmp_path, doc)
    row = json.loads(run_ok(runner, ["analyze", "--config", cfg, "--initial-p", "0.3"]))[0]
    assert row["work"] == pytest.approx(0.168, rel=1e-9, abs=0.0)


def test_analyze_bad_probability_exit_2(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    result = runner.invoke(cli, ["analyze", "--config", cfg, "--initial-p", "0.6"])
    assert result.exit_code == 2


def test_hot_target_in_later_round_exit_2(runner, tmp_path):
    semi = {"method": "semiopen", "cluster_sizes": [3, 3], **HEAT}
    for doc, label in (
        ({**SUBOPT, **HEAT}, "suboptimal-n3-r2-custom"),
        (semi, "semiopen-3+3-custom"),
    ):
        cfg = write_config(tmp_path, doc)
        # generate plans every method at the given p, so it refuses too.
        for args in (
            ["analyze", "--config", cfg, "--initial-p", "0.1"],
            ["sweep", "--config", cfg, "--probs", "0.1,0.2", "--jobs", "2"],
            ["generate", "--config", cfg, "--initial-p", "0.1"],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 2, args
            assert f"{label}: round 2" in result.stderr, args
            assert "excitation 0.748" in result.stderr, args


def test_inverted_final_state_leaves_temperature_empty(runner, tmp_path):
    cfg = write_config(tmp_path, {**DYN3, **HEAT})
    args = ["--config", cfg, "--freq-ghz", "5"]
    row = json.loads(run_ok(runner, ["analyze", *args, "--temp-mk", "50"]))[0]
    gap = EnergyGap.from_frequency_ghz(5.0)
    p = probability_from_temperature(Temperature.from_millikelvin(50), gap)
    heat = Dynamic(3, CustomProtocol((("000", "100"),)))
    assert row["final_p"] == report(heat, initial_p=p).final_excitation > 0.5
    assert row["final_temp_mk"] is None
    assert row["initial_temp_mk"] == pytest.approx(50.0, rel=1e-9)
    jsonschema.validate(row, result_schema())
    rows = json.loads(run_ok(runner, ["sweep", *args, "--temps-mk", "20,50"]))
    assert [r["final_temp_mk"] for r in rows] == [None, None]
    assert rows[1] == row


# -- sweep -----------------------------------------------------------------


def test_sweep_order_and_values(runner, tmp_path):
    c1 = write_config(tmp_path, DYN3, "a.json")
    c2 = write_config(tmp_path, SUBOPT, "b.json")
    out = run_ok(
        runner,
        ["sweep", "--config", c1, "--config", c2, "--probs", "0.1,0.25"],
    )
    rows = json.loads(out)
    assert [r["method"] for r in rows] == [
        "dynamic-n3-minimal-work",
        "dynamic-n3-minimal-work",
        "suboptimal-n3-r2-minimal-work",
        "suboptimal-n3-r2-minimal-work",
    ]
    assert [r["initial_p"] for r in rows] == [0.1, 0.25, 0.1, 0.25]
    assert rows[0]["final_p"] == pytest.approx(dynamic_final_p(0.1, 3), abs=1e-15)
    assert rows[3]["final_p"] == pytest.approx(
        sub_optimal_final_p(0.25, 3, 2), abs=1e-15
    )
    schema = result_schema()
    for row in rows:
        jsonschema.validate(row, schema)


def test_sweep_jobs_equivalence(runner, tmp_path):
    c1 = write_config(tmp_path, DYN3, "a.json")
    c2 = write_config(tmp_path, SUBOPT, "b.json")
    args = ["sweep", "--config", c1, "--config", c2, "--probs", "0.05,0.1,0.2"]
    serial = run_ok(runner, args)
    parallel = run_ok(runner, args + ["--jobs", "2"])
    assert serial == parallel
    noisy = ["noise-sweep", "--config", c1, "--initial-p", "0.1",
             "--noise-probs", "0,0.01"]
    for bad in ("0", "-3"):
        assert runner.invoke(cli, args + ["--jobs", bad]).exit_code == 2
        assert runner.invoke(cli, noisy + ["--jobs", bad]).exit_code == 2


def test_sweeps_start_no_process(runner, tmp_path, monkeypatch):
    import multiprocessing.process

    def no_process(self):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    c1 = write_config(tmp_path, DYN3, "a.json")
    c2 = write_config(tmp_path, SUBOPT, "b.json")
    configs = ["--config", c1, "--config", c2]
    for args in (
        ["sweep", *configs, "--probs", "0.05,0.1,0.2"],
        ["noise-sweep", *configs, "--initial-p", "0.1",
         "--noise-probs", "0,0.001,0.01", "--placement", "per-layer"],
    ):
        serial = run_ok(runner, args + ["--jobs", "1"])
        assert run_ok(runner, args + ["--jobs", "2"]) == serial, args


def no_rows(monkeypatch):
    import qcool.methods

    def forbidden(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(qcool.methods, "report", forbidden)
    monkeypatch.setattr(qcool.methods, "_groups", forbidden)


def test_sweep_rejects_bad_custom_labels_before_rows(
    runner, tmp_path, monkeypatch
):
    no_rows(monkeypatch)
    cfg = write_config(
        tmp_path,
        {"method": "dynamic", "n_qubits": 3, "protocol": "custom",
         "cycles": [["0000", "1111"]]},
    )
    result = runner.invoke(
        cli, ["sweep", "--config", cfg, "--probs", "0.1,0.2", "--jobs", "2"]
    )
    assert result.exit_code == 2
    assert "custom cycles on 3 qubits" in result.stderr


@pytest.mark.parametrize(
    "args, bad",
    [
        (["sweep", "--probs", "0.1,0.7", "--jobs", "2"], "0.7"),
        (["sweep", "--temps-mk", "10,inf", "--freq-ghz", "5", "--jobs", "2"],
         "0.5"),
        (["noise-sweep", "--initial-p", "0.5", "--noise-probs", "0.1,0.2",
          "--jobs", "2"], "0.5"),
    ],
)
def test_sweeps_reject_bad_excitation_before_rows(
    runner, tmp_path, monkeypatch, args, bad
):
    no_rows(monkeypatch)
    cfg = write_config(tmp_path, {"method": "dynamic", "n_qubits": 4})
    result = runner.invoke(cli, [args[0], "--config", cfg, *args[1:]])
    assert result.exit_code == 2
    assert f"excitation probability {bad} outside [0, 1/2)" in result.stderr


def test_sweep_deterministic(runner, tmp_path):
    cfg = write_config(tmp_path, SUBOPT)
    args = ["sweep", "--config", cfg, "--probs", "0.1,0.3", "--csv"]
    assert run_ok(runner, args) == run_ok(runner, args)


def test_sweep_temperature_grid(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    out = run_ok(
        runner,
        ["sweep", "--config", cfg, "--temps-mk", "50,100", "--freq-ghz", "5"],
    )
    rows = json.loads(out)
    assert rows[0]["initial_temp_mk"] == pytest.approx(50.0, rel=1e-9)
    assert rows[1]["initial_temp_mk"] == pytest.approx(100.0, rel=1e-9)
    assert rows[0]["final_temp_mk"] < rows[1]["final_temp_mk"]


def test_sweep_usage_errors(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    for args in (
        ["sweep", "--config", cfg],
        ["sweep", "--config", cfg, "--probs", "0.1", "--temps-mk", "50"],
        ["sweep", "--config", cfg, "--temps-mk", "50"],
        ["sweep", "--config", cfg, "--probs", "abc"],
        ["sweep", "--config", cfg, "--probs", ""],
    ):
        assert runner.invoke(cli, args).exit_code == 2, args


def test_list_flags_reject_empty_items(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    for flag, args in (
        ("--probs", ["sweep"]),
        ("--temps-mk", ["sweep", "--freq-ghz", "5"]),
        ("--noise-probs", ["noise-sweep", "--initial-p", "0.1"]),
    ):
        for items in ("0.1,,0.2", "0.1,", ",0.1", "0.1, ,0.2"):
            result = runner.invoke(
                cli, [*args, "--config", cfg, flag, items]
            )
            assert result.exit_code == 2, (flag, items)
            assert f"{flag} has an empty item" in result.stderr


# -- sweep points walked together --------------------------------------------

# The configs of the benchmark's sweeps, and custom protocols of each
# method, whose rows come from the walk rather than a closed form.
SWEEP_DOCS = {
    "dyn-mw-n9": {"method": "dynamic", "n_qubits": 9},
    "dyn-mirror-n9": {"method": "dynamic", "n_qubits": 9, "protocol": "mirror"},
    "hbac-3x200": {"method": "hbac", "cluster_size": 3, "rounds": 200},
    "hbac-5x50-r23": {
        "method": "hbac", "cluster_size": 5, "rounds": 50, "reset_qubits": [2, 3],
    },
    "subopt-3x2": {"method": "suboptimal", "cluster_size": 3, "rounds": 2},
    "subopt-4x2": {"method": "suboptimal", "cluster_size": 4, "rounds": 2},
    "semiopen-5555": {"method": "semiopen", "cluster_sizes": [5, 5, 5, 5]},
    "semiopen-333": {"method": "semiopen", "cluster_sizes": [3, 3, 3]},
    "dyn-custom": {"method": "dynamic", "n_qubits": 3, "protocol": "custom",
                   "cycles": [["011", "100"], [0, 1, 2]]},
    "subopt-custom": {"method": "suboptimal", "cluster_size": 3, "rounds": 2,
                      "protocol": "custom", "cycles": [["011", "100"]]},
    "semiopen-custom": {"method": "semiopen", "cluster_sizes": [3, 4, 3],
                        "protocol": "custom", "cycles": [["011", "100"]]},
    "hbac-custom": {"method": "hbac", "cluster_size": 4, "rounds": 7,
                    "reset_qubits": [3], "protocol": "custom",
                    "cycles": [["0111", "1000"], [0, 1, 2]]},
}
GRID_P = (1e-12, 3.4e-4, 0.04, 0.1, 0.3, 0.49, 0.4999)
GRID_MK = (0.0, 1e-300, 5.0, 31.7, 44.2, 100.0, 1e4)


def _hexed(rows):
    return [
        {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
        for row in rows
    ]


def _report_row(rep, gap):
    """The noiseless result row of a report."""
    def mk(temperature):
        return None if temperature is None or math.isinf(temperature.kelvin) else (
            temperature.millikelvin
        )

    return {
        "method": rep.method,
        "total_qubits": rep.total_qubits,
        "initial_temp_mk": mk(rep.initial_temperature),
        "final_temp_mk": mk(rep.final_temperature),
        "initial_p": rep.initial_excitation,
        "final_p": rep.final_excitation,
        "noise_p": None,
        "work": rep.work_in_gap_units,
        "work_joules": rep.work_joules,
        "total_gates": rep.gate_counts.total,
        "resets": rep.gate_counts.resets,
    }


@pytest.mark.parametrize("name", SWEEP_DOCS)
def test_sweep_rows_are_the_per_point_loop_bit_for_bit(runner, tmp_path, name):
    # The points of one config are planned and walked together; every
    # row must still hold the bits of its point walked alone, and of a
    # one-point report.
    cfg = write_config(tmp_path, SWEEP_DOCS[name])
    config = config_from_json(SWEEP_DOCS[name])
    gap = EnergyGap.from_frequency_ghz(5.0)
    probs = ["--probs", ",".join(map(repr, GRID_P))]
    temps = ["--temps-mk", ",".join(map(repr, GRID_MK)), "--freq-ghz", "5"]
    for args, g in ((probs, None), (temps, gap)):
        rows = json.loads(run_ok(runner, ["sweep", "--config", cfg, *args]))
        ps = [row["initial_p"] for row in rows]
        assert _hexed(rows) == _hexed(reference_sweep_rows(config, ps, g)), args
        reports = [report(config, initial_p=p, gap=g) for p in ps]
        assert _hexed(rows) == _hexed(_report_row(r, g) for r in reports), args


def test_semi_open_sweep_walks_each_plan_group_once(runner, tmp_path):
    # Over p = 0.02 ... 0.4 the later rounds of semi-open 5+5+5+5 take
    # four distinct plans; each group's rows are one walked array.
    doc = SWEEP_DOCS["semiopen-5555"]
    probs = (0.02, 0.04, 0.06, 0.08, 0.1, 0.2, 0.3, 0.4)
    groups = qcool.methods._groups(config_from_json(doc), probs, ())
    assert [rows.tolist() for rows, *_ in groups] == [[0], [1, 2, 3, 4], [5], [6, 7]]
    cfg = write_config(tmp_path, doc)
    args = ["sweep", "--config", cfg, "--probs", ",".join(map(repr, probs)), "--csv"]
    lines = run_ok(runner, args).splitlines()
    for p, line in zip(probs, lines[1:], strict=True):
        one = ["analyze", "--config", cfg, "--initial-p", repr(p), "--csv"]
        assert run_ok(runner, one).splitlines()[1] == line, p
    rows = json.loads(run_ok(runner, args[:-1]))
    want = reference_sweep_rows(config_from_json(doc), probs)
    assert _hexed(rows) == _hexed(want)


def test_sweep_raises_the_first_failing_row_error(runner, tmp_path):
    # The custom cycle heats the target: from 0.45 it stays below 1/2,
    # from 0.1 and 0.2 it passes 1/2 before round 2.  Row by row, the
    # p = 0.1 row fails first, and nothing is written.
    cfg = write_config(tmp_path, {**SUBOPT, **HEAT})
    out = tmp_path / "rows.json"
    result = runner.invoke(
        cli, ["sweep", "--config", cfg, "--probs", "0.45,0.1,0.2", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "suboptimal-n3-r2-custom: round 2" in result.stderr
    assert "excitation 0.7480000000000001 >= 1/2" in result.stderr
    assert not out.exists()
    # Walked together, the p = 0.3 row is the first to start a round hot
    # (round 2); row by row, the p = 0.13 row fails first, at round 3.
    cycles = {"protocol": "custom", "cycles": [[1, 5], [2, 7]]}
    cfg = write_config(tmp_path, {**SUBOPT, "rounds": 3, **cycles})
    for probs, message in (
        ("0.13,0.3", "round 3 would start from a hot target (excitation 0.509031445116578"),
        ("0.3,0.13", "round 2 would start from a hot target (excitation 0.5039999999999999"),
    ):
        result = runner.invoke(cli, ["sweep", "--config", cfg, "--probs", probs])
        assert result.exit_code == 2 and message in result.stderr, probs


def test_sweep_batches_stay_within_their_memory_bound(runner, tmp_path):
    # 64 points of 2**16 states are walked 16 rows (2**20 entries) at a
    # time, about 24 MiB across the walk's live arrays; one unsplit
    # batch of 2**22 entries would hold about 96 MiB.
    cfg = write_config(tmp_path, {"method": "dynamic", "n_qubits": 16})
    probs = ",".join(repr(0.01 + 0.005 * i) for i in range(64))
    peaks = []
    for args in (
        ["analyze", "--config", cfg, "--initial-p", "0.01"],
        ["sweep", "--config", cfg, "--probs", probs],
    ):
        run_ok(runner, args)  # count the gates before measuring
        qcool.methods._groups.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            run_ok(runner, args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 48 << 20, peaks


def test_subnormal_temperature_row_is_at_zero_excitation(runner, tmp_path):
    # k T underflows to 0 at 1e-300 mK; the row is the p = 0 row.
    cfg = write_config(tmp_path, DYN3)
    for args in (
        ["sweep", "--temps-mk", "1e-300", "--freq-ghz", "5"],
        ["analyze", "--temp-mk", "1e-300", "--freq-ghz", "5"],
    ):
        (row,) = json.loads(run_ok(runner, [args[0], "--config", cfg, *args[1:]]))
        assert row["initial_p"] == 0.0 and row["final_p"] == 0.0, args


# -- noise-sweep -----------------------------------------------------------


def test_noise_sweep_zero_matches_analytic(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    out = run_ok(
        runner,
        [
            "noise-sweep",
            "--config",
            cfg,
            "--initial-p",
            "0.1",
            "--noise-probs",
            "0,0.01",
        ],
    )
    rows = json.loads(out)
    assert [r["noise_p"] for r in rows] == [0.0, 0.01]
    assert rows[0]["final_p"] == pytest.approx(0.028, abs=1e-12)
    assert rows[1]["final_p"] > rows[0]["final_p"]
    # reported work stays the noiseless driving cost
    for row in rows:
        assert row["work"] == pytest.approx(
            total_work_cost(Dynamic(3), 0.1), rel=1e-12
        )
    schema = result_schema()
    for row in rows:
        jsonschema.validate(row, schema)


@pytest.mark.parametrize(
    "doc",
    [
        DYN3,
        {"method": "suboptimal", "cluster_size": 4, "rounds": 2},
        {"method": "hbac", "cluster_size": 5, "rounds": 50, "reset_qubits": [2, 3]},
        {"method": "semiopen", "cluster_sizes": [3, 4, 3]},
    ],
    ids=lambda doc: doc["method"],
)
def test_noise_sweep_zero_is_analyze_bit_for_bit(runner, tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    args = ["--config", cfg, "--initial-p", "0.07"]
    want = json.loads(run_ok(runner, ["analyze", *args]))[0]["final_p"]
    for placement in ("per-gate", "per-layer"):
        row = json.loads(run_ok(runner, [
            "noise-sweep", *args, "--noise-probs", "0", "--placement", placement,
        ]))[0]
        assert row["final_p"].hex() == want.hex(), placement


def test_per_layer_rows_never_simulate_the_register(monkeypatch):
    import qcool.methods
    import qcool.sim

    def forbidden(*args, **kwargs):
        raise AssertionError("built or simulated a whole-register vector")

    monkeypatch.setattr(qcool.sim, "simulate", forbidden)
    monkeypatch.setattr(qcool.methods, "thermal_product_vector", forbidden)
    for config in (SubOptimal(4, 2), SubOptimal(3, 3), SubOptimal(5, 2)):
        for noise in (0.0, 0.01):
            noisy = qcool.methods.noisy_final_probability(
                config, 0.07, NoiseModel(noise, "per-layer")
            )
            assert 0.0 < noisy < 0.5


ROW_CONFIGS = (
    {"method": "dynamic", "n_qubits": 4},
    {"method": "suboptimal", "cluster_size": 3, "rounds": 2},
    {"method": "hbac", "cluster_size": 3, "rounds": 20, "reset_qubits": [3]},
    {"method": "semiopen", "cluster_sizes": [3, 4, 3]},
)


def test_noise_sweep_reports_once_per_config(runner, tmp_path, monkeypatch):
    # Each config's plan is walked once: its noiseless row and its rows at
    # every nonzero level are rows of one walk, except per-layer
    # suboptimal 3x2, whose levels run the live kernel once after it.
    import qcool.methods
    import qcool.sim

    walks, live = [], []
    real_walk, real_live = qcool.methods._walk, qcool.sim._run_live
    monkeypatch.setattr(
        qcool.methods, "_walk",
        lambda rounds, p, *args: walks.append(np.size(p)) or real_walk(rounds, p, *args),
    )
    monkeypatch.setattr(
        qcool.sim, "_run_live",
        lambda program, p, levels: live.append(levels.size) or real_live(program, p, levels),
    )
    paths = [
        write_config(tmp_path, doc, f"c{i}.json") for i, doc in enumerate(ROW_CONFIGS)
    ]
    args = ["noise-sweep", "--initial-p", "0.07", "--noise-probs", "0,1e-4,1e-3,1"]
    for path in paths:
        args += ["--config", path]
    for placement, want_walks, want_live in (
        ("per-gate", [4, 4, 4, 4], []),
        ("per-layer", [4, 1, 4, 4], [3]),
    ):
        qcool.methods._groups.cache_clear()
        qcool.methods._layer_program.cache_clear()
        walks.clear()
        live.clear()
        rows = json.loads(run_ok(runner, args + ["--placement", placement]))
        assert len(rows) == 4 * len(ROW_CONFIGS)
        assert (walks, live) == (want_walks, want_live), placement


def test_per_layer_noise_sweep_without_a_nonzero_level_builds_no_circuit(
    runner, tmp_path, monkeypatch
):
    # Every row of a noise sweep at level 0 alone is the noiseless walk's,
    # so per-layer placement writes the per-gate text and schedules
    # nothing, on configs whose noisy rows would run live.
    import qcool.methods
    import qcool.sim

    programs = []
    real = qcool.sim._live_program
    monkeypatch.setattr(
        qcool.sim, "_live_program", lambda *a: programs.append(1) or real(*a)
    )
    paths = [
        write_config(tmp_path, doc, f"c{i}.json") for i, doc in enumerate(ROW_CONFIGS)
    ]
    paths.append(write_config(tmp_path, {**SUBOPT, "rounds": 3}, "s33.json"))
    for levels in ("0", "0,0"):
        args = ["noise-sweep", "--initial-p", "0.07", "--noise-probs", levels]
        for path in paths:
            args += ["--config", path]
        qcool.methods._layer_program.cache_clear()
        per_gate = run_ok(runner, args + ["--placement", "per-gate"])
        assert run_ok(runner, args + ["--placement", "per-layer"]) == per_gate
    assert programs == []
    # A nonzero level still runs the circuit live, once per config.
    run_ok(runner, ["noise-sweep", "--config", paths[-1], "--initial-p", "0.07",
                    "--noise-probs", "0,0.01", "--placement", "per-layer"])
    assert programs == [1]


@pytest.mark.parametrize("placement", ["per-gate", "per-layer"])
def test_noise_sweep_noiseless_rows_are_the_analyze_rows(runner, tmp_path, placement):
    # The noise-0 row is a row of the noisy levels' walk, yet it is the
    # analyze row bit for bit.
    for doc in ROW_CONFIGS:
        cfg = write_config(tmp_path, doc)
        want = json.loads(run_ok(runner, [
            "analyze", "--config", cfg, "--initial-p", "0.07", "--freq-ghz", "5",
        ]))[0]
        rows = json.loads(run_ok(runner, [
            "noise-sweep", "--config", cfg, "--initial-p", "0.07", "--freq-ghz", "5",
            "--noise-probs", "1e-3,0,1", "--placement", placement,
        ]))
        assert rows[1] == {**want, "noise_p": 0.0}, doc


@pytest.mark.parametrize("placement", ["per-gate", "per-layer"])
def test_noise_one_rows_reach_one_half_and_hot_starts_still_fail(
    runner, tmp_path, placement
):
    # Noise 1 leaves every round's target at 1/2, which the next round
    # starts from; only a noiseless row must start each round cold.
    for doc in (
        {"method": "hbac", "cluster_size": 3, "rounds": 200},
        {"method": "dynamic", "n_qubits": 8},
        {"method": "semiopen", "cluster_sizes": [3, 3, 3]},
    ):
        cfg = write_config(tmp_path, doc)
        for levels in ("1", "0,1e-2,1", "1,1,0"):
            rows = json.loads(run_ok(runner, [
                "noise-sweep", "--config", cfg, "--initial-p", "0.1",
                "--noise-probs", levels, "--placement", placement,
            ]))
            for row in rows:
                if row["noise_p"] == 1.0:
                    assert abs(row["final_p"] - 0.5) <= 4 * 2.0**-52, (doc, levels)
    semi = {"method": "semiopen", "cluster_sizes": [3, 3], **HEAT}
    for doc, label in (
        ({**SUBOPT, **HEAT}, "suboptimal-n3-r2-custom"),
        (semi, "semiopen-3+3-custom"),
    ):
        cfg = write_config(tmp_path, doc)
        for levels in ("0,1e-2,1", "1e-2,1"):
            result = runner.invoke(cli, [
                "noise-sweep", "--config", cfg, "--initial-p", "0.1",
                "--noise-probs", levels, "--placement", placement,
            ])
            assert result.exit_code == 2, (doc, levels)
            assert f"{label}: round 2 would start from a hot target" in result.stderr
            assert "excitation 0.748" in result.stderr, (doc, levels)


def test_rows_convert_each_temperature_once(runner, tmp_path, monkeypatch):
    # A point's initial temperature is converted once for all its rows,
    # and each row's final one once; a final at 1/2 (noise 1) has no
    # finite temperature and is not converted: an empty cell.
    import qcool.methods

    calls = []
    real = qcool.methods._kelvin
    monkeypatch.setattr(
        qcool.methods, "_kelvin", lambda p, gap: calls.append(p) or real(p, gap)
    )
    cfg = write_config(tmp_path, ROW_CONFIGS[2])
    rows = json.loads(run_ok(runner, [
        "sweep", "--config", cfg, "--temps-mk", "30,40,50", "--freq-ghz", "5",
    ]))
    assert calls == [x for row in rows for x in (row["initial_p"], row["final_p"])]
    calls.clear()
    rows = json.loads(run_ok(runner, [
        "noise-sweep", "--config", cfg, "--initial-p", "0.07", "--freq-ghz", "5",
        "--noise-probs", "0,1e-3,1",
    ]))
    assert calls == [0.07, rows[0]["final_p"], rows[1]["final_p"]]
    assert rows[2]["final_p"] == 0.5 and rows[2]["final_temp_mk"] is None
    assert None not in (rows[0]["final_temp_mk"], rows[1]["final_temp_mk"])


@pytest.mark.parametrize("placement", ["per-gate", "per-layer"])
@pytest.mark.parametrize("doc", ROW_CONFIGS, ids=lambda doc: doc["method"])
def test_noise_sweep_rows_equal_per_row_reports(runner, tmp_path, doc, placement):
    cfg = write_config(tmp_path, doc)
    levels = (0.0, 1e-3, 1.0)
    rows = json.loads(run_ok(runner, [
        "noise-sweep", "--config", cfg, "--initial-p", "0.07", "--freq-ghz", "5",
        "--noise-probs", ",".join(map(repr, levels)), "--placement", placement,
    ]))
    config = config_from_json(doc)
    gap = EnergyGap.from_frequency_ghz(5.0)
    for row, level in zip(rows, levels, strict=True):
        rep = report(config, initial_p=0.07, gap=gap)
        final_p = qcool.noisy_final_probability(
            config, 0.07, NoiseModel(level, placement)
        )
        want = {
            "method": rep.method,
            "total_qubits": rep.total_qubits,
            "initial_temp_mk": rep.initial_temperature.millikelvin,
            # Noise 1 leaves the target at 1/2: no finite temperature.
            "final_temp_mk": None if final_p >= 0.5 else (
                qcool.temperature_from_probability(final_p, gap).millikelvin
            ),
            "initial_p": rep.initial_excitation,
            "final_p": final_p,
            "noise_p": level,
            "work": rep.work_in_gap_units,
            "work_joules": rep.work_joules,
            "total_gates": rep.gate_counts.total,
            "resets": rep.gate_counts.resets,
        }
        assert json.dumps(row) == json.dumps(want), level


def test_sweep_rows_count_each_round_unitary_once(runner, tmp_path, monkeypatch):
    # Sixteen semi-open rows share three distinct round unitaries (the
    # first round's, and two rankings of the later rounds), so each one's
    # gates are counted once, not once per row, and no row builds the
    # transpositions that only synthesis needs.
    import qcool.protocols
    import qcool.synth
    import qcool.unitary

    monkeypatch.setattr(
        qcool.protocols, "_shared", qcool.protocols._Shared(1 << 20)
    )
    counted, listed = [], []
    walk = qcool.synth._walked_gate_count
    monkeypatch.setattr(
        qcool.synth, "_walked_gate_count", lambda perm: counted.append(1) or walk(perm)
    )
    real = qcool.unitary._walked_transpositions
    monkeypatch.setattr(
        qcool.unitary, "_walked_transpositions", lambda p: listed.append(1) or real(p)
    )
    cfg = write_config(tmp_path, {"method": "semiopen", "cluster_sizes": [5, 5, 5, 5]})
    probs = ",".join(repr(0.04 + 0.004 * i) for i in range(16))
    out = run_ok(runner, ["sweep", "--config", cfg, "--probs", probs, "--csv"])
    assert len(out.splitlines()) == 17
    assert len(counted) == 3 and listed == []


def test_generate_walks_each_permutation_once(runner, tmp_path, monkeypatch):
    # The walk that takes a unitary's transpositions also gives the count
    # that the instruction cap reads: no count-only walk runs first.
    import qcool.protocols
    import qcool.synth
    import qcool.unitary

    counted, walked = [], []
    count = qcool.synth._walked_gate_count
    monkeypatch.setattr(
        qcool.synth, "_walked_gate_count", lambda perm: counted.append(1) or count(perm)
    )
    real = qcool.unitary._walked_transpositions
    monkeypatch.setattr(
        qcool.unitary, "_walked_transpositions", lambda p: walked.append(1) or real(p)
    )
    for doc, p in (
        ({"method": "dynamic", "n_qubits": 11}, None),
        ({"method": "semiopen", "cluster_sizes": [5, 5, 5, 5]}, 0.07),
        ({"method": "hbac", "cluster_size": 3, "rounds": 200}, 0.07),
    ):
        monkeypatch.setattr(
            qcool.protocols, "_shared", qcool.protocols._Shared(1 << 20)
        )
        walked.clear()
        args = ["generate", "--config", write_config(tmp_path, doc)]
        run_ok(runner, args + ([] if p is None else ["--initial-p", repr(p)]))
        distinct = {id(rnd.unitary) for rnd in _rounds(config_from_json(doc), p)}
        assert len(walked) == len(distinct), doc
    assert counted == []


# Configs whose rows the emission tests write: a custom protocol, and
# semi-open 5+5+5+5, which takes four plans over EMIT_PROBS.
EMIT_CONFIGS = (
    {"method": "dynamic", "n_qubits": 3, "protocol": "custom",
     "cycles": [["011", "100"], [1, 6, 5]]},
    {"method": "semiopen", "cluster_sizes": [5, 5, 5, 5]},
    {"method": "hbac", "cluster_size": 3, "rounds": 20, "reset_qubits": [3]},
    {"method": "suboptimal", "cluster_size": 3, "rounds": 2},
)
EMIT_PROBS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2, 0.3, 0.4)


def _emit_cases(tmp_path):
    """(args, want) of analyze, sweep and noise-sweep calls, want built
    from CoolingReports by the dict-row writers in helpers."""
    from qcool.methods import RESULT_COLUMNS

    paths = [write_config(tmp_path, doc, f"e{i}.json") for i, doc in enumerate(EMIT_CONFIGS)]
    configs = [config_from_json(doc) for doc in EMIT_CONFIGS]
    config_args = [x for path in paths for x in ("--config", path)]
    cases = []
    for freq in (None, 5.0):
        gap = None if freq is None else EnergyGap.from_frequency_ghz(freq)
        flags = [] if freq is None else ["--freq-ghz", repr(freq)]
        for path, config in zip(paths, configs):
            for p in (0.0, 0.07):
                cases.append((
                    ["analyze", "--config", path, "--initial-p", repr(p), *flags],
                    reference_result_rows([report(config, initial_p=p, gap=gap)], gap),
                ))
        cases.append((
            ["sweep", *config_args, "--probs", ",".join(map(repr, EMIT_PROBS)), *flags],
            reference_result_rows(
                [report(c, initial_p=p, gap=gap) for c in configs for p in EMIT_PROBS], gap
            ),
        ))
        levels = (0.0, 1e-3, 1.0)
        for placement in ("per-gate", "per-layer"):
            reps = [report(c, initial_p=0.07, gap=gap) for c in configs]
            noisy = [
                [noisy_final_probability(c, 0.07, NoiseModel(q, placement)) for q in levels[1:]]
                for c in configs
            ]
            cases.append((
                ["noise-sweep", *config_args, "--initial-p", "0.07", *flags,
                 "--noise-probs", ",".join(map(repr, levels)), "--placement", placement],
                reference_result_rows(reps, gap, levels, noisy),
            ))
    gap = EnergyGap.from_frequency_ghz(5.0)
    temps = (0.0, 30.0, 55.0)
    ps = [probability_from_temperature(Temperature.from_millikelvin(t), gap) for t in temps]
    cases.append((
        ["sweep", *config_args, "--temps-mk", ",".join(map(repr, temps)), "--freq-ghz", "5"],
        reference_result_rows([report(c, initial_p=p, gap=gap) for c in configs for p in ps], gap),
    ))
    return [(args, rows, RESULT_COLUMNS) for args, rows in cases]


def test_result_rows_match_the_dict_row_writers(runner, tmp_path):
    # Rows are tuples of plain values written by one writerows or one
    # encoder pass, yet every byte is that of the dict rows built from
    # per-point reports: p = 0 reads 0.0 mK, no --freq-ghz leaves the
    # temperature cells empty, and noise 1 leaves final_p at 1/2.
    cases = _emit_cases(tmp_path)
    seen = {"zero_mk": False, "empty": False, "half": False}
    for args, rows, columns in cases:
        for as_csv in (False, True):
            got = run_ok(runner, args + (["--csv"] if as_csv else []))
            assert_same_text(got, reference_emit(rows, columns, as_csv))
        seen["zero_mk"] |= any(row["initial_temp_mk"] == 0.0 for row in rows)
        seen["empty"] |= any(row["final_temp_mk"] is None for row in rows)
        seen["half"] |= any(row["final_p"] == 0.5 for row in rows)
    assert all(seen.values()), seen


def test_sweep_rows_build_no_report(runner, tmp_path, monkeypatch):
    # A row is plain values; only report() builds the per-point view.
    import qcool.methods

    cases = _emit_cases(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a result row built a CoolingReport")

    monkeypatch.setattr(qcool.methods, "CoolingReport", refuse)
    for args, rows, columns in cases:
        for as_csv in (False, True):
            got = run_ok(runner, args + (["--csv"] if as_csv else []))
            assert_same_text(got, reference_emit(rows, columns, as_csv))
    with pytest.raises(AssertionError, match="built a CoolingReport"):
        report(config_from_json(EMIT_CONFIGS[0]), initial_p=0.1)


def test_noise_sweep_placement_changes_result(runner, tmp_path):
    # disjoint round-1 clusters pack into shared layers, so the two
    # placements apply different noise channels
    cfg = write_config(tmp_path, SUBOPT)
    base = [
        "noise-sweep",
        "--config",
        cfg,
        "--initial-p",
        "0.1",
        "--noise-probs",
        "0.05",
    ]
    per_gate = json.loads(run_ok(runner, base))[0]
    per_layer = json.loads(run_ok(runner, base + ["--placement", "per-layer"]))[0]
    assert per_gate["final_p"] != per_layer["final_p"]
    clean = sub_optimal_final_p(0.1, 3, 2)
    assert per_gate["final_p"] > clean
    assert per_layer["final_p"] > clean


def test_noise_sweep_jobs_equivalence(runner, tmp_path):
    c1 = write_config(tmp_path, DYN3, "a.json")
    c2 = write_config(tmp_path, SUBOPT, "b.json")
    args = [
        "noise-sweep",
        "--config",
        c1,
        "--config",
        c2,
        "--initial-p",
        "0.1",
        "--noise-probs",
        "0,0.001,0.01",
        "--csv",
    ]
    assert run_ok(runner, args) == run_ok(runner, args + ["--jobs", "2"])


ORACLE_CONFIGS = {
    "dyn8": {"method": "dynamic", "n_qubits": 8},
    "hbac3x20": {"method": "hbac", "cluster_size": 3, "rounds": 20},
    "hbac5x10-r23": {
        "method": "hbac", "cluster_size": 5, "rounds": 10, "reset_qubits": [2, 3],
    },
    "sub3x2": {"method": "suboptimal", "cluster_size": 3, "rounds": 2},
    "sub4x2": {"method": "suboptimal", "cluster_size": 4, "rounds": 2},
    "sub2x3": {"method": "suboptimal", "cluster_size": 2, "rounds": 3},
    "sub2x3-swap": {
        "method": "suboptimal", "cluster_size": 2, "rounds": 3,
        "protocol": "custom", "cycles": [["10", "01"]],
    },
    "semi5555": {"method": "semiopen", "cluster_sizes": [5, 5, 5, 5]},
    "semi343": {"method": "semiopen", "cluster_sizes": [3, 4, 3]},
}
ORACLE_NOISE = (0.0, 1e-12, 1e-4, 1e-2, 0.4999, 1.0)


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_noise_sweep_rows_match_stepwise_oracle(runner, tmp_path, name):
    doc = ORACLE_CONFIGS[name]
    cfg = write_config(tmp_path, doc)
    config = config_from_json(doc)
    for p in (1e-6, 0.07, 0.3):
        circuit = build_circuit(config, p)
        v0 = thermal_product_vector(p, circuit.n_qubits)
        for placement in ("per-gate", "per-layer"):
            rows = json.loads(run_ok(runner, [
                "noise-sweep", "--config", cfg, "--initial-p", repr(p),
                "--noise-probs", ",".join(map(repr, ORACLE_NOISE)),
                "--placement", placement,
            ]))
            assert [r["noise_p"] for r in rows] == list(ORACLE_NOISE)
            for row in rows:
                noise = NoiseModel(row["noise_p"], placement)
                want = marginal_mask(simulate_stepwise(circuit, v0, noise, p))
                assert row["final_p"] == pytest.approx(want, rel=1e-12, abs=0.0), (
                    p, placement, row["noise_p"]
                )


def test_sweep_rows_never_synthesize_or_simulate(runner, tmp_path, monkeypatch):
    import qcool.methods
    import qcool.sim
    import qcool.synth

    def forbidden(*args, **kwargs):
        raise AssertionError("synthesized or simulated a row")

    for module, name in (
        (qcool.synth, "synthesize_circuit"),
        (qcool.methods, "synthesize_circuit"),
        (qcool.sim, "simulate"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    paths = {
        name: write_config(tmp_path, doc, f"{name}.json")
        for name, doc in ORACLE_CONFIGS.items()
    }
    for name, cfg in paths.items():
        run_ok(runner, ["sweep", "--config", cfg, "--probs", "0.05,0.2", "--csv"])
        run_ok(runner, ["analyze", "--config", cfg, "--initial-p", "0.1"])
        noise = ["noise-sweep", "--config", cfg, "--initial-p", "0.1",
                 "--noise-probs", "0,1e-3,1"]
        run_ok(runner, noise + ["--placement", "per-gate"])
        layered = runner.invoke(cli, noise + ["--placement", "per-layer"])
        # Parallel suboptimal copies share layers; only they need the circuit.
        if ORACLE_CONFIGS[name]["method"] == "suboptimal":
            assert isinstance(layered.exception, AssertionError), name
        else:
            assert layered.exit_code == 0, layered.output


def test_noise_sweep_validation(runner, tmp_path, monkeypatch):
    no_rows(monkeypatch)
    cfg = write_config(tmp_path, DYN3)
    result = runner.invoke(
        cli,
        [
            "noise-sweep",
            "--config",
            cfg,
            "--initial-p",
            "0.1",
            "--noise-probs",
            "0.1,1.5",
        ],
    )
    assert result.exit_code == 2
    assert "noise probability must lie in [0, 1]" in result.stderr
    result = runner.invoke(
        cli, ["noise-sweep", "--config", cfg, "--noise-probs", "0.1"]
    )
    assert result.exit_code == 2


# -- generate --------------------------------------------------------------


def test_generate_from_cycles_file(runner, tmp_path):
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps({"n": 3, "cycles": [["011", "100"]]}))
    out = run_ok(runner, ["generate", "--cycles-file", str(cycles)])
    assert out.startswith("OPENQASM 3.0;")
    parsed = parse_qasm(out)
    assert parsed.n_qubits == 3
    assert count_ctrl_statements(out) == 5


def test_generate_from_config(runner, tmp_path):
    cfg = write_config(tmp_path, SUBOPT)
    out = run_ok(runner, ["generate", "--config", cfg])
    parsed = parse_qasm(out)
    assert parsed.n_qubits == 9
    assert count_ctrl_statements(out) == 20


def test_generate_hbac_has_reset_pragmas(runner, tmp_path):
    cfg = write_config(
        tmp_path, {"method": "hbac", "cluster_size": 3, "rounds": 3}
    )
    out = run_ok(runner, ["generate", "--config", cfg])
    # two reset layers between three cooling blocks, one pragma per qubit
    assert out.count("// @thermal_reset") == 2 * 2
    parse_qasm(out)


def test_generate_semiopen_needs_initial(runner, tmp_path):
    cfg = write_config(tmp_path, {"method": "semiopen", "cluster_sizes": [3, 3]})
    assert runner.invoke(cli, ["generate", "--config", cfg]).exit_code == 2
    out = run_ok(runner, ["generate", "--config", cfg, "--initial-p", "0.1"])
    assert parse_qasm(out).n_qubits == 5
    # temperature flags work too
    out2 = run_ok(
        runner,
        ["generate", "--config", cfg, "--temp-mk", "50", "--freq-ghz", "5"],
    )
    parse_qasm(out2)


def test_generate_checks_initial_p_for_every_method(runner, tmp_path):
    hbac = {"method": "hbac", "cluster_size": 3, "rounds": 2}
    for doc in (DYN3, SUBOPT, hbac):
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            cli, ["generate", "--config", cfg, "--initial-p", "0.7"]
        )
        assert result.exit_code == 2, doc
        assert "excitation probability 0.7 outside [0, 1/2)" in result.stderr


def test_generate_simplify_flag(runner, tmp_path):
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps({"n": 2, "cycles": [[1, 2]]}))
    plain = run_ok(runner, ["generate", "--cycles-file", str(cycles)])
    slim = run_ok(
        runner, ["generate", "--cycles-file", str(cycles), "--simplify"]
    )
    assert count_ctrl_statements(slim) <= count_ctrl_statements(plain)
    parse_qasm(slim)


def test_generate_out_file(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    dest = tmp_path / "circuit.qasm"
    stdout = run_ok(runner, ["generate", "--config", cfg])
    run_ok(runner, ["generate", "--config", cfg, "--out", str(dest)])
    assert dest.read_text() == stdout


def test_generate_out_bytes_match_stdout_bytes(tmp_path):
    # In a child process, so stdout is the real stream and not a test
    # capture; the HBAC circuit carries reset pragmas.
    src = str(Path(qcool.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    hbac = {"method": "hbac", "cluster_size": 3, "rounds": 3}
    for doc in (DYN3, hbac):
        cfg = write_config(tmp_path, doc)
        dest = tmp_path / "circuit.qasm"
        args = [sys.executable, "-m", "qcool.cli", "generate", "--config", cfg]
        stdout = subprocess.run(args, env=env, capture_output=True, check=True).stdout
        subprocess.run([*args, "--out", str(dest)], env=env, check=True)
        assert dest.read_bytes() == stdout
        assert stdout.startswith(b"OPENQASM 3.0;\n") and b"\r" not in stdout


def test_generate_source_flags_exclusive(runner, tmp_path):
    cfg = write_config(tmp_path, DYN3)
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps({"n": 2, "cycles": [[1, 2]]}))
    assert runner.invoke(cli, ["generate"]).exit_code == 2
    args = ["generate", "--config", cfg, "--cycles-file", str(cycles)]
    assert runner.invoke(cli, args).exit_code == 2
    # a cycle list fixes every gate, so temperature flags would be dropped
    args = ["generate", "--cycles-file", str(cycles)]
    for extra in (
        ["--initial-p", "0.1"],
        ["--initial-p", "0.7"],
        ["--temp-mk", "50", "--freq-ghz", "5"],
        ["--freq-ghz", "5"],
        ["--temp-mk", "50"],
    ):
        result = runner.invoke(cli, args + extra)
        assert result.exit_code == 2, extra
        assert "--cycles-file takes no" in result.stderr, extra


def test_generate_cap_exits(runner, tmp_path):
    # the cycles schema caps n, so an oversized cycle file is a config
    # problem; an oversized method register hits the resource cap
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps({"n": 25, "cycles": [[0, 1]]}))
    result = runner.invoke(cli, ["generate", "--cycles-file", str(cycles)])
    assert result.exit_code == 2
    cfg = write_config(tmp_path, {"method": "dynamic", "n_qubits": 25})
    result = runner.invoke(
        cli, ["generate", "--config", cfg, "--initial-p", "0.1"]
    )
    assert result.exit_code == 3


def test_generate_refuses_oversized_circuit(runner, tmp_path, monkeypatch):
    # 10**9 HBAC rounds would tile 6 * 10**9 rows; the count is read off
    # the plan, so the refusal comes before any synthesis.
    import qcool.methods

    def forbidden(*args, **kwargs):
        raise AssertionError("synthesized a refused circuit")

    monkeypatch.setattr(qcool.methods, "synthesize_circuit", forbidden)
    cfg = write_config(
        tmp_path, {"method": "hbac", "cluster_size": 3, "rounds": 10**9}
    )
    result = runner.invoke(
        cli, ["generate", "--config", cfg, "--initial-p", "0.1"]
    )
    assert result.exit_code == 3
    assert "circuit of 5999999999 instructions exceeds the cap of 4194304" in (
        result.stderr
    )


def test_generate_refuses_an_oversized_cycles_file_before_any_row(
    runner, tmp_path, monkeypatch
):
    # 2**17 transpositions at distance 20 take 39 gates each, 5,111,808
    # in all, past the cap that --config meets: the walk that takes the
    # transpositions counts them, and no row is built.
    import qcool.synth
    import qcool.unitary

    def forbidden(*args, **kwargs):
        raise AssertionError("built the rows of a refused circuit")

    monkeypatch.setattr(qcool.synth, "_cycles_circuit", forbidden)
    walks = []
    real = qcool.unitary._walked_transpositions
    monkeypatch.setattr(
        qcool.unitary, "_walked_transpositions", lambda p: walks.append(1) or real(p)
    )
    full = (1 << 20) - 1
    path = tmp_path / "pairs20.json"
    path.write_text(json.dumps({"n": 20, "cycles": [[x, x ^ full] for x in range(1 << 17)]}))
    result = runner.invoke(cli, ["generate", "--cycles-file", str(path)])
    assert result.exit_code == 3, result.output
    assert "circuit of 5111808 instructions exceeds the cap of 4194304" in result.stderr
    assert walks == [1]


def test_analyze_prints_the_report_of_a_billion_rounds(runner, tmp_path):
    # The circuit of this plan is refused (above); its row is not, and
    # holds the library report's numbers.
    doc = {"method": "hbac", "cluster_size": 3, "rounds": 10**9}
    args = ["--initial-p", "0.1", "--freq-ghz", "5"]
    (row,) = json.loads(
        run_ok(runner, ["analyze", "--config", write_config(tmp_path, doc), *args])
    )
    gap = EnergyGap.from_frequency_ghz(5.0)
    rep = report(config_from_json(doc), initial_p=0.1, gap=gap)
    assert row == {
        "method": rep.method,
        "total_qubits": rep.total_qubits,
        "initial_temp_mk": rep.initial_temperature.millikelvin,
        "final_temp_mk": rep.final_temperature.millikelvin,
        "initial_p": rep.initial_excitation,
        "final_p": rep.final_excitation,
        "noise_p": None,
        "work": rep.work_in_gap_units,
        "work_joules": rep.work_joules,
        "total_gates": rep.gate_counts.total,
        "resets": rep.gate_counts.resets,
    }


def test_long_walk_exits_3_before_any_round(runner, tmp_path, monkeypatch):
    # Rounds that keep 11 of 12 qubits walk repeat by repeat, or past
    # some length as one map on a 2**11-state marginal; either way a
    # billion of them cost far more than the cap and are refused before
    # the first reset.
    import qcool.sim

    resets = []
    walk_reset = qcool.sim._reset
    monkeypatch.setattr(
        qcool.sim, "_reset", lambda *a: resets.append(1) or walk_reset(*a)
    )
    doc = {"method": "hbac", "cluster_size": 12, "reset_qubits": [2]}
    ok = write_config(tmp_path, {**doc, "rounds": 20}, "ok.json")
    run_ok(runner, ["analyze", "--config", ok, "--initial-p", "0.1"])
    assert len(resets) == 19
    resets.clear()
    for rounds in (10**6, 10**9):
        cfg = write_config(tmp_path, {**doc, "rounds": rounds}, f"{rounds}.json")
        for command in (
            ["analyze", "--config", cfg, "--initial-p", "0.1"],
            ["sweep", "--config", cfg, "--probs", "0.1"],
            ["noise-sweep", "--config", cfg, "--initial-p", "0.1",
             "--noise-probs", "0.01"],
        ):
            result = runner.invoke(cli, command)
            assert result.exit_code == 3, command
            assert "exceeds the cap of 1073741824" in result.stderr
    assert not resets


# -- bench -----------------------------------------------------------------


def test_bench_columns_and_sizes(runner):
    out = run_ok(runner, ["bench", "--min-n", "4", "--max-n", "8", "--step", "2"])
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [4, 6, 8]
    for row in rows:
        n = row["n"]
        assert row["dense_bytes"] == 4 * 4**n
        assert row["sparse_bytes"] == 24 * 2**n + 4
        assert row["compose_seconds"] > 0.0


def test_bench_compact_matches_published_footprints(runner):
    out = run_ok(
        runner,
        ["bench", "--min-n", "8", "--max-n", "14", "--step", "2", "--compact"],
    )
    rows = {r["n"]: r["sparse_bytes"] for r in json.loads(out)}
    assert rows == {8: 3076, 10: 12292, 12: 49156, 14: 196612}


def test_bench_csv_and_validation(runner):
    out = run_ok(runner, ["bench", "--min-n", "4", "--max-n", "4", "--csv"])
    reader = csv.DictReader(io.StringIO(out))
    row = next(iter(reader))
    assert set(row) == {"n", "sparse_bytes", "dense_bytes", "compose_seconds"}
    assert runner.invoke(cli, ["bench", "--min-n", "0"]).exit_code == 2
    assert (
        runner.invoke(cli, ["bench", "--min-n", "6", "--max-n", "4"]).exit_code
        == 2
    )


def test_bench_refuses_a_range_past_the_cap_before_its_first_row(
    runner, monkeypatch
):
    # The last n of the range is the widest; no row is built before the
    # refusal, so building one fails the test.
    import qcool.unitary

    def build(*args, **kwargs):
        raise AssertionError("bench built a row before checking the cap")

    monkeypatch.setattr(qcool.unitary, "random_permutation_unitary", build)
    for args, n in ((["--min-n", "4", "--max-n", "25", "--step", "7"], 25),
                    (["--min-n", "24", "--max-n", "26", "--step", "2"], 26)):
        result = runner.invoke(cli, ["bench", *args])
        assert result.exit_code == 3, result.output
        assert f"{n} qubits exceeds the cap of 24" in result.stderr
    # A range whose last row fits runs, although max-n is past the cap.
    monkeypatch.undo()
    out = run_ok(runner, ["bench", "--min-n", "4", "--max-n", "27", "--step", "12"])
    assert [r["n"] for r in json.loads(out)] == [4, 16]


def test_version_flag(runner):
    out = run_ok(runner, ["--version"])
    assert "qcool" in out
    assert qcool.__version__ in out


# SHA-256 of `qcool generate` for dynamic n = 16 (minimal-work, 719,573
# gates, 194,882,834 bytes of QASM), recorded from the implementation that
# held one McNot object per gate; it took about 29 s and 1.9 GiB of RSS on
# a 2-vCPU Xeon, and about 3.7 s and 92 MiB with circuits held as rows.
DYN16_SHA256 = "88061e3a24bdc7fe5dd5b464c9e0c660dd79be131fdf04909776c01c827f3429"


def test_generate_dynamic_16_within_budget(tmp_path):
    config = write_config(tmp_path, {"method": "dynamic", "n_qubits": 16})
    out = tmp_path / "dyn16.qasm"
    src = str(Path(qcool.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    args = ["generate", "--config", config, "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qcool.cli", *args], env=env)
    # wait4 gives this child's own peak RSS, whatever ran before it.
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    digest = hashlib.sha256()
    with open(out, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    out.unlink()
    assert digest.hexdigest() == DYN16_SHA256
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    peak_mib = usage.ru_maxrss / (1 << (20 if sys.platform == "darwin" else 10))
    assert elapsed < 10.0, f"{elapsed:.1f} s over 10 s"
    assert peak_mib < 256, f"peak RSS {peak_mib:.0f} MiB over 256 MiB"


# -- malformed documents ----------------------------------------------------

HBAC_RESETS = {"method": "hbac", "cluster_size": 4, "rounds": 5, "reset_qubits": [2, 4]}
SEMI_CUSTOM = {
    "method": "semiopen", "cluster_sizes": [3, 2],
    "protocol": "custom", "cycles": [[3, 4]],
}
CONFIG_BASES = [DYN3, SUBOPT, HBAC_RESETS, SEMI_CUSTOM, *ORACLE_CONFIGS.values()]
CONFIG_FIELDS = (
    "method", "protocol", "cycles", "n_qubits", "cluster_size", "rounds",
    "reset_qubits", "cluster_sizes", "extra",
)
CYCLE_BASES = [
    {"n": 3, "cycles": [["011", "100"], [0, 1]]},
    {"n": 4, "cycles": [[3, 7, 12, 8]]},
    {"n": 2, "cycles": []},
]
CYCLE_FIELDS = ("n", "cycles", "extra")
SMALL_INTS = st.integers(-2, 6)
ANY_INTS = st.one_of(SMALL_INTS, st.integers(), st.integers(20, 30))


def _labels(ints):
    return st.one_of(
        ints, ints.map(float), st.floats(), st.booleans(), st.none(),
        st.sampled_from(["", "0", "1", "01", "10", "011", "100", "012", "10\n"]),
    )


def _values(ints):
    scalars = st.one_of(
        _labels(ints),
        st.sampled_from(sorted(_METHODS) + ["ppa", "mirror", "minimal-work", "custom"]),
    )
    return st.one_of(
        scalars,
        st.lists(scalars, max_size=3),
        st.lists(st.lists(_labels(ints), max_size=4), max_size=3),
        st.dictionaries(st.sampled_from(["n", "cycles"]), scalars, max_size=2),
    )


@st.composite
def mutated(draw, bases, fields, ints):
    """A base document with fields dropped, added or retyped, as JSON."""
    doc = dict(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_values(ints))
    return json.loads(json.dumps(doc))


def _names_a_field(message, doc, fields):
    return any(str(name) in message for name in (*fields, *doc))


@settings(max_examples=400, deadline=None)
@given(doc=mutated(CONFIG_BASES, CONFIG_FIELDS, ANY_INTS))
@pytest.mark.filterwarnings("ignore:resetting the target")
def test_config_loader_raises_only_config_error(doc):
    try:
        config_from_json(doc)
    except ConfigError as exc:
        assert str(exc).startswith("invalid config: ")
        assert _names_a_field(str(exc), doc, CONFIG_FIELDS), exc
    except ResourceLimitError:
        # hbac's default resets list every auxiliary of a cluster past
        # the cap; that size cap exits 3.
        assert doc["method"] == "hbac" and doc["cluster_size"] > 24


@settings(max_examples=300, deadline=None)
@given(doc=mutated(CYCLE_BASES, CYCLE_FIELDS, ANY_INTS))
def test_cycle_loader_raises_only_config_error(doc):
    try:
        load_cycles_json(doc)
    except ConfigError as exc:
        assert str(exc).startswith("invalid cycle list: ")
        assert _names_a_field(str(exc), doc, CYCLE_FIELDS), exc


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=mutated(CONFIG_BASES, CONFIG_FIELDS, SMALL_INTS),
    cycles=mutated(CYCLE_BASES, CYCLE_FIELDS, SMALL_INTS),
)
@pytest.mark.filterwarnings("ignore:resetting the target")
def test_malformed_documents_never_exit_1(runner, tmp_path, config, cycles):
    # 0 on success, 2 for a rejected document, 3 for a size cap
    # (suboptimal 6x6 is 46,656 qubits); never a traceback.
    for args in (
        ["analyze", "--initial-p", "0.1", "--config", write_config(tmp_path, config)],
        ["generate", "--cycles-file", write_config(tmp_path, cycles, "cycles.json")],
    ):
        result = runner.invoke(cli, args)
        assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)


@pytest.mark.parametrize(
    "doc, same",
    [
        ({"method": "dynamic", "n_qubits": 3.0}, DYN3),
        ({**SUBOPT, "rounds": 2.0}, SUBOPT),
        ({**SUBOPT, "cluster_size": 3.0}, SUBOPT),
        ({**HBAC_RESETS, "rounds": 5.0, "reset_qubits": [2.0, 4]}, HBAC_RESETS),
        ({**SEMI_CUSTOM, "cluster_sizes": [3.0, 2], "cycles": [[3.0, 4]]}, SEMI_CUSTOM),
    ],
)
def test_integral_floats_run_as_integers(runner, tmp_path, doc, same):
    assert config_from_json(doc) == config_from_json(same)
    args = ["analyze", "--initial-p", "0.1", "--config"]
    got = run_ok(runner, args + [write_config(tmp_path, doc)])
    assert got == run_ok(runner, args + [write_config(tmp_path, same, "same.json")])


def test_integral_float_label_generates(runner, tmp_path):
    floats = write_config(tmp_path, {"n": 3, "cycles": [[0, 1.0]]}, "floats.json")
    ints = write_config(tmp_path, {"n": 3, "cycles": [[0, 1]]}, "ints.json")
    got = run_ok(runner, ["generate", "--cycles-file", floats])
    assert got == run_ok(runner, ["generate", "--cycles-file", ints])


@pytest.mark.parametrize(
    "command, doc, name",
    [
        ("analyze", {"method": ["dynamic"], "n_qubits": 3}, "'method'"),
        ("analyze", {**DYN3, "protocol": "custom", "cycles": [5]}, "'cycles'"),
        ("analyze", {**DYN3, "protocol": "custom", "cycles": [[0, True]]}, "True"),
        ("analyze", {**DYN3, "n_qubits": True}, "'n_qubits'"),
        ("generate", {"n": 3, "cycles": [5]}, "'cycles'"),
        ("generate", {"n": 3, "cycles": [[0, True]]}, "True"),
        ("generate", {"n": 3, "cycles": [[0, 1.5]]}, "1.5"),
    ],
)
def test_malformed_documents_exit_2(runner, tmp_path, command, doc, name):
    path = write_config(tmp_path, doc)
    if command == "analyze":
        args = ["analyze", "--initial-p", "0.1", "--config", path]
    else:
        args = ["generate", "--cycles-file", path]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: invalid ") and name in result.stderr


def test_unreadable_documents_exit_2(runner, tmp_path):
    # Nesting too deep for the JSON parser, and bytes that are not text.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (deep, binary):
        for args in (
            ["analyze", "--initial-p", "0.1", "--config", str(path)],
            ["generate", "--cycles-file", str(path)],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 2, (args, result.exception)
            assert result.stderr.startswith("error: cannot read ")


def test_json_rows_are_json_dumps_indent_2(tmp_path):
    # Every value of the output is C-encoded in one pass and laid out
    # by a template; each value and key still takes json's own form,
    # byte for byte, a % or a newline included.
    from qcool.cli import _emit

    row = {
        "none": None, "negative_zero": -0.0, "subnormal": 5e-324,
        "nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
        "flag": True, "big": 10**30, "zero": 0,
        "label": 'a "quoted", comma\\separated label: café ∂   \U0001f9ca',
        '100% "key"\n': "%s %(key)s\n",
    }
    out = tmp_path / "rows.json"
    for rows in ([], [row], [row, {**row, "flag": False, "none": 1.5}], [{"only": 1}] * 3):
        columns = list(rows[0]) if rows else []
        _emit([tuple(r.values()) for r in rows], columns, False, str(out))
        assert out.read_text() == json.dumps(rows, indent=2) + "\n", rows
