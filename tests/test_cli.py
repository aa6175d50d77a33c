import csv
import hashlib
import importlib.resources
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    count_ctrl_statements,
    marginal_mask,
    parse_qasm,
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
    probability_from_temperature,
    report,
    sub_optimal_final_p,
    thermal_product_vector,
    total_work_cost,
)
from qcool.cli import cli
from qcool.methods import _METHODS

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
    # per-layer rows simulate the whole 2**27 vector
    result = runner.invoke(cli, noise + ["--placement", "per-layer"])
    assert result.exit_code == 3
    assert "27 qubits exceeds the cap of 24" in result.stderr
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
