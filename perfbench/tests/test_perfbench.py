"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The emitted-metrics tests run the real benchmark for about two minutes.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_names_match_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _one_pass(workload: str, work: Path):
    inputs = workloads.draw_inputs(5)
    config = work / "first.json"
    config.write_text(json.dumps(workloads.CONFIGS[workloads.first_config(workload)]))
    invocations = workloads.plan(workload, inputs, work)
    report = run.run_pass(work, [inv.args for inv in invocations], config)
    goldens = checks.load_goldens()["sets"][str(inputs.set_index)]
    return invocations, report["calls"], goldens, checks.cycles_gates(inputs.cycles)


def test_corrupted_golden_raises_failed_frac():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for workload in ("generate", "noise-sweep"):
            invocations, calls, goldens, cycles = _one_pass(workload, work)
            attempted, failed, _ = checks.check_pass(invocations, calls, goldens, cycles)
            assert attempted > 0 and failed == 0
            bad = copy.deepcopy(goldens)
            item = invocations[-1].items[-1].id
            if workload == "generate":
                bad[item] = bad[item][::-1]
            else:
                bad[item][checks.COLUMNS.index("final_p")] *= 1 + 1e-9
            attempted, failed, reasons = checks.check_pass(invocations, calls, bad, cycles)
            assert failed / attempted > 0
            assert reasons and reasons[0].startswith(item)


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_jobs_never_exceed_nproc(monkeypatch, cpus):
    monkeypatch.setattr(workloads, "nproc", lambda: cpus)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.draw_inputs(0)
        for workload in workloads.WORKLOADS:
            jobs = workloads.pool_size(workloads.plan(workload, inputs, Path(tmp)))
            assert 1 <= jobs <= cpus


def test_gate_oracle_matches_synthesis():
    from qcool import gate_counts, synthesize_circuit
    from qcool.protocols import protocol_unitary

    for proto in ("ppa", "mirror", "minimal-work"):
        u = protocol_unitary(proto, 6)
        assert checks.permutation_gates(u.permutation) == gate_counts(
            synthesize_circuit(u)
        ).total


def test_binomial_tail_matches_enumeration():
    p, n = 0.1, 4
    probs = sorted(
        p ** bin(s).count("1") * (1 - p) ** (n - bin(s).count("1"))
        for s in range(1 << n)
    )
    assert checks.binomial_tail(p, n) == pytest.approx(sum(probs[: 1 << (n - 1)]), rel=1e-14)


def test_seeded_inputs_are_reproducible_and_keep_the_work_fixed():
    a, b = workloads.draw_inputs(3), workloads.draw_inputs(3)
    assert a == b
    totals = {checks.cycles_gates(workloads.draw_inputs(s).cycles) for s in range(8)}
    assert len(totals) == 1


def test_reference_seconds_divide_out_only_the_host_speed():
    assert speed.speed_factor([speed.REF_LOOP_S] * 3) == pytest.approx(1)
    # Speeds are averaged: a host at half speed half the time runs at 3/4.
    assert speed.speed_factor([speed.REF_LOOP_S, 2 * speed.REF_LOOP_S]) == pytest.approx(0.75)


def test_sampler_samples_during_a_call():
    sampler = speed.Sampler()
    sampler.start()
    try:
        sampler.mark()
        end = time.perf_counter() + 4 * speed.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(t > 0 for t in sampler.samples)
