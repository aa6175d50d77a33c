"""qcool benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of workload W runs the real
qcool CLI in process (see workloads.py) in a fresh interpreter, one
invocation at a time, on inputs drawn from the seed.  Passes repeat for
S seconds; every output item is checked (see checks.py) and metrics are
medians over passes, times in reference seconds (see speed.py).  The
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 reports per-layer
metrics: each round runs the untraced pass, an untraced serial pass when
the workload uses a pool, and a traced serial replay whose layer calls
are timed from outside (spans.py).  The line before the result holds the
environment; both also go to .perfbench_out/, with the spans.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_pass, cycles_gates, load_goldens  # noqa: E402
from spans import ROOT_SPAN  # noqa: E402
from workloads import (  # noqa: E402
    CONFIGS, WORKLOADS, draw_inputs, first_config, nproc, plan, pool_size,
)

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PASS_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_call_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Self time of the span named after the metric, without the "_s".
LAYER_TIMES = (
    "synth.synthesize_s",
    "unitary.cycles_s",
    "protocols.build_s",
    "circuits.embed_s",
    "circuits.counts_s",
    "circuits.simplify_s",
    "qasm.export_s",
    "sim.simulate_s",
    "methods.final_p_s",
    "methods.work_s",
    "unitary.apply_s",
    "methods.build_circuit_s",
    "cli.config_load_s",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "synth.gates": "count",
    "synth.gates_per_s": "1/s",
    "synth.distinct_frac": "ratio",
    "protocols.states": "count",
    "qasm.bytes": "B",
    "sim.gate_apps": "count",
    "sim.gate_apps_per_s": "1/s",
    "sim.bytes_computed": "B",
    "sim.vector_bytes_max": "B",
    "cli.config_loads": "count",
    "cli.pool_efficiency": "ratio",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "commit": commit,
    }


def run_pass(work: Path, invocations: list[list[str]], config: Path, *, trace=False, spans_out=None):
    """Run one pass in a fresh interpreter; its report, or None if it failed."""
    spec = work / "spec.json"
    spec.write_text(json.dumps({
        "invocations": invocations,
        "first_config": str(config),
        "trace": trace,
        "spans_out": None if spans_out is None else str(spans_out),
    }))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), str(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    if proc.returncode != 0 or not out.strip():
        return None
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(work: Path, config: Path) -> tuple[float, float]:
    """Median time for a fresh interpreter to import qcool.cli and validate
    config, in reference seconds and in wall seconds."""
    probes = [run_pass(work, [], config) for _ in range(SETUP_PROBES)]
    if None in probes:
        raise RuntimeError("set-up probe failed")
    return (
        statistics.median(p["setup_ref_s"] for p in probes),
        statistics.median(p["setup_s"] for p in probes),
    )


PASS_KEYS = ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s", "maxrss_kib")


class Run:
    """Passes of one workload with their checks."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.inputs = draw_inputs(seed)
        self.goldens = load_goldens()["sets"][str(self.inputs.set_index)]
        self.cycles_total = cycles_gates(self.inputs.cycles)
        self.config = work / "first-config.json"
        self.config.write_text(json.dumps(CONFIGS[first_config(workload)]))
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.passes: list[dict] = []  # per-pass timings, kept in the result file

    def pass_(self, *, jobs=None, trace=False, spans_out=None):
        invocations = plan(self.workload, self.inputs, self.work, jobs)
        for inv in invocations:  # never check a stale output
            inv.out.unlink(missing_ok=True)
        report = run_pass(
            self.work, [inv.args for inv in invocations], self.config,
            trace=trace, spans_out=spans_out,
        )
        attempted, failed, reasons = check_pass(
            invocations, None if report is None else report["calls"],
            self.goldens, self.cycles_total,
        )
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)
        if report is not None:
            self.passes.append({
                "jobs": pool_size(invocations), "trace": trace,
                **{k: report[k] for k in PASS_KEYS if k in report},
                "calls_s": [c["wall_s"] for c in report["calls"]],
                "calls_ref_s": [c["ref_s"] for c in report["calls"] if "ref_s" in c],
            })
        return report


def _repeat(seconds: float, body) -> list:
    """Call body until another call, as long as the longest so far, would
    end past the deadline.  Calls it at least once."""
    deadline = time.monotonic() + seconds
    out = []
    longest = 0.0
    while True:
        start = time.monotonic()
        out.append(body())
        longest = max(longest, time.monotonic() - start)
        if time.monotonic() + longest > deadline:
            return out


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Medians over the run's passes, in reference seconds; and the same
    medians in wall seconds."""
    setup, setup_wall = setup_seconds(run.work, run.config)
    reports = [r for r in _repeat(seconds, run.pass_) if r is not None]
    if not reports:
        raise RuntimeError("every pass failed")
    med = lambda f: statistics.median(f(r) for r in reports)  # noqa: E731
    rss = med(lambda r: r["maxrss_kib"] / 1024)
    metrics = {
        "wall_s": med(lambda r: r["ref_wall_s"]),
        "cpu_s": med(lambda r: r["ref_cpu_s"]),
        "slowest_call_s": med(lambda r: max(c["ref_s"] for c in r["calls"])),
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    wall = {
        "wall_s": med(lambda r: r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "slowest_call_s": med(lambda r: max(c["wall_s"] for c in r["calls"])),
        "peak_rss_mb": rss,
        "setup_s": setup_wall,
    }
    return metrics, wall


def _pool_efficiency(untraced: dict, traced: dict, pooled: list[bool], jobs: int) -> float:
    """Busy time of the serial replay over jobs x untraced wall, counting
    only the invocations that use the pool (all of them if none does)."""
    use = pooled if any(pooled) else [True] * len(pooled)
    busy = sum(b for b, u in zip(traced["trace"]["busy_s"], use) if u)
    wall = sum(c["wall_s"] for c, u in zip(untraced["calls"], use) if u)
    return busy / (jobs * wall)


def _layer_metrics(untraced: dict, serial: dict, traced: dict, pooled: list[bool], jobs: int) -> dict:
    t = traced["trace"]
    self_s, counts = t["self_s"], t["counts"]
    attributed = sum(v for k, v in self_s.items() if k != ROOT_SPAN)
    unattributed = traced["wall_s"] - attributed
    out = {name: self_s.get(name[:-2], 0.0) for name in LAYER_TIMES}
    synth_s, sim_s = out["synth.synthesize_s"], out["sim.simulate_s"]
    calls = counts.get("synth.calls", 0)
    out.update({
        "synth.gates": counts.get("synth.gates", 0),
        "synth.gates_per_s": counts.get("synth.gates", 0) / synth_s if synth_s else 0.0,
        "synth.distinct_frac": t["distinct_unitaries"] / calls if calls else 0.0,
        "protocols.states": counts.get("protocols.states", 0),
        "qasm.bytes": counts.get("qasm.bytes", 0),
        "sim.gate_apps": counts.get("sim.gate_apps", 0),
        "sim.gate_apps_per_s": counts.get("sim.gate_apps", 0) / sim_s if sim_s else 0.0,
        "sim.bytes_computed": counts.get("sim.bytes_computed", 0),
        "sim.vector_bytes_max": t["vector_bytes_max"],
        "cli.config_loads": counts.get("cli.config_loads", 0),
        "cli.pool_efficiency": _pool_efficiency(untraced, traced, pooled, jobs),
        "cli.unattributed_s": unattributed,
        "trace.overhead_s": traced["wall_s"] - serial["wall_s"],
    })
    return out


def per_layer(run: Run, seconds: float, spans_out: Path) -> tuple[dict, dict]:
    invocations = plan(run.workload, run.inputs, run.work)
    jobs = pool_size(invocations)
    pooled = [pool_size([inv]) > 1 for inv in invocations]

    def round_():
        untraced = run.pass_()
        serial = run.pass_(jobs=1) if jobs > 1 else untraced
        traced = run.pass_(jobs=1, trace=True, spans_out=spans_out)
        if None in (untraced, serial, traced):
            return None
        return _layer_metrics(untraced, serial, traced, pooled, jobs), traced["trace"]

    rounds = [r for r in _repeat(seconds, round_) if r is not None]
    if not rounds:
        raise RuntimeError("every traced round failed")
    # median_low keeps counts integral; they are equal in every round.
    metrics = {
        name: statistics.median_low(m[name] for m, _ in rounds) for name in PER_LAYER
    }
    return metrics, rounds[-1][1]


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title, file=sys.stderr)
    for name, value, unit in rows:
        print(f"  {name:28s} {value:16.6g} {unit}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qcool" / "__init__.py").is_file():
        print(f"error: no qcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=WORK_DIR))
    wall = {}
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            spans_out = OUT_DIR / f"spans-{tag}.json"
            metrics, trace = per_layer(run, args.seconds, spans_out)
            units = PER_LAYER
            _print_table(
                f"{args.workload}: self time by span (last traced round)",
                sorted(((k, v, f"s in {trace['calls'][k]} calls")
                        for k, v in trace["self_s"].items()), key=lambda r: -r[1]),
            )
            for name in trace["missing"]:
                print(f"  NOT TRACED {name}: not found in qcool", file=sys.stderr)
        else:
            metrics, wall = end_to_end(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_frac = run.failed / run.attempted
    _print_table(
        f"{args.workload} seed {args.seed} trace {args.trace}",
        [(k, v, units[k]) for k, v in metrics.items()]
        + [("failed_frac", failed_frac, "ratio")],
    )
    if wall:
        _print_table("the same in wall seconds", [(k, v, units[k]) for k, v in wall.items()])
    for reason in run.reasons[:10]:
        print(f"  FAILED {reason}", file=sys.stderr)
    env = environment()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "failed_frac": failed_frac, **result, "wall_seconds": wall,
                    "passes": run.passes}, indent=1)
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
