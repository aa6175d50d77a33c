"""Check that the benchmark is steady, and record a trajectory point.

    python3 perfbench/steadiness.py [--runs 10] [--workload W ...] [--record FILE]

Runs run.py --trace 0 once per seed (0, 1, ...) on each workload, with
BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median; and the
same for the run's medians in wall seconds, for comparison.  A
spread above the metric's bound fails; one above a third of it is
flagged.  One --trace 1 run per workload follows.  --record writes the
runs, medians, per-layer metrics and environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    # The same medians in wall seconds, from the run's result file.
    out = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["wall_seconds"] = json.loads(out.read_text()).get("wall_seconds", {})
    return json.loads(env_line)["env"], result


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in range(args.runs):
            env, result = run_once(workload, seed)
            runs.append({"seed": seed, "env": env, **result})
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        ok &= all(r["correct"] for r in runs)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, share = spread(values)
            flag = "FAIL" if share > bound and name != "setup_s" else (
                "high" if share > bound / 3 else "ok")
            ok &= flag != "FAIL"
            wall_med, wall_share = spread([r["wall_seconds"][name] for r in runs])
            print(f"{workload:12s} {name:16s} median {med:10.4f}  spread {share:.3f}"
                  f"  bound {bound}  {flag}   (wall seconds: median {wall_med:.4f}"
                  f"  spread {wall_share:.3f})")
            summary[name] = {"median": med, "spread": share,
                             "wall_seconds": {"median": wall_med, "spread": wall_share}}
        _, traced = run_once(workload, 0, trace=1)
        ok &= traced["correct"]
        record["workloads"][workload] = {
            "summary": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": runs,
        }
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
