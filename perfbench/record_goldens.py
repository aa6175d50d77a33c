"""Record goldens.json.gz: every output item of every input set.

    python3 perfbench/record_goldens.py

Run it on the commit whose outputs are the reference (the outputs it
writes are what every later run must reproduce).  QASM is kept as its
SHA-256, rows as lists in checks.COLUMNS order.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import GOLDENS, qasm_digest, read_output
from run import ROOT, WORK_DIR, run_pass
from workloads import COMPOSITE, CONFIGS, POOL, WORKLOADS, draw_inputs, first_config, plan


def record_set(set_index: int, work) -> dict:
    inputs = draw_inputs(set_index)
    out = {}
    for workload in (w for w in WORKLOADS if w not in COMPOSITE):
        config = work / "first-config.json"
        config.write_text(json.dumps(CONFIGS[first_config(workload)]))
        invocations = plan(workload, inputs, work)
        report = run_pass(work, [inv.args for inv in invocations], config)
        if report is None or any(c["exit"] for c in report["calls"]):
            raise SystemExit(f"set {set_index} {workload}: a pass failed")
        for inv in invocations:
            outputs = read_output(inv)
            if inv.fmt == "qasm":
                outputs = [qasm_digest(t) for t in outputs]
            out.update((item.id, value) for item, value in zip(inv.items, outputs))
    return out


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="goldens-", dir=WORK_DIR))
    try:
        sets = {}
        for s in range(POOL):
            sets[str(s)] = record_set(s, work)
            print(f"set {s}: {len(sets[str(s)])} items", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDENS, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps({"pool": POOL, "sets": sets}, sort_keys=True).encode())


if __name__ == "__main__":
    main()
