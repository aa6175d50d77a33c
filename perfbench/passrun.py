"""Run one benchmark pass: qcool CLI invocations inside this process.

Usage: python3 perfbench/passrun.py SPEC.json

SPEC is {"invocations": [[arg, ...], ...], "first_config": PATH,
"trace": BOOL, "spans_out": PATH or null}.  The process imports
qcool.cli and validates the first config (this is the set-up the
benchmark times, from the start of this script), then runs the invocations one after another and
prints one JSON line: pass wall and CPU time (pool workers included),
peak RSS, and per-invocation wall and CPU time and exit code.  With
trace off, a speed sampler (speed.py) runs alongside; every time is
given without the sampler's own time, and each invocation also in
reference seconds.  With trace on, every layer call is recorded as a
span and the line also carries the per-layer summary; the spans
themselves go to spans_out.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Sampler, speed_factor

# Set-up starts here: the speed sampler runs from before the imports.
SETUP_START = time.perf_counter()
SAMPLER = Sampler()
SAMPLER.start()
SAMPLER.mark()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import click  # noqa: E402

import qcool.cli  # noqa: E402
from qcool import methods  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _invoke(args: list[str]) -> dict:
    start = time.perf_counter()
    code, error = 0, None
    try:
        qcool.cli.cli.main(args=args, prog_name="qcool", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code, error = exc.exit_code, exc.format_message()
    except Exception:
        code, error = 1, traceback.format_exc(limit=5)
    return {"wall_s": time.perf_counter() - start, "exit": code, "error": error}


def _sampled(sampler: Sampler, invoke, args: list[str]) -> dict:
    """invoke(args) between two speed samples; its times without the
    samples taken during it, and in reference seconds."""
    lo = len(sampler.samples)
    sampler.mark()
    cpu0 = _cpu_s()
    call = invoke(args)
    cpu = _cpu_s() - cpu0
    sampler.mark()
    samples = sampler.samples[lo:]
    own = sum(samples[1:-1])
    speed = speed_factor(samples)
    call["wall_s"] -= own
    call["cpu_s"] = cpu - own
    call["ref_s"] = call["wall_s"] * speed
    call["ref_cpu_s"] = call["cpu_s"] * speed
    return call


def _setup(spec: dict) -> dict:
    """Validate the first config, ending set-up; its time without the
    sampler's, and in reference seconds."""
    methods.config_from_json(json.loads(Path(spec["first_config"]).read_text()))
    SAMPLER.mark()
    wall = time.perf_counter() - SETUP_START - sum(SAMPLER.samples[1:-1])
    setup = {"setup_s": wall, "setup_ref_s": wall * speed_factor(SAMPLER.samples)}
    SAMPLER.samples.clear()
    return setup


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    setup = _setup(spec)
    invocations = spec["invocations"]
    if not invocations:
        SAMPLER.stop()
        print(json.dumps(setup))
        return
    recorder, invoke, sampler = None, _invoke, SAMPLER
    if spec["trace"]:
        from spans import ROOT_SPAN, Recorder

        sampler.stop()
        sampler = None
        recorder = Recorder()
        recorder.install()
        # The root span's self time is the invocation's unattributed time.
        invoke = recorder.wrap(ROOT_SPAN, _invoke)
    else:
        invoke = functools.partial(_sampled, sampler, invoke)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    calls = []
    for i, args in enumerate(invocations):
        if recorder is not None:
            recorder.item = i
        calls.append(invoke(args))
    if sampler is not None:
        sampler.stop()
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kib": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
        "calls": calls,
        **setup,
    }
    if sampler is not None:
        own = sum(sampler.samples)
        report["wall_s"] -= own
        report["cpu_s"] -= own
        report["ref_wall_s"] = sum(c["ref_s"] for c in calls)
        report["ref_cpu_s"] = sum(c["ref_cpu_s"] for c in calls)
    if recorder is not None:
        report["trace"] = recorder.summary()
        if spec.get("spans_out"):
            Path(spec["spans_out"]).write_text(json.dumps(recorder.spans))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
