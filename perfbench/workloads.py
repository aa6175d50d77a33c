"""Workloads: seeded inputs and the qcool CLI invocations of one pass.

A pass is the fixed list of CLI invocations of one workload.  The seed
draws only values that leave the work per item unchanged: initial
excitations and temperatures inside a band where every semi-open round
synthesizes the same circuit, and transpositions with a fixed Hamming
distance profile.  Seeds are folded onto POOL input sets so that every
output can be compared with a golden recorded from the seed commit.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("generate", "noise-sweep", "sweep", "sweeps")
# Workloads whose pass runs other workloads' invocations back to back.
COMPOSITE = {"sweeps": ("sweep", "noise-sweep")}

# Distinct input sets; goldens.json.gz holds the outputs of every one.
POOL = 16

# Bands of the seeded draws.  Within them the semi-open 5+5+5+5 rounds
# yield one circuit, so gate counts and synthesis work do not move.
P_BAND = (0.04, 0.10)
TEMP_MK_BAND = (30.0, 55.0)
FREQ_GHZ = 5.0
NOISE_PROBS = "0,1e-4,1e-3,1e-2"
CYCLES_N = 10
CYCLES_COUNT = 256

CONFIGS = {
    "dyn-mw-n8": {"method": "dynamic", "n_qubits": 8, "protocol": "minimal-work"},
    "dyn-mw-n9": {"method": "dynamic", "n_qubits": 9, "protocol": "minimal-work"},
    "dyn-mw-n10": {"method": "dynamic", "n_qubits": 10, "protocol": "minimal-work"},
    "dyn-mw-n11": {"method": "dynamic", "n_qubits": 11, "protocol": "minimal-work"},
    "dyn-ppa-n9": {"method": "dynamic", "n_qubits": 9, "protocol": "ppa"},
    "dyn-mirror-n9": {"method": "dynamic", "n_qubits": 9, "protocol": "mirror"},
    "dyn-mirror-n10": {"method": "dynamic", "n_qubits": 10, "protocol": "mirror"},
    "semiopen-5555": {"method": "semiopen", "cluster_sizes": [5, 5, 5, 5]},
    "semiopen-333": {"method": "semiopen", "cluster_sizes": [3, 3, 3]},
    "hbac-3x200": {"method": "hbac", "cluster_size": 3, "rounds": 200},
    "hbac-5x50-r23": {
        "method": "hbac",
        "cluster_size": 5,
        "rounds": 50,
        "reset_qubits": [2, 3],
    },
    "subopt-3x2": {"method": "suboptimal", "cluster_size": 3, "rounds": 2},
    "subopt-4x2": {"method": "suboptimal", "cluster_size": 4, "rounds": 2},
}

# (item key, config name or None for the cycles file, --simplify)
GENERATE_ITEMS = (
    ("dyn-mw-n8", "dyn-mw-n8", False),
    ("dyn-mw-n9", "dyn-mw-n9", False),
    ("dyn-mw-n10", "dyn-mw-n10", False),
    ("dyn-mw-n11", "dyn-mw-n11", False),
    ("dyn-ppa-n9-simplified", "dyn-ppa-n9", True),
    ("dyn-mirror-n10-simplified", "dyn-mirror-n10", True),
    ("semiopen-5555", "semiopen-5555", False),
    ("hbac-3x200", "hbac-3x200", False),
    ("cycles-n10", None, False),
)
NOISE_CONFIGS = (
    "hbac-3x200",
    "hbac-5x50-r23",
    "semiopen-5555",
    "dyn-mw-n8",
    "subopt-4x2",
)
NOISE_PLACEMENTS = ("per-gate", "per-layer")
SWEEP_CONFIGS = (
    "dyn-mw-n9",
    "dyn-mirror-n9",
    "hbac-3x200",
    "hbac-5x50-r23",
    "subopt-3x2",
    "subopt-4x2",
    "semiopen-5555",
    "semiopen-333",
)
SWEEP_POINTS = 8
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Item:
    """One output item: a circuit or a result row."""

    id: str
    config: str | None  # None for the cycles-file circuit
    initial_p: float | None = None  # semi-open circuits only; rows carry their own
    noise_p: float | None = None
    simplify: bool = False


@dataclass
class Invocation:
    args: list[str]
    out: Path
    fmt: str  # "qasm", "csv" or "json"
    items: list[Item] = field(default_factory=list)


@dataclass
class Inputs:
    """Everything the seed draws."""

    set_index: int
    generate_p: float
    noise_p: float
    sweep_temps_mk: list[float]
    sweep_probs: list[float]
    cycles: list[list[int]]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sweep_jobs() -> int:
    """Pool size for sweep: two workers, never more than the CPUs."""
    return max(1, min(SWEEP_JOBS, nproc()))


def _transpositions(rng: random.Random) -> list[list[int]]:
    # Distances cycle 1..n so the gate total, sum(2d - 1), is fixed.
    used: set[int] = set()
    out = []
    for i in range(CYCLES_COUNT):
        d = 1 + i % CYCLES_N
        while True:
            a = rng.randrange(1 << CYCLES_N)
            mask = sum(1 << b for b in rng.sample(range(CYCLES_N), d))
            b = a ^ mask
            if a not in used and b not in used:
                break
        used.update((a, b))
        out.append([a, b])
    return out


def draw_inputs(seed: int) -> Inputs:
    s = seed % POOL
    rng = random.Random(s)
    return Inputs(
        set_index=s,
        generate_p=rng.uniform(*P_BAND),
        noise_p=rng.uniform(*P_BAND),
        sweep_temps_mk=[rng.uniform(*TEMP_MK_BAND) for _ in range(SWEEP_POINTS)],
        sweep_probs=[rng.uniform(*P_BAND) for _ in range(SWEEP_POINTS)],
        cycles=_transpositions(rng),
    )


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _config_files(work: Path, names) -> dict[str, Path]:
    return {n: _write(work / f"{n}.json", CONFIGS[n]) for n in names}


def first_config(workload: str) -> str:
    """Config the set-up probe validates."""
    workload = COMPOSITE.get(workload, (workload,))[0]
    return {
        "generate": GENERATE_ITEMS[0][1],
        "noise-sweep": NOISE_CONFIGS[0],
        "sweep": SWEEP_CONFIGS[0],
    }[workload]


def pool_size(invocations: list[Invocation]) -> int:
    """Largest --jobs among the invocations (1 without a pool)."""
    return max(
        (int(inv.args[inv.args.index("--jobs") + 1])
         for inv in invocations if "--jobs" in inv.args),
        default=1,
    )


def plan(workload: str, inputs: Inputs, work: Path, jobs: int | None = None) -> list[Invocation]:
    """Write the pass's input files under work and list its invocations.

    jobs overrides the sweep pool size (the traced replay runs serially).
    """
    if workload in COMPOSITE:
        return [inv for part in COMPOSITE[workload] for inv in plan(part, inputs, work, jobs)]
    if workload == "generate":
        return _plan_generate(inputs, work)
    if workload == "noise-sweep":
        return _plan_noise(inputs, work)
    if workload == "sweep":
        return _plan_sweep(inputs, work, sweep_jobs() if jobs is None else jobs)
    raise ValueError(f"unknown workload {workload!r}")


def _plan_generate(inputs: Inputs, work: Path) -> list[Invocation]:
    files = _config_files(work, {c for _, c, _ in GENERATE_ITEMS if c})
    cycles = _write(work / "cycles.json", {"n": CYCLES_N, "cycles": inputs.cycles})
    out = []
    for key, config, simplify in GENERATE_ITEMS:
        dest = work / f"gen-{key}.qasm"
        if config is None:
            args = ["generate", "--cycles-file", str(cycles)]
        else:
            args = ["generate", "--config", str(files[config])]
        p = None
        if config is not None and CONFIGS[config]["method"] == "semiopen":
            p = inputs.generate_p
            args += ["--initial-p", repr(p)]
        if simplify:
            args.append("--simplify")
        args += ["--out", str(dest)]
        item = Item(f"generate/{key}", config, initial_p=p, simplify=simplify)
        out.append(Invocation(args, dest, "qasm", [item]))
    return out


def _plan_noise(inputs: Inputs, work: Path) -> list[Invocation]:
    files = _config_files(work, NOISE_CONFIGS)
    noise = [float(x) for x in NOISE_PROBS.split(",")]
    out = []
    for placement in NOISE_PLACEMENTS:
        dest = work / f"noise-{placement}.json"
        args = ["noise-sweep"]
        for c in NOISE_CONFIGS:
            args += ["--config", str(files[c])]
        args += [
            "--initial-p", repr(inputs.noise_p),
            "--noise-probs", NOISE_PROBS,
            "--placement", placement,
            "--out", str(dest),
        ]
        items = [
            Item(f"noise/{placement}/{c}/{q!r}", c, noise_p=q)
            for c in NOISE_CONFIGS
            for q in noise
        ]
        out.append(Invocation(args, dest, "json", items))
    return out


def _plan_sweep(inputs: Inputs, work: Path, jobs: int) -> list[Invocation]:
    files = _config_files(work, SWEEP_CONFIGS)
    config_args = []
    for c in SWEEP_CONFIGS:
        config_args += ["--config", str(files[c])]
    temps = work / "sweep-temps.csv"
    probs = work / "sweep-probs.json"
    k = range(SWEEP_POINTS)
    return [
        Invocation(
            ["sweep", *config_args,
             "--temps-mk", ",".join(repr(t) for t in inputs.sweep_temps_mk),
             "--freq-ghz", repr(FREQ_GHZ), "--jobs", str(jobs), "--csv",
             "--out", str(temps)],
            temps,
            "csv",
            [Item(f"sweep/temps/{c}/{i}", c) for c in SWEEP_CONFIGS for i in k],
        ),
        Invocation(
            ["sweep", *config_args,
             "--probs", ",".join(repr(p) for p in inputs.sweep_probs),
             "--jobs", str(jobs), "--out", str(probs)],
            probs,
            "json",
            [Item(f"sweep/probs/{c}/{i}", c) for c in SWEEP_CONFIGS for i in k],
        ),
    ]
