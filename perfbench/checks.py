"""Output checks.  Every failed check fails its output item.

An item (a QASM circuit or a result row) fails when its invocation exits
nonzero or raises, when it is missing from the output, or when it
disagrees with any of:

- the golden recorded from the seed commit: QASM byte for byte (by
  SHA-256), rows to a relative 1e-12;
- the analytic gate count sum(2 popcount(c0 ^ ck) - 1) over the cycles
  of the method's permutations, computed here;
- for dynamic rows without noise, the binomial tail computed here in
  exact rational arithmetic;
- for noise_p = 0 rows, the noiseless final excitation of the same
  config and p.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import CONFIGS, Invocation, Item

GOLDENS = Path(__file__).resolve().parent / "goldens.json.gz"

COLUMNS = (
    "method", "total_qubits", "initial_temp_mk", "final_temp_mk",
    "initial_p", "final_p", "noise_p", "work", "work_joules",
    "total_gates", "resets",
)
INT_COLUMNS = {"total_qubits", "total_gates", "resets"}
REL_TOL = 1e-12


def load_goldens(path: Path = GOLDENS) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def _typed(column: str, text: str):
    if text == "":
        return None
    if column == "method":
        return text
    return int(text) if column in INT_COLUMNS else float(text)


def read_output(inv: Invocation):
    """The invocation's items as QASM text or rows in COLUMNS order."""
    text = inv.out.read_text()
    if inv.fmt == "qasm":
        return [text]
    if inv.fmt == "csv":
        records = list(csv.DictReader(text.splitlines()))
        return [[_typed(c, r[c]) for c in COLUMNS] for r in records]
    return [[r[c] for c in COLUMNS] for r in json.loads(text)]


def qasm_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_agree(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(a, float) or isinstance(b, float):
            if a is None or b is None or isinstance(a, str) or isinstance(b, str):
                return False
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                return False
        elif a != b:
            return False
    return True


def permutation_gates(perm) -> int:
    """Gray-code gate total of a permutation, cycle by cycle.

    Each cycle starts at its smallest state c0 and costs
    sum over k of 2 popcount(c0 ^ ck) - 1.
    """
    perm = [int(x) for x in perm]
    seen = [False] * len(perm)
    total = 0
    for start, dest in enumerate(perm):
        if seen[start] or dest == start:
            continue
        cur = start
        while not seen[cur]:
            seen[cur] = True
            if cur != start:
                total += 2 * (start ^ cur).bit_count() - 1
            cur = perm[cur]
    return total


def binomial_tail(p: float, n: int) -> float:
    """Weight of the 2**(n-1) least likely states of n qubits at p."""
    P = Fraction(p)
    Q = 1 - P
    acc = sum(
        math.comb(n, w) * P**w * Q ** (n - w) for w in range(n // 2 + 1, n + 1)
    )
    if n % 2 == 0:
        acc += Fraction(math.comb(n, n // 2), 2) * P ** (n // 2) * Q ** (n // 2)
    return float(acc)


def cycles_gates(cycles: list[list[int]]) -> int:
    """Gate total of a cycles file of disjoint transpositions."""
    return sum(2 * (a ^ b).bit_count() - 1 for a, b in cycles)


@lru_cache(maxsize=None)
def config_counts(config: str, p: float | None) -> tuple[int, int]:
    """(NOT gates, reset layers) of a method's whole circuit.

    The permutations come from qcool's protocol layer; the counting does
    not touch synthesis.
    """
    from qcool.protocols import heterogeneous_max_cooling, protocol_unitary
    from qcool.sim import marginal
    from qcool.thermo import ThermalSpec, thermal_product_vector

    doc = CONFIGS[config]
    proto = doc.get("protocol", "minimal-work")
    method = doc["method"]
    if method == "semiopen":
        gates, t = 0, p
        for i, n in enumerate(doc["cluster_sizes"]):
            spec = ThermalSpec((t,) + (p,) * (n - 1))
            u = protocol_unitary(proto, n) if i == 0 else heterogeneous_max_cooling(spec)
            gates += permutation_gates(u.permutation)
            t = marginal(u.apply_to_prob_vector(thermal_product_vector(spec)), 1)
        return gates, 0
    n = doc["n_qubits"] if method == "dynamic" else doc["cluster_size"]
    base = permutation_gates(protocol_unitary(proto, n).permutation)
    if method == "dynamic":
        return base, 0
    r = doc["rounds"]
    if method == "suboptimal":
        return base * (n**r - 1) // (n - 1), 0
    return base * r, r - 1


@lru_cache(maxsize=None)
def noiseless_final_p(config: str, p: float) -> float:
    from qcool import methods

    return methods.final_probability(methods.config_from_json(CONFIGS[config]), p)


def _qasm_problem(item: Item, text: str, golden, cycles_total: int) -> str | None:
    if golden != qasm_digest(text):
        return "QASM differs from the golden"
    if item.simplify:
        return None
    lines = text.splitlines()
    gates = sum(1 for line in lines if line.startswith("ctrl("))
    resets = sum(1 for line in lines if line.startswith("reset "))
    if item.config is None:
        want_gates, want_resets = cycles_total, 0
    else:
        want_gates, layers = config_counts(item.config, item.initial_p)
        doc = CONFIGS[item.config]
        width = doc.get("cluster_size", 0)
        want_resets = layers * len(doc.get("reset_qubits", range(2, width + 1)))
    if (gates, resets) != (want_gates, want_resets):
        return f"{gates} gates/{resets} resets, analytic {want_gates}/{want_resets}"
    return None


def _row_problem(item: Item, row: list, golden) -> str | None:
    if golden is None or not rows_agree(row, golden):
        return "row differs from the golden"
    values = dict(zip(COLUMNS, row))
    p = golden[COLUMNS.index("initial_p")]
    want = config_counts(item.config, p)
    if (values["total_gates"], values["resets"]) != want:
        return f"gate counts {values['total_gates']}/{values['resets']}, analytic {want}"
    doc = CONFIGS[item.config]
    final_p = values["final_p"]
    if doc["method"] == "dynamic" and not values["noise_p"]:
        if not math.isclose(final_p, binomial_tail(p, doc["n_qubits"]), rel_tol=REL_TOL):
            return "final_p differs from the binomial tail"
    if item.noise_p == 0.0:
        if not math.isclose(final_p, noiseless_final_p(item.config, p), rel_tol=REL_TOL):
            return "noise_p=0 row differs from the noiseless final_p"
    return None


def check_pass(
    invocations: list[Invocation],
    calls: list[dict] | None,
    goldens: dict,
    cycles_total: int,
) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every item of one pass.

    calls is the pass's per-invocation record, or None if the pass
    process itself failed.
    """
    attempted = failed = 0
    reasons: list[str] = []

    def fail(item: Item, why: str) -> None:
        nonlocal failed
        failed += 1
        reasons.append(f"{item.id}: {why}")

    for i, inv in enumerate(invocations):
        attempted += len(inv.items)
        call = calls[i] if calls is not None and i < len(calls) else None
        if call is None or call["exit"] != 0:
            why = "pass failed" if call is None else f"exit {call['exit']} {call['error'] or ''}"
            for item in inv.items:
                fail(item, why.strip())
            continue
        try:
            outputs = read_output(inv)
        except (OSError, ValueError, KeyError) as exc:
            for item in inv.items:
                fail(item, f"unreadable output: {exc}")
            continue
        if len(outputs) != len(inv.items):
            for item in inv.items:
                fail(item, f"{len(outputs)} outputs for {len(inv.items)} items")
            continue
        for item, out in zip(inv.items, outputs):
            golden = goldens.get(item.id)
            if inv.fmt == "qasm":
                why = _qasm_problem(item, out, golden, cycles_total)
            else:
                why = _row_problem(item, out, golden)
            if why:
                fail(item, why)
    return attempted, failed, reasons
