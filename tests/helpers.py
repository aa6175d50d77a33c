"""Independent oracles shared by the test modules.

Everything here recomputes expected behavior from first principles with
deliberately different machinery than the package (per-basis-state bit
arithmetic, explicit enumeration), so agreement is meaningful.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from qcool.circuits import Circuit, McNot, ResetInstr
from qcool.qasm import THERMAL_RESET_PRAGMA
from qcool.sim import NoiseModel, reset_qubits


def apply_mcnot_int(state: int, target: int, controls, n: int) -> int:
    """Bit-level action of one multi-controlled NOT on a basis state."""
    for q, pol in controls:
        if ((state >> (n - q)) & 1) != pol:
            return state
    return state ^ (1 << (n - target))


def apply_mcnot_array(states: np.ndarray, target: int, controls, n: int) -> np.ndarray:
    """apply_mcnot_int on every entry of an integer array of basis states."""
    mask = sum(1 << (n - q) for q, _ in controls)
    fire = sum(pol << (n - q) for q, pol in controls)
    return np.where(states & mask == fire, states ^ (1 << (n - target)), states)


def circuit_permutation_array(circuit: Circuit) -> np.ndarray:
    """circuit_permutation with all basis states pushed through at once."""
    n = circuit.n_qubits
    states = np.arange(1 << n, dtype=np.int64)
    for gate in circuit.instructions:
        assert isinstance(gate, McNot), "oracle handles pure NOT circuits"
        states = apply_mcnot_array(states, gate.target, gate.controls, n)
    return states


def circuit_permutation(circuit: Circuit) -> list[int]:
    """Forward permutation realized by a reset-free circuit."""
    n = circuit.n_qubits
    out = []
    for s in range(1 << n):
        cur = s
        for gate in circuit.instructions:
            assert isinstance(gate, McNot), "oracle handles pure NOT circuits"
            cur = apply_mcnot_int(cur, gate.target, gate.controls, n)
        out.append(cur)
    return out


# -- stepwise simulation oracle ----------------------------------------------
#
# The mask-over-all-states kernels the package used before it moved to
# in-place support-only updates.  Every step allocates a fresh vector, so
# the package's kernels must reproduce these results bit for bit.


def apply_mcnot_mask(v: np.ndarray, gate: McNot) -> np.ndarray:
    """Swap every basis-state pair related by the gate, via index masks."""
    v = np.asarray(v)
    n = v.size.bit_length() - 1
    idx = np.arange(v.size)
    sel = np.ones(v.size, dtype=bool)
    for q, pol in gate.controls:
        sel &= ((idx >> (n - q)) & 1) == pol
    tmask = 1 << (n - gate.target)
    lo = idx[sel & ((idx & tmask) == 0)]
    hi = lo | tmask
    out = v.copy()
    out[lo] = v[hi]
    out[hi] = v[lo]
    return out


def depolarize_copy(v: np.ndarray, qubits, probability: float) -> np.ndarray:
    """(1 - p) v + p (mean over the listed qubits), as a new vector."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size.bit_length() - 1
    if probability == 0.0:
        return v.copy()
    t = v.reshape((2,) * n)
    axes = tuple(q - 1 for q in sorted(set(qubits)))
    uniform = t.mean(axis=axes, keepdims=True)
    return ((1.0 - probability) * t + probability * uniform).ravel()


def marginal_mask(v: np.ndarray, qubit: int = 1) -> float:
    """Probability that the qubit reads 1, summed through an index mask."""
    v = np.asarray(v)
    n = v.size.bit_length() - 1
    idx = np.arange(v.size)
    return float(v[((idx >> (n - qubit)) & 1) == 1].sum())


def simulate_stepwise(
    circuit: Circuit,
    v0: np.ndarray,
    noise: NoiseModel | None = None,
    bath_excitation: float = 0.0,
) -> np.ndarray:
    """simulate() with a fresh vector per gate, noise step and reset."""
    v = np.array(v0, dtype=np.float64)
    p = noise.probability if noise is not None else 0.0
    per_layer = noise is not None and noise.placement == "per-layer"
    layer: set[int] = set()
    for ins in circuit.instructions:
        if isinstance(ins, McNot):
            if per_layer and layer.intersection(ins.touched):
                v = depolarize_copy(v, layer, p)
                layer.clear()
            v = apply_mcnot_mask(v, ins)
            if p > 0.0:
                if per_layer:
                    layer.update(ins.touched)
                else:
                    v = depolarize_copy(v, ins.touched, p)
        else:
            if layer:
                v = depolarize_copy(v, layer, p)
                layer.clear()
            v = reset_qubits(v, ins.qubits, bath_excitation)
    if layer:
        v = depolarize_copy(v, layer, p)
    return v


def sorted_half_sum(v: np.ndarray) -> float:
    """Target excitation after any maximal cooling of the diagonal v."""
    return float(np.sort(np.asarray(v))[: v.size // 2].sum())


def state_energy(state: int) -> int:
    return bin(state).count("1")


def work_of_permutation(perm, v: np.ndarray) -> float:
    """Energy gained by the register when v is pushed through perm."""
    after = np.zeros_like(v)
    for src, dst in enumerate(perm):
        after[dst] += v[src]
    return float(
        sum(state_energy(j) * (after[j] - v[j]) for j in range(len(v)))
    )


def reference_minimal_work_permutation(n: int) -> np.ndarray:
    """minimal_work_protocol's permutation, one weight run at a time.

    Each half's slots and sources are sorted by (weight, index) and
    paired positionally; within each run of equal source weight, states
    that are both source and slot stay, and the rest pair in index order
    through intersect1d/setdiff1d.
    """
    dim = 1 << n
    half = dim >> 1
    w = np.array([state_energy(s) for s in range(dim)])
    order = np.lexsort((np.arange(dim), w))
    perm = np.arange(dim, dtype=np.int64)
    for slots, sources in (
        (np.lexsort((np.arange(half), w[:half])), order[:half]),
        (half + np.lexsort((np.arange(half), w[half:])), order[half:]),
    ):
        i = 0
        while i < half:
            j = i + 1
            while j < half and w[sources[j]] == w[sources[i]]:
                j += 1
            run_src, run_slt = sources[i:j], slots[i:j]
            fixed = np.intersect1d(run_src, run_slt)
            perm[fixed] = fixed
            perm[np.setdiff1d(run_src, fixed)] = np.setdiff1d(run_slt, fixed)
            i = j
    return perm


def pairing_work_values(n: int, p: float) -> list[float]:
    """Work of every transposition pairing of must-move states.

    Maximal cooling forces the light states sitting in the target-1 half
    to trade places with the heavy states sitting in the target-0 half.
    Each bijection between the two forced sets, realized as plain
    transpositions, is one way to reach maximal cooling; this enumerates
    them all.
    """
    dim = 1 << n
    half = dim >> 1
    w = [state_energy(j) for j in range(dim)]
    order = sorted(range(dim), key=lambda j: (w[j], j))
    top = set(order[:half])
    move_down = sorted(s for s in top if s >= half)
    move_up = sorted(s for s in range(half) if s not in top)
    assert len(move_down) == len(move_up)
    v = np.ones(1)
    for _ in range(n):
        v = np.kron(v, np.array([1.0 - p, p]))
    works = []
    for assignment in itertools.permutations(move_up):
        perm = list(range(dim))
        for a, b in zip(move_down, assignment):
            perm[a], perm[b] = perm[b], perm[a]
        works.append(work_of_permutation(perm, v))
    return works


# -- exact walk over a round plan -------------------------------------------
#
# _walk's arithmetic in exact rationals (or at a chosen number of decimal
# digits), one basis state at a time: every qubit map, permutation, reset
# and fused noise mix is taken from the plan, nothing from the package's
# numerics.


def _exact_product(excitations, one):
    v = [one]
    for x in excitations:
        v = [a * b for a in v for b in (one - x, x)]
    return v


def _exact_reset(v, qubits, p, n, one):
    """Trace out qubits (bit n - q of a state) and retensor them at p."""
    mask = sum(1 << (n - q) for q in qubits)
    kept: dict[int, object] = {}
    for s, x in enumerate(v):
        kept[s & ~mask] = kept.get(s & ~mask, 0) + x
    out = []
    for s in range(len(v)):
        x = kept[s & ~mask]
        for q in qubits:
            x = x * (p if s >> (n - q) & 1 else one - p)
        out.append(x)
    return out


def _exact_gate_count(unitary) -> int:
    """Gates synthesis emits: 2 popcount(first ^ s) - 1 per later state."""
    return sum(
        2 * bin(first ^ s).count("1") - 1
        for first, *others in unitary.cycles
        for s in others
    )


def exact_walk(plan, p: float, noise: float = 0.0, digits: int | None = None):
    """(target excitation, work, moved) of a plan, as Fractions.

    Exact with digits None; otherwise computed in decimal at that many
    significant digits, which is fast enough for 10**4 rounds.  Each
    round runs its resets, its permutation and then the fused mix
    1 - (1 - noise)**G for G synthesized gates, repeat times.  moved is
    the energy the states a permutation moves carry, summed over every
    round: it scales the rounding error of any float work sum.
    """
    if digits is None:
        return _exact_walk(plan, Fraction(p), noise, Fraction)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        t, work, moved = _exact_walk(plan, decimal.Decimal(p), noise, decimal.Decimal)
    return Fraction(t), Fraction(work), Fraction(moved)


def _exact_walk(plan, p, noise, number):
    one = number(1)
    work = moved = number(0)
    carried: dict[int, object] = {}
    v: list = []
    for rnd in plan:
        u = rnd.unitary
        n = u.n_qubits
        source = [int(i) for i in u.indices]  # state r receives v[source[r]]
        weight = [state_energy(s) for s in range(len(source))]
        shift = [abs(weight[r] - weight[i]) for r, i in enumerate(source)]
        gates = _exact_gate_count(u) if noise else 0
        mix = one - (one - number(noise)) ** gates
        copies = len(rnd.clusters)
        if rnd.spec is not None:
            v = _exact_product([carried.get(q, p) for q in rnd.clusters[0]], one)
        for _ in range(rnd.repeat):
            if rnd.spec is None:
                v = _exact_reset(v, rnd.resets, p, n, one)
            after = [v[i] for i in source]
            work += copies * sum(w * (a - b) for w, a, b in zip(weight, after, v))
            moved += copies * sum(d * a for d, a in zip(shift, after))
            v = [(one - mix) * a + mix / len(v) for a in after] if mix else after
        t = sum(v[len(v) // 2 :])
        carried.update((phys[0], t) for phys in rnd.clusters)
    return t, work, moved


# -- strict OpenQASM 3 checker ---------------------------------------------

_HEADER = ("OPENQASM 3.0;", 'include "stdgates.inc";')
_QUBIT_RE = re.compile(r"^qubit\[(\d+)\] q;$")
_X_RE = re.compile(r"^x q\[(\d+)\];$")
_CTRL_RE = re.compile(r"^ctrl\((\d+)\) @ x ((?:q\[\d+\], )*q\[\d+\]);$")
_PRAGMA_RE = re.compile(r"^// @thermal_reset q\[(\d+)\]$")
_RESET_RE = re.compile(r"^reset q\[(\d+)\];$")
_OPERAND_RE = re.compile(r"q\[(\d+)\]")


class QasmSyntaxError(AssertionError):
    pass


def _tokenize(text: str) -> tuple[int, list[tuple]]:
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        raise QasmSyntaxError("missing trailing newline")
    if len(lines) < 3 or (lines[0], lines[1]) != _HEADER:
        raise QasmSyntaxError("bad header")
    m = _QUBIT_RE.match(lines[2])
    if not m:
        raise QasmSyntaxError(f"bad qubit declaration: {lines[2]!r}")
    n = int(m.group(1))
    items: list[tuple] = []
    for line in lines[3:]:
        if m := _X_RE.match(line):
            items.append(("x", int(m.group(1))))
        elif m := _CTRL_RE.match(line):
            k = int(m.group(1))
            ops = [int(q) for q in _OPERAND_RE.findall(m.group(2))]
            if len(ops) != k + 1:
                raise QasmSyntaxError(f"ctrl({k}) with {len(ops)} operands")
            if len(set(ops)) != len(ops):
                raise QasmSyntaxError("repeated operand")
            items.append(("ctrl", ops[:-1], ops[-1]))
        elif m := _PRAGMA_RE.match(line):
            items.append(("pragma", int(m.group(1))))
        elif m := _RESET_RE.match(line):
            items.append(("reset", int(m.group(1))))
        else:
            raise QasmSyntaxError(f"unrecognized statement: {line!r}")
    for item in items:
        qubits = (
            item[1] + [item[2]] if item[0] == "ctrl" else [item[1]]
        )
        if any(not 0 <= q < n for q in qubits):
            raise QasmSyntaxError(f"operand outside register: {item}")
    return n, items


def parse_qasm(text: str) -> Circuit:
    """Reparse exported text into an equivalent circuit.

    Runs of `x` immediately around a `ctrl` that hit its control qubits
    are folded back into open controls.  (An explicit x-conjugated closed
    control and an open control are the same operation, so this recovers
    the action exactly.)  Every reset must carry its pragma line.
    """
    n, items = _tokenize(text)
    instrs: list = []
    i = 0
    while i < len(items):
        kind = items[i][0]
        if kind == "ctrl":
            _, controls, target = items[i]
            instrs.append(
                McNot(target + 1, tuple((c + 1, 1) for c in controls))
            )
            i += 1
        elif kind == "x":
            j = i
            while j < len(items) and items[j][0] == "x":
                j += 1
            run = [items[k][1] for k in range(i, j)]
            conj: list[int] = []
            if j < len(items) and items[j][0] == "ctrl":
                _, controls, target = items[j]
                # longest suffix of the run mirrored after the ctrl
                k = 0
                while (
                    k < len(run)
                    and j + 1 + k < len(items)
                    and items[j + 1 + k][0] == "x"
                    and items[j + 1 + k][1] == run[len(run) - 1 - k]
                    and run[len(run) - 1 - k] in controls
                ):
                    k += 1
                conj = run[len(run) - k :]
                for q in run[: len(run) - k]:
                    instrs.append(McNot(q + 1))
                polarity = {c: 0 if c in conj else 1 for c in controls}
                instrs.append(
                    McNot(
                        target + 1,
                        tuple((c + 1, polarity[c]) for c in controls),
                    )
                )
                i = j + 1 + k
            else:
                for q in run:
                    instrs.append(McNot(q + 1))
                i = j
        elif kind == "pragma":
            q = items[i][1]
            if i + 1 >= len(items) or items[i + 1] != ("reset", q):
                raise QasmSyntaxError("pragma without matching reset")
            instrs.append(ResetInstr((q + 1,)))
            i += 2
        elif kind == "reset":
            raise QasmSyntaxError("reset without thermal pragma")
        else:
            raise QasmSyntaxError(f"unhandled item {items[i]!r}")
    return Circuit(n, tuple(instrs))


def count_ctrl_statements(text: str) -> int:
    _, items = _tokenize(text)
    return sum(1 for item in items if item[0] == "ctrl")


# -- per-instruction references ----------------------------------------------
#
# The exporter, embedding and cancellation pass as they were written when a
# circuit was a tuple of McNot and ResetInstr objects: one object at a time,
# through the public per-instruction view.


def _reference_gate_lines(gate: McNot) -> list[str]:
    target = f"q[{gate.target - 1}]"
    open_controls = [f"q[{q - 1}]" for q, b in gate.controls if b == 0]
    lines = [f"x {c};" for c in open_controls]
    if gate.controls:
        operands = ", ".join(
            [f"q[{q - 1}]" for q, _ in gate.controls] + [target]
        )
        lines.append(f"ctrl({len(gate.controls)}) @ x {operands};")
    else:
        lines.append(f"x {target};")
    lines.extend(f"x {c};" for c in reversed(open_controls))
    return lines


def reference_export_qasm(circuit: Circuit) -> str:
    """export_qasm formatted instruction by instruction."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.n_qubits}] q;",
    ]
    for ins in circuit.instructions:
        if isinstance(ins, McNot):
            lines.extend(_reference_gate_lines(ins))
        else:
            for q in ins.qubits:
                lines.append(f"{THERMAL_RESET_PRAGMA} q[{q - 1}]")
                lines.append(f"reset q[{q - 1}];")
    return "\n".join(lines) + "\n"


def reference_embed(circuit: Circuit, n_total: int, qubit_map) -> Circuit:
    """embed, moving one instruction object at a time."""
    phys = list(qubit_map)

    def move(ins):
        if isinstance(ins, McNot):
            return McNot(
                phys[ins.target - 1],
                tuple((phys[q - 1], b) for q, b in ins.controls),
            )
        return ResetInstr(tuple(phys[q - 1] for q in ins.qubits))

    return Circuit(n_total, [move(i) for i in circuit.instructions])


def reference_simplify(circuit: Circuit) -> Circuit:
    """simplify_adjacent over instruction objects."""
    out: list = []
    for ins in circuit.instructions:
        if out and isinstance(ins, McNot) and out[-1] == ins:
            out.pop()
        else:
            out.append(ins)
    return Circuit(circuit.n_qubits, out)


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def gates(draw, n):
    """A NOT gate on n qubits with 0..n-1 open or closed controls."""
    qubits = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n - 1))
    polarities = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return McNot(qubits[0], tuple(zip(qubits[1 : 1 + k], polarities)))


@st.composite
def instructions(draw, n):
    """A gate, or (one time in four) a reset of a nonempty qubit set."""
    if draw(st.integers(0, 3)) == 0:
        qubits = draw(st.sets(st.integers(1, n), min_size=1))
        return ResetInstr(tuple(qubits))
    return draw(gates(n))
