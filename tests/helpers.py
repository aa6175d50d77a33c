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
from qcool.methods import dynamic_final_p
from qcool.qasm import THERMAL_RESET_PRAGMA
from qcool.sim import NoiseModel, _live_program, _run_live, marginal, reset_qubits
from qcool.thermo import thermal_product_vector


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


def swapped_permutation(circuit: Circuit) -> np.ndarray:
    """The forward permutation of a circuit whose every gate is
    controlled on all its other qubits, composed one swap a gate.

    Such a gate swaps exactly two basis states: its polarity pattern
    with the target bit 0 and with it 1 (in mask order, bit q - 1 for
    qubit q).  Swapping the two entries of a list of where each start
    state now sits is linear in the gates, where pushing every state
    through every gate costs gates x 2**n.  Qubit 1 is the label's most
    significant bit, as in CoolingUnitary.permutation.
    """
    n = circuit.n_qubits
    full = (1 << n) - 1
    at = list(range(1 << n))
    for lo in range(0, len(circuit.rows), 1 << 16):
        target, mask, polarity = circuit.rows[lo : lo + (1 << 16)].T
        bit = np.left_shift(1, target - 1)
        assert ((target >= 1) & (mask == full ^ bit)).all(), "every gate has n - 1 controls"
        for b, zero in zip(bit.tolist(), polarity.tolist()):
            at[zero], at[zero | b] = at[zero | b], at[zero]
    states = np.arange(1 << n, dtype=np.int64)
    label = sum(((states >> (q - 1)) & 1) << (n - q) for q in range(1, n + 1))
    forward = np.empty_like(states)
    forward[np.array(at, dtype=np.int64)] = states
    perm = np.empty_like(states)
    perm[label] = label[forward]
    return perm


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


def iterated_dynamic_p(p: float, cluster_size: int, rounds: int) -> float:
    """sub_optimal_final_p as the plain loop: the dynamic map, r times."""
    t = p
    for _ in range(rounds):
        t = dynamic_final_p(t, cluster_size)
    return t


def rederived_hbac_ps(p: float, n: int, rounds: int, resets) -> list[float]:
    """hbac_final_p(..., rederive_each_round=True) as the plain loop: the
    target excitation after each of rounds resort-and-reset rounds."""
    v, out = thermal_product_vector(p, n), []
    for k in range(rounds):
        if k:
            v = reset_qubits(v, resets, p)
        v = v[np.argsort(-v, kind="stable")]
        out.append(marginal(v, 1))
    return out


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


def reference_cycles(perm) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of a forward permutation array, state by state.

    Each cycle starts at its least state, cycles are ordered by it, and
    fixed points are left out.  Walks the array with numpy scalar
    indexing and a boolean seen array.
    """
    perm = np.asarray(perm)
    seen = np.zeros(perm.size, dtype=bool)
    out = []
    for start in range(perm.size):
        if seen[start] or perm[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        cur = int(perm[start])
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = int(perm[cur])
        out.append(tuple(cyc))
    return tuple(out)


def reference_gate_count(perm) -> int:
    """Gates Gray-code synthesis emits for a forward permutation, cycle by
    cycle from reference_cycles: 2 popcount(s1 ^ sk) - 1 for each later
    state sk of the cycle (s1 ... sm)."""
    return sum(
        2 * bin(first ^ s).count("1") - 1
        for first, *others in reference_cycles(perm)
        for s in others
    )


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
        if not rnd.resets:
            v = _exact_product([carried.get(q, p) for q in rnd.clusters[0]], one)
        for _ in range(rnd.repeat):
            if rnd.resets:
                v = _exact_reset(v, rnd.resets, p, n, one)
            after = [v[i] for i in source]
            work += copies * sum(w * (a - b) for w, a, b in zip(weight, after, v))
            moved += copies * sum(d * a for d, a in zip(shift, after))
            v = [(one - mix) * a + mix / len(v) for a in after] if mix else after
        t = sum(v[len(v) // 2 :])
        carried.update((phys[0], t) for phys in rnd.clusters)
    return t, work, moved


# -- per-point sweep rows ---------------------------------------------------
#
# The sweep row loop as it ran before points were walked together: each
# point is planned on its own (every later round's start checked cold,
# and each semi-open round ranked with thermal_order), walked on 1-D
# vectors, and closed with scalar closed forms.  Batched rows must
# reproduce it bit for bit.


def _product(excitations) -> np.ndarray:
    v = np.ones(1)
    for x in excitations:
        v = np.multiply.outer(v, (1.0 - x, x)).ravel()
    return v


def _reference_plan(config, p: float) -> list:
    from qcool import methods
    from qcool.constants import check_qubit_cap
    from qcool.errors import PopulationInversionError
    from qcool.protocols import heterogeneous_max_cooling
    from qcool.thermo import ThermalSpec

    check_qubit_cap(config.width, 63)

    def cooled(k, u, start):
        t = marginal(u.apply_to_prob_vector(_product(start)), 1)
        if t >= 0.5:
            raise PopulationInversionError(
                f"{methods.method_label(config)}: round {k + 1} would start "
                f"from a hot target (excitation {t} >= 1/2)"
            )
        return t

    if isinstance(config, methods.SemiOpen):
        out, free, t = [], 2, p
        for i, n in enumerate(config.cluster_sizes):
            if i:
                t = cooled(i, u, start)
            start = (t,) + (p,) * (n - 1)
            u = (
                heterogeneous_max_cooling(ThermalSpec(start)) if i
                else methods._resolve_protocol(config.protocol, n)
            )
            out.append(methods._Round(u, ((1, *range(free, free + n - 1)),)))
            free += n - 1
        return out
    plan = list(config.plan(None))
    if isinstance(config, methods.SubOptimal):
        t, n = p, config.cluster_size
        for k in range(1, config.rounds):
            t = cooled(k, plan[k].unitary, (t,) * n)
    return plan


def _reference_reset_plan(n: int, qubits, bath: float) -> tuple:
    fresh = np.array([1.0 - bath, bath])
    factors = []
    for q in qubits:
        shape = [1] * n
        shape[q - 1] = 2
        factors.append(fresh.reshape(shape))
    return (2,) * n, tuple(q - 1 for q in qubits), tuple(factors)


def _reference_reset(v: np.ndarray, shape, axes, factors) -> np.ndarray:
    kept = v.reshape(shape).sum(axis=axes, keepdims=True)
    for factor in factors:
        kept = kept * factor
    return kept.ravel()


_ULP = float(np.finfo(float).eps)


def _reference_repeat_map(u, weights, reset, mixed: float, v, repeats: int):
    """The one-row round map as it ran before rows were stacked: (vector,
    work) after repeats of a round that resets qubits first."""
    shape, axes, factors = reset
    m = v.reshape(shape).sum(axis=axes, keepdims=True)
    size = m.size
    rows = np.eye(size).reshape((size, *m.shape))
    for factor in factors:
        rows = rows * factor
    rows = rows.reshape(size, -1)[:, u.indices]
    shift = weights - weights[u.indices]
    g = rows @ shift
    moved = rows @ np.abs(shift)
    if mixed:
        rows = (1.0 - mixed) * rows + mixed / rows.shape[1]
    power = rows.reshape((size, *shape)).sum(axis=tuple(a + 1 for a in axes))
    power = power.reshape(size, size)
    m, pi = m.ravel(), _reference_stationary(power)
    if pi is not None and abs(pi @ g) > 8 * size * _ULP * (pi @ moved):
        pi = None
    x = m if pi is None else m - pi
    summed, work = g, 0.0
    terms, left = repeats, repeats - 1
    while terms:
        if terms & 1:
            work += x @ summed
            x = x @ power
        if left & 1:
            m = m @ power
        terms >>= 1
        left >>= 1
        if terms:
            summed = summed + power @ summed
            if pi is not None:
                summed -= pi @ summed
            power = power @ power
            power /= power.sum(axis=1, keepdims=True)
    return m @ rows, float(work)


def _reference_stationary(chain: np.ndarray):
    """One chain's GTH stationary vector, or None where it is reducible."""
    a = chain.copy()
    for k in range(len(a) - 1, 0, -1):
        out = a[k, :k].sum()
        if out == 0.0:
            return None
        a[:k, k] /= out
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(len(a))
    for k in range(1, len(a)):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def _reference_walk(rounds, p: float, noise: float = 0.0) -> tuple[float, float]:
    """One point and one noise level walked alone, on 1-D vectors: each
    repeat resets, permutes, adds its energy dot and mixes toward
    uniform with the fused weight of its round's gates."""
    from qcool import methods
    from qcool.protocols import _weights
    from qcool.synth import synthesized_gate_count

    work = 0.0
    carried: dict = {}
    v = None
    for rnd in rounds:
        u = rnd.unitary
        weights = _weights(u.dim)
        mixed = methods._mixing(synthesized_gate_count(u) if noise else 0, noise)
        repeat = rnd.repeat
        if rnd.resets:
            reset = _reference_reset_plan(u.n_qubits, rnd.resets, p)
            kept = u.n_qubits - len(rnd.resets)
            if repeat > 1 and methods._map_pays(u.n_qubits, kept, repeat):
                v, energy = _reference_repeat_map(u, weights, reset, mixed, v, repeat)
                work += len(rnd.clusters) * energy
                repeat = 0
        else:
            v = _product([carried.get(q, p) for q in rnd.clusters[0]])
        for _ in range(repeat):
            if rnd.resets:
                v = _reference_reset(v, *reset)
            after = u.apply_to_prob_vector(v)
            work += len(rnd.clusters) * float(np.dot(weights, after - v))
            v = after if mixed == 0.0 else (1.0 - mixed) * after + mixed / u.dim
        t = marginal(v, 1)
        carried.update((phys[0], t) for phys in rnd.clusters)
    return t, work


def live_marginal(circuit: Circuit, p: float, noise: NoiseModel) -> float:
    """One noise level's row of the live kernel: the circuit's program,
    scheduled without noise at level 0, run at that level alone."""
    placement = noise.placement if noise.probability > 0.0 else None
    program, _ = _live_program(circuit, placement)
    return _run_live(program, p, np.array([noise.probability]))[0]


def reference_noise_rows(config, p: float, levels, placement: str = "per-gate") -> list[float]:
    """Each level's noisy final_p, one level at a time: the noiseless
    final_p at 0, a per-level walk where each cluster runs alone, and a
    one-level live run where a layer spans several parallel copies."""
    from qcool import methods

    plan = _reference_plan(config, p)
    shared = placement == "per-layer" and any(len(r.clusters) > 1 for r in plan)
    out = []
    for q in levels:
        if q == 0.0:
            out.append(reference_sweep_rows(config, [p])[0]["final_p"])
        elif shared:
            circuit = methods.build_circuit(config, p)
            out.append(live_marginal(circuit, p, NoiseModel(q, placement)))
        else:
            out.append(_reference_walk(plan, p, q)[0])
    return out


def _reference_semi_open_p(p: float, sizes) -> float:
    t = dynamic_final_p(p, sizes[0])
    for n in sizes[1:]:
        v = _product((t,) + (p,) * (n - 1))
        t = math.fsum(np.sort(v, kind="stable")[: v.size // 2])
    return t


def reference_sweep_rows(config, ps, gap=None) -> list[dict]:
    """The noiseless result rows of config at each p, point by point."""
    from qcool import methods
    from qcool.thermo import temperature_from_probability

    physical = gap is not None and not gap.dimensionless
    rows = []
    for p in ps:
        plan = _reference_plan(config, p)
        walked, work = _reference_walk(plan, p)
        final = walked
        if not isinstance(config.protocol, methods.CustomProtocol):
            final = {
                methods.Dynamic: lambda: dynamic_final_p(p, config.width),
                methods.SubOptimal: lambda: methods.sub_optimal_final_p(
                    p, config.cluster_size, config.rounds
                ),
                methods.HBAC: lambda: walked,
                methods.SemiOpen: lambda: _reference_semi_open_p(
                    p, config.cluster_sizes
                ),
            }[type(config)]()
        counts = methods._gate_counts(plan)

        def mk(x):
            if not physical or x >= 0.5:
                return None
            return temperature_from_probability(x, gap).millikelvin

        rows.append({
            "method": methods.method_label(config),
            "total_qubits": config.width,
            "initial_temp_mk": mk(p),
            "final_temp_mk": mk(final),
            "initial_p": p,
            "final_p": final,
            "noise_p": None,
            "work": work,
            "work_joules": work * gap.value if physical else None,
            "total_gates": counts.total,
            "resets": counts.resets,
        })
    return rows


# -- result rows as the CLI once wrote them ----------------------------------


def reference_result_rows(reports, gap, levels=(None,), noisy=None) -> list[dict]:
    """One dict row per CoolingReport and noise level (None: noiseless),
    as the CLI built them from reports: noisy holds each report's final_p
    at the nonzero levels, in order.  Temperatures come from the
    report's Temperature objects, and noisy finals below 1/2 are
    converted here."""
    from qcool.thermo import temperature_from_probability

    def mk(temperature, p):
        return None if temperature is None or p >= 0.5 else temperature.millikelvin

    physical = gap is not None and not gap.dimensionless
    rows = []
    for rep, finals in zip(reports, noisy or [()] * len(reports)):
        finals = iter(finals)
        for level in levels:
            final_p, final_t = rep.final_excitation, rep.final_temperature
            if level:
                final_p = next(finals)
                final_t = None
                if physical and final_p < 0.5:
                    final_t = temperature_from_probability(final_p, gap)
            rows.append({
                "method": rep.method,
                "total_qubits": rep.total_qubits,
                "initial_temp_mk": mk(rep.initial_temperature, rep.initial_excitation),
                "final_temp_mk": mk(final_t, final_p),
                "initial_p": rep.initial_excitation,
                "final_p": final_p,
                "noise_p": level,
                "work": rep.work_in_gap_units,
                "work_joules": rep.work_joules,
                "total_gates": rep.gate_counts.total,
                "resets": rep.gate_counts.resets,
            })
    return rows


def reference_emit(rows: list[dict], columns, as_csv: bool) -> str:
    """The CLI's text of dict rows: CSV written cell by cell (None as an
    empty cell), or json.dumps(rows, indent=2) with a final newline."""
    import csv
    import io
    import json

    if not as_csv:
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow("" if row[c] is None else row[c] for c in columns)
    return buf.getvalue()


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
# through the public per-instruction view.  Synthesis as the loop it was
# written as: one gate at a time, on Python integers.


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


def assert_same_text(got: str, want: str) -> None:
    """assert got == want, naming the first line that differs: pytest's
    diff of two long texts can run for minutes."""
    same = got == want
    assert same, next(
        (
            (i, a, b)
            for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()))
            if a != b
        ),
        "line counts differ",
    )


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


def reference_cycles_circuit(n: int, cycles) -> Circuit:
    """Gray-code synthesis of integer-labelled cycles, one gate at a time.

    Each cycle (s1 ... sm) becomes the transpositions (s1 sk), k > 1.  In
    mask order (label bit n - q moved to bit q - 1) the path from s1 to
    sk flips the lowest differing bit first; the step that flips `bit`
    from path state `cur` is the gate with mask full ^ bit and polarity
    cur & mask, and the ladder of d steps is followed by its first d - 1
    steps reversed.
    """
    full = (1 << n) - 1

    def mask_order(state):
        return sum(((state >> (n - q)) & 1) << (q - 1) for q in range(1, n + 1))

    rows = []
    for cycle in cycles:
        first, *others = [mask_order(s) for s in cycle]
        for y in others:
            cur, diff, ladder = first, first ^ y, []
            while diff:
                bit = diff & -diff
                mask = full ^ bit
                ladder.append((bit.bit_length(), mask, cur & mask))
                cur ^= bit
                diff ^= bit
            rows += ladder + ladder[-2::-1]
    return Circuit._from_rows(n, np.array(rows, dtype=np.int64).reshape(-1, 3))


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


# -- cycle-label oracles -----------------------------------------------------
#
# The label checks as they ran one label at a time, before labels were
# parsed as whole arrays.  Refusals must keep their type, text and order.


def reference_parse_cycles(cycles, n: int) -> list[list[int]]:
    """Each cycle's states, checking cycle after cycle: its labels, then
    at least two states, then no repeat, then no state of an earlier
    cycle."""
    from qcool.errors import DegenerateCycleError, OverlappingCyclesError
    from qcool.unitary import parse_state_label

    parsed, seen = [], set()
    for cycle in cycles:
        states = [parse_state_label(s, n) for s in cycle]
        if len(states) < 2:
            raise DegenerateCycleError(
                f"degenerate cycle {list(cycle)!r}: fewer than two states"
            )
        if len(set(states)) != len(states):
            raise DegenerateCycleError(
                f"degenerate cycle {list(cycle)!r}: repeated state"
            )
        overlap = seen.intersection(states)
        if overlap:
            raise OverlappingCyclesError(
                f"overlapping cycles: state {min(overlap)} appears twice"
            )
        seen.update(states)
        parsed.append(states)
    return parsed


def reference_json_cycles(value, what: str) -> list[list]:
    """A JSON "cycles" list checked cycle by cycle and label by label."""
    from qcool.errors import ConfigError

    if not isinstance(value, list):
        raise ConfigError(f"invalid {what}: 'cycles' must be an array, got {value!r}")
    for cycle in value:
        if not isinstance(cycle, list) or len(cycle) < 2:
            raise ConfigError(
                f"invalid {what}: cycle {cycle!r} in 'cycles' is not an "
                "array of at least two labels"
            )
        for x in cycle:
            bits = isinstance(x, str) and x != "" and set(x) <= {"0", "1"}
            whole = (
                x.is_integer()
                if isinstance(x, float)
                else isinstance(x, int) and not isinstance(x, bool)
            )
            if not (bits or whole and x >= 0):
                raise ConfigError(
                    f"invalid {what}: label {x!r} in 'cycles' is neither "
                    "an integer >= 0 nor a string of 0s and 1s"
                )
    return [[x if isinstance(x, str) else int(x) for x in cycle] for cycle in value]


def outcome(call, *args):
    """call(*args), or the type and text of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal is the result
        return type(exc), str(exc)


def random_cycle_lists(rng, count: int, wide: bool = False):
    """(n, cycles) cases whose labels are mostly good, with bad labels,
    short cycles, repeats and overlaps mixed in at random places."""
    for _ in range(count):
        n = int(rng.choice([63, 64, 70])) if wide else int(rng.integers(1, 7))
        pool = rng.integers(0, min(1 << n, 12), size=8).tolist()

        def label():
            r = rng.random()
            state = int(pool[rng.integers(len(pool))]) if r < 0.5 else int(
                rng.integers(0, 1 << min(n, 62))
            )
            if r < 0.8:
                return state if rng.random() < 0.5 else format(state, f"0{n}b")
            return [
                -1, 1 << n, 2**70, "", "2" * n, "0" * (n + 1), "1" * (n - 1),
                1.0, None, True, np.int64(1), np.uint64(2**63), "é" * n,
                "\ud800" * n, (1 << n) - 1, "1" * n, [0],
            ][rng.integers(17)]

        cycles = [
            [label() for _ in range(int(rng.choice([0, 1, 2, 2, 3, 4])))]
            for _ in range(int(rng.integers(0, 6)))
        ]
        yield n, cycles
