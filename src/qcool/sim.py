"""Diagonal-state simulation of cooling circuits.

Every state here is the diagonal of a density matrix in the computational
basis, held as a length-2**n probability vector (sum 1, entries >= 0).
NOT-gate circuits, depolarizing noise, and thermal resets all map
diagonals to diagonals, so nothing else needs to be tracked.

Noise model: after a gate (or a layer of non-overlapping gates), each
touched qubit subset is depolarized with probability p, meaning the state
of those qubits is replaced by the uniform mixture:

    v' = (1 - p) v + p (marginal over untouched) x (uniform on touched)

One schedule (`_schedule`) and one kernel (`_run`) do every simulation:
`simulate` streams the schedule into the kernel on the whole register,
and per-layer noise rows run it on the live qubits only: the library's
rows build the live program once per circuit (`methods._layer_program`
calls `_live_program`) and run it once for all noise levels
(`_run_live`).
The public `apply_mcnot`, `depolarize` and `reset_qubits` run one kernel
step on a copy of their input.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .circuits import Circuit, McNot, _qubits, _row
from .constants import check_qubit_cap

__all__ = [
    "NoiseModel",
    "apply_mcnot",
    "depolarize",
    "marginal",
    "reset_qubits",
    "simulate",
    "validate_prob_vector",
]


def _register_size(v: np.ndarray) -> int:
    dim = v.size
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"vector length {dim} is not a power of two")
    return dim.bit_length() - 1


def validate_prob_vector(v: np.ndarray, *, atol: float = 1e-12) -> None:
    """Raise unless v is nonnegative and sums to 1 within atol."""
    v = np.asarray(v)
    _register_size(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("probability vector has a non-finite entry")
    if np.any(v < 0.0):
        raise ValueError("probability vector has a negative entry")
    total = float(v.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"probability vector sums to {total}, not 1")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strength and where it strikes.

    per-gate: every NOT gate depolarizes exactly the qubits it touches.
    per-layer: gates are packed greedily (in program order) into layers
    of disjoint support; each layer depolarizes the union of its touched
    qubits once.  Resets close the open layer and carry no noise.
    """

    probability: float
    placement: Literal["per-gate", "per-layer"] = "per-gate"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("noise probability must lie in [0, 1]")
        # -0.0 is stored as 0.0, so that no row prints it.
        object.__setattr__(self, "probability", self.probability + 0.0)
        if self.placement not in ("per-gate", "per-layer"):
            raise ValueError(f"unknown placement {self.placement!r}")


def _swap_target(t: np.ndarray, target: int, mask: int, polarity: int) -> None:
    """Apply one gate row in place to the (2,)*n view of a diagonal.

    Each control axis is fixed at its polarity and the target's 0 and 1
    slices are exchanged, so only the 2**(n-k) entries the gate moves
    are read or written.  The trailing None keeps a fully controlled
    gate's slices views rather than scalars.
    """
    index = [slice(None)] * t.ndim
    for q in _qubits(mask):
        index[q - 1] = (polarity >> (q - 1)) & 1
    index[target - 1] = 0
    low = t[(*index, None)]
    index[target - 1] = 1
    high = t[(*index, None)]
    saved = low.copy()
    low[...] = high
    high[...] = saved


def _mix_toward_uniform(t: np.ndarray, axes: tuple[int, ...], probability) -> None:
    """Depolarize the given axes of t in place; probability is a number,
    or an array that broadcasts against t, such as one per level."""
    # t.mean, bit for bit, without its Python-level wrapper.
    uniform = np.add.reduce(t, axis=axes, keepdims=True)
    uniform /= 1 << len(axes)
    uniform *= probability
    t *= 1.0 - probability
    t += uniform


@functools.lru_cache(maxsize=4096)
def _axes(mask: int) -> tuple[int, ...]:
    return tuple(q - 1 for q in _qubits(mask))


def _checked_qubits(qubits: Sequence[int], n: int) -> tuple[int, ...]:
    """Sorted distinct qubits; ValueError unless each is an integer in 1..n."""
    try:
        qs = sorted(set(map(operator.index, qubits)))
    except TypeError:
        raise ValueError(f"qubits {qubits!r} must be integers") from None
    if not qs or qs[0] < 1 or qs[-1] > n:
        raise ValueError(f"qubits {qubits!r} invalid for {n}-qubit register")
    return tuple(qs)


def apply_mcnot(v: np.ndarray, gate: McNot) -> np.ndarray:
    """Pushforward of the diagonal under one multi-controlled NOT.

    Swaps the probabilities of every basis-state pair related by the
    gate, leaves the rest alone.  The input is not modified.
    """
    out = np.array(v, order="C")
    n = _register_size(out)
    if max(gate.touched) > n:
        raise ValueError(f"gate touches qubit {max(gate.touched)} of {n}")
    _swap_target(out.reshape((2,) * n), *_row(gate))
    return out


def depolarize(v: np.ndarray, qubits: Sequence[int], probability: float) -> np.ndarray:
    """Mix the listed qubits toward uniform with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("noise probability must lie in [0, 1]")
    out = np.array(v, dtype=np.float64, order="C").ravel()
    n = _register_size(out)
    axes = tuple(q - 1 for q in _checked_qubits(qubits, n))
    if probability > 0.0:
        _mix_toward_uniform(out.reshape((2,) * n), axes, probability)
    return out


def reset_qubits(v: np.ndarray, qubits: Sequence[int], bath_excitation: float) -> np.ndarray:
    """Trace out the listed qubits and retensor them at the bath excitation."""
    if not 0.0 <= bath_excitation <= 0.5:
        raise ValueError("bath excitation must lie in [0, 1/2]")
    v = np.asarray(v, dtype=np.float64)
    n = _register_size(v)
    return _reset(v, *_reset_plan(n, _checked_qubits(qubits, n), bath_excitation))


def _reset_plan(
    n: int, qubits: Sequence[int], bath_excitation
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[np.ndarray, ...]]:
    """(shape, axes, factors) that _reset needs for sorted, valid qubits.

    The shape has a leading axis of rows, so one plan resets a diagonal,
    a stack of them, or a tensor with a leading level axis.  Each factor
    is the bath's (1 - b, b) along one reset qubit's axis; a vector of
    bath excitations gives each row its own.
    """
    fresh = np.array([1.0 - bath_excitation, bath_excitation]).T
    factors = []
    for q in qubits:
        shape = [1] * n
        shape[q - 1] = 2
        factors.append(fresh.reshape(-1, *shape))
    return (-1,) + (2,) * n, tuple(qubits), tuple(factors)


def _reset(
    v: np.ndarray,
    shape: tuple[int, ...],
    axes: tuple[int, ...],
    factors: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Unchecked reset of float64 diagonals, planned by _reset_plan; each
    row's sums run in the order they run on the row alone."""
    kept = v.reshape(shape).sum(axis=axes, keepdims=True)
    for factor in factors:
        kept = kept * factor
    return kept.reshape(v.shape)


def marginal(v: np.ndarray, qubit: int = 1) -> float:
    """Probability that the given qubit reads 1."""
    v = np.asarray(v)
    n = _register_size(v)
    try:
        qubit = operator.index(qubit)
    except TypeError:
        raise ValueError(f"qubit {qubit!r} must be an integer") from None
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} outside 1..{n}")
    # Summing one contiguous run keeps the result bit-identical to a sum
    # over the masked entries in index order.
    return float(v.reshape(1 << (qubit - 1), 2, -1)[:, 1, :].ravel().sum())


def _schedule(circuit: Circuit, placement: str | None) -> Iterator[tuple]:
    """_run's steps for the circuit on the whole register, row by row.

    A row, gate or reset, is (0, target, mask, polarity, mixed, 0), mixed
    the qubits depolarized right after it; a layer that closes before an
    overlapping gate, before a reset or at the end is (0, 0, 0, 0, layer, 0).
    placement is where nonzero noise strikes, or None without noise.
    """
    per_gate, per_layer = placement == "per-gate", placement == "per-layer"
    layer = 0  # mask of the qubits the open layer touched
    for target, mask, polarity in circuit.rows.tolist():
        touched = mask | 1 << (target - 1) if target else mask
        if layer and (not target or layer & touched):
            yield 0, 0, 0, 0, layer, 0
            layer = 0
        if target and per_layer:
            layer |= touched
        yield 0, target, mask, polarity, touched if target and per_gate else 0, 0
    if layer:
        yield 0, 0, 0, 0, layer, 0


def _run(
    t: np.ndarray, steps: Iterable[tuple], probability: np.ndarray, bath: float
) -> np.ndarray:
    """Apply steps to the (L, 2, ..., 2) tensor t; returns the final tensor.

    The leading axis holds L levels of noise, level i mixing with
    probability[i]; every other operation is the same on each level, and
    each level's sums run in the order they run on that level alone.  A
    step (new, target, mask, polarity, mixed, dropped) tensors `new`
    axes in at the bath, applies a gate row or resets the axes in mask
    (target 0), depolarizes the axes in mixed, and sums out those in
    dropped.  Axis a after the level axis is bit a of each mask and
    target a + 1.
    """
    fresh = np.array([1.0 - bath, bath])
    for new, target, mask, polarity, mixed, dropped in steps:
        for _ in range(new):
            t = np.multiply.outer(t, fresh)
        if target:
            # Shifting by one bit steps over the level axis.
            _swap_target(t, target + 1, mask << 1, polarity << 1)
        elif mask:
            t = _reset(t, *_reset_plan(t.ndim - 1, _qubits(mask), bath))
        if mixed:
            level = probability.reshape(-1, *[1] * (t.ndim - 1))
            _mix_toward_uniform(t, _axes(mixed << 1), level)
        if dropped:
            t = t.sum(axis=_axes(dropped << 1))
    return t


def simulate(
    circuit: Circuit,
    v0: np.ndarray,
    *,
    noise: NoiseModel | None = None,
    bath_excitation: float = 0.0,
) -> np.ndarray:
    """Run a circuit on a diagonal state; returns the final vector.

    Resets retensor their qubits at bath_excitation.  Noise (if any)
    strikes per gate or per layer according to the model.
    """
    if not 0.0 <= bath_excitation <= 0.5:
        raise ValueError("bath excitation must lie in [0, 1/2]")
    v = np.array(v0, dtype=np.float64, order="C").ravel()
    n = _register_size(v)
    if circuit.n_qubits != n:
        raise ValueError(
            f"circuit width {circuit.n_qubits} does not match vector ({n} qubits)"
        )
    p = noise.probability if noise is not None else 0.0
    steps = _schedule(circuit, noise.placement if p > 0.0 else None)
    t = v.reshape((1,) + (2,) * n)
    return _run(t, steps, np.array([p]), bath_excitation).ravel()


def _run_live(program: tuple, p: float, levels: np.ndarray) -> list[float]:
    """marginal(simulate(circuit, thermal_product_vector(p, n), noise=
    NoiseModel(level, placement), bath_excitation=p), 1) at each noise
    level, from the program _live_program(circuit, placement) built (with
    placement None at noise 0), run once for all levels.

    Only the live qubits are held, by the light cone of Markov and Shi
    (SIAM J. Comput. 38, 2008): a qubit is tensored in at p at its first
    gate and summed out right after its last one.  A reset discards its
    qubits; they come back at p when next touched, which is exact
    because the start and the bath are both at p.  Summing a qubit out
    commutes with the gates after it, which do not touch it, and turns
    depolarizing a set that holds it into depolarizing the rest of the
    set; so a layer's mix strikes only its qubits that are still live.
    Qubit 1 is kept to the end, as the only live qubit; if it is
    untouched since the start or its last reset, the result is p.
    """
    t = _run(np.ones(len(levels)), program, levels, p)
    return [p] * len(levels) if t.ndim == 1 else t[:, 1].tolist()


def _live_program(circuit: Circuit, placement: str | None) -> tuple[tuple, int]:
    """_schedule's steps moved onto the live qubits' axes, and the most
    qubits live at once (see _run_live).

    A gate tensors in the qubits it brings to life and sums out those
    it touches last; resets, and mixes of no live qubit, drop out.  A
    schedule whose live width exceeds the vector cap is refused before
    any array is built.
    """
    steps = tuple(_schedule(circuit, placement))

    # Backward: a gate drops each qubit it touches that no later gate
    # reads before a reset discards it.  Qubit 1 is read at the end.
    needed, drops = 1, []
    for _, target, mask, _, _, _ in reversed(steps):
        touched = mask | 1 << (target - 1) if target else 0
        drops.append(touched & ~needed)
        needed = needed | touched if target else needed & ~mask
    drops.reverse()

    axis: dict[int, int] = {}  # each live qubit's axis, in axis order
    program, width = [], 0
    for (_, target, mask, polarity, mixed, _), drop in zip(steps, drops):
        new = on = closed = mixed_axes = dropped = 0
        if target:
            for q in _qubits(mask | 1 << (target - 1)):
                if q not in axis:
                    axis[q] = len(axis)
                    new += 1
            width = max(width, len(axis))
            for q in _qubits(mask):
                on |= 1 << axis[q]
                closed |= (polarity >> (q - 1) & 1) << axis[q]
            target = axis[target] + 1
        if mixed:
            mixed_axes = sum(1 << a for q, a in axis.items() if mixed >> (q - 1) & 1)
        if drop:
            dropped = sum(1 << axis[q] for q in _qubits(drop))
            kept = [q for q in axis if not drop >> (q - 1) & 1]
            axis = {q: a for a, q in enumerate(kept)}
        if target or mixed_axes:
            program.append((new, target, on, closed, mixed_axes, dropped))
    check_qubit_cap(width)
    return tuple(program), width
