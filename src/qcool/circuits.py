"""Circuit containers: multi-controlled NOT gates and reset layers.

Qubits are 1-based.  A control is a (qubit, polarity) pair; polarity 1
fires on |1> (closed control), polarity 0 on |0> (open control).

A Circuit holds one integer row per instruction in an (m, 3) int64
array.  Bit q - 1 of a mask stands for qubit q.  A gate row is
(target, control mask, polarity mask), the polarity mask holding the
controls that fire on |1>; a reset row is (0, mask of its qubits, 0).
McNot and ResetInstr are the per-instruction view of those rows.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Circuit",
    "GateCounts",
    "Instruction",
    "McNot",
    "ResetInstr",
    "embed",
    "gate_counts",
    "simplify_adjacent",
]

# Masks are int64 and stay nonnegative.
_MAX_WIDTH = 63


@dataclass(frozen=True)
class McNot:
    """NOT on `target` conditioned on every control matching its polarity."""

    target: int
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        ctr = tuple(sorted((int(q), int(b)) for q, b in self.controls))
        object.__setattr__(self, "controls", ctr)
        object.__setattr__(self, "target", int(self.target))
        if self.target < 1:
            raise ValueError("target qubit must be >= 1")
        qubits = [q for q, _ in ctr]
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate control qubit")
        if self.target in qubits:
            raise ValueError("target cannot also be a control")
        if any(b not in (0, 1) for _, b in ctr):
            raise ValueError("control polarity must be 0 or 1")
        if any(q < 1 for q in qubits):
            raise ValueError("control qubits must be >= 1")

    @property
    def touched(self) -> tuple[int, ...]:
        """Qubits the gate acts on or reads, ascending."""
        return tuple(sorted([self.target, *(q for q, _ in self.controls)]))

    @property
    def n_controls(self) -> int:
        return len(self.controls)


@dataclass(frozen=True)
class ResetInstr:
    """Return the listed qubits to the bath temperature."""

    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        qs = tuple(sorted(int(q) for q in self.qubits))
        object.__setattr__(self, "qubits", qs)
        if not qs:
            raise ValueError("reset needs at least one qubit")
        if len(set(qs)) != len(qs):
            raise ValueError("duplicate qubit in reset")
        if qs[0] < 1:
            raise ValueError("qubits must be >= 1")


Instruction = Union[McNot, ResetInstr]


@functools.lru_cache(maxsize=4096)
def _qubits(mask: int) -> tuple[int, ...]:
    """Qubits whose bits are set in mask, ascending.

    Cached: a synthesized circuit repeats the same few masks (all
    controls but one) on every gate.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _row(ins: Instruction) -> tuple[int, int, int]:
    if isinstance(ins, McNot):
        mask = polarity = 0
        for q, b in ins.controls:
            mask |= 1 << (q - 1)
            polarity |= b << (q - 1)
        return ins.target, mask, polarity
    if isinstance(ins, ResetInstr):
        return 0, sum(1 << (q - 1) for q in ins.qubits), 0
    raise TypeError(f"not an instruction: {ins!r}")


def _instruction(target: int, mask: int, polarity: int) -> Instruction:
    if not target:
        return ResetInstr(_qubits(mask))
    return McNot(
        target, tuple((q, (polarity >> (q - 1)) & 1) for q in _qubits(mask))
    )


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= _MAX_WIDTH:
        raise ValueError(f"n_qubits must lie in 1..{_MAX_WIDTH}")


def _check_rows(n: int, rows: np.ndarray) -> None:
    """Raise unless every row is a valid instruction on n qubits."""
    target, mask, polarity = rows.T
    gate = target != 0
    outside = (target < 0) | (target > n) | (mask < 0) | ((mask >> n) != 0)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(_outside(n, int(target[i]), int(mask[i])))
    target_bit = np.left_shift(1, np.maximum(target - 1, 0)) * gate
    if (mask & target_bit).any():
        raise ValueError("target cannot also be a control")
    if (polarity & ~(mask * gate)).any():
        raise ValueError("control polarity outside the control mask")
    if not mask[~gate].all():
        raise ValueError("reset needs at least one qubit")


def _outside(n: int, target: int, mask: int) -> str:
    """The refusal of a row whose target or control mask lies outside n
    qubits, naming the value at fault."""
    if target < 0:
        return f"instruction target {target} is negative"
    if mask < 0:
        return f"instruction control mask {mask} is negative"
    return f"instruction touches qubit {max(target, mask.bit_length())} of {n}"


class Circuit:
    """An n-qubit circuit; see the module docstring for its rows.

    Circuit(n, instructions) builds one from McNot and ResetInstr
    objects, and `instructions` gives them back.  Circuits are
    immutable and compare by value.
    """

    __slots__ = ("n_qubits", "rows")

    def __init__(
        self, n_qubits: int, instructions: Iterable[Instruction] = ()
    ) -> None:
        rows = [_row(ins) for ins in instructions]
        try:
            array = np.array(rows, dtype=np.int64).reshape(-1, 3)
        except OverflowError:
            raise ValueError(
                f"instruction touches a qubit beyond {_MAX_WIDTH}"
            ) from None
        self._fill(n_qubits, array)
        _check_rows(self.n_qubits, self.rows)

    @classmethod
    def _from_rows(cls, n_qubits: int, rows: np.ndarray) -> "Circuit":
        """A circuit of raw rows, each checked: the entry for rows from
        outside, such as unpickled ones.  rows must be an integer array
        of shape (k, 3)."""
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype.kind in "iu"
            and rows.ndim == 2
            and rows.shape[1] == 3
        ):
            got = (
                f"{rows.dtype} of shape {rows.shape}"
                if isinstance(rows, np.ndarray)
                else type(rows).__name__
            )
            raise ValueError(f"rows must be an integer array of shape (k, 3), got {got}")
        if rows.dtype == np.uint64:
            # Named as given: past 2**63 a value would wrap to a negative
            # int64 one.
            wide = (rows[:, :2] >> 63).any(axis=1)
            if wide.any():
                i = int(np.argmax(wide))
                raise ValueError(_outside(int(n_qubits), int(rows[i, 0]), int(rows[i, 1])))
        circuit = cls._from_checked(n_qubits, rows)
        _check_rows(circuit.n_qubits, circuit.rows)
        return circuit

    @classmethod
    def _from_checked(cls, n_qubits: int, rows: np.ndarray) -> "Circuit":
        """A circuit of rows built from rows already checked on n_qubits
        qubits (gathered, tiled, moved by a checked qubit map), or from
        checked labels, as synthesis does: no row is checked again."""
        circuit = object.__new__(cls)
        circuit._fill(n_qubits, rows)
        return circuit

    def _fill(self, n_qubits: int, rows: np.ndarray) -> None:
        n = int(n_qubits)
        _check_width(n)
        rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 3)
        rows.flags.writeable = False
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Circuit is immutable")

    def __reduce__(self):
        return Circuit._from_rows, (self.n_qubits, self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n_qubits == other.n_qubits and np.array_equal(
            self.rows, other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.rows.tobytes()))

    def __repr__(self) -> str:
        # At most 8 rows: the per-gate view of minimal-work n = 16 is 111 MB.
        head = repr(Circuit._from_checked(self.n_qubits, self.rows[:8]).instructions)
        return (
            f"Circuit(n_qubits={self.n_qubits}, rows={len(self)}, "
            f"instructions={head[:-1]}{', ...' if len(self) > 8 else ''}))"
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __add__(self, other: "Circuit") -> "Circuit":
        if not isinstance(other, Circuit):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit._from_checked(
            self.n_qubits, np.concatenate((self.rows, other.rows))
        )

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        # Instructions are immutable, so equal rows share one object.
        made: dict[tuple[int, int, int], Instruction] = {}
        out = []
        for row in zip(*self.rows.T.tolist()):
            ins = made.get(row)
            if ins is None:
                ins = made[row] = _instruction(*row)
            out.append(ins)
        return tuple(out)

    @property
    def mcnots(self) -> tuple[McNot, ...]:
        return tuple(i for i in self.instructions if isinstance(i, McNot))


@dataclass(frozen=True)
class GateCounts:
    """NOT-gate tally by control count; resets tallied separately."""

    by_controls: dict[int, int] = field(default_factory=dict)
    resets: int = 0

    @property
    def total(self) -> int:
        return sum(self.by_controls.values())


def gate_counts(circuit: Circuit) -> GateCounts:
    target, mask, _ = circuit.rows.T
    gate = target != 0
    # A bincount, not np.unique: np.unique without return_counts imports
    # numpy.ma (its masked input check), about 15 ms in a fresh process.
    count = np.bincount(np.bitwise_count(mask[gate]))
    k = np.flatnonzero(count)
    resets = len(target) - int(np.count_nonzero(gate))
    return GateCounts(dict(zip(k.tolist(), count[k].tolist())), resets)


def embed(circuit: Circuit, n_total: int, qubit_map: Sequence[int]) -> Circuit:
    """Place a circuit onto chosen qubits of a wider register.

    qubit_map[j-1] is the physical qubit playing local role j.  The
    identity map onto a register of the same width returns the circuit.
    """
    if len(qubit_map) != circuit.n_qubits:
        raise ValueError("qubit_map length must equal the circuit width")
    try:
        phys = [operator.index(q) for q in qubit_map]
    except TypeError:
        raise ValueError(f"qubit_map {qubit_map!r} must hold integers") from None
    if n_total == circuit.n_qubits and phys == list(range(1, n_total + 1)):
        return circuit
    _check_width(n_total)
    if len(set(phys)) != len(phys):
        raise ValueError("qubit_map must be injective")
    if any(not 1 <= q <= n_total for q in phys):
        raise ValueError("qubit_map targets outside the register")
    target, mask, polarity = circuit.rows.T
    moved = np.zeros_like(circuit.rows)
    moved[:, 0] = np.array([0, *phys])[target]  # a reset row keeps target 0
    for j, q in enumerate(phys):
        moved[:, 1] |= ((mask >> j) & 1) << (q - 1)
        moved[:, 2] |= ((polarity >> j) & 1) << (q - 1)
    return Circuit._from_checked(n_total, moved)


# Fewest open seams for which simplify_adjacent runs another whole-array
# round; below it, each seam is walked out on its own.
_ROUND_SEAMS = 32


def simplify_adjacent(circuit: Circuit) -> Circuit:
    """Cancel equal adjacent NOT gates; resets act as barriers.

    Each gate is its own inverse, and the rewriting g g -> (nothing) is
    confluent, so any order of cancellations leaves the same rows as a
    stack pass does.  Rows are compared once, then only at the seams
    removals open: the two rows that become adjacent across a gap.
    Whole-array rounds cancel the equal pairs among all seams at once,
    and once fewer than _ROUND_SEAMS seams are open, each is walked
    outward on its own.  Every comparison cancels two rows or closes a
    seam that a cancellation opened, so the work is linear in the rows.
    """
    rows = circuit.rows
    m = len(rows)
    gate = rows[:, 0] != 0
    # Each row as one 24-byte value, so that rows compare in one step.
    packed = rows.view(np.dtype((np.void, rows.itemsize * 3))).ravel()
    alive = np.ones(m, dtype=bool)
    # The previous and next alive row of each alive row; -1 and m past
    # the ends.  Kept only at the edges of gaps, which is all a seam reads.
    prev = np.arange(-1, m - 1)
    after = np.arange(1, m + 1)
    left = np.flatnonzero(gate[:-1] & (packed[:-1] == packed[1:]))
    right = left + 1
    while len(left) >= _ROUND_SEAMS:
        equal = gate[left] & (packed[left] == packed[right])
        left, right = _cancel_round(alive, prev, after, left[equal], right[equal])
    for lo, hi in zip(left.tolist(), right.tolist()):
        # A seam an earlier walk reached is closed already.
        if not (alive[lo] and alive[hi]):
            continue
        while lo >= 0 and hi < m and gate[lo] and packed.item(lo) == packed.item(hi):
            alive[lo] = alive[hi] = False
            lo, hi = prev.item(lo), after.item(hi)
        if lo >= 0:
            after[lo] = hi
        if hi < m:
            prev[hi] = lo
    return Circuit._from_checked(circuit.n_qubits, rows[alive])


def _cancel_round(
    alive: np.ndarray,
    prev: np.ndarray,
    after: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cancel the seams (left, right), pairs of equal adjacent alive rows
    in ascending order, and return the seams that opens."""
    if not len(left):
        return left, right
    # Seams that share a row form a run of equal rows; cancel every
    # other seam of it, from its first.
    run = np.ones(len(left), dtype=bool)
    run[1:] = right[:-1] != left[1:]
    starts = np.flatnonzero(run)
    take = (np.arange(len(left)) - starts[np.cumsum(run) - 1]) % 2 == 0
    left, right = left[take], right[take]
    alive[left] = alive[right] = False
    # Cancelled pairs that follow each other in alive order open one gap.
    gap = np.ones(len(left), dtype=bool)
    gap[1:] = after[right[:-1]] != left[1:]
    first = np.flatnonzero(gap)
    lo = prev[left[first]]
    hi = after[right[np.append(first[1:], len(left)) - 1]]
    inside = lo >= 0
    after[lo[inside]] = hi[inside]
    inside = hi < len(alive)
    prev[hi[inside]] = lo[inside]
    inside &= lo >= 0
    return lo[inside], hi[inside]
