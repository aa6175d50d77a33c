"""Maximal-cooling permutation protocols.

A protocol decides which basis permutation to apply to a diagonal thermal
state so that qubit 1 (the target, most significant bit) ends as cold as
possible.  Cooling is maximal exactly when the 2**(n-1) largest diagonal
entries end up on states whose target bit is 0.  The protocols here differ
only in how they arrange entries within each half, which changes the work
cost and the synthesized circuit, never the target temperature.

All built-in protocols are phase-free permutations.  Each builder
constructs a bijection of the basis states, so it builds its unitary
without from_permutation's check that the array is one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .constants import check_qubit_cap
from .thermo import ThermalSpec
from .unitary import CoolingUnitary, _rows

__all__ = [
    "BUILTIN_PROTOCOLS",
    "heterogeneous_max_cooling",
    "minimal_work_protocol",
    "mirror_protocol",
    "ppa_protocol",
    "protocol_unitary",
    "thermal_order",
]

BUILTIN_PROTOCOLS = ("ppa", "mirror", "minimal-work")


def _weights(dim: int) -> np.ndarray:
    return np.bitwise_count(np.arange(dim, dtype=np.uint32)).astype(np.int64)


def _grouped_probabilities(spec: ThermalSpec) -> np.ndarray:
    """Joint probabilities keyed so equal values are bit-identical floats.

    Qubits sharing the same excitation are grouped; each state's
    probability is a product of one table lookup per group, so two states
    related by a permutation within groups compare exactly equal.  That
    makes stable sorts insensitive to floating-point rounding.
    """
    n = spec.n_qubits
    idx = np.arange(1 << n, dtype=np.uint32)
    groups: dict[float, int] = {}
    for q, p in enumerate(spec.excitations, start=1):
        groups.setdefault(p, 0)
        groups[p] |= 1 << (n - q)
    probs = np.ones(1 << n, dtype=np.float64)
    for p, mask in groups.items():
        table = np.array(_table(p, int(mask).bit_count()))
        counts = np.bitwise_count(idx & np.uint32(mask))
        probs *= table[counts]
    return probs


def _table(p: float, size: int) -> list[float]:
    # Probability of c excitations on given ones of size qubits at p.
    return [(p**c) * ((1.0 - p) ** (size - c)) for c in range(size + 1)]


def thermal_order(spec: ThermalSpec) -> np.ndarray:
    """States ranked by descending probability, ties by ascending index.

    order[k] is the k-th most probable basis state of the product thermal
    state described by spec.
    """
    check_qubit_cap(spec.n_qubits)
    probs = _grouped_probabilities(spec)
    return np.argsort(-probs, kind="stable")


def _thermal_orders(t: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """Row i is thermal_order of the n-qubit excitations (t[i], p[i], ...):
    each probability is _grouped_probabilities's product of two table
    entries, except in rows with t == p (one group), ranked on their own."""
    check_qubit_cap(n)
    idx = np.arange(1 << n, dtype=np.uint32)
    rest = np.bitwise_count(idx & np.uint32((1 << (n - 1)) - 1))
    tables = np.array(
        [_table(a, 1) + _table(b, n - 1) for a, b in zip(t.tolist(), p.tolist())]
    )
    probs = tables[:, idx >> (n - 1)] * tables[:, 2 + rest]
    orders = np.argsort(-probs, axis=1, kind="stable")
    for i in np.flatnonzero(t == p):
        orders[i] = thermal_order(ThermalSpec((t[i],) + (p[i],) * (n - 1)))
    return orders


def ppa_protocol(n_qubits: int) -> CoolingUnitary:
    """Full stable sort of the thermal diagonal into descending order.

    For a homogeneous register below inversion the ranking is by ascending
    excitation number, ties by ascending index, independent of the actual
    probability.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    check_qubit_cap(n_qubits)
    dim = 1 << n_qubits
    w = _weights(dim)
    order = np.lexsort((np.arange(dim), w))
    # Send the rank-k state to index k.
    perm = np.empty(dim, dtype=np.int64)
    perm[order] = np.arange(dim)
    return CoolingUnitary._from_rows(n_qubits, *_rows(perm, None))


def mirror_protocol(n_qubits: int) -> CoolingUnitary:
    """Swap each state with its bitwise complement when that cools.

    State j is paired with 2**n - 1 - j; the pair is swapped iff the
    lighter member sits in the target-1 half.  Every swap is between
    complementary states, which keeps cycles short (all transpositions).
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    check_qubit_cap(n_qubits)
    dim = 1 << n_qubits
    w = _weights(dim)
    j = np.arange(dim >> 1, dim)
    j = j[w[j] < w[dim - 1 - j]]
    perm = np.arange(dim)
    perm[j] = dim - 1 - j
    perm[dim - 1 - j] = j
    return CoolingUnitary._from_rows(n_qubits, *_rows(perm, None))


def minimal_work_protocol(n_qubits: int) -> CoolingUnitary:
    """Maximal cooling at the least possible work cost.

    Within each half of the register (target bit 0 and target bit 1) the
    slots sorted by (energy, index) receive that half's incoming
    probability multiset sorted in descending order; matching heavy onto
    low is work-optimal by an exchange argument.  Within an
    equal-probability class any realization costs the same, so states
    already occupying a slot of their own class are left fixed and the
    rest are matched in ascending order, which minimizes the number of
    moved states.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    check_qubit_cap(n_qubits)
    dim = 1 << n_qubits
    half = dim >> 1
    w = _weights(dim)
    order = np.lexsort((np.arange(dim), w))
    perm = np.arange(dim, dtype=np.int64)
    for slots, sources in (
        (np.lexsort((np.arange(half), w[:half])), order[:half]),
        (half + np.lexsort((np.arange(half), w[half:])), order[half:]),
    ):
        _assign_half(perm, slots, sources, w)
    return CoolingUnitary._from_rows(n_qubits, *_rows(perm, None))


def _assign_half(
    perm: np.ndarray, slots: np.ndarray, sources: np.ndarray, w: np.ndarray
) -> None:
    # slots and sources are both sorted by (weight, index) and pair off
    # positionally; a run is a stretch of equal source weight.  A state
    # that is a source and a slot of the same run stays put, and each
    # run's other sources (already in index order) take its other slots
    # in index order.
    sw = w[sources]
    run = np.concatenate(([0], np.cumsum(sw[1:] != sw[:-1])))
    src_run = np.full(perm.size, -1)
    src_run[sources] = run
    slot_run = np.full(perm.size, -1)
    slot_run[slots] = run
    moved = slot_run[sources] != run
    free = src_run[slots] != run
    dest = sources.copy()
    dest[moved] = slots[free][np.lexsort((slots[free], run[free]))]
    perm[sources] = dest


class _Shared:
    """Cooling unitaries kept for reuse under exact keys, bounded in states.

    get returns one shared unitary per key, so its transpositions and
    gate count are computed once for all callers (unitaries are
    immutable).  Past cap basis states in all, the least recently used
    entries go first, but the newest is always kept: the table holds at
    most max(cap, newest) states.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.table: dict[tuple, CoolingUnitary] = {}
        self.states = 0

    def get(self, key: tuple, build: Callable[[], CoolingUnitary]) -> CoolingUnitary:
        """The unitary under key, built and stored if absent; now newest."""
        u = self.table.pop(key, None)
        if u is None:
            u = build()
            self.states += u.dim
        self.table[key] = u
        while self.states > self.cap and len(self.table) > 1:
            self.states -= self.table.pop(next(iter(self.table))).dim
        return u


# Every protocol and later-round unitary a sweep reuses.  At most 2**20
# basis states besides the newest: a 20-qubit unitary on its own, or
# 2**15 5-qubit ones.  A unitary keeps its int32 indices, its gate count
# once counted, and its transposition arrays once synthesized: 5-13
# bytes a state (measured at 14 to 20 qubits), so the table keeps at
# most about 13 MiB alive, plus 8 bytes a state for each ranking key.
_shared = _Shared(1 << 20)


def heterogeneous_max_cooling(spec: ThermalSpec, target: int = 1) -> CoolingUnitary:
    """Maximal cooling of one qubit in a register of unequal temperatures.

    The diagonal is stably sorted by descending probability and laid out
    so that rank k lands on the state whose target bit is the top bit of
    k and whose remaining bits are the rest of k, mapped in significance
    order onto the non-target positions.  With target 1 this is a plain
    descending sort.  Homogeneous input with nonzero excitation
    reproduces the stable-sort protocol exactly.

    Calls with the same ranking and target return one shared unitary
    from _shared, keyed by the ranking itself.
    """
    n = spec.n_qubits
    if not 1 <= target <= n:
        raise ValueError(f"target {target} outside 1..{n}")
    return _max_cooling(thermal_order(spec), target)


def _max_cooling(order: np.ndarray, target: int = 1) -> CoolingUnitary:
    """heterogeneous_max_cooling of the register whose ranking is order."""
    n = order.size.bit_length() - 1

    def build() -> CoolingUnitary:
        k = np.arange(1 << n, dtype=np.int64)
        pos_t = n - target
        b = k >> (n - 1)
        rest = k & ((1 << (n - 1)) - 1)
        dest = ((rest >> pos_t) << (pos_t + 1)) | (b << pos_t) | (rest & ((1 << pos_t) - 1))
        perm = np.empty(1 << n, dtype=np.int64)
        perm[order] = dest
        return CoolingUnitary._from_rows(n, *_rows(perm, None))

    return _shared.get((n, target, order.tobytes()), build)


def protocol_unitary(protocol: str, n_qubits: int) -> CoolingUnitary:
    """Look up a built-in protocol by name."""
    try:
        builder = {
            "ppa": ppa_protocol,
            "mirror": mirror_protocol,
            "minimal-work": minimal_work_protocol,
        }[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {BUILTIN_PROTOCOLS}"
        ) from None
    return builder(n_qubits)
