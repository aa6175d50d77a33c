"""Maximal-cooling permutation protocols.

A protocol decides which basis permutation to apply to a diagonal thermal
state so that qubit 1 (the target, most significant bit) ends as cold as
possible.  Cooling is maximal exactly when the 2**(n-1) largest diagonal
entries end up on states whose target bit is 0.  The protocols here differ
only in how they arrange entries within each half, which changes the work
cost and the synthesized circuit, never the target temperature.

All built-in protocols are phase-free permutations.
"""

from __future__ import annotations

import numpy as np

from .thermo import ThermalSpec
from .unitary import CoolingUnitary

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
        size = int(mask).bit_count()
        table = np.array(
            [(p**c) * ((1.0 - p) ** (size - c)) for c in range(size + 1)]
        )
        counts = np.bitwise_count(idx & np.uint32(mask))
        probs *= table[counts]
    return probs


def thermal_order(spec: ThermalSpec) -> np.ndarray:
    """States ranked by descending probability, ties by ascending index.

    order[k] is the k-th most probable basis state of the product thermal
    state described by spec.
    """
    probs = _grouped_probabilities(spec)
    return np.argsort(-probs, kind="stable")


def _sort_unitary(order: np.ndarray) -> CoolingUnitary:
    # Send the rank-k state to index k.
    dim = order.size
    perm = np.empty(dim, dtype=np.int64)
    perm[order] = np.arange(dim)
    return CoolingUnitary.from_permutation(perm)


def ppa_protocol(n_qubits: int) -> CoolingUnitary:
    """Full stable sort of the thermal diagonal into descending order.

    For a homogeneous register below inversion the ranking is by ascending
    excitation number, ties by ascending index, independent of the actual
    probability.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 1 << n_qubits
    w = _weights(dim)
    order = np.lexsort((np.arange(dim), w))
    return _sort_unitary(order)


def mirror_protocol(n_qubits: int) -> CoolingUnitary:
    """Swap each state with its bitwise complement when that cools.

    State j is paired with 2**n - 1 - j; the pair is swapped iff the
    lighter member sits in the target-1 half.  Every swap is between
    complementary states, which keeps cycles short (all transpositions).
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 1 << n_qubits
    w = _weights(dim)
    half = dim >> 1
    cycles = [
        (j, dim - 1 - j)
        for j in range(half, dim)
        if w[j] < w[dim - 1 - j]
    ]
    return CoolingUnitary(n_qubits, cycles)


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
    return CoolingUnitary.from_permutation(perm)


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


def heterogeneous_max_cooling(spec: ThermalSpec, target: int = 1) -> CoolingUnitary:
    """Maximal cooling of one qubit in a register of unequal temperatures.

    The diagonal is stably sorted by descending probability and laid out
    so that rank k lands on the state whose target bit is the top bit of
    k and whose remaining bits are the rest of k, mapped in significance
    order onto the non-target positions.  With target 1 this is a plain
    descending sort.  Homogeneous input with nonzero excitation
    reproduces the stable-sort protocol exactly.
    """
    n = spec.n_qubits
    if not 1 <= target <= n:
        raise ValueError(f"target {target} outside 1..{n}")
    order = thermal_order(spec)
    dim = 1 << n
    k = np.arange(dim, dtype=np.int64)
    pos_t = n - target
    b = k >> (n - 1)
    rest = k & ((1 << (n - 1)) - 1)
    dest = ((rest >> pos_t) << (pos_t + 1)) | (b << pos_t) | (rest & ((1 << pos_t) - 1))
    perm = np.empty(dim, dtype=np.int64)
    perm[order] = dest
    return CoolingUnitary.from_permutation(perm)


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
