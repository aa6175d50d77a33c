"""Gray-code synthesis of basis permutations into NOT-gate circuits.

A transposition of basis states x and y at Hamming distance d becomes
2d - 1 multi-controlled NOTs: walk a Gray path from x to y (one bit flip
per step, most significant differing bit first), conjugate the final step
by the preceding ladder.  Each step's gate targets the flipped bit's
qubit and is controlled on all other qubits, with polarities read off the
bits shared by the two adjacent path states.

An m-cycle (s1 s2 ... sm) is emitted as the transpositions
(s1 s2), (s1 s3), ..., (s1 sm) in circuit order, which applies
s1->s2->...->sm->s1 overall.

Two functions walk a permutation state by state, and they share no
logic.  unitary._walked_transpositions takes the transpositions that
synthesis and CoolingUnitary.cycles read, and the gate count with them.
_walked_gate_count sums the count alone for rows that never synthesize,
and keeps only an int.  Each is the faster for its own consumer:
counting six sweep-size unitaries (minimal-work n = 3, 4, 5, 8, 9 and
mirror n = 9) in a fresh process took 0.09-0.10 ms with the count walk
and 0.24-0.41 ms through the transposition walk, which is NumPy call
overhead, and counting through it raised the sweeps benchmark's slowest
call by 4.1%.  From n = 11 on, the transposition walk is as fast as the
count walk or faster, so synthesis loses nothing by taking its count
from it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuits import Circuit
from .errors import PhaseSynthesisError
from .unitary import CoolingUnitary, _transpositions, parse_state_label

__all__ = [
    "cycle_circuit",
    "gray_path",
    "synthesize_circuit",
    "synthesized_gate_count",
    "transposition_circuit",
]


def gray_path(x: int, y: int, n_qubits: int) -> list[int]:
    """States from x to y flipping one bit per step, MSB first.

    Length is hammingDistance(x, y) + 1; endpoints included.
    """
    x = parse_state_label(x, n_qubits)
    y = parse_state_label(y, n_qubits)
    if x == y:
        raise ValueError("endpoints must differ")
    path = [x]
    cur = x
    diff = x ^ y
    for pos in range(n_qubits - 1, -1, -1):
        if (diff >> pos) & 1:
            cur ^= 1 << pos
            path.append(cur)
    return path


# Transpositions synthesized per pass of _cycles_circuit; bounds the
# temporary arrays of a pass (about 5 MB at n = 16).
_BLOCK = 4096


def _cycles_circuit(
    n_qubits: int, transpositions: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Circuit:
    """The rows of the transpositions (first, other, distance) of cycles.

    transpositions is _transpositions(cycles).  Working in mask order
    (bit q - 1 for qubit q), let diff = s1 ^ sk for the transposition
    (s1 sk), and full = 2**n - 1.  The Gray path flips the set bits b of
    diff in ascending order (qubit 1 first); the step that flips b is
    the row

        (bit_length(b), full ^ b, (s1 ^ (diff & (b - 1))) & (full ^ b)).

    The 2d - 1 rows of a transposition at distance d start at the sum of
    2d - 1 over the transpositions before it: its d ladder rows, then
    the first d - 1 again in reverse.
    """
    first, other, distance = transpositions
    rows = np.empty((int((2 * distance - 1).sum()), 3), dtype=np.int64)
    end = 0
    for lo in range(0, len(first), _BLOCK):
        part = slice(lo, lo + _BLOCK)
        block = _ladders(n_qubits, first[part], other[part], distance[part])
        rows[end : end + len(block)] = block
        end += len(block)
    return Circuit._from_checked(n_qubits, rows)


def _ladders(
    n: int, first: np.ndarray, other: np.ndarray, distance: np.ndarray
) -> np.ndarray:
    """_cycles_circuit's rows for a block of transpositions, all at once,
    from the set bits of the (transpositions x n) bit matrix of diff.

    Row j of a transposition's 2d - 1 rows is its ladder row
    d - 1 - |j - (d - 1)|, so all of them are one gather from the
    ladders.
    """
    # Wide enough for the bit arithmetic below and for uint8 distances.
    first, other, distance = (a.astype(np.int64) for a in (first, other, distance))
    # Column k holds label bit n - 1 - k, which is qubit k + 1.
    shifts = np.arange(n - 1, -1, -1)
    weights = np.left_shift(1, np.arange(n, dtype=np.int64))
    diff_bits = ((first ^ other)[:, None] >> shifts) & 1
    diff = diff_bits @ weights
    s1 = ((first[:, None] >> shifts) & 1) @ weights
    # The set bits of diff_bits in row-major order: distance[t] of them
    # on row t.
    t = np.repeat(np.arange(len(distance)), distance)
    pos = np.flatnonzero(diff_bits) - n * t
    bit = np.left_shift(1, pos)
    mask = ((1 << n) - 1) ^ bit
    ladder = np.stack(
        (pos + 1, mask, (s1[t] ^ (diff[t] & (bit - 1))) & mask), axis=1
    )
    # Per output row: its transposition's last ladder row, and the
    # output row of that last ladder row, its centre.
    size = 2 * distance - 1
    last = np.repeat(np.cumsum(distance) - 1, size)
    centre = np.repeat(np.cumsum(size) - distance, size)
    return np.take(ladder, last - np.abs(np.arange(len(last)) - centre), axis=0)


def transposition_circuit(x: int, y: int, n_qubits: int) -> Circuit:
    """Circuit swapping basis states x and y, fixing all others.

    Emits 2d - 1 gates for Hamming distance d: the Gray-path ladder, the
    central step, then the ladder reversed.
    """
    x = parse_state_label(x, n_qubits)
    y = parse_state_label(y, n_qubits)
    if x == y:
        raise ValueError("endpoints must differ")
    return _cycles_circuit(n_qubits, _transpositions([(x, y)]))


def cycle_circuit(cycle, n_qubits: int) -> Circuit:
    """Circuit applying the cycle s1 -> s2 -> ... -> sm -> s1."""
    states = tuple(parse_state_label(s, n_qubits) for s in cycle)
    if len(states) < 2 or len(set(states)) != len(states):
        raise ValueError("cycle must list at least two distinct states")
    return _cycles_circuit(n_qubits, _transpositions([states]))


def synthesize_circuit(unitary: CoolingUnitary) -> Circuit:
    """Exact NOT-gate circuit for a phase-free permutation unitary.

    Cycles are taken in canonical order, so equal permutations always
    yield identical circuits.  Raises PhaseSynthesisError if any entry
    differs from 1.
    """
    if unitary.has_phases:
        raise PhaseSynthesisError(
            "phase-bearing unitary is not synthesizable as a "
            "multi-controlled-NOT circuit"
        )
    return _cycles_circuit(unitary.n_qubits, unitary._cycle_transpositions)


def synthesized_gate_count(unitary: CoolingUnitary) -> int:
    """Gates synthesize_circuit emits for unitary, without building them.

    Every one is controlled on the other n - 1 qubits; the cycle
    (s1 ... sm) costs 2 popcount(s1 ^ sk) - 1 gates for each k > 1.  The
    count is summed in one walk of the permutation, which builds no
    cycles, and the unitary keeps only the int.
    """
    if unitary._gates is None:
        unitary._gates = _walked_gate_count(unitary.indices.tolist())
    return unitary._gates


def _walked_gate_count(perm: list[int]) -> int:
    """synthesized_gate_count of the permutation perm, walked in place.

    Each cycle is met first at its smallest state s1, and walked from
    there; every state it passes is made a fixed point, so no cycle is
    walked twice.  A permutation and its inverse (the unitary's indices)
    have the same cycles as sets, so either gives the same count.
    """
    gates = 0
    for start, cur in enumerate(perm):
        while cur != start:
            gates += 2 * (start ^ cur).bit_count() - 1
            perm[cur], cur = cur, perm[cur]
    return gates
