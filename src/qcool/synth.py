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
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .errors import PhaseSynthesisError
from .unitary import CoolingUnitary, parse_state_label

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


def _qubit_order(states: Sequence[int], n_qubits: int) -> list[int]:
    """Each basis state with bit n - q moved to bit q - 1, as masks use."""
    s = np.array(states, dtype=np.int64)
    out = np.zeros_like(s)
    for pos in range(n_qubits):
        out |= ((s >> pos) & 1) << (n_qubits - 1 - pos)
    return out.tolist()


def _cycles_circuit(n_qubits: int, cycles: Sequence[Sequence[int]]) -> Circuit:
    """The rows of every cycle's transpositions, in circuit order.

    Working in mask order, the Gray path from x to y flips the lowest
    differing bit first (qubit 1 first).  A step that flips `bit` from
    path state `cur` is the gate with mask full ^ bit and polarity
    cur & mask; the ladder of d steps is followed by its first d - 1
    steps reversed.
    """
    full = (1 << n_qubits) - 1
    states = _qubit_order([s for c in cycles for s in c], n_qubits)
    rows, start = array("q"), 0
    for cycle in cycles:
        first, *others = states[start : start + len(cycle)]
        start += len(cycle)
        for y in others:
            cur, diff = first, first ^ y
            ladder = []
            while diff:
                bit = diff & -diff
                mask = full ^ bit
                ladder.append((bit.bit_length(), mask, cur & mask))
                cur ^= bit
                diff ^= bit
            for row in ladder:
                rows.extend(row)
            for row in reversed(ladder[:-1]):
                rows.extend(row)
    return Circuit._from_rows(n_qubits, np.frombuffer(rows, dtype=np.int64))


def transposition_circuit(x: int, y: int, n_qubits: int) -> Circuit:
    """Circuit swapping basis states x and y, fixing all others.

    Emits 2d - 1 gates for Hamming distance d: the Gray-path ladder, the
    central step, then the ladder reversed.
    """
    x = parse_state_label(x, n_qubits)
    y = parse_state_label(y, n_qubits)
    if x == y:
        raise ValueError("endpoints must differ")
    return _cycles_circuit(n_qubits, [(x, y)])


def cycle_circuit(cycle, n_qubits: int) -> Circuit:
    """Circuit applying the cycle s1 -> s2 -> ... -> sm -> s1."""
    states = tuple(parse_state_label(s, n_qubits) for s in cycle)
    if len(states) < 2 or len(set(states)) != len(states):
        raise ValueError("cycle must list at least two distinct states")
    return _cycles_circuit(n_qubits, [states])


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
    return _cycles_circuit(unitary.n_qubits, unitary.cycles)


def synthesized_gate_count(unitary: CoolingUnitary) -> int:
    """Gates synthesize_circuit emits for unitary, without building them.

    Every one is controlled on the other n - 1 qubits; the cycle
    (s1 ... sm) costs 2 popcount(s1 ^ sk) - 1 gates for each k > 1.
    """
    return sum(
        2 * (first ^ s).bit_count() - 1
        for first, *others in unitary.cycles
        for s in others
    )
