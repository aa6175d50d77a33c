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

from .circuits import Circuit, McNot
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


def _adjacent_gate(a: int, b: int, n_qubits: int) -> McNot:
    # a and b differ in exactly one bit; the gate swaps them and fixes
    # every other basis state.
    diff = a ^ b
    pos = diff.bit_length() - 1
    controls = tuple(
        (n_qubits - p, (a >> p) & 1)
        for p in range(n_qubits - 1, -1, -1)
        if p != pos
    )
    return McNot(n_qubits - pos, controls)


def _transposition_gates(x: int, y: int, n_qubits: int) -> list[McNot]:
    path = gray_path(x, y, n_qubits)
    steps = [_adjacent_gate(a, b, n_qubits) for a, b in zip(path, path[1:])]
    return steps + steps[-2::-1]


def _cycle_gates(states: tuple[int, ...], n_qubits: int) -> list[McNot]:
    first, *others = states
    return [g for y in others for g in _transposition_gates(first, y, n_qubits)]


def transposition_circuit(x: int, y: int, n_qubits: int) -> Circuit:
    """Circuit swapping basis states x and y, fixing all others.

    Emits 2d - 1 gates for Hamming distance d: the Gray-path ladder, the
    central step, then the ladder reversed.
    """
    return Circuit(n_qubits, _transposition_gates(x, y, n_qubits))


def cycle_circuit(cycle, n_qubits: int) -> Circuit:
    """Circuit applying the cycle s1 -> s2 -> ... -> sm -> s1."""
    states = tuple(parse_state_label(s, n_qubits) for s in cycle)
    if len(states) < 2 or len(set(states)) != len(states):
        raise ValueError("cycle must list at least two distinct states")
    return Circuit(n_qubits, _cycle_gates(states, n_qubits))


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
    n = unitary.n_qubits
    return Circuit(n, [g for c in unitary.cycles for g in _cycle_gates(c, n)])


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
