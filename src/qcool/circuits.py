"""Circuit containers: multi-controlled NOT gates and reset layers.

Qubits are 1-based.  A control is a (qubit, polarity) pair; polarity 1
fires on |1> (closed control), polarity 0 on |0> (open control).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, Union

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


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        for ins in self.instructions:
            if isinstance(ins, McNot):
                high = max(ins.touched)
            elif isinstance(ins, ResetInstr):
                high = max(ins.qubits)
            else:
                raise TypeError(f"not an instruction: {ins!r}")
            if high > self.n_qubits:
                raise ValueError(
                    f"instruction touches qubit {high} of {self.n_qubits}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, self.instructions + other.instructions)

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
    by = Counter()
    resets = 0
    for ins in circuit.instructions:
        if isinstance(ins, McNot):
            by[ins.n_controls] += 1
        else:
            resets += 1
    return GateCounts(dict(sorted(by.items())), resets)


def embed(circuit: Circuit, n_total: int, qubit_map: Sequence[int]) -> Circuit:
    """Place a circuit onto chosen qubits of a wider register.

    qubit_map[j-1] is the physical qubit playing local role j.  The
    identity map onto a register of the same width returns the circuit.
    """
    if len(qubit_map) != circuit.n_qubits:
        raise ValueError("qubit_map length must equal the circuit width")
    phys = [int(q) for q in qubit_map]
    if n_total == circuit.n_qubits and phys == list(range(1, n_total + 1)):
        return circuit
    if len(set(phys)) != len(phys):
        raise ValueError("qubit_map must be injective")
    if any(not 1 <= q <= n_total for q in phys):
        raise ValueError("qubit_map targets outside the register")

    def move(ins: Instruction) -> Instruction:
        if isinstance(ins, McNot):
            return McNot(
                phys[ins.target - 1],
                tuple((phys[q - 1], b) for q, b in ins.controls),
            )
        return ResetInstr(tuple(phys[q - 1] for q in ins.qubits))

    return Circuit(n_total, tuple(move(i) for i in circuit.instructions))


def simplify_adjacent(circuit: Circuit) -> Circuit:
    """Cancel equal adjacent NOT gates; resets act as barriers."""
    out: list[Instruction] = []
    for ins in circuit.instructions:
        if out and isinstance(ins, McNot) and out[-1] == ins:
            out.pop()
        else:
            out.append(ins)
    return Circuit(circuit.n_qubits, tuple(out))
