"""OpenQASM 3 export.

Output sticks to the stdgates vocabulary: every multi-controlled NOT is a
`ctrl(k) @ x` with closed controls only, open controls being conjugated
by explicit `x` gates.  Thermal resets carry a machine-readable pragma
comment in front of the plain `reset`, since resetting to a bath
temperature (rather than to |0>) is not expressible in the language:

    // @thermal_reset q[i]
    reset q[i];

Qubit q (1-based) maps to register element q[q-1].  Export is
deterministic: equal circuits produce byte-identical text.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterator

from .circuits import Circuit, _qubits

__all__ = ["THERMAL_RESET_PRAGMA", "export_qasm", "write_qasm"]

THERMAL_RESET_PRAGMA = "// @thermal_reset"


# Rows per chunk of streamed text; bounds the text held at once (about
# 1 MB at n = 16).
_CHUNK_ROWS = 4096


def _row_text(target: int, mask: int, polarity: int) -> str:
    """The statements of one circuit row, each ending in a newline."""
    if not target:
        return "".join(
            f"{THERMAL_RESET_PRAGMA} q[{q - 1}]\nreset q[{q - 1}];\n"
            for q in _qubits(mask)
        )
    if not mask:
        return f"x q[{target - 1}];\n"
    # Open controls are conjugated by x gates, undone in reverse order.
    flips = [f"x q[{q - 1}];\n" for q in _qubits(mask & ~polarity)]
    gate = (
        f"ctrl({mask.bit_count()}) @ x {_operands(mask)}, q[{target - 1}];\n"
    )
    return "".join([*flips, gate, *reversed(flips)])


@functools.lru_cache(maxsize=4096)
def _operands(mask: int) -> str:
    return ", ".join(f"q[{q - 1}]" for q in _qubits(mask))


def _chunks(circuit: Circuit) -> Iterator[str]:
    """The QASM text of circuit, in pieces of at most _CHUNK_ROWS rows.

    Each distinct row is formatted once and its text reused.
    """
    yield (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        f"qubit[{circuit.n_qubits}] q;\n"
    )
    text: dict[tuple[int, int, int], str] = {}
    for start in range(0, len(circuit), _CHUNK_ROWS):
        columns = circuit.rows[start : start + _CHUNK_ROWS].T.tolist()
        parts = []
        for row in zip(*columns):
            line = text.get(row)
            if line is None:
                line = text[row] = _row_text(*row)
            parts.append(line)
        yield "".join(parts)


def export_qasm(circuit: Circuit) -> str:
    return "".join(_chunks(circuit))


def write_qasm(circuit: Circuit, path: str | Path) -> None:
    with open(path, "w") as f:
        f.writelines(_chunks(circuit))
