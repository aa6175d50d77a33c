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
from typing import Iterator, TextIO

import numpy as np

from .circuits import Circuit, _qubits

__all__ = ["THERMAL_RESET_PRAGMA", "export_qasm", "write_qasm"]

THERMAL_RESET_PRAGMA = "// @thermal_reset"


# Rows per chunk of streamed text; bounds the text held at once (about
# 1 MB at n = 16).
_CHUNK_ROWS = 4096


def _statement(target: int, mask: int) -> str:
    """The text of a reset row, or of a gate row without its x flips."""
    if not target:
        return "".join(
            f"{THERMAL_RESET_PRAGMA} q[{q - 1}]\nreset q[{q - 1}];\n"
            for q in _qubits(mask)
        )
    if not mask:
        return f"x q[{target - 1}];\n"
    return f"ctrl({mask.bit_count()}) @ x {_operands(mask)}, q[{target - 1}];\n"


@functools.lru_cache(maxsize=4096)
def _operands(mask: int) -> str:
    return ", ".join(f"q[{q - 1}]" for q in _qubits(mask))


@functools.lru_cache(maxsize=8)
def _byte_flips(j: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, down): for each byte value b, the x statements on q[8j + i]
    for the set bits i of b, by ascending and by descending qubit, as
    ASCII bytes.

    Built in one pass: b's lowest set bit i leads its ascending text and
    ends its descending one, around the text of b without that bit.
    """
    lines = [f"x q[{8 * j + i}];\n".encode() for i in range(8)]
    up = [b""] * 256
    down = [b""] * 256
    for b in range(1, 256):
        rest = b & (b - 1)
        line = lines[(b ^ rest).bit_length() - 1]
        up[b] = line + up[rest]
        down[b] = down[rest] + line
    up, down = np.array(up, dtype=object), np.array(down, dtype=object)
    up.flags.writeable = down.flags.writeable = False
    return up, down


def _statements(
    target: np.ndarray, mask: np.ndarray, n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """(table, key): the _statement text of each distinct (target, mask),
    formatted once as ASCII bytes, and each row's index into table.

    A row is keyed by (index of its mask among the distinct masks,
    target), a pair that fits one integer whatever the width.
    """
    masks = np.sort(mask)
    masks = masks[np.append(True, masks[1:] != masks[:-1])]
    key = np.searchsorted(masks, mask) * (n_qubits + 1) + target
    present = np.zeros(len(masks) * (n_qubits + 1), dtype=bool)
    present[key] = True
    keys = np.flatnonzero(present)
    table = np.empty(len(present), dtype=object)
    table[keys] = [
        _statement(k % (n_qubits + 1), m).encode()
        for k, m in zip(keys.tolist(), masks[keys // (n_qubits + 1)].tolist())
    ]
    return table, key


def _chunk_text(rows: np.ndarray, n_qubits: int) -> bytes:
    """The statements of rows, one row after another, as ASCII bytes.

    A row's text is its open controls' x flips, its statement, and the
    flips undone: before it by ascending qubit, after it by descending
    qubit.  Every piece is gathered at once from the statements and the
    _byte_flips tables of the open-control mask's bytes (zero on
    resets) that any row uses: one column a byte before the statement,
    ascending, and one after it, descending.
    """
    target, mask, polarity = rows.T
    opened = (mask & ~polarity) * (target != 0)
    table, key = _statements(target, mask, n_qubits)
    tables, before, after = [table], [], []
    for j in range((n_qubits + 7) // 8):
        byte = (opened >> (8 * j)) & 255
        if byte.any():
            start = len(table) + 512 * len(before)
            before.append(byte + start)
            after.insert(0, byte + start + 256)
            tables += _byte_flips(j)
    index = np.stack([*before, key, *after], axis=1)
    return b"".join(np.concatenate(tables).take(index).ravel().tolist())


def _chunks(circuit: Circuit) -> Iterator[bytes]:
    """The QASM text of circuit as ASCII bytes, in pieces of at most
    _CHUNK_ROWS rows."""
    yield (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        f"qubit[{circuit.n_qubits}] q;\n"
    ).encode()
    for start in range(0, len(circuit), _CHUNK_ROWS):
        rows = circuit.rows[start : start + _CHUNK_ROWS]
        yield _chunk_text(rows, circuit.n_qubits)


def export_qasm(circuit: Circuit) -> str:
    return "".join(chunk.decode() for chunk in _chunks(circuit))


def write_qasm(circuit: Circuit, path: str | Path | TextIO) -> None:
    """Write export_qasm(circuit) chunk by chunk to a path or a text stream.

    A path gets the bytes as they are made; a text stream gets them
    decoded.
    """
    if hasattr(path, "write"):
        return path.writelines(chunk.decode() for chunk in _chunks(circuit))
    with open(path, "wb") as f:
        f.writelines(_chunks(circuit))
