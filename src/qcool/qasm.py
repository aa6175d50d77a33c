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


# Bytes per chunk of each of its gather buffers: the index, the gathered
# objects and their list, 8 bytes a piece of text (_chunk_rows).  Under
# glibc's 128 KiB mmap threshold the allocator reuses their heap blocks
# from chunk to chunk and export to export, where larger buffers fault
# in freshly mapped pages: a fresh-process export of minimal-work
# n = 8-11 takes 334 minor faults, against 1,159 with 4,096-row chunks.
# Smaller chunks fault less still but cost more in per-chunk calls than
# they save.  A chunk's text is about 260 KB at n = 11 and 440 KB at
# n = 16.
_CHUNK_BYTES = 64 * 1024

# Formatted statements one export holds at most; a chunk whose new ones
# would pass it starts the table again from its own.
_MAX_STATEMENTS = 4096

# The empty statement table: one sentinel key past every real key, so a
# search of the keys always lands on an entry.
_NO_STATEMENTS = (
    np.array([np.iinfo(np.int64).max]),
    np.array([b""], dtype=object),
)


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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: np.unique without its numpy.ma
    import, which costs a fresh process about 15 ms."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _chunk_rows(n_qubits: int) -> int:
    """Rows per chunk: _CHUNK_BYTES over 8 bytes for each piece of a row
    on n_qubits qubits at most, its statement and the flips of each byte
    of its open controls, before and after it."""
    return _CHUNK_BYTES // (8 * (2 * ((n_qubits + 7) // 8) + 1))


def _statements(
    keys: np.ndarray, text: np.ndarray, key: np.ndarray, masks: np.ndarray,
    n_qubits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, text), sorted keys and their _statement text as ASCII
    bytes, with every statement of key added, each formatted once.

    Key k stands for target k % (n_qubits + 1) and mask
    masks[k // (n_qubits + 1)].  Past _MAX_STATEMENTS, the table starts
    again from key's statements alone.
    """
    new = _distinct(key[keys[np.searchsorted(keys, key)] != key])
    if len(keys) + len(new) > _MAX_STATEMENTS:
        keys, text = _NO_STATEMENTS
        new = _distinct(key)
    formatted = [
        _statement(k % (n_qubits + 1), m).encode()
        for k, m in zip(new.tolist(), masks[new // (n_qubits + 1)].tolist())
    ]
    at = np.searchsorted(keys, new)
    return np.insert(keys, at, new), np.insert(text, at, formatted)


def _chunk_text(table: np.ndarray, statement: np.ndarray, opened: np.ndarray) -> bytes:
    """The text of a run of rows as ASCII bytes, gathered at once from
    table, which begins with the _byte_flips tables of every byte of
    the width: each row's statement table[statement], between the x
    flips of its open controls opened (zero on resets), by ascending
    qubit before it and by descending qubit after it.
    """
    used = int(np.bitwise_or.reduce(opened))
    before, after = [], []
    for j in range((used.bit_length() + 7) // 8):
        if (used >> (8 * j)) & 255:
            byte = ((opened >> (8 * j)) & 255) + 512 * j
            before.append(byte)
            after.insert(0, byte + 256)
    index = np.stack([*before, statement, *after], axis=1)
    return b"".join(table.take(index).ravel().tolist())


def _chunks(circuit: Circuit) -> Iterator[bytes]:
    """The QASM text of circuit as ASCII bytes, in chunks of at most
    _chunk_rows rows.

    The circuit's distinct masks, the flip tables and each statement are
    found once, not once per chunk: a row's statement is keyed by
    (index of its mask among the distinct masks, target), a pair that
    fits one integer whatever the width.
    """
    n = circuit.n_qubits
    yield (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        f"qubit[{n}] q;\n"
    ).encode()
    rows, size = circuit.rows, _chunk_rows(n)
    # Eight chunks at a time: sorting a copy of the whole mask column
    # would add 8 bytes a row to the peak memory of a big export, and one
    # chunk at a time takes about 2.5 times as long.
    masks = _distinct(np.concatenate([
        rows[:0, 1],
        *(_distinct(rows[s : s + 8 * size, 1]) for s in range(0, len(rows), 8 * size)),
    ]))
    flips = np.concatenate([t for j in range((n + 7) // 8) for t in _byte_flips(j)])
    keys, text = _NO_STATEMENTS
    table = flips
    for start in range(0, len(rows), size):
        target, mask, polarity = rows[start : start + size].T
        key = np.searchsorted(masks, mask) * (n + 1) + target
        at = np.searchsorted(keys, key)
        if (keys[at] != key).any():
            keys, text = _statements(keys, text, key, masks, n)
            table = np.concatenate((flips, text))
            at = np.searchsorted(keys, key)
        opened = (mask & ~polarity) * (target != 0)
        yield _chunk_text(table, at + len(flips), opened)


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
