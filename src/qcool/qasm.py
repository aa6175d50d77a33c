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
# in freshly mapped pages: with 8-qubit flip tables, a fresh-process
# export of minimal-work n = 8-11 took 334 minor faults, against 1,159
# with 4,096-row chunks.  Smaller chunks fault less still but cost more
# in per-chunk calls than they save.  A chunk's text is about 460 KB at
# n = 11 (2,730 rows) and n = 16 (1,638 rows).
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


# Most qubits a flip table covers: a row on up to 11 qubits gathers its
# text as 3 pieces (its statement between its flips), and one on up to
# 22 as 5.
_WORD = 11


# Keyed by (first qubit, width); a table also keeps each narrower one
# it doubled, and the widths one process exports need a few dozen.
@functools.lru_cache(maxsize=128)
def _word_flips(first: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, down): for each value w < 2**bits, the x statements on
    q[first + i] for the set bits i of w, by ascending and by descending
    qubit, as ASCII bytes.

    Each table doubles the one a bit narrower: a value with bit
    bits - 1 set is the one without it, with that qubit's statement last
    going up and first going down.
    """
    if not bits:
        up = down = np.array([b""], dtype=object)
    else:
        up, down = _word_flips(first, bits - 1)
        line = f"x q[{first + bits - 1}];\n".encode()
        up, down = np.concatenate((up, up + line)), np.concatenate((down, line + down))
    up.flags.writeable = down.flags.writeable = False
    return up, down


def _word_bits(n_qubits: int) -> int:
    """Qubits a word covers on n_qubits qubits: as few words as _WORD
    allows, split as evenly as they go.

    A row's pieces depend only on how many words there are, and smaller
    tables stay in cache: at n = 12-16 two words of 6-8 qubits export
    faster than 11 qubits and the rest.
    """
    return -(-n_qubits // -(-n_qubits // _WORD))


def _flip_tables(n_qubits: int) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """(flips, words): the _word_flips of each word of n_qubits qubits,
    up then down, word after word, in one array, the last word only as
    wide as the qubits it holds; and for each word its first qubit, the
    mask of a word's bits, and where its up and its down table start in
    flips."""
    bits = _word_bits(n_qubits)
    tables, words, at = [], [], 0
    for first in range(0, n_qubits, bits):
        up, down = _word_flips(first, min(bits, n_qubits - first))
        tables += [up, down]
        words.append((first, (1 << bits) - 1, at, at + len(up)))
        at += len(up) + len(down)
    return np.concatenate(tables), words


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: np.unique without its numpy.ma
    import, which costs a fresh process about 15 ms."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _chunk_rows(n_qubits: int) -> int:
    """Rows per chunk: _CHUNK_BYTES over 8 bytes for each piece of a row
    on n_qubits qubits at most, its statement and the flips of each word
    of its open controls, before and after it."""
    return _CHUNK_BYTES // (8 * (2 * -(-n_qubits // _WORD) + 1))


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


def _chunk_text(
    table: np.ndarray, words: list[tuple[int, int, int, int]], statement: np.ndarray,
    opened: np.ndarray,
) -> bytes:
    """The text of a run of rows as ASCII bytes, gathered at once from
    table, which begins with the flips of _flip_tables, laid out as
    words says: each row's statement table[statement], between the x
    flips of its open controls opened (zero on resets), by ascending
    qubit before it and by descending qubit after it.
    """
    used = int(np.bitwise_or.reduce(opened))
    before, after = [], []
    for first, mask, up, down in words:
        if (used >> first) & mask:
            word = (opened >> first) & mask
            before.append(word + up)
            after.insert(0, word + down)
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
    flips, words = _flip_tables(n)
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
        yield _chunk_text(table, words, at + len(flips), opened)


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
