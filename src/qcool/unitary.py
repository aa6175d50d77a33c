"""Generalized permutation unitaries over computational basis states.

A cooling unitary has exactly one unit-modulus entry per row and per
column.  It stores one int32 array, indices (the source column feeding
each row), and its phases only when some phase differs from 1.  Its
compressed sparse row form is built on access:

    data     one value per row (the nonzero entry),
    indices  the source column feeding each row,
    indptr   row offsets (arange, since every row holds one value).

Basis-state labels are either integers in [0, 2**n) or binary strings of
length exactly n.  Qubit 1 is the most significant bit, so "100" on three
qubits is state 4 and names qubit 1 excited.

Cycle notation: the cycle (s1 s2 ... sm) maps s1 -> s2 -> ... -> sm -> s1;
states not listed are left untouched.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .constants import DEFAULT_DENSE_CAP, DEFAULT_QUBIT_CAP, check_qubit_cap
from .errors import (
    ConfigError,
    DegenerateCycleError,
    OverlappingCyclesError,
    ResourceLimitError,
)

__all__ = [
    "CoolingUnitary",
    "StateLabel",
    "load_cycles_json",
    "parse_state_label",
    "random_permutation_unitary",
    "unitary_from_json",
]

StateLabel = Union[int, str]

_PHASE_TOL = 1e-12


def parse_state_label(label: StateLabel, n_qubits: int) -> int:
    """Normalize a basis-state label to its integer index."""
    if isinstance(label, str):
        if len(label) != n_qubits or set(label) - {"0", "1"}:
            raise ValueError(
                f"label {label!r} is not a binary string of length {n_qubits}"
            )
        return int(label, 2)
    if isinstance(label, (int, np.integer)):
        value = int(label)
        # A shift, not 1 << n_qubits, so a huge width builds no huge number.
        if value < 0 or value >> n_qubits:
            raise ValueError(
                f"state {value} outside [0, 2**{n_qubits})"
            )
        return value
    raise TypeError(f"state label must be int or str, got {type(label).__name__}")


def _label_states(labels: list, n_qubits: int) -> tuple[np.ndarray, int]:
    """(states, bad): parse_state_label of each label, as one int64
    array, up to the first label it refuses, whose index is bad
    (len(labels) if none).

    Bit strings are read as one byte array and integers as one array
    with one range check.  Past 62 qubits a state may not fit int64, and
    labels are parsed one by one into an object array.
    """
    if n_qubits > 62:
        states = []
        for label in labels:
            try:
                states.append(parse_state_label(label, n_qubits))
            except (ValueError, TypeError):
                break
        return np.array(states + [0] * (len(labels) - len(states)), object), len(states)
    text = _instances(labels, str)
    states = np.empty(len(labels), np.int64)
    for chosen, parse in ((text, _bit_strings), (~text, _integers)):
        if chosen.any():
            states[chosen] = parse(_compress(labels, chosen), n_qubits)
    refused = np.flatnonzero(states < 0)
    return states, int(refused[0]) if len(refused) else len(labels)


def _instances(labels: list, kind) -> np.ndarray:
    """Whether each label is an instance of kind, as a bool array."""
    return np.fromiter(
        map(isinstance, labels, itertools.repeat(kind)), bool, len(labels)
    )


def _compress(labels: list, chosen: np.ndarray) -> list:
    """The labels where chosen is True."""
    return list(itertools.compress(labels, chosen.tolist()))


def _bit_strings(labels: list[str], n_qubits: int) -> np.ndarray:
    """int(label, 2) of each label of n 0s and 1s, and -1 for any other."""
    states = np.full(len(labels), -1, np.int64)
    fit = np.fromiter(map(len, labels), np.intp, len(labels)) == n_qubits
    # One byte a character: any character outside ASCII reads as "?".
    text = "".join(_compress(labels, fit)).encode("ascii", "replace")
    bits = np.frombuffer(text, np.uint8).reshape(-1, n_qubits) - ord("0")
    nbytes = (n_qubits + 7) // 8
    packed = np.zeros((len(bits), 8), np.uint8)
    packed[:, 8 - nbytes :] = np.packbits(bits, axis=1)
    value = (packed.view(">u8")[:, 0] >> (8 * nbytes - n_qubits)).astype(np.int64)
    value[np.flatnonzero(bits > 1) // n_qubits] = -1
    states[fit] = value
    return states


def _integers(labels: list, n_qubits: int) -> np.ndarray:
    """Each label that is an integer state of n qubits, and -1 for any
    other label."""
    states = np.full(len(labels), -1, np.int64)
    whole = _instances(labels, (int, np.integer))
    values = _compress(labels, whole)
    try:
        values = np.array(values, np.int64)
    except OverflowError:
        # Past int64 a label is no state; -1 marks it.
        values = np.array([v if 0 <= v < 1 << 62 else -1 for v in values], np.int64)
    values[(values >> n_qubits) != 0] = -1
    states[whole] = values
    return states


def _cycle_states(
    cycles: Iterable[Sequence[StateLabel]], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """(states, lengths): every label of cycles parsed, cycle after
    cycle, as one array, and the length of each cycle.

    Cycles are checked in turn; a cycle is refused if a label is not a
    state of n_qubits qubits (parse_state_label's error), if it holds
    fewer than two states or repeats one, or if a state appeared in an
    earlier cycle.  The first refusal is raised.
    """
    cycles = list(cycles)
    try:
        lengths = np.fromiter(map(len, cycles), np.intp, len(cycles))
    except TypeError:
        # Cycles without a length, such as iterators, become lists; one
        # that is not iterable raises after the checks of those before it.
        listed = []
        for cycle in cycles:
            try:
                listed.append(list(cycle))
            except TypeError:
                _cycle_states(listed, n_qubits)
                raise
        return _cycle_states(listed, n_qubits)
    labels = list(itertools.chain.from_iterable(cycles))
    states, bad = _label_states(labels, n_qubits)
    cycle_of = np.repeat(np.arange(len(cycles)), lengths)
    # The states before the first refused label, sorted: equal
    # neighbours are a repeat if in one cycle, else an overlap.
    order = np.argsort(states[:bad], kind="stable")
    equal = states[order[1:]] == states[order[:-1]]
    later, earlier = order[1:][equal], order[:-1][equal]
    inside = cycle_of[later] == cycle_of[earlier]
    none = len(cycles)
    first = (
        cycle_of[bad] if bad < len(labels) else none,
        int(np.argmax(lengths < 2)) if (lengths < 2).any() else none,
        cycle_of[later[inside]].min(initial=none),
        cycle_of[later[~inside]].min(initial=none),
    )
    c = min(first)
    if c == none:
        return states, lengths
    if c == first[0]:
        parse_state_label(labels[bad], n_qubits)
    cycle = list(cycles[c])
    if c == first[1]:
        raise DegenerateCycleError(
            f"degenerate cycle {cycle!r}: fewer than two states"
        )
    if c == first[2]:
        raise DegenerateCycleError(f"degenerate cycle {cycle!r}: repeated state")
    state = states[later[~inside & (cycle_of[later] == c)]].min()
    raise OverlappingCyclesError(f"overlapping cycles: state {state} appears twice")


def _cycle_permutation(
    n_qubits: int, states: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The forward permutation (int32) of _cycle_states's cycles: each
    state goes to the next of its cycle, and the last to the first."""
    ends = np.cumsum(lengths)
    after = np.arange(1, len(states) + 1)
    after[ends - 1] = ends - lengths
    perm = np.arange(1 << n_qubits, dtype=np.int32)
    perm[states] = states[after]
    return perm


def _transpositions(
    cycles: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, other, distance) of the transpositions (s1 sk), k > 1.

    Three arrays in circuit order: cycle by cycle, and within a cycle
    (s1 s2), (s1 s3), ..., (s1 sm), which applies s1 -> s2 -> ... ->
    sm -> s1 overall.  distance is the Hamming distance popcount(s1 ^ sk)
    of each.  They are int32, int32 and uint8 when every state fits in
    int32, as on every register under the qubit cap, and int64 otherwise.
    """
    later = [len(c) - 1 for c in cycles]
    first = np.repeat(np.array([c[0] for c in cycles], dtype=np.int64), later)
    other = np.fromiter(
        itertools.chain.from_iterable(c[1:] for c in cycles), np.int64, sum(later)
    )
    distance = np.bitwise_count(first ^ other)
    if max(first.max(initial=0), other.max(initial=0)) >> 31:
        return first, other, distance.astype(np.int64)
    return first.astype(np.int32), other.astype(np.int32), distance


def _walked_transpositions(perm: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_transpositions of the canonical cycles of the forward permutation
    perm, walked in place, as int32, int32 and uint8 arrays.

    Each cycle is met first at its smallest state s1 and walked from
    there in the permutation's direction, s2 = perm[s1] first; every
    state it passes is made a fixed point, so no cycle is walked twice.
    The walk keeps only each cycle's s1, the states after it and where
    it ends, and np.repeat spreads each s1 over its cycle's
    transpositions.
    """
    starts, ends, other = [], [], []
    for start, cur in enumerate(perm):
        if cur != start:
            starts.append(start)
            while cur != start:
                other.append(cur)
                perm[cur], cur = cur, perm[cur]
            ends.append(len(other))
    other = np.array(other, np.int32)
    first = np.repeat(np.array(starts, np.int32), np.diff([0, *ends]))
    return first, other, np.bitwise_count(first ^ other)


class CoolingUnitary:
    """Permutation of basis states, optionally with unit-modulus phases.

    Construct from a cycle list (``CoolingUnitary(n, cycles)``) or from a
    raw permutation (:meth:`from_permutation`).  Instances are immutable;
    every array they hand out is read-only.
    """

    # _phases holds one phase a row, or is None when every phase is 1.
    # _pairs and _gates cache synthesis's transpositions and gate count
    # (see synth), each None until first asked for.  The walk that takes
    # the transpositions sets the count too; synthesis and cycles take
    # them, and a count alone takes a walk that keeps only the int.
    __slots__ = ("_n", "_indices", "_phases", "_pairs", "_gates")

    def __init__(
        self,
        n_qubits: int,
        cycles: Iterable[Sequence[StateLabel]] = (),
        *,
        phases: Sequence[complex] | np.ndarray | None = None,
    ) -> None:
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        check_qubit_cap(n_qubits)
        perm = _cycle_permutation(n_qubits, *_cycle_states(cycles, n_qubits))
        self._init_rows(n_qubits, *_rows(perm, phases))

    def _init_rows(
        self, n_qubits: int, indices: np.ndarray, phases: np.ndarray | None
    ) -> None:
        self._n = n_qubits
        self._indices = indices
        indices.flags.writeable = False
        self._phases = None if phases is None or np.all(phases == 1) else phases
        self._pairs = None
        self._gates = None

    @classmethod
    def _from_rows(
        cls, n_qubits: int, indices: np.ndarray, phases: np.ndarray | None
    ) -> "CoolingUnitary":
        u = cls.__new__(cls)
        u._init_rows(n_qubits, indices, phases)
        return u

    @classmethod
    def _from_cycles(
        cls, n_qubits: int, states: np.ndarray, lengths: np.ndarray
    ) -> "CoolingUnitary":
        """The unitary of cycles that _cycle_states parsed on n_qubits."""
        check_qubit_cap(n_qubits)
        perm = _cycle_permutation(n_qubits, states, lengths)
        return cls._from_rows(n_qubits, *_rows(perm, None))

    @classmethod
    def from_permutation(
        cls,
        permutation: np.ndarray | Sequence[int],
        n_qubits: int | None = None,
        *,
        phases: Sequence[complex] | np.ndarray | None = None,
    ) -> "CoolingUnitary":
        """Build from a forward permutation array (perm[src] = dest)."""
        perm = np.asarray(permutation)
        if perm.dtype.kind not in "iu":
            raise ValueError("permutation entries must be integers")
        dim = perm.size
        if n_qubits is None:
            n_qubits = int(dim).bit_length() - 1
        check_qubit_cap(n_qubits)
        if n_qubits < 1 or dim != 1 << n_qubits:
            raise ValueError("permutation length must be 2**n_qubits")
        if (
            perm.min(initial=0) < 0
            or perm.max(initial=0) >= dim
            or not np.array_equal(
                np.bincount(perm, minlength=dim), np.ones(dim, dtype=np.int64)
            )
        ):
            raise ValueError("array is not a permutation of 0..2**n-1")
        return cls._from_rows(n_qubits, *_rows(perm, phases))

    @classmethod
    def identity(cls, n_qubits: int) -> "CoolingUnitary":
        return cls(n_qubits)

    # -- structure -------------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return 1 << self._n

    @property
    def data(self) -> np.ndarray:
        """The complex128 value of each row, built on each call."""
        phases = self._phases
        data = np.ones(self.dim, np.complex128) if phases is None else phases.copy()
        data.flags.writeable = False
        return data

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def indptr(self) -> np.ndarray:
        """Row offsets, 0..dim as int32, built on each call."""
        indptr = np.arange(self.dim + 1, dtype=np.int32)
        indptr.flags.writeable = False
        return indptr

    @property
    def permutation(self) -> np.ndarray:
        """Forward permutation, rebuilt on each call: s goes to permutation[s]."""
        perm = np.empty(self.dim, dtype=np.int32)
        perm[self._indices] = np.arange(self.dim, dtype=np.int32)
        perm.flags.writeable = False
        return perm

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition of the induced permutation.

        Each cycle starts at its smallest state; cycles are ordered by
        that state; fixed points are omitted.  Read from the
        transpositions (s1 sk) of synthesis's walk, which the unitary
        keeps: a cycle ends where s1 changes.
        """
        first, other, _ = self._cycle_transpositions
        starts = np.flatnonzero(np.diff(first, prepend=-1)).tolist()
        first, other = first.tolist(), other.tolist()
        ends = starts[1:] + [len(other)]
        return tuple((first[a], *other[a:b]) for a, b in zip(starts, ends))

    @property
    def _cycle_transpositions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_transpositions(self.cycles), kept read-only for synthesis.

        They come from one walk of the permutation, which also sets the
        gate count: 2 popcount(s1 ^ sk) - 1 for each (s1 sk).
        """
        if self._pairs is None:
            self._pairs = _walked_transpositions(self.permutation.tolist())
            for arr in self._pairs:
                arr.flags.writeable = False
            distance = self._pairs[2]
            self._gates = 2 * int(distance.sum(dtype=np.int64)) - len(distance)
        return self._pairs

    @property
    def has_phases(self) -> bool:
        return self._phases is not None

    @property
    def is_identity(self) -> bool:
        return self._phases is None and bool(np.all(self._indices == np.arange(self.dim)))

    def __repr__(self) -> str:
        moved = int(np.count_nonzero(self._indices != np.arange(self.dim)))
        return f"CoolingUnitary(n_qubits={self._n}, moved_states={moved})"

    # -- algebra ---------------------------------------------------------

    def compose(self, other: "CoolingUnitary") -> "CoolingUnitary":
        """Matrix product self @ other (other acts first on states)."""
        if other.n_qubits != self._n:
            raise ValueError(
                f"dimension mismatch: {self._n} vs {other.n_qubits} qubits"
            )
        indices = other._indices[self._indices]
        phases = None
        if self._phases is not None or other._phases is not None:
            phases = self.data * other.data[self._indices]
        return CoolingUnitary._from_rows(self._n, indices, phases)

    def __matmul__(self, other: "CoolingUnitary") -> "CoolingUnitary":
        return self.compose(other)

    def inverse(self) -> "CoolingUnitary":
        """Adjoint (which inverts a unitary)."""
        perm = self.permutation
        phases = None if self._phases is None else np.conj(self._phases[perm])
        return CoolingUnitary._from_rows(self._n, perm, phases)

    def apply_to_prob_vector(self, v: np.ndarray) -> np.ndarray:
        """Diagonal of U rho U' for a diagonal rho with diagonal v.

        Phases cancel against their conjugates, so this is the plain
        permutation pushforward v'[r] = v[indices[r]].
        """
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise ValueError(
                f"vector of length {v.size} does not match {self.dim} states"
            )
        return v[self._indices]

    def to_dense(self, *, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        if self._n > cap:
            raise ResourceLimitError(
                f"dense matrix for {self._n} qubits exceeds the cap of {cap}"
            )
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[np.arange(self.dim), self._indices] = self.data
        return out

    def memory_footprint(self) -> int:
        """Bytes of the CSR layout: complex128 values, int32 indices and
        int32 offsets, 24 * 2**n + 4, whatever the unitary keeps."""
        return 24 * self.dim + 4


def _rows(
    perm: np.ndarray, phases: Sequence[complex] | np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The int32 indices of the forward permutation perm (perm[src] =
    dest), and its phases, given one a state, checked and moved to
    their rows: row r holds the phase of its source state."""
    dim = perm.size
    indices = np.empty(dim, dtype=np.int32)
    indices[perm] = np.arange(dim, dtype=np.int32)
    if phases is None:
        return indices, None
    arr = np.asarray(phases, dtype=np.complex128)
    if arr.shape != (dim,):
        raise ValueError(f"phases must have length {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phases must be finite")
    if np.max(np.abs(np.abs(arr) - 1.0)) > _PHASE_TOL:
        raise ValueError("phases must have unit modulus")
    return indices, arr[indices]


def random_permutation_unitary(
    n_qubits: int, rng: np.random.Generator | int | None = None
) -> CoolingUnitary:
    """Uniformly random basis permutation, for benchmarks and tests."""
    check_qubit_cap(n_qubits)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    perm = rng.permutation(1 << n_qubits)
    return CoolingUnitary.from_permutation(perm, n_qubits)


def _load_document(source: str | Path | dict, what: str) -> dict:
    """The JSON object at a path, or source itself; ConfigError if none."""
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(Path(source).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(source, dict):
        raise ConfigError(
            f"invalid {what}: expected a JSON object, got {type(source).__name__}"
        )
    return source


def _is_json_int(value: object) -> bool:
    """Whether value is a JSON integer: 3 and 3.0 are, true is not."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(
    doc: dict, allowed: Sequence[str], required: Sequence[str], what: str
) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"invalid {what}: unexpected field {key!r}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"invalid {what}: missing field {key!r}")


def _json_cycles(value: object, what: str) -> list[list[StateLabel]]:
    """A JSON "cycles" list, with integer labels as ints: value itself
    when every label is already a str or an int.

    A cycle is an array of at least two labels, and a label is an
    integer >= 0 or a non-empty string of 0s and 1s; _cycle_states
    checks widths, repeats and overlaps.  Cycles are checked in turn,
    each one's shape before its labels.
    """
    if not isinstance(value, list):
        raise ConfigError(f"invalid {what}: 'cycles' must be an array, got {value!r}")
    shaped = [isinstance(c, list) and len(c) >= 2 for c in value]
    k = shaped.index(False) if not all(shaped) else len(value)
    labels = list(itertools.chain.from_iterable(value[:k]))
    good = _json_labels(labels)
    if not good.all():
        raise ConfigError(
            f"invalid {what}: label {labels[int(np.argmin(good))]!r} in 'cycles' "
            "is neither an integer >= 0 nor a string of 0s and 1s"
        )
    if k < len(value):
        raise ConfigError(
            f"invalid {what}: cycle {value[k]!r} in 'cycles' is not an "
            "array of at least two labels"
        )
    if set(map(type, labels)) <= {str, int}:
        return value
    return [[x if isinstance(x, str) else int(x) for x in cycle] for cycle in value]


def _json_labels(labels: list) -> np.ndarray:
    """Whether each label is an integer >= 0 or a non-empty string of 0s
    and 1s, strings checked as one byte array."""
    good = np.empty(len(labels), bool)
    text = _instances(labels, str)
    if text.any():
        strings = _compress(labels, text)
        ends = np.cumsum(np.fromiter(map(len, strings), np.intp, len(strings)))
        # One byte a character: any character outside ASCII reads as "?".
        codes = np.frombuffer("".join(strings).encode("ascii", "replace"), np.uint8)
        binary = np.diff(ends, prepend=0) > 0
        binary[np.searchsorted(ends, np.flatnonzero(codes - ord("0") > 1), "right")] = False
        good[text] = binary
    if not text.all():
        others = _compress(labels, ~text)
        if set(map(type, others)) == {int}:
            good[~text] = np.array(others, object) >= 0
        else:
            good[~text] = [_is_json_int(x) and x >= 0 for x in others]
    return good


def load_cycles_json(source: str | Path | dict) -> tuple[int, list[list[StateLabel]]]:
    """Read a cycle-list document.

    The document is an object {"n": <qubits>, "cycles": [[state, ...], ...]}
    with 1 <= n <= 24, where states are integers or binary strings.
    Returns (n, cycles); label parsing and overlap checks happen when
    the unitary is built.  Raises ConfigError naming the bad field.
    """
    what = "cycle list"
    doc = _load_document(source, what)
    _check_keys(doc, ("n", "cycles"), ("n", "cycles"), what)
    n = doc["n"]
    if not (_is_json_int(n) and 1 <= n <= DEFAULT_QUBIT_CAP):
        raise ConfigError(
            f"invalid {what}: 'n' must be an integer in 1..{DEFAULT_QUBIT_CAP}, got {n!r}"
        )
    return int(n), _json_cycles(doc["cycles"], what)


def unitary_from_json(source: str | Path | dict) -> CoolingUnitary:
    n, cycles = load_cycles_json(source)
    return CoolingUnitary(n, cycles)
