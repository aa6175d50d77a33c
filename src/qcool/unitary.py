"""Generalized permutation unitaries over computational basis states.

A cooling unitary has exactly one unit-modulus entry per row and per
column.  It is stored in compressed sparse row form as three arrays:

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


def _parse_cycles(
    cycles: Iterable[Sequence[StateLabel]], n_qubits: int
) -> list[list[int]]:
    parsed: list[list[int]] = []
    seen: set[int] = set()
    for cycle in cycles:
        states = [parse_state_label(s, n_qubits) for s in cycle]
        if len(states) < 2:
            raise DegenerateCycleError(
                f"degenerate cycle {list(cycle)!r}: fewer than two states"
            )
        if len(set(states)) != len(states):
            raise DegenerateCycleError(
                f"degenerate cycle {list(cycle)!r}: repeated state"
            )
        overlap = seen.intersection(states)
        if overlap:
            raise OverlappingCyclesError(
                f"overlapping cycles: state {min(overlap)} appears twice"
            )
        seen.update(states)
        parsed.append(states)
    return parsed


class CoolingUnitary:
    """Permutation of basis states, optionally with unit-modulus phases.

    Construct from a cycle list (``CoolingUnitary(n, cycles)``) or from a
    raw permutation (:meth:`from_permutation`).  Instances are immutable;
    the backing arrays are marked read-only.
    """

    __slots__ = ("_n", "_data", "_indices", "_indptr", "_perm", "_cycles")

    def __init__(
        self,
        n_qubits: int,
        cycles: Iterable[Sequence[StateLabel]] = (),
        *,
        phases: Sequence[complex] | np.ndarray | None = None,
        value_dtype: np.dtype | type = np.complex128,
    ) -> None:
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 1 << n_qubits
        perm = np.arange(dim, dtype=np.int32)
        for states in _parse_cycles(cycles, n_qubits):
            for src, dst in zip(states, states[1:] + states[:1]):
                perm[src] = dst
        indices = np.empty(dim, dtype=np.int32)
        indices[perm] = np.arange(dim, dtype=np.int32)
        data = _coerce_phases(phases, dim, value_dtype)
        # data is per-row: row r holds the phase of its source state.
        self._init_from_csr(n_qubits, data[indices], indices)

    def _init_from_csr(self, n_qubits: int, data: np.ndarray, indices: np.ndarray) -> None:
        dim = 1 << n_qubits
        self._n = n_qubits
        self._data = data
        self._indices = indices
        self._indptr = np.arange(dim + 1, dtype=np.int32)
        for arr in (self._data, self._indices, self._indptr):
            arr.flags.writeable = False
        self._perm = None
        self._cycles = None

    @classmethod
    def _from_csr(cls, n_qubits: int, data: np.ndarray, indices: np.ndarray) -> "CoolingUnitary":
        u = cls.__new__(cls)
        u._init_from_csr(n_qubits, data, indices)
        return u

    @classmethod
    def from_permutation(
        cls,
        permutation: np.ndarray | Sequence[int],
        n_qubits: int | None = None,
        *,
        phases: Sequence[complex] | np.ndarray | None = None,
        value_dtype: np.dtype | type = np.complex128,
    ) -> "CoolingUnitary":
        """Build from a forward permutation array (perm[src] = dest)."""
        perm = np.asarray(permutation)
        if perm.dtype.kind not in "iu":
            raise ValueError("permutation entries must be integers")
        dim = perm.size
        if n_qubits is None:
            n_qubits = int(dim).bit_length() - 1
        if dim != (1 << n_qubits) or dim < 2:
            raise ValueError("permutation length must be 2**n_qubits")
        if (
            perm.min(initial=0) < 0
            or perm.max(initial=0) >= dim
            or not np.array_equal(
                np.bincount(perm, minlength=dim), np.ones(dim, dtype=np.int64)
            )
        ):
            raise ValueError("array is not a permutation of 0..2**n-1")
        indices = np.empty(dim, dtype=np.int32)
        indices[perm] = np.arange(dim, dtype=np.int32)
        data = _coerce_phases(phases, dim, value_dtype)
        return cls._from_csr(n_qubits, data[indices], indices)

    @classmethod
    def identity(cls, n_qubits: int, *, value_dtype: np.dtype | type = np.complex128) -> "CoolingUnitary":
        return cls(n_qubits, (), value_dtype=value_dtype)

    # -- structure -------------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return 1 << self._n

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def permutation(self) -> np.ndarray:
        """Forward permutation: state s is sent to permutation[s]."""
        if self._perm is None:
            perm = np.empty(self.dim, dtype=np.int32)
            perm[self._indices] = np.arange(self.dim, dtype=np.int32)
            perm.flags.writeable = False
            self._perm = perm
        return self._perm

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition of the induced permutation.

        Each cycle starts at its smallest state; cycles are ordered by
        that state; fixed points are omitted.
        """
        if self._cycles is None:
            perm = self.permutation
            seen = np.zeros(self.dim, dtype=bool)
            out: list[tuple[int, ...]] = []
            for start in range(self.dim):
                if seen[start] or perm[start] == start:
                    continue
                cyc = [start]
                seen[start] = True
                cur = int(perm[start])
                while cur != start:
                    cyc.append(cur)
                    seen[cur] = True
                    cur = int(perm[cur])
                out.append(tuple(cyc))
            self._cycles = tuple(out)
        return self._cycles

    @property
    def has_phases(self) -> bool:
        return not np.all(self._data == 1)

    @property
    def is_identity(self) -> bool:
        return bool(
            np.all(self._indices == np.arange(self.dim)) and np.all(self._data == 1)
        )

    def __repr__(self) -> str:
        moved = int(np.count_nonzero(self.permutation != np.arange(self.dim)))
        return f"CoolingUnitary(n_qubits={self._n}, moved_states={moved})"

    # -- algebra ---------------------------------------------------------

    def compose(self, other: "CoolingUnitary") -> "CoolingUnitary":
        """Matrix product self @ other (other acts first on states)."""
        if other.n_qubits != self._n:
            raise ValueError(
                f"dimension mismatch: {self._n} vs {other.n_qubits} qubits"
            )
        indices = other._indices[self._indices]
        data = self._data * other._data[self._indices]
        return CoolingUnitary._from_csr(self._n, data, indices)

    def __matmul__(self, other: "CoolingUnitary") -> "CoolingUnitary":
        return self.compose(other)

    def inverse(self) -> "CoolingUnitary":
        """Adjoint (which inverts a unitary)."""
        perm = self.permutation
        data = np.conj(self._data[perm]) if np.iscomplexobj(self._data) else self._data[perm]
        return CoolingUnitary._from_csr(self._n, data.copy(), perm.copy())

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
        out = np.zeros((self.dim, self.dim), dtype=self._data.dtype)
        out[np.arange(self.dim), self._indices] = self._data
        return out

    def memory_footprint(self) -> int:
        """Bytes held by the sparse layout (values + indices + offsets)."""
        return self._data.nbytes + self._indices.nbytes + self._indptr.nbytes


def _coerce_phases(
    phases: Sequence[complex] | np.ndarray | None,
    dim: int,
    value_dtype: np.dtype | type,
) -> np.ndarray:
    dtype = np.dtype(value_dtype)
    if dtype not in (np.dtype(np.complex128), np.dtype(np.float32)):
        raise ValueError("value dtype must be complex128 or float32")
    if phases is None:
        return np.ones(dim, dtype=dtype)
    arr = np.asarray(phases, dtype=np.complex128)
    if arr.shape != (dim,):
        raise ValueError(f"phases must have length {dim}")
    if np.max(np.abs(np.abs(arr) - 1.0)) > _PHASE_TOL:
        raise ValueError("phases must have unit modulus")
    if dtype == np.dtype(np.float32):
        if np.any(arr.imag != 0.0):
            raise ValueError("real value mode cannot hold complex phases")
        return arr.real.astype(np.float32)
    return arr.astype(np.complex128)


def random_permutation_unitary(
    n_qubits: int,
    rng: np.random.Generator | int | None = None,
    *,
    value_dtype: np.dtype | type = np.complex128,
) -> CoolingUnitary:
    """Uniformly random basis permutation, for benchmarks and tests."""
    check_qubit_cap(n_qubits)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    perm = rng.permutation(1 << n_qubits)
    return CoolingUnitary.from_permutation(perm, n_qubits, value_dtype=value_dtype)


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
    """A JSON "cycles" list, with integer labels as ints.

    A cycle is an array of at least two labels, and a label is an
    integer >= 0 or a non-empty string of 0s and 1s; _parse_cycles
    checks widths, repeats and overlaps.
    """
    if not isinstance(value, list):
        raise ConfigError(f"invalid {what}: 'cycles' must be an array, got {value!r}")
    for cycle in value:
        if not isinstance(cycle, list) or len(cycle) < 2:
            raise ConfigError(
                f"invalid {what}: cycle {cycle!r} in 'cycles' is not an "
                "array of at least two labels"
            )
        for x in cycle:
            bits = isinstance(x, str) and x != "" and set(x) <= {"0", "1"}
            if not (bits or _is_json_int(x) and x >= 0):
                raise ConfigError(
                    f"invalid {what}: label {x!r} in 'cycles' is neither "
                    "an integer >= 0 nor a string of 0s and 1s"
                )
    return [[x if isinstance(x, str) else int(x) for x in cycle] for cycle in value]


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


def unitary_from_json(
    source: str | Path | dict,
    *,
    value_dtype: np.dtype | type = np.complex128,
) -> CoolingUnitary:
    n, cycles = load_cycles_json(source)
    return CoolingUnitary(n, cycles, value_dtype=value_dtype)
