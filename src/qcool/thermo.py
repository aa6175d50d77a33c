"""Two-level thermal populations and diagonal product states.

A qubit with energy gap E (between ground |0> and excited |1>) in thermal
equilibrium at temperature T has excited-state probability

    p = 1 / (1 + exp(E / (kB T)))

which lies in [0, 1/2) for any finite positive T.  Inverting,

    T = E / (kB ln((1 - p) / p)).

Registers are ordered so that qubit 1 is the MOST significant bit of a
basis index: the n-qubit basis state |b1 b2 ... bn> (b1 on qubit 1) has
index  sum_q  b_q * 2**(n - q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_J_PER_K, DEFAULT_QUBIT_CAP, PLANCK_J_S, check_qubit_cap
from .errors import PopulationInversionError

__all__ = [
    "EnergyGap",
    "Temperature",
    "ThermalSpec",
    "probability_from_temperature",
    "temperature_from_probability",
    "thermal_product_vector",
]


@dataclass(frozen=True)
class EnergyGap:
    """Energy spacing of a qubit, either physical (joules) or dimensionless.

    In dimensionless mode work is reported in multiples of the gap and
    temperature conversions are refused.
    """

    value: float
    dimensionless: bool = False

    def __post_init__(self) -> None:
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError("energy gap must be positive and finite")

    @classmethod
    def from_frequency_ghz(cls, frequency_ghz: float) -> "EnergyGap":
        """Gap of a transition at the given frequency, E = h f."""
        if frequency_ghz <= 0.0:
            raise ValueError("frequency must be positive")
        return cls(PLANCK_J_S * (frequency_ghz * 1e9))

    @classmethod
    def unit(cls) -> "EnergyGap":
        """Dimensionless gap of size 1 (energies counted in gap units)."""
        return cls(1.0, dimensionless=True)

    def _require_physical(self) -> None:
        if self.dimensionless:
            raise ValueError(
                "temperature conversion requires a physical energy gap"
            )


@dataclass(frozen=True)
class Temperature:
    """Absolute temperature in kelvin.  math.inf is allowed."""

    kelvin: float

    def __post_init__(self) -> None:
        if math.isnan(self.kelvin) or self.kelvin < 0.0:
            raise ValueError("temperature must be >= 0 K")

    @classmethod
    def from_millikelvin(cls, mk: float) -> "Temperature":
        return cls(mk * 1e-3)

    @property
    def millikelvin(self) -> float:
        return self.kelvin * 1e3


def probability_from_temperature(temperature: Temperature, gap: EnergyGap) -> float:
    """Excited-state probability of a two-level system at equilibrium.

    Monotonically increasing in T (0 at T=0, 1/2 at T=inf) and decreasing
    in the gap.
    """
    gap._require_physical()
    t = temperature.kelvin
    if math.isinf(t):
        return 0.5
    # k T is 0 at T = 0 and where it underflows, below about 1e-300 K.
    kt = BOLTZMANN_J_PER_K * t
    if kt == 0.0:
        return 0.0
    # exp(-x) form never overflows; it underflows to p = 0 for huge x.
    e = math.exp(-gap.value / kt)
    return e / (1.0 + e)


def temperature_from_probability(p: float, gap: EnergyGap) -> Temperature:
    """Temperature whose equilibrium excited probability is p.

    Raises PopulationInversionError for p > 1/2 (negative-temperature
    regime).  p = 1/2 maps to infinite temperature, p = 0 to 0 K.
    """
    return Temperature(_kelvin(p, gap))


def _kelvin(p: float, gap: EnergyGap) -> float:
    """temperature_from_probability(p, gap).kelvin, with its checks,
    without building the Temperature."""
    gap._require_physical()
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise ValueError("probability must lie in [0, 1]")
    if p > 0.5:
        raise PopulationInversionError(
            f"population inversion (p = {p}), no nonnegative temperature"
        )
    if p == 0.5:
        return math.inf
    if p == 0.0:
        return 0.0
    # log1p keeps precision for small p.
    return gap.value / (BOLTZMANN_J_PER_K * (math.log1p(-p) - math.log(p)))


@dataclass(frozen=True)
class ThermalSpec:
    """Per-qubit excited probabilities of a product thermal state.

    excitations[q-1] belongs to qubit q.  Entries must lie in [0, 1/2)
    (equilibrium populations below inversion).
    """

    excitations: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.excitations) < 1:
            raise ValueError("at least one qubit required")
        for q, p in enumerate(self.excitations, start=1):
            if not 0.0 <= p < 0.5 or math.isnan(p):
                raise ValueError(
                    f"qubit {q}: excitation {p} outside [0, 1/2)"
                )
        object.__setattr__(self, "excitations", tuple(float(p) for p in self.excitations))

    @classmethod
    def homogeneous(cls, p: float, n_qubits: int) -> "ThermalSpec":
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        return cls((p,) * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.excitations)


def thermal_product_vector(
    spec: ThermalSpec | float,
    n_qubits: int | None = None,
    *,
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Diagonal of the product thermal state as a length-2**n probability vector.

    Accepts either a ThermalSpec or a single probability plus n_qubits.
    Entry j is the product over qubits of p or (1-p) according to the bits
    of j.  The result sums to 1 by construction.
    """
    if not isinstance(spec, ThermalSpec):
        if n_qubits is None:
            raise TypeError("n_qubits required when a bare probability is given")
        spec = ThermalSpec.homogeneous(float(spec), n_qubits)
    elif n_qubits is not None and n_qubits != spec.n_qubits:
        raise ValueError("n_qubits disagrees with the spec length")
    check_qubit_cap(spec.n_qubits, cap)
    return product_diagonal(spec.excitations)


def product_diagonal(excitations) -> np.ndarray:
    """Diagonal of a product state with the given per-qubit excitations.

    Unlike thermal_product_vector this takes any excitation in [0, 1]
    unchecked, such as a target depolarized to 1/2.  Excitations may be
    arrays of B rows; row i of the (B, 2**n) result is then the diagonal
    of the i-th excitations, bit for bit.
    """
    v, pairs = None, {}
    for p in excitations:
        # Entry 2i + j is v[i] * (1 - p, p)[j], as in np.kron without
        # its reshaping; each excitation object is paired once.
        if id(p) not in pairs:
            x = np.asarray(p, dtype=np.float64)[..., None, None]
            pairs[id(p)] = np.concatenate((1.0 - x, x), axis=-1)
        w = pairs[id(p)] if v is None else v[..., None] * pairs[id(p)]
        v = w.reshape(w.shape[:-2] + (-1,))
    return np.ones(1) if v is None else v
