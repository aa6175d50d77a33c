"""Cooling methods: dynamic, sub-optimal dynamic, heat-bath, semi-open.

Each method describes how cooling unitaries are arranged around a
register so that qubit 1 (the global target) ends cold:

  dynamic      one maximal-cooling unitary over all n qubits;
  suboptimal   n**r qubits cooled in r rounds of n-qubit clusters, the
               cluster targets of one round feeding the next;
  hbac         one n-qubit cluster, recooled for r rounds with designated
               qubits reset to the bath between rounds;
  semiopen     fresh auxiliaries every round, the partly-cooled target
               recooled against them with a temperature-aware unitary.

Closed-form populations avoid subtracting nearly-equal numbers: the final
ground-state deficit is always accumulated as a sum of the smallest joint
probabilities, which stays accurate deep into the low-temperature regime.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import sim
from .circuits import _MAX_WIDTH, Circuit, GateCounts, ResetInstr, embed
from .constants import DEFAULT_QUBIT_CAP, check_qubit_cap
from .errors import ConfigError, PopulationInversionError, ResourceLimitError
from .protocols import (
    BUILTIN_PROTOCOLS,
    _sort_unitary,
    _weights,
    heterogeneous_max_cooling,
    protocol_unitary,
)
from .synth import synthesize_circuit, synthesized_gate_count
from .thermo import (
    EnergyGap,
    Temperature,
    ThermalSpec,
    probability_from_temperature,
    product_diagonal,
    temperature_from_probability,
    thermal_product_vector,
)
from .unitary import (
    CoolingUnitary,
    _check_keys,
    _is_json_int,
    _json_cycles,
    _load_document,
    _parse_cycles,
)

__all__ = [
    "CoolingReport",
    "CustomProtocol",
    "Dynamic",
    "HBAC",
    "MethodConfig",
    "SemiOpen",
    "SubOptimal",
    "build_circuit",
    "config_from_json",
    "dynamic_final_p",
    "final_probability",
    "hbac_final_p",
    "method_label",
    "noisy_final_probability",
    "report",
    "semi_open_final_p",
    "sub_optimal_final_p",
    "total_qubits",
    "total_work_cost",
    "work_cost",
]


@dataclass(frozen=True)
class CustomProtocol:
    """User-supplied cycle list standing in for a built-in protocol."""

    cycles: tuple[tuple[Union[int, str], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cycles", tuple(tuple(c) for c in self.cycles)
        )


ProtocolChoice = Union[str, CustomProtocol]


def _index(value: object, field: str) -> int:
    """value as an int, for any integer type; ConfigError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{field} must be an integer, got {value!r}") from None


def _check_protocol(choice: ProtocolChoice, n_qubits: int) -> None:
    """Reject unknown protocols and custom labels not on n_qubits qubits."""
    if isinstance(choice, CustomProtocol):
        try:
            _parse_cycles(choice.cycles, n_qubits)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"custom cycles on {n_qubits} qubits: {exc}"
            ) from exc
        return
    if choice not in BUILTIN_PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {choice!r}; expected one of "
            f"{BUILTIN_PROTOCOLS} or a CustomProtocol"
        )


@functools.lru_cache(maxsize=16)
def _resolve_protocol(choice: ProtocolChoice, n_qubits: int) -> CoolingUnitary:
    # Cached so that sweeps build each unitary, and its cycles, once per
    # process; CoolingUnitary is immutable, so sharing it is safe.
    if isinstance(choice, CustomProtocol):
        return CoolingUnitary(n_qubits, choice.cycles)
    return protocol_unitary(choice, n_qubits)


@dataclass(frozen=True)
class Dynamic:
    """Single-shot cooling of qubit 1 across the whole register."""

    n_qubits: int
    protocol: ProtocolChoice = "minimal-work"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _index(self.n_qubits, "n_qubits"))
        if self.n_qubits < 2:
            raise ConfigError(f"n_qubits must be >= 2, got {self.n_qubits}")
        _check_protocol(self.protocol, self.n_qubits)

    @property
    def width(self) -> int:
        return self.n_qubits

    def label(self) -> str:
        return f"dynamic-n{self.n_qubits}"

    def closed_form(self, p: float) -> float:
        return dynamic_final_p(p, self.n_qubits)

    def plan(self, p: float | None) -> list[_Round]:
        return _cluster_tree(self, self.n_qubits, 1, p)


@dataclass(frozen=True)
class _Clustered:
    """Checks shared by the methods that repeat one n-qubit cluster.

    Each subclass declares its own protocol field after its other fields.
    """

    cluster_size: int
    rounds: int

    def __post_init__(self) -> None:
        for field in ("cluster_size", "rounds"):
            object.__setattr__(self, field, _index(getattr(self, field), field))
        if self.cluster_size < 2:
            raise ConfigError(f"cluster_size must be >= 2, got {self.cluster_size}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        _check_protocol(self.protocol, self.cluster_size)


@dataclass(frozen=True)
class SubOptimal(_Clustered):
    """Clustered dynamic cooling: n**r qubits in r rounds of n-clusters."""

    protocol: ProtocolChoice = "minimal-work"

    @property
    def width(self) -> int:
        # Past six rounds n**r exceeds every register a circuit can
        # hold; for large r it would also take seconds to compute and
        # be too long to print, so it is refused unevaluated.
        if self.rounds > _MAX_WIDTH.bit_length():
            raise ResourceLimitError(
                f"register of {self.cluster_size}**{self.rounds} qubits "
                f"exceeds the cap of {_MAX_WIDTH}"
            )
        return self.cluster_size**self.rounds

    def label(self) -> str:
        return f"suboptimal-n{self.cluster_size}-r{self.rounds}"

    def closed_form(self, p: float) -> float:
        return sub_optimal_final_p(p, self.cluster_size, self.rounds)

    def plan(self, p: float | None) -> list[_Round]:
        return _cluster_tree(self, self.cluster_size, self.rounds, p)


@dataclass(frozen=True)
class HBAC(_Clustered):
    """Heat-bath cooling: one cluster, reset chosen qubits between rounds.

    reset_qubits defaults to every auxiliary (2..n).  Resetting the
    target is permitted but pointless, so it draws a warning.
    """

    reset_qubits: tuple[int, ...] = ()
    protocol: ProtocolChoice = "minimal-work"

    def __post_init__(self) -> None:
        super().__post_init__()
        qs = tuple(sorted(_index(q, "reset_qubits") for q in self.reset_qubits))
        if not qs:
            # Listing every auxiliary of a cluster past the cap could
            # take all memory, and no such cluster can run.
            check_qubit_cap(self.cluster_size)
            qs = tuple(range(2, self.cluster_size + 1))
        object.__setattr__(self, "reset_qubits", qs)
        if len(set(qs)) != len(qs):
            raise ConfigError(f"reset_qubits {qs} repeat a qubit")
        if qs[0] < 1 or qs[-1] > self.cluster_size:
            raise ConfigError(
                f"reset_qubits {qs} outside 1..{self.cluster_size}"
            )
        if 1 in qs:
            warnings.warn(
                "resetting the target qubit discards its cooling",
                stacklevel=2,
            )

    @property
    def width(self) -> int:
        return self.cluster_size

    def label(self) -> str:
        base = f"hbac-n{self.cluster_size}-r{self.rounds}"
        if self.reset_qubits != tuple(range(2, self.cluster_size + 1)):
            base += "-reset" + "+".join(str(q) for q in self.reset_qubits)
        return base

    def closed_form(self, p: float) -> None:
        return None  # heat-bath rounds are defined by the walk

    def plan(self, p: float | None) -> list[_Round]:
        (first,) = _cluster_tree(self, self.cluster_size, 1, p)
        if self.rounds == 1:
            return [first]
        again = _Round(
            first.unitary, first.clusters, None, self.reset_qubits,
            self.rounds - 1,
        )
        return [first, again]


@dataclass(frozen=True)
class SemiOpen:
    """Fresh auxiliaries every round; total width 1 + sum(n_i - 1)."""

    cluster_sizes: tuple[int, ...]
    protocol: ProtocolChoice = "minimal-work"

    def __post_init__(self) -> None:
        sizes = tuple(_index(n, "cluster_sizes") for n in self.cluster_sizes)
        object.__setattr__(self, "cluster_sizes", sizes)
        if not sizes:
            raise ConfigError("cluster_sizes must hold at least one round")
        if any(n < 2 for n in sizes):
            raise ConfigError(f"cluster_sizes {sizes} must each be >= 2")
        _check_protocol(self.protocol, sizes[0])

    @property
    def width(self) -> int:
        return 1 + sum(n - 1 for n in self.cluster_sizes)

    def label(self) -> str:
        return "semiopen-" + "+".join(str(n) for n in self.cluster_sizes)

    def closed_form(self, p: float) -> float:
        return semi_open_final_p(p, self.cluster_sizes)

    def plan(self, p: float | None) -> list[_Round]:
        if p is None and len(self.cluster_sizes) > 1:
            raise ConfigError(
                "semi-open circuits need initial_p: later rounds "
                "depend on the reached temperature"
            )
        check_qubit_cap(max(self.cluster_sizes))
        out, free = [], 2
        for i, n in enumerate(self.cluster_sizes):
            t = _cooled(self, i, u, spec) if i else p
            spec = None if t is None else ThermalSpec((t,) + (p,) * (n - 1))
            if i == 0:
                u = _resolve_protocol(self.protocol, n)
            else:
                u = heterogeneous_max_cooling(spec)
            out.append(_Round(u, ((1, *range(free, free + n - 1)),), spec))
            free += n - 1
        return out


MethodConfig = Union[Dynamic, SubOptimal, HBAC, SemiOpen]

# Keyed by a config document's "method"; its other keys are the class's
# fields, with cycles standing for a CustomProtocol.
_METHODS = {
    "dynamic": Dynamic,
    "suboptimal": SubOptimal,
    "hbac": HBAC,
    "semiopen": SemiOpen,
}


def total_qubits(config: MethodConfig) -> int:
    """Physical register width the method occupies."""
    return config.width


def method_label(config: MethodConfig) -> str:
    """Short deterministic identifier used in result rows."""
    custom = isinstance(config.protocol, CustomProtocol)
    return f"{config.label()}-{'custom' if custom else config.protocol}"


def check_excitation(p: float) -> float:
    """Return p as a float, or raise ValueError unless 0 <= p < 1/2."""
    p = float(p)
    if not 0.0 <= p < 0.5 or math.isnan(p):
        raise ValueError(f"excitation probability {p} outside [0, 1/2)")
    return p


# -- closed forms ---------------------------------------------------------


def dynamic_final_p(p: float, n_qubits: int) -> float:
    """Target excitation after maximal cooling of n homogeneous qubits.

    Equals the total probability of the 2**(n-1) least likely basis
    states: the binomial tail above excitation number n/2, plus half of
    the middle class when n is even.  Terms are added smallest first.
    """
    p = check_excitation(p)
    n = int(n_qubits)
    if n < 1:
        raise ValueError("n_qubits must be >= 1")
    q = 1.0 - p
    acc = 0.0
    for w in range(n, n // 2, -1):
        acc += math.comb(n, w) * p**w * q ** (n - w)
    if n % 2 == 0:
        acc += (math.comb(n, n // 2) // 2) * p ** (n // 2) * q ** (n // 2)
    return acc


def sub_optimal_final_p(p: float, cluster_size: int, rounds: int) -> float:
    """Iterate the n-qubit dynamic map r times."""
    p = check_excitation(p)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    t = p
    for _ in range(rounds):
        t = dynamic_final_p(t, cluster_size)
    return t


def _hetero_round_final_p(t: float, p: float, n_qubits: int) -> float:
    # Maximal cooling of a (t, p, ..., p) register leaves the target with
    # the summed probability of the smallest half of the joint diagonal.
    spec = ThermalSpec((t,) + (p,) * (n_qubits - 1))
    v = thermal_product_vector(spec)
    half = np.sort(v, kind="stable")[: v.size // 2]
    return math.fsum(half)


def semi_open_final_p(p: float, cluster_sizes: Sequence[int]) -> float:
    """Target excitation after successive rounds on fresh auxiliaries."""
    p = check_excitation(p)
    sizes = [int(n) for n in cluster_sizes]
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("cluster sizes must be positive")
    t = dynamic_final_p(p, sizes[0])
    for n in sizes[1:]:
        t = _hetero_round_final_p(t, p, n)
    return t


def hbac_final_p(
    p: float,
    cluster_size: int,
    rounds: int,
    *,
    reset_qubits: Sequence[int] | None = None,
    protocol: ProtocolChoice = "minimal-work",
    rederive_each_round: bool = False,
) -> float:
    """Target excitation after r heat-bath rounds.

    The round-1 cooling permutation is reapplied every round.  With
    rederive_each_round the permutation is instead recomputed each round
    as a stable descending sort of the current diagonal (and the protocol
    argument is ignored); circuits built for this method always use the
    fixed permutation.
    """
    p = check_excitation(p)
    # HBAC checks the arguments; reset_qubits None means every auxiliary.
    resets = () if reset_qubits is None else tuple(reset_qubits)
    config = HBAC(cluster_size, rounds, resets, protocol)
    if not rederive_each_round:
        return _walk(_rounds(config, p), p)[0]
    v = thermal_product_vector(p, config.cluster_size)
    for k in range(rounds):
        if k:
            v = sim.reset_qubits(v, config.reset_qubits, p)
        unitary = _sort_unitary(np.argsort(-v, kind="stable"))
        v = unitary.apply_to_prob_vector(v)
    return sim.marginal(v, 1)


# -- work accounting ------------------------------------------------------


def work_cost(
    unitary: CoolingUnitary,
    state: np.ndarray | ThermalSpec,
    gap: EnergyGap = EnergyGap.unit(),
) -> float:
    """Energy change of the register under the permutation.

    Basis state j carries energy gap * excitationNumber(j); the work is
    the expected energy after minus before.  Positive for any cooling of
    a thermal state, exactly 0 for the identity.
    """
    if isinstance(state, ThermalSpec):
        state = thermal_product_vector(state)
    v = np.asarray(state, dtype=np.float64)
    if v.shape != (unitary.dim,):
        raise ValueError(
            f"state length {v.size} does not match {unitary.dim} basis states"
        )
    after = unitary.apply_to_prob_vector(v)
    return _energy_change(_weights(v.size), v, after, gap)


def _energy_change(
    weights: np.ndarray, before: np.ndarray, after: np.ndarray, gap: EnergyGap
) -> float:
    """Energy after minus before; weights are _weights of the dimension."""
    return float(gap.value * np.dot(weights, after - before))


@dataclass(frozen=True)
class _Round:
    """One round of a method: a unitary applied to parallel cluster copies.

    clusters holds one physical qubit map per copy (local qubit j sits on
    clusters[i][j-1]).  spec is the noiseless product state every copy
    starts from, which the unitary was planned for; None carries the
    previous round's cluster state on, with the local qubits in resets
    first returned to the bath.  repeat is how many times in a row the
    round runs, so that a plan holds one entry per distinct round; only
    rounds that carry their state on (spec None) repeat.
    """

    unitary: CoolingUnitary
    clusters: tuple[tuple[int, ...], ...]
    spec: ThermalSpec | None
    resets: tuple[int, ...] = ()
    repeat: int = 1


def _cooled(config: MethodConfig, k: int, u: CoolingUnitary, spec) -> float:
    """Target excitation u leaves from spec; round k + 1 needs it below 1/2."""
    t = sim.marginal(u.apply_to_prob_vector(thermal_product_vector(spec)), 1)
    if t >= 0.5:
        raise PopulationInversionError(
            f"{method_label(config)}: round {k + 1} would start from a hot "
            f"target (excitation {t} >= 1/2)"
        )
    return t


@functools.lru_cache(maxsize=1)
def _rounds(config: MethodConfig, p: float | None) -> tuple[_Round, ...]:
    """The method as a sequence of rounds at bath excitation p.

    With p None only the unitaries and qubit maps are planned (specs are
    None); that suffices for circuits unless the unitaries depend on p.
    The last plan is kept, so that the noiseless and the noisy walk of
    one result row share it; plans are immutable.  Vectors are capped
    at cluster width by the plans; the register needs only its qubit
    maps and circuit rows, which hold at most 63 qubits.
    """
    check_qubit_cap(config.width, _MAX_WIDTH)
    return tuple(config.plan(p))


def _cluster_tree(
    config: MethodConfig, n: int, rounds: int, p: float | None
) -> list[_Round]:
    """Rounds of config's protocol on n-qubit clusters over n**rounds qubits.

    Each round cools disjoint clusters in parallel; their targets form
    the next round's register.  One round is dynamic cooling.
    """
    check_qubit_cap(n)
    u = _resolve_protocol(config.protocol, n)
    spec = None if p is None else ThermalSpec.homogeneous(p, n)
    out, survivors = [], tuple(range(1, n**rounds + 1))
    for k in range(rounds):
        if k and p is not None:
            spec = ThermalSpec.homogeneous(_cooled(config, k, u, spec), n)
        clusters = tuple(
            survivors[i : i + n] for i in range(0, len(survivors), n)
        )
        out.append(_Round(u, clusters, spec))
        survivors = tuple(c[0] for c in clusters)
    return out


def _walk(
    rounds: Sequence[_Round],
    p: float,
    gap: EnergyGap = EnergyGap.unit(),
    noise: float = 0.0,
) -> tuple[float, float]:
    """(target excitation, work) after running the rounds from a bath at p.

    Parallel copies are identical and independent, so one cluster-wide
    vector stands for all of them, and each copy pays the same cost.  A
    qubit that enters a later round was an earlier round's target and
    brings the excitation it reached; any other qubit comes from the
    bath.  Resets exchange heat with the bath, not work, so they
    contribute nothing.  With noise, every synthesized gate depolarizes
    its cluster (see _mixing); work counts the unitaries alone.

    What a round needs is prepared once per plan entry.  A repeated
    round runs as one linear map on the marginal it keeps (see
    _repeat_map) where that costs less than its repeats; otherwise each
    repeat runs only the reset, the permutation, the energy dot product
    and the mix.
    """
    work = 0.0
    carried: dict[int, float] = {}
    v = None
    for rnd in rounds:
        u = rnd.unitary
        weights = _weights(u.dim)
        copies = len(rnd.clusters)
        mixed = _mixing(synthesized_gate_count(u) if noise else 0, noise)
        repeat = rnd.repeat
        if rnd.spec is None:
            reset = sim._reset_plan(u.n_qubits, rnd.resets, p)
            kept = u.n_qubits - len(rnd.resets)
            if repeat > 1 and _map_pays(u.n_qubits, kept, repeat):
                v, energy = _repeat_map(u, weights, reset, mixed, v, repeat)
                work += copies * float(gap.value * energy)
                repeat = 0
        else:
            v = product_diagonal([carried.get(q, p) for q in rnd.clusters[0]])
        for _ in range(repeat):
            if rnd.spec is None:
                v = sim._reset(v, *reset)
            after = u.apply_to_prob_vector(v)
            work += copies * _energy_change(weights, v, after, gap)
            v = after if mixed == 0.0 else (1.0 - mixed) * after + mixed / v.size
        t = sim.marginal(v, 1)
        carried.update((phys[0], t) for phys in rnd.clusters)
    return t, work


def _map_pays(width: int, kept: int, repeats: int) -> bool:
    """Whether _repeat_map costs less than walking the repeats.

    Costs count array entries, about 10 ns each (shared 2-vCPU Xeon),
    plus measured fixed costs in the same unit.  Each walked repeat
    costs 2**w entries and about 15 us of calls.  For k kept qubits of
    w, building the map costs 4**k * 2**w entries and about 100 us,
    its stationary vector about 5 us per kept basis state, and each
    bit of repeats one squaring of 8**k and about 10 us.  The map's
    array must also fit the vector cap.
    """
    bits = repeats.bit_length()
    walk = repeats * ((1 << width) + 1_500)
    build = (4**kept << width) + 500 * 2**kept + 10_000
    powers = (8**kept + 1_000) * bits
    return build + powers < walk and kept + width <= DEFAULT_QUBIT_CAP


_ULP = float(np.finfo(float).eps)


def _repeat_map(
    u: CoolingUnitary,
    weights: np.ndarray,
    reset: tuple,
    mixed: float,
    v: np.ndarray,
    repeats: int,
) -> tuple[np.ndarray, float]:
    """(vector, work) after repeats of a round that resets qubits first.

    The reset keeps only the marginal m of the k qubits it does not
    reset and retensors the others with the bath, so one repeat is a
    linear map m -> m P on 2**k entries, with row-stochastic P, and its
    work is m . g.  Running one repeat on every kept basis state at once
    gives P, g and the vector each kept state leaves behind.  The last
    repeat starts from m P**(r-1), and the work is m . T with T the sum
    of P**j g over j < r; both take one squaring per bit of r.

    P and its powers are nonnegative, so m P**(r-1) subtracts nothing
    and keeps its relative digits, for any P.  Each power's rows are
    rescaled to sum 1, so that rounding does not compound over the
    squarings.  The work cancels, by a few ulps of the energy the
    repeats move.  That energy grows with r; so does the work unless
    the steady work s = pi . g (pi stationary) is 0, as in noiseless
    3-qubit HBAC.  An s within the rounding of its own dot product is
    taken as 0: the work is then (m - pi) . T, and T is kept free of
    the constant part pi . T = r s after each doubling, so no rounding
    is multiplied by r and the error stays bounded as r grows.
    """
    shape, axes, factors = reset
    m = v.reshape(shape).sum(axis=axes, keepdims=True)
    size = m.size
    rows = np.eye(size).reshape((size, *m.shape))
    for factor in factors:
        rows = rows * factor
    rows = rows.reshape(size, -1)[:, u.indices]
    # Each state's energy shift under the permutation, rather than the
    # energy after minus before, so states that stay put add nothing.
    shift = weights - weights[u.indices]
    g = rows @ shift
    moved = rows @ np.abs(shift)  # energy each kept state's repeat moves
    if mixed:
        rows = (1.0 - mixed) * rows + mixed / rows.shape[1]
    power = rows.reshape((size, *shape)).sum(axis=tuple(a + 1 for a in axes))
    power = power.reshape(size, size)  # P**(2**bit)
    m, pi = m.ravel(), _stationary(power)
    # s = pi . g is a dot product of 2**k sums: within 8 * 2**k ulps of
    # the energy moved at pi it cannot be told from 0 and is taken as 0.
    # Otherwise the series runs on m itself and needs no pi.
    if pi is not None and abs(pi @ g) > 8 * size * _ULP * (pi @ moved):
        pi = None
    x = m if pi is None else m - pi  # the vector the work series runs on
    summed, work = g, 0.0  # summed: T over j < 2**bit
    terms, left = repeats, repeats - 1
    while terms:
        if terms & 1:
            work += x @ summed
            x = x @ power
        if left & 1:
            m = m @ power
        terms >>= 1
        left >>= 1
        if terms:
            summed = summed + power @ summed
            if pi is not None:
                summed -= pi @ summed
            power = power @ power
            power /= power.sum(axis=1, keepdims=True)
    return m @ rows, float(work)


def _stationary(chain: np.ndarray) -> np.ndarray | None:
    """Stationary row vector of a row-stochastic chain, or None.

    Grassmann-Taksar-Heyman state reduction (Oper. Res. 33, 1985): each
    state is folded into the ones before it with sums and products of
    nonnegative entries only, so every entry keeps its relative digits.
    None where a state cannot reach the ones before it: the chain is
    then reducible, and its stationary vector may not be unique.
    """
    a = chain.copy()
    for k in range(len(a) - 1, 0, -1):
        out = a[k, :k].sum()
        if out == 0.0:
            return None
        a[:k, k] /= out
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(len(a))
    for k in range(1, len(a)):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def _mixing(gates: int, noise: float) -> float:
    """Weight of the uniform state once each of G gates depolarizes.

    Every synthesized gate acts on the whole cluster, and depolarizing a
    cluster commutes with any permutation inside it, so G gates each
    followed by depolarizing at noise equal the cluster's permutation
    followed by one mix toward uniform with weight 1 - (1 - noise)**G.
    """
    if gates == 0 or noise == 0.0:
        return 0.0
    if noise == 1.0:
        return 1.0  # log1p(-1) is -inf, and 0 * -inf would be NaN
    return -math.expm1(gates * math.log1p(-noise))


def _closed_form(config: MethodConfig, p: float) -> float | None:
    # Built-in protocols all cool maximally, so their final excitation
    # has a closed form; a custom one is defined by the walk.
    if isinstance(config.protocol, CustomProtocol):
        return None
    return config.closed_form(p)


def final_probability(config: MethodConfig, p: float) -> float:
    """Target excitation the method reaches from a homogeneous bath at p."""
    p = check_excitation(p)
    closed = _closed_form(config, p)
    if closed is not None:
        return closed
    return _walk(_rounds(config, p), p)[0]


def total_work_cost(
    config: MethodConfig, p: float, gap: EnergyGap = EnergyGap.unit()
) -> float:
    """Work drawn over every unitary the method applies."""
    p = check_excitation(p)
    return _walk(_rounds(config, p), p, gap)[1]


# -- circuits -------------------------------------------------------------


# Most instructions (gates plus resets) a method's circuit may hold;
# minimal-work dynamic cooling of 18 qubits, 3,432,308 gates, fits.
_MAX_INSTRUCTIONS = 1 << 22


def _circuit(width: int, rounds: Sequence[_Round]) -> Circuit:
    """Synthesize each distinct unitary once and embed it per cluster.

    A repeated round's rows (each copy's reset, then its gates) are
    built once and tiled.  A circuit past _MAX_INSTRUCTIONS is refused,
    from the counts in the plan, before anything is synthesized.
    """
    counts = _gate_counts(rounds)
    size = counts.total + counts.resets
    if size > _MAX_INSTRUCTIONS:
        raise ResourceLimitError(
            f"circuit of {size} instructions exceeds the cap of "
            f"{_MAX_INSTRUCTIONS}"
        )
    synthesized: dict[int, Circuit] = {}
    blocks: list[np.ndarray] = []
    for rnd in rounds:
        key = id(rnd.unitary)
        if key not in synthesized:
            synthesized[key] = synthesize_circuit(rnd.unitary)
        once: list[Circuit] = []
        for phys in rnd.clusters:
            if rnd.resets:
                reset = ResetInstr(tuple(phys[q - 1] for q in rnd.resets))
                once.append(Circuit(width, (reset,)))
            once.append(embed(synthesized[key], width, phys))
        if len(rounds) == len(once) == rnd.repeat == 1:
            return once[0]
        block = np.concatenate([c.rows for c in once])
        blocks.append(np.tile(block, (rnd.repeat, 1)))
    return Circuit._from_rows(width, np.concatenate(blocks))


def _gate_counts(rounds: Sequence[_Round]) -> GateCounts:
    """gate_counts(_circuit(...)) read off the plan, without synthesis.

    Every synthesized gate of a w-qubit unitary has w - 1 controls, and
    each copy of a round with resets starts with one reset instruction,
    every time the round repeats.
    """
    by: Counter = Counter()
    resets = 0
    for rnd in rounds:
        copies = rnd.repeat * len(rnd.clusters)
        gates = synthesized_gate_count(rnd.unitary)
        if gates:
            by[rnd.unitary.n_qubits - 1] += copies * gates
        if rnd.resets:
            resets += copies
    return GateCounts(dict(sorted(by.items())), resets)


def build_circuit(config: MethodConfig, initial_p: float | None = None) -> Circuit:
    """Full register-wide circuit realizing the method.

    Semi-open rounds after the first depend on how cold the target
    already is, so initial_p is required for multi-round semi-open
    configs; elsewhere it only checks that each round starts cold.
    """
    p = None if initial_p is None else check_excitation(initial_p)
    return _circuit(config.width, _rounds(config, p))


# -- noise ----------------------------------------------------------------


def noisy_final_probability(
    config: MethodConfig, p: float, noise: sim.NoiseModel
) -> float:
    """Target excitation of the method's circuit under depolarizing noise.

    Equals marginal(simulate(build_circuit(config, p), thermal start,
    noise=noise, bath_excitation=p), 1) up to rounding, computed on
    vectors only as wide as a cluster.  Only per-layer noise on a round
    of several parallel copies, where gates of neighbouring copies share
    a layer, simulates the synthesized circuit gate by gate.
    """
    p = check_excitation(p)
    rounds = _rounds(config, p)
    shared_layers = any(len(rnd.clusters) > 1 for rnd in rounds)
    if noise.placement == "per-layer" and shared_layers:
        # Built first, so that its cap refuses before the circuit is.
        start = thermal_product_vector(p, config.width)
        v = sim.simulate(
            _circuit(config.width, rounds),
            start,
            noise=noise,
            bath_excitation=p,
        )
        return sim.marginal(v, 1)
    return _walk(rounds, p, noise=noise.probability)[0]


# -- reporting ------------------------------------------------------------


@dataclass(frozen=True)
class CoolingReport:
    """Outcome of a method.  Temperatures are None without a physical gap;
    final_temperature is also None for an inverted target (p > 1/2)."""

    method: str
    total_qubits: int
    initial_excitation: float
    final_excitation: float
    work_in_gap_units: float
    work_joules: float | None
    initial_temperature: Temperature | None
    final_temperature: Temperature | None
    gate_counts: GateCounts
    circuit: Circuit | None


def report(
    config: MethodConfig,
    *,
    initial_p: float | None = None,
    temperature: Temperature | None = None,
    gap: EnergyGap | None = None,
    include_circuit: bool = True,
) -> CoolingReport:
    """Analyze a method end to end.

    Give either initial_p directly, or a Temperature plus a physical
    EnergyGap.  Temperatures are reported only when the gap is physical.
    Gate counts are read off the method's rounds; the circuit is
    synthesized only when include_circuit is set.
    """
    if initial_p is None:
        if temperature is None or gap is None:
            raise ValueError(
                "need initial_p, or temperature together with a gap"
            )
        initial_p = probability_from_temperature(temperature, gap)
    elif temperature is not None:
        raise ValueError("give initial_p or temperature, not both")
    initial_p = check_excitation(initial_p)
    rounds = _rounds(config, initial_p)
    walked_p, work_units = _walk(rounds, initial_p)
    closed = _closed_form(config, initial_p)
    final_p = walked_p if closed is None else closed
    physical = gap is not None and not gap.dimensionless
    return CoolingReport(
        method=method_label(config),
        total_qubits=config.width,
        initial_excitation=initial_p,
        final_excitation=final_p,
        work_in_gap_units=work_units,
        work_joules=work_units * gap.value if physical else None,
        initial_temperature=(
            temperature_from_probability(initial_p, gap) if physical else None
        ),
        final_temperature=(
            temperature_from_probability(final_p, gap)
            if physical and final_p <= 0.5 else None
        ),
        gate_counts=_gate_counts(rounds),
        circuit=(
            _circuit(config.width, rounds) if include_circuit else None
        ),
    )


# -- configuration documents ----------------------------------------------


def _is_json_ints(value: object) -> bool:
    return isinstance(value, list) and bool(value) and all(map(_is_json_int, value))


# What a field of each annotation takes from a JSON document: a check,
# its wording and the conversion to the field's type.
_JSON_FIELDS = {
    "int": (_is_json_int, "an integer", int),
    "tuple[int, ...]": (
        _is_json_ints, "a non-empty array of integers", lambda v: tuple(map(int, v))
    ),
    "ProtocolChoice": (lambda v: isinstance(v, str), "a string", str),
}


def config_from_json(source: str | Path | dict) -> MethodConfig:
    """Map a method-config document onto its method class.

    The keys are "method", naming a class in _METHODS, and that class's
    fields, which are required unless they have a default; "cycles"
    comes with "protocol": "custom".  Integers may be written 3.0.  Only
    the JSON shape is checked here: the class checks the values.
    Raises ConfigError naming the offending field.
    """
    what = "config"
    doc = _load_document(source, what)
    method = doc.get("method")
    if not isinstance(method, str) or method not in _METHODS:
        raise ConfigError(
            f"invalid {what}: 'method' must be one of {list(_METHODS)}, "
            f"got {method!r}"
        )
    fields = dataclasses.fields(_METHODS[method])
    custom = ["cycles"] if doc.get("protocol") == "custom" else []
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    allowed = ["method", *(f.name for f in fields), *custom]
    _check_keys(doc, allowed, required + custom, what)
    kwargs = {}
    for f in fields:
        if f.name in doc:
            check, shape, convert = _JSON_FIELDS[f.type]
            if not check(doc[f.name]):
                raise ConfigError(
                    f"invalid {what}: {f.name!r} must be {shape}, got {doc[f.name]!r}"
                )
            kwargs[f.name] = convert(doc[f.name])
    if custom:
        kwargs["protocol"] = CustomProtocol(_json_cycles(doc["cycles"], what))
    try:
        return _METHODS[method](**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
