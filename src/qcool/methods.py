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
from typing import Iterator, Sequence, Union

import numpy as np

from . import chain, protocols, sim
from .circuits import _MAX_WIDTH, Circuit, GateCounts, embed
from .constants import DEFAULT_QUBIT_CAP, check_qubit_cap
from .errors import ConfigError, PopulationInversionError, ResourceLimitError
from .protocols import (
    BUILTIN_PROTOCOLS,
    _weights,
    protocol_unitary,
)
from .synth import synthesize_circuit, synthesized_gate_count
from .thermo import (
    EnergyGap,
    Temperature,
    ThermalSpec,
    _kelvin,
    probability_from_temperature,
    product_diagonal,
    temperature_from_probability,
    thermal_product_vector,
)
from .unitary import (
    CoolingUnitary,
    _check_keys,
    _cycle_states,
    _is_json_int,
    _json_cycles,
    _load_document,
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
        # _cycle_states of the cycles by width, parsed once for the check
        # at construction and the unitary built later.
        object.__setattr__(self, "_parsed", {})

    def _states(self, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
        """The cycles parsed on n_qubits qubits; ConfigError if refused."""
        if n_qubits not in self._parsed:
            try:
                self._parsed[n_qubits] = _cycle_states(self.cycles, n_qubits)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"custom cycles on {n_qubits} qubits: {exc}"
                ) from exc
        return self._parsed[n_qubits]


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
        choice._states(n_qubits)
        return
    if choice not in BUILTIN_PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {choice!r}; expected one of "
            f"{BUILTIN_PROTOCOLS} or a CustomProtocol"
        )


def _resolve_protocol(choice: ProtocolChoice, n_qubits: int) -> CoolingUnitary:
    # Kept in protocols._shared so that sweeps build each unitary, and
    # its transpositions, once per process while it stays in the table.
    if isinstance(choice, CustomProtocol):
        build = functools.partial(
            CoolingUnitary._from_cycles, n_qubits, *choice._states(n_qubits)
        )
    else:
        build = functools.partial(protocol_unitary, choice, n_qubits)
    return protocols._shared.get((choice, n_qubits), build)


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

    def closed_form(self, ps: Sequence[float]) -> list[float]:
        return [dynamic_final_p(p, self.n_qubits) for p in ps]

    def plan(self, p: float | None) -> list[_Round]:
        return _cluster_tree(self, self.n_qubits, 1)


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

    def closed_form(self, ps: Sequence[float]) -> list[float]:
        return [sub_optimal_final_p(p, self.cluster_size, self.rounds) for p in ps]

    def plan(self, p: float | None) -> list[_Round]:
        return _cluster_tree(self, self.cluster_size, self.rounds)


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

    def closed_form(self, ps: Sequence[float]) -> None:
        return None  # heat-bath rounds are defined by the walk

    def plan(self, p: float | None) -> list[_Round]:
        (first,) = _cluster_tree(self, self.cluster_size, 1)
        if self.rounds == 1:
            return [first]
        again = _Round(
            first.unitary, first.clusters, self.reset_qubits, self.rounds - 1
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

    def closed_form(self, ps: Sequence[float]) -> list[float]:
        return _semi_open_final_ps(ps, self.cluster_sizes)

    def plan(self, p: float | None) -> list[_Round]:
        if p is None and len(self.cluster_sizes) > 1:
            raise ConfigError(
                "semi-open circuits need initial_p: later rounds "
                "depend on the reached temperature"
            )
        return self._plans(np.array([p or 0.0]))[0][1]

    def _plans(self, ps: np.ndarray) -> list[tuple[np.ndarray, list[_Round]]]:
        """(rows of ps, their rounds) for each plan that points of ps share.

        A later round maximally cools (t, p, ..., p), t the target the
        round before reached, so rows whose rankings agree share its
        unitary.  A hot t is ranked like any other; the walk refuses it.
        """
        check_qubit_cap(max(self.cluster_sizes))
        first, *later = self.cluster_sizes
        u = _resolve_protocol(self.protocol, first)
        # (rows, rounds, excitation the target entered the last round at)
        groups = [(np.arange(len(ps)), [_Round(u, ((1, *range(2, first + 1)),))], ps)]
        free = first + 1
        for n in later:
            cluster = ((1, *range(free, free + n - 1)),)
            free += n - 1
            split = []
            for rows, rounds, t in groups:
                last, p = rounds[-1].unitary, ps[rows]
                v = product_diagonal([t] + [p] * (last.n_qubits - 1))
                t = np.array(_targets(v.take(last.indices, axis=1)))
                orders = protocols._thermal_orders(t, p, n)
                same: dict[bytes, list[int]] = {}
                for i, order in enumerate(orders):
                    same.setdefault(order.tobytes(), []).append(i)
                for i in same.values():
                    rnd = _Round(protocols._max_cooling(orders[i[0]]), cluster)
                    split.append((rows[i], [*rounds, rnd], t[i]))
            groups = split
        return [(rows, rounds) for rows, rounds, _ in groups]


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
    try:
        for w in range(n, n // 2, -1):
            acc += math.comb(n, w) * p**w * q ** (n - w)
        if n % 2 == 0:
            acc += (math.comb(n, n // 2) // 2) * p ** (n // 2) * q ** (n // 2)
    except OverflowError:
        # From n = 1,030 on, the middle binomial coefficients exceed
        # the largest float, whatever p is.
        raise ValueError(
            f"n_qubits {n} too large: its binomial coefficients overflow a float"
        ) from None
    return acc


def sub_optimal_final_p(p: float, cluster_size: int, rounds: int) -> float:
    """Iterate the n-qubit dynamic map r times.

    The iterates settle within a few dozen rounds, on a fixed point or,
    for n = 2, on two adjacent floats in turn; the loop stops at the
    first repeat and answers from the parity of the rounds left, so its
    cost does not grow with r.
    """
    p = check_excitation(p)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return _settle(lambda t: dynamic_final_p(t, cluster_size), p, rounds)


def _settle(step, x, steps: int, same=operator.eq):
    """step applied steps times to x, stopped at the first repeat.

    Once an iterate equals the one before it (a fixed point) or the one
    two before (a 2-cycle), the iterates alternate, so the answer is
    read off the parity of the steps left.
    """
    before = None
    for k in range(steps):
        after = step(x)
        if same(after, x) or (k > 0 and same(after, before)):
            # From step k + 1 on the iterates alternate after, x, ...
            return after if (steps - k - 1) % 2 == 0 else x
        before, x = x, after
    return x


def semi_open_final_p(p: float, cluster_sizes: Sequence[int]) -> float:
    """Target excitation after successive rounds on fresh auxiliaries."""
    p = check_excitation(p)
    sizes = [int(n) for n in cluster_sizes]
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("cluster sizes must be positive")
    return _semi_open_final_ps([p], sizes)[0]


def _semi_open_final_ps(ps: Sequence[float], sizes: Sequence[int]) -> list[float]:
    # Maximal cooling of a (t, p, ..., p) register leaves the target with
    # the exact sum of the smallest half of each row of the diagonal.
    t = [dynamic_final_p(p, sizes[0]) for p in ps]
    for n in sizes[1:]:
        check_qubit_cap(n)
        v = np.sort(product_diagonal([t] + [ps] * (n - 1)), axis=1, kind="stable")
        t = [math.fsum(row) for row in v[:, : v.shape[1] // 2].tolist()]
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
    fixed permutation.  Each such round sorts and permutes 2**n entries,
    about 8 units each in _map_pays's, plus about 45 us of calls; rounds
    that would cost more than _MAX_COST are refused before the first.
    The rounds stop once the vector repeats, as in sub_optimal_final_p.
    """
    p = check_excitation(p)
    # HBAC checks the arguments; reset_qubits None means every auxiliary.
    resets = () if reset_qubits is None else tuple(reset_qubits)
    config = HBAC(cluster_size, rounds, resets, protocol)
    if not rederive_each_round:
        return final_probability(config, p)
    per_round = (8 << config.cluster_size) + 4_500
    _check_cost(config.rounds * per_round, "rederived rounds")
    reset = sim._reset_plan(config.cluster_size, config.reset_qubits, p)

    def resort(v: np.ndarray) -> np.ndarray:
        return v[np.argsort(-v, kind="stable")]

    v = resort(thermal_product_vector(p, config.cluster_size))
    v = _settle(
        lambda v: resort(sim._reset(v, *reset)), v, rounds - 1, np.array_equal
    )
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
    return gap.value * float(np.dot(_weights(v.size), after - v))


@dataclass(frozen=True)
class _Round:
    """One round of a method: a unitary applied to parallel cluster copies.

    clusters holds one physical qubit map per copy (local qubit j sits on
    clusters[i][j-1]).  A round with resets carries the previous round's
    cluster state on, with the local qubits in resets first returned to
    the bath; a round without starts every copy from a product state.
    repeat is how many times in a row the round runs, so that a plan
    holds one entry per distinct round; only rounds with resets repeat.
    """

    unitary: CoolingUnitary
    clusters: tuple[tuple[int, ...], ...]
    resets: tuple[int, ...] = ()
    repeat: int = 1


def _targets(v: np.ndarray) -> list[float]:
    # sim.marginal(row, 1) of each row, bit for bit: the reduction runs
    # along each row's contiguous half, in the order a row alone adds
    # in (tests/test_batches.py holds it to the per-row sums).
    return np.add.reduce(v[:, v.shape[1] // 2 :], axis=1).tolist()


@functools.lru_cache(maxsize=1)
def _rounds(config: MethodConfig, p: float | None) -> tuple[_Round, ...]:
    """The method as a sequence of rounds at bath excitation p.

    With p None the rounds are planned without checking that each starts
    cold, which suffices for circuits unless the unitaries depend on p;
    with p they are the plan _groups walked.  The last plan is kept, for
    the circuit and live noisy rows of the same point; plans are
    immutable.
    """
    if p is None:
        check_qubit_cap(config.width, _MAX_WIDTH)
        return tuple(config.plan(None))
    return _groups(config, (p,), ())[0][1]


@functools.lru_cache(maxsize=1)
def _groups(
    config: MethodConfig, ps: tuple[float, ...], levels: tuple[float, ...]
) -> tuple[tuple, ...]:
    """(rows, rounds, t, work) for each batch of rows that share a plan.

    Row i * (1 + len(levels)) + j is point ps[i], noiseless at j = 0 and
    at nonzero noise level levels[j - 1] after.  Only semi-open plans
    depend on p; a point's noisy rows take its plan.  Rows that share a
    plan are walked as one array, at most _MAX_BATCH vector entries at a
    time, which checks that each round of a noiseless row starts cold;
    the error raised is the first failing point's own.  The last
    evaluation is kept for the circuit and noisy rows of its point, so
    every caller passes levels, () without noise, to share one key.
    Vectors are capped at cluster width by the plans; the register
    needs only its qubit maps and circuit rows.
    """
    check_qubit_cap(config.width, _MAX_WIDTH)
    # Other methods run one protocol unitary at cluster width.
    plan = None if isinstance(config, SemiOpen) else tuple(config.plan(None))
    width = max(config.cluster_sizes) if plan is None else plan[0].unitary.n_qubits
    step, label, out = max(1, _MAX_BATCH >> width), method_label(config), []
    noise, size = np.array((0.0, *levels)), 1 + len(levels)
    try:
        for lo in range(0, len(ps), step):
            points = np.array(ps[lo : lo + step])
            plans = [(np.arange(len(points)), plan)] if plan else config._plans(points)
            for rows, rounds in plans:
                # Each point's noiseless row, then its row at each level.
                row_ps, row_noise = np.repeat(points[rows], size), np.tile(noise, rows.size)
                rows = ((rows + lo)[:, None] * size + np.arange(size)).ravel()
                for i in range(0, rows.size, step):
                    part = slice(i, i + step)
                    t, work = _walk(rounds, row_ps[part], row_noise[part], label)
                    out.append((rows[part], tuple(rounds), tuple(t), tuple(work)))
        return tuple(out)
    except PopulationInversionError:
        if len(ps) > 1:
            for p in ps:
                _groups(config, (p,), ())
        raise


def _cluster_tree(config: MethodConfig, n: int, rounds: int) -> list[_Round]:
    """Rounds of config's protocol on n-qubit clusters over n**rounds qubits.

    Each round cools disjoint clusters in parallel; their targets form
    the next round's register.  One round is dynamic cooling.
    """
    check_qubit_cap(n)
    u = _resolve_protocol(config.protocol, n)
    out, survivors = [], tuple(range(1, n**rounds + 1))
    for k in range(rounds):
        clusters = tuple(
            survivors[i : i + n] for i in range(0, len(survivors), n)
        )
        out.append(_Round(u, clusters))
        survivors = tuple(c[0] for c in clusters)
    return out


def _walk(
    rounds: Sequence[_Round], p, noise=0.0, label: str | None = None
):
    """(target excitation, work in gap units) of the rounds from a bath at p.

    p is a point, or a 1-D array of points walked as the rows of one
    array and answered by lists; noise is a number, or one level per
    row.  Each row's sums run on the row alone, so it holds the bits of
    its point and level walked alone, whatever rows share the array.
    Parallel copies are identical and independent, so one cluster-wide
    vector stands for all of them, and each copy pays the same cost.  A
    qubit that enters a later round was an earlier round's target and
    brings the excitation it reached, below 1/2 in a noiseless row if
    label names the method (noise 1 leaves a target at exactly 1/2);
    any other qubit comes from the bath.  Resets exchange heat,
    not work.  With noise, every synthesized gate depolarizes its
    cluster (see _mixing); work counts the unitaries alone.  A row at
    noise 0 is mixed with weight 0, which leaves its bits as they are.

    What a round needs is prepared once per plan entry.  A repeated
    round runs as one Markov chain on the marginal it keeps, stacked over
    the rows (_round_chain builds it, chain.repeat runs it), where that
    costs less than its repeats; otherwise each repeat runs only the
    resets, the permutation, the energy dot products and the mix.  An
    entry whose cheaper way costs more than _MAX_COST per row is refused
    before it runs.
    """
    ps = np.asarray(p, dtype=np.float64)
    scalar, ps = ps.ndim == 0, ps.reshape(-1)
    work = np.zeros(ps.size)
    noise = work + noise  # adding 0.0 keeps each level's bits
    levels, noisy = noise.tolist(), noise.any()
    carried: dict[int, list[float]] = {}
    for k, rnd in enumerate(rounds):
        u = rnd.unitary
        weights = _weights(u.dim)
        copies = len(rnd.clusters)
        gates = synthesized_gate_count(u) if noisy else 0
        mixed = np.array([_mixing(gates, q) for q in levels]) if gates else 0.0 * noise
        repeat = rnd.repeat
        if rnd.resets:
            kept = u.n_qubits - len(rnd.resets)
            if repeat > 1 and _map_pays(u.n_qubits, kept, repeat):
                _check_cost(_map_cost(u.n_qubits, kept, repeat), "round map")
                # Each row's map holds 2**kept times its vector's entries.
                step = max(1, _MAX_BATCH >> (kept + u.n_qubits))
                parts = []
                for part in (slice(i, i + step) for i in range(0, ps.size, step)):
                    *stack, rows = _round_chain(u, weights, rnd.resets, ps[part], mixed[part], v[part])
                    m, energy = chain.repeat(*stack, repeat)
                    parts.append(((m.reshape(len(m), 1, -1) @ rows)[:, 0], energy))
                v = np.concatenate([row for row, _ in parts])
                work += copies * np.concatenate([e for _, e in parts])
                repeat = 0
        else:
            hot = [
                t for t, q in zip(carried.get(rnd.clusters[0][0], ()), levels)
                if t >= 0.5 and not q
            ]
            if label and hot:
                raise PopulationInversionError(
                    f"{label}: round {k + 1} would start from a hot target "
                    f"(excitation {hot[0]} >= 1/2)"
                )
            v = product_diagonal([carried.get(q, ps) for q in rnd.clusters[0]])
        _check_cost(_loop_cost(u.n_qubits, repeat), "round walk")
        dots = weights.astype(np.float64)
        column = mixed[:, None]
        if rnd.resets and repeat:
            reset = sim._reset_plan(u.n_qubits, rnd.resets, ps)
        for _ in range(repeat):
            if rnd.resets:
                v = sim._reset(v, *reset)
            after = v.take(u.indices, axis=1)
            work += copies * ((after - v)[:, None] @ dots)[:, 0]
            v = (1.0 - column) * after + column / u.dim if gates else after
        t = _targets(v)
        carried.update((phys[0], t) for phys in rnd.clusters)
    return (t[0], float(work[0])) if scalar else (t, work.tolist())


def _map_pays(width: int, kept: int, repeats: int) -> bool:
    """Whether the round map (_round_chain, chain.repeat) costs less than
    walking the repeats.

    Costs count array entries, about 10 ns each (shared 2-vCPU Xeon),
    plus measured fixed costs in the same unit.  Each walked repeat
    costs 2**w entries and about 15 us of calls (_loop_cost).  For k
    kept qubits of w, building the map costs 4**k * 2**w entries and
    about 100 us, its stationary vector about 5 us per kept basis
    state, and each bit of repeats one squaring of 8**k and about 10 us
    (_map_cost).  The map's array must also fit the vector cap.
    """
    return (
        _map_cost(width, kept, repeats) < _loop_cost(width, repeats)
        and kept + width <= DEFAULT_QUBIT_CAP
    )


def _loop_cost(width: int, repeats: int) -> int:
    return repeats * ((1 << width) + 1_500)


def _map_cost(width: int, kept: int, repeats: int) -> int:
    build = (4**kept << width) + 500 * 2**kept + 10_000
    return build + (8**kept + 1_000) * repeats.bit_length()


def _check_cost(cost: int, what: str) -> None:
    """Refuse a loop whose estimated cost, in _map_pays's units, is over
    _MAX_COST."""
    if cost > _MAX_COST:
        raise ResourceLimitError(
            f"{what} costing {cost} array-entry units exceeds the cap of "
            f"{_MAX_COST}"
        )


def _round_chain(u: CoolingUnitary, weights, resets, ps, mixed, v) -> tuple[np.ndarray, ...]:
    """(P, g, moved, m, rows) for chain.repeat of a round that resets
    qubits first, one chain per row of v at its bath ps and noise weight
    mixed (see _mixing).  The reset keeps the marginal m of the qubits
    it does not reset; one repeat run on every kept basis state at once
    gives rows, the vector each leaves behind, and from those P, g and
    the energy moved.  The vector after r repeats is m P**(r-1) @ rows.
    """
    shape, axes, factors = sim._reset_plan(u.n_qubits, resets, ps)
    m = v.reshape(shape).sum(axis=axes, keepdims=True)
    size = m[0].size
    rows = np.eye(size).reshape((1, size, *m.shape[1:]))
    for factor in factors:
        rows = rows * factor[:, None]
    # Gathered along the states' axis, so that each row's matrix is laid
    # out as it is alone, states outermost: BLAS's bits depend on layout.
    rows = rows.reshape(len(v), size, -1).transpose(0, 2, 1)
    rows = rows.take(u.indices, axis=1).transpose(0, 2, 1)
    # Each state's energy shift under the permutation, rather than the
    # energy after minus before, so states that stay put add nothing.
    shift = (weights - weights[u.indices])[:, None]
    g = (rows @ shift)[:, :, 0]
    moved = (rows @ np.abs(shift))[:, :, 0]  # energy each kept state's repeat moves
    if mixed.any():
        column = mixed[:, None, None]
        rows = (1.0 - column) * rows + column / rows.shape[2]
    power = rows.reshape((len(v), size, *shape[1:])).sum(axis=tuple(a + 1 for a in axes))
    return power.reshape(len(v), size, size), g, moved, m.reshape(len(v), size), rows


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


def _closed_form(config: MethodConfig, ps: Sequence[float]) -> list[float] | None:
    # Built-in protocols all cool maximally, so their final excitation
    # has a closed form; a custom one is defined by the walk.
    if isinstance(config.protocol, CustomProtocol):
        return None
    return config.closed_form(ps)


def final_probability(config: MethodConfig, p: float) -> float:
    """Target excitation the method reaches from a homogeneous bath at p."""
    p = check_excitation(p)
    closed = _closed_form(config, [p])
    if closed is not None:
        return closed[0]
    return _groups(config, (p,), ())[0][2][0]


def total_work_cost(
    config: MethodConfig, p: float, gap: EnergyGap = EnergyGap.unit()
) -> float:
    """Work drawn over every unitary the method applies."""
    p = check_excitation(p)
    return gap.value * _groups(config, (p,), ())[0][3][0]


# -- circuits -------------------------------------------------------------


# Most instructions (gates plus resets) a method's circuit may hold;
# minimal-work dynamic cooling of 18 qubits, 3,432,308 gates, fits.
_MAX_INSTRUCTIONS = 1 << 22

# Most entries an array of walked rows may hold: 8 MiB of float64.
_MAX_BATCH = 1 << 20

# Most a loop whose length one argument sets may cost, in _map_pays's
# units (array entries, about 10 ns each): about 10 s.  Walking 12-qubit
# HBAC rounds that reset one qubit fits about 190,000 repeats.
_MAX_COST = 1 << 30


def _check_size(size: int) -> None:
    """Refuse a circuit of size instructions past _MAX_INSTRUCTIONS."""
    if size > _MAX_INSTRUCTIONS:
        raise ResourceLimitError(
            f"circuit of {size} instructions exceeds the cap of "
            f"{_MAX_INSTRUCTIONS}"
        )


def _synthesis_walk(unitary: CoolingUnitary) -> int:
    """synthesized_gate_count(unitary), from the one walk that also takes
    the transpositions synthesize_circuit reads.

    They are at most 2**n - 1 pairs of 9 bytes, less than the walk's
    own list of 2**n states, so taking them before a cap check costs
    little; the rows the cap protects (24 bytes a gate) come after it.
    """
    unitary._cycle_transpositions
    return synthesized_gate_count(unitary)


def _circuit(width: int, rounds: Sequence[_Round]) -> Circuit:
    """Synthesize each distinct unitary once and embed it per cluster.

    A repeated round's rows (each copy's reset, then its gates) are
    built once and tiled.  A circuit past _MAX_INSTRUCTIONS is refused,
    from the counts in the plan, before any row is built.
    """
    for rnd in rounds:
        _synthesis_walk(rnd.unitary)
    counts = _gate_counts(rounds)
    _check_size(counts.total + counts.resets)
    synthesized: dict[int, Circuit] = {}
    blocks: list[np.ndarray] = []
    for rnd in rounds:
        key = id(rnd.unitary)
        if key not in synthesized:
            synthesized[key] = synthesize_circuit(rnd.unitary)
        if len(rounds) == len(rnd.clusters) == rnd.repeat == 1 and not rnd.resets:
            return embed(synthesized[key], width, rnd.clusters[0])
        once: list[np.ndarray] = []
        for phys in rnd.clusters:
            if rnd.resets:
                mask = sum(1 << (phys[q - 1] - 1) for q in rnd.resets)
                once.append(np.array([(0, mask, 0)]))
            once.append(embed(synthesized[key], width, phys).rows)
        blocks.append(np.tile(np.concatenate(once), (rnd.repeat, 1)))
    return Circuit._from_checked(width, np.concatenate(blocks))


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
    noise=noise, bath_excitation=p), 1) up to rounding, and at noise 0
    is final_probability(config, p) bit for bit.  Any other level is a
    batch of one of _noise_report, and has the bits it has in any batch.
    """
    p = check_excitation(p)
    if noise.probability == 0.0:
        return final_probability(config, p)
    return _noise_report(config, p, [noise.probability], noise.placement)[1][0]


def _live(config: MethodConfig, placement: str) -> bool:
    """Whether noisy rows run config's circuit on its live qubits.

    They do for per-layer noise on a plan with a round of several
    parallel copies, where gates of neighbouring copies share a layer;
    every other noisy row is a row of the plan's walk.  Semi-open rounds
    are one copy each, and any other plan is config.plan(None), so this
    is decided before anything is walked.
    """
    if placement != "per-layer" or isinstance(config, SemiOpen):
        return False
    check_qubit_cap(config.width, _MAX_WIDTH)
    return any(len(rnd.clusters) > 1 for rnd in config.plan(None))


@functools.lru_cache(maxsize=1)
def _layer_program(config: MethodConfig, p: float) -> tuple[tuple, int]:
    """sim._live_program of the method's circuit at p, per-layer noise.

    The steps do not depend on the noise strength, so the last program
    is kept: the noise levels of one noise sweep synthesize, embed and
    schedule the circuit once.  Programs are immutable.
    """
    circuit = _circuit(config.width, _rounds(config, p))
    return sim._live_program(circuit, "per-layer")


# -- reporting ------------------------------------------------------------


# The columns of a result row, in the order _result_rows yields them.
RESULT_COLUMNS = [
    "method",
    "total_qubits",
    "initial_temp_mk",
    "final_temp_mk",
    "initial_p",
    "final_p",
    "noise_p",
    "work",
    "work_joules",
    "total_gates",
    "resets",
]


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


def report(
    config: MethodConfig,
    *,
    initial_p: float | None = None,
    temperature: Temperature | None = None,
    gap: EnergyGap | None = None,
) -> CoolingReport:
    """Analyze a method end to end.

    Give either initial_p directly, or a Temperature plus a physical
    EnergyGap.  Temperatures are reported only when the gap is physical.
    Gate counts are read off the method's rounds, without synthesis;
    build_circuit(config, initial_p) gives the circuit.
    """
    if initial_p is None:
        if temperature is None or gap is None:
            raise ValueError(
                "need initial_p, or temperature together with a gap"
            )
        initial_p = probability_from_temperature(temperature, gap)
    elif temperature is not None:
        raise ValueError("give initial_p or temperature, not both")
    return _reports(config, [check_excitation(initial_p)], gap)[0]


def _points(
    config: MethodConfig, ps: Sequence[float], levels: Sequence[float] = ()
) -> tuple[list[tuple], list[list[float]]]:
    """(points, noisy): (final_p, work, gate counts) at each checked
    excitation of ps, and each point's final_p at the nonzero noise
    levels of levels.  One _groups evaluation walks every row, and each
    plan's gates are counted once."""
    ps, levels = tuple(ps), tuple(levels)
    walked: dict[int, tuple] = {}
    for rows, rounds, t, work in _groups(config, ps, levels):
        counts = _gate_counts(rounds)
        walked.update(zip(rows.tolist(), zip(t, work, [counts] * len(t))))
    size = 1 + len(levels)
    rows = [walked[i] for i in range(len(walked))]
    t, work, counts = zip(*rows[::size])
    noisy = [[row[0] for row in rows[i + 1 : i + size]] for i in range(0, len(rows), size)]
    return list(zip(_closed_form(config, ps) or t, work, counts)), noisy


def _reports(
    config: MethodConfig, ps: Sequence[float], gap: EnergyGap | None = None
) -> list[CoolingReport]:
    """report at each checked excitation of ps: the per-point view of
    _points."""
    physical, label = gap is not None and not gap.dimensionless, method_label(config)

    def kelvin(p: float) -> Temperature | None:
        return temperature_from_probability(p, gap) if physical and p <= 0.5 else None

    return [
        CoolingReport(
            method=label,
            total_qubits=config.width,
            initial_excitation=p,
            final_excitation=final,
            work_in_gap_units=w,
            work_joules=w * gap.value if physical else None,
            initial_temperature=kelvin(p),
            final_temperature=kelvin(final),
            gate_counts=c,
        )
        for p, (final, w, c) in zip(ps, _points(config, ps)[0])
    ]


def _noise_report(
    config: MethodConfig, p: float, levels: Sequence[float], placement: str
) -> tuple[tuple, list[float]]:
    """(final_p, work, gate counts) at a checked p, as _points gives
    them, and noisy_final_probability at each nonzero noise level of
    levels.

    The levels are rows of the point's own walk, after its noiseless
    row (see _groups), on vectors only as wide as a cluster.  Where
    noisy rows run live (_live), the synthesized circuit runs once for
    all levels, after the point's walk, on its live qubits only
    (sim._run_live), refused if more than 24 are live at once; its
    program is kept for the next call (_layer_program).  Without a
    nonzero level no circuit is built, whatever the placement.  A batch
    holds at most _MAX_BATCH entries; more levels run in turn.
    """
    levels = tuple(levels)
    if not levels or not _live(config, placement):
        points, noisy = _points(config, (p,), levels)
        return points[0], noisy[0]
    point = _points(config, (p,))[0][0]
    program, width = _layer_program(config, p)
    step = max(1, _MAX_BATCH >> width)
    return point, [
        t for lo in range(0, len(levels), step)
        for t in sim._run_live(program, p, np.array(levels[lo : lo + step], dtype=np.float64))
    ]


def _result_rows(
    config: MethodConfig,
    ps: Sequence[float],
    gap: EnergyGap | None = None,
    levels: Sequence[float | None] = (None,),
    placement: str | None = None,
) -> Iterator[tuple]:
    """config's result rows as plain values in RESULT_COLUMNS order: for
    each checked excitation of ps, one row at each noise level of levels.

    A sweep's row has level None and no placement.  A noise sweep's
    rows (placement given) take their final_p at each nonzero level from
    _noise_report, and the noiseless one at level 0.  Work is the
    noiseless driving cost: depolarizing exchanges heat, not work, in
    this model.  A temperature cell is None without a physical gap, and
    for a population at 1/2 or above, which has no finite kelvin value.
    """
    if placement is None:
        points, noisy = _points(config, ps)
    else:
        nonzero = [q for q in levels if q]
        points, noisy = zip(*(_noise_report(config, p, nonzero, placement) for p in ps))
    physical, label, width = (
        gap is not None and not gap.dimensionless, method_label(config), config.width
    )

    def mk(x: float) -> float | None:
        return _kelvin(x, gap) * 1e3 if physical and x < 0.5 else None

    for p, (final, work, counts), finals in zip(ps, points, noisy):
        finals, initial, total = iter(finals), mk(p), counts.total
        joules = work * gap.value if physical else None
        for level in levels:
            t = next(finals) if level else final
            yield (label, width, initial, mk(t), p, t, level, work, joules, total, counts.resets)


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
