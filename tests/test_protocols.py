from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    reference_minimal_work_permutation,
    sorted_half_sum,
    work_of_permutation,
)

from qcool import (
    CoolingUnitary,
    ResourceLimitError,
    ThermalSpec,
    heterogeneous_max_cooling,
    marginal,
    minimal_work_protocol,
    mirror_protocol,
    ppa_protocol,
    protocol_unitary,
    thermal_order,
    thermal_product_vector,
    work_cost,
)
from qcool import protocols

ALL_PROTOCOLS = (ppa_protocol, mirror_protocol, minimal_work_protocol)


def test_builders_make_bijections(monkeypatch):
    # The builders skip from_permutation's check, so each array they
    # build must be a permutation of the basis states.
    built = []
    rows = protocols._rows

    def recorded(perm, phases):
        built.append(perm.copy())
        return rows(perm, phases)

    monkeypatch.setattr(protocols, "_rows", recorded)
    monkeypatch.setattr(protocols, "_shared", protocols._Shared(1 << 20))
    rng = np.random.default_rng(0)
    for n in range(1, 13):
        for build in ALL_PROTOCOLS:
            build(n)
        spec = ThermalSpec(tuple(rng.choice([0.01, 0.1, 0.2], n)))
        for target in {1, n, (n + 1) // 2}:
            heterogeneous_max_cooling(spec, target)
    assert len(built) >= 12 * 4
    for perm in built:
        assert np.array_equal(np.sort(perm), np.arange(perm.size))


def test_two_qubits_nothing_to_do():
    for build in ALL_PROTOCOLS:
        assert build(2).is_identity


def test_three_qubits_single_swap():
    for build in ALL_PROTOCOLS:
        assert build(3).cycles == ((3, 4),)


def test_all_protocols_cool_maximally():
    for n in range(2, 7):
        for p in (0.01, 0.1, 0.25, 0.4):
            v = thermal_product_vector(p, n)
            want = sorted_half_sum(v)
            for build in ALL_PROTOCOLS:
                got = marginal(build(n).apply_to_prob_vector(v), 1)
                assert got == pytest.approx(want, abs=1e-14), (build, n, p)


def test_ppa_fully_sorts():
    for n in (2, 3, 4, 5):
        v = thermal_product_vector(0.2, n)
        out = ppa_protocol(n).apply_to_prob_vector(v)
        assert np.all(np.diff(out) <= 0.0)
        assert sorted(out) == sorted(v)


def test_mirror_structure():
    for n in (2, 3, 4, 5, 6):
        u = mirror_protocol(n)
        dim = 1 << n
        for cyc in u.cycles:
            assert len(cyc) == 2
            a, b = cyc
            assert a + b == dim - 1  # complementary pair
        assert (u @ u).is_identity


def test_minimal_work_n4_cycle():
    assert minimal_work_protocol(4).cycles == ((3, 7, 12, 8),)


def test_minimal_work_beats_or_ties_ppa():
    for n in range(2, 8):
        for p in (0.05, 0.1, 0.3):
            v = thermal_product_vector(p, n)
            w_min = work_cost(minimal_work_protocol(n), v)
            w_ppa = work_cost(ppa_protocol(n), v)
            w_mirror = work_cost(mirror_protocol(n), v)
            assert -1e-15 <= w_min <= w_ppa + 1e-12
            assert w_mirror >= -1e-15


@pytest.mark.parametrize("n", range(1, 13))
def test_minimal_work_matches_run_by_run_reference(n):
    assert np.array_equal(
        minimal_work_protocol(n).permutation, reference_minimal_work_permutation(n)
    )


def test_minimal_work_moves_fewest_states_n3():
    # only the forced pair moves
    perm = minimal_work_protocol(3).permutation
    assert int(np.count_nonzero(perm != np.arange(8))) == 2


def test_work_against_oracle():
    for n in (3, 4, 5):
        v = thermal_product_vector(0.1, n)
        for build in ALL_PROTOCOLS:
            u = build(n)
            assert work_cost(u, v) == pytest.approx(
                work_of_permutation(u.permutation, v), abs=1e-12
            )


def test_protocol_unitary_dispatch():
    assert protocol_unitary("ppa", 3).cycles == ppa_protocol(3).cycles
    assert protocol_unitary("mirror", 4).cycles == mirror_protocol(4).cycles
    assert (
        protocol_unitary("minimal-work", 4).cycles
        == minimal_work_protocol(4).cycles
    )
    with pytest.raises(ValueError):
        protocol_unitary("sorting", 3)


def test_thermal_order_descending_stable():
    spec = ThermalSpec.homogeneous(0.2, 3)
    order = thermal_order(spec)
    # ascending excitation count, ties by index
    assert list(order) == [0, 1, 2, 4, 3, 5, 6, 7]

    probs = thermal_product_vector(spec)
    ranked = probs[order]
    assert np.all(np.diff(ranked) <= 0.0)


def test_thermal_order_exact_ties_across_qubits():
    # qubits 1 and 3 share a temperature; states 100 and 001 must compare
    # exactly equal, so the stable order puts 001 (index 1) first
    spec = ThermalSpec((0.3, 0.1, 0.3))
    order = list(thermal_order(spec))
    assert order.index(1) < order.index(4)
    assert sorted(order) == list(range(8))


def test_heterogeneous_equals_ppa_when_homogeneous():
    for n in (2, 3, 4, 6):
        for p in (0.05, 0.25, 0.45):
            hetero = heterogeneous_max_cooling(ThermalSpec.homogeneous(p, n))
            assert np.array_equal(hetero.permutation, ppa_protocol(n).permutation)


def test_heterogeneous_cools_target_maximally():
    spec = ThermalSpec((0.028, 0.1, 0.1))
    v = thermal_product_vector(spec)
    u = heterogeneous_max_cooling(spec)
    assert marginal(u.apply_to_prob_vector(v), 1) == pytest.approx(
        sorted_half_sum(v), abs=1e-15
    )


def test_heterogeneous_other_targets():
    spec = ThermalSpec((0.05, 0.2, 0.4))
    v = thermal_product_vector(spec)
    for target in (1, 2, 3):
        u = heterogeneous_max_cooling(spec, target=target)
        assert marginal(u.apply_to_prob_vector(v), target) == pytest.approx(
            sorted_half_sum(v), abs=1e-15
        )
    with pytest.raises(ValueError):
        heterogeneous_max_cooling(spec, target=4)


@pytest.mark.parametrize("n", range(1, 13))
def test_mirror_matches_cycle_built_unitary(n):
    dim = 1 << n
    weight = [bin(j).count("1") for j in range(dim)]
    cycles = [
        (j, dim - 1 - j) for j in range(dim >> 1, dim)
        if weight[j] < weight[dim - 1 - j]
    ]
    want = CoolingUnitary(n, cycles)
    got = mirror_protocol(n)
    for attr in ("indices", "data", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@pytest.fixture()
def fresh_table(monkeypatch):
    table = protocols._Shared(protocols._shared.cap)
    monkeypatch.setattr(protocols, "_shared", table)
    return table


def test_heterogeneous_shares_one_unitary_per_ranking(fresh_table):
    # 100 (t(1-p)^2) ranks below 011 ((1-t)p^2) for t = 0.01 and 0.011,
    # and above it for t = 0.02.
    first = heterogeneous_max_cooling(ThermalSpec((0.01, 0.1, 0.1)))
    same = heterogeneous_max_cooling(ThermalSpec((0.011, 0.1, 0.1)))
    flipped = heterogeneous_max_cooling(ThermalSpec((0.02, 0.1, 0.1)))
    assert same is first
    assert flipped is not first
    assert not np.array_equal(flipped.permutation, first.permutation)
    # Another target lays the same ranking out differently.
    other = heterogeneous_max_cooling(ThermalSpec((0.01, 0.1, 0.1)), target=2)
    assert other is not first
    assert heterogeneous_max_cooling(ThermalSpec((0.01, 0.1, 0.1))) is first


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_row_rankings_are_each_rows_thermal_order(fresh_table, n):
    # Rows of (t, p, ..., p), as a semi-open sweep ranks its points: t
    # below, above and equal to p (one group of equal qubits), zeros,
    # ties across rows, and a hot t, which is ranked like any other.
    rng = np.random.default_rng(n)
    p = np.concatenate(([0.0, 0.1, 0.1, 0.1, 0.3, 0.49], rng.uniform(0, 0.5, 40)))
    t = np.concatenate(([0.0, 0.01, 0.1, 0.3, 0.3, 0.6], rng.uniform(0, 0.5, 40)))
    orders = protocols._thermal_orders(t, p, n)
    for i, order in enumerate(orders):
        excitations = (float(t[i]),) + (float(p[i]),) * (n - 1)
        if t[i] >= 0.5:  # no ThermalSpec holds it; rank its probabilities
            spec = SimpleNamespace(n_qubits=n, excitations=excitations)
            want = np.argsort(-protocols._grouped_probabilities(spec), kind="stable")
            assert order.tobytes() == want.tobytes()
            continue
        spec = ThermalSpec(excitations)
        assert order.tobytes() == thermal_order(spec).tobytes(), excitations
        assert protocols._max_cooling(order) is heterogeneous_max_cooling(spec)


def _reference_heterogeneous(spec, target=1):
    # Rank k lands on k's bits with its top bit moved to the target.
    n = spec.n_qubits
    order = thermal_order(spec)
    perm = np.empty(1 << n, dtype=np.int64)
    for k, state in enumerate(order):
        top, rest = k >> (n - 1), k & ((1 << (n - 1)) - 1)
        low = n - target
        perm[state] = (
            ((rest >> low) << (low + 1)) | (top << low) | (rest & ((1 << low) - 1))
        )
    return perm


def test_heterogeneous_key_collision_returns_the_right_unitary(fresh_table):
    # Keys hold the whole ranking, so rankings that share a table never
    # take each other's unitary.
    specs = [
        ThermalSpec((0.01, 0.1, 0.1)),
        ThermalSpec((0.02, 0.1, 0.1)),
        ThermalSpec((0.3, 0.1, 0.1)),
        ThermalSpec((0.01, 0.1, 0.1)),
    ]
    for spec in specs:
        for target in (1, 3):
            u = heterogeneous_max_cooling(spec, target=target)
            assert np.array_equal(
                u.permutation, _reference_heterogeneous(spec, target)
            )


def test_shared_table_stays_within_its_bound(monkeypatch):
    # The default holds at most 2**20 basis states besides its newest
    # entry, about 50 MiB; the same rules are checked here on a
    # 64-state table.
    assert protocols._shared.cap == 1 << 20
    table = protocols._Shared(64)
    monkeypatch.setattr(protocols, "_shared", table)
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        spec = ThermalSpec(tuple(rng.uniform(0.01, 0.49, n)))
        u = heterogeneous_max_cooling(spec)
        assert table.states == sum(x.dim for x in table.table.values())
        # The newest entry is always kept, even past the cap on its own;
        # the others fit in the cap beside it.
        assert list(table.table.values())[-1] is u
        assert table.states <= 64 or len(table.table) == 1


# Every public builder of a 2**n array, with the width it is asked for.
WIDE_BUILDERS = {
    "ppa_protocol": ppa_protocol,
    "mirror_protocol": mirror_protocol,
    "minimal_work_protocol": minimal_work_protocol,
    "protocol_unitary": lambda n: protocol_unitary("ppa", n),
    "thermal_order": lambda n: thermal_order(ThermalSpec((0.1,) * n)),
    "heterogeneous_max_cooling": (
        lambda n: heterogeneous_max_cooling(ThermalSpec((0.1,) * n))
    ),
    "CoolingUnitary": lambda n: CoolingUnitary(n, [[0, 1]]),
    "CoolingUnitary.identity": CoolingUnitary.identity,
}


def _refuse_allocation(monkeypatch):
    """Make numpy's array builders fail, so a missed cap fails fast."""

    def allocate(*args, **kwargs):
        raise AssertionError("a 2**n array was allocated before the cap check")

    for name in ("arange", "bincount", "empty", "ones", "zeros"):
        monkeypatch.setattr(np, name, allocate)


@pytest.mark.parametrize("n", [25, 40])
@pytest.mark.parametrize("name", sorted(WIDE_BUILDERS))
def test_builders_refuse_registers_past_the_cap(monkeypatch, name, n):
    _refuse_allocation(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"{n} qubits exceeds the cap of 24"):
        WIDE_BUILDERS[name](n)


def test_from_permutation_refuses_registers_past_the_cap(monkeypatch):
    # A broadcast view of 2**25 entries holds no memory of its own.
    perm = np.broadcast_to(np.int32(0), (1 << 25,))
    _refuse_allocation(monkeypatch)
    with pytest.raises(ResourceLimitError, match="25 qubits exceeds the cap of 24"):
        CoolingUnitary.from_permutation(perm)
