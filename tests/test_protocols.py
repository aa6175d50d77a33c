import numpy as np
import pytest

from helpers import (
    reference_minimal_work_permutation,
    sorted_half_sum,
    work_of_permutation,
)

from qcool import (
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

ALL_PROTOCOLS = (ppa_protocol, mirror_protocol, minimal_work_protocol)


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
