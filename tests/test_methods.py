import dataclasses
import gc
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import exact_walk, iterated_dynamic_p, rederived_hbac_ps, sorted_half_sum

from qcool import (
    Circuit,
    ConfigError,
    CoolingUnitary,
    CustomProtocol,
    Dynamic,
    EnergyGap,
    GateCounts,
    HBAC,
    McNot,
    NoiseModel,
    PopulationInversionError,
    ResetInstr,
    ResourceLimitError,
    SemiOpen,
    SubOptimal,
    Temperature,
    ThermalSpec,
    build_circuit,
    config_from_json,
    dynamic_final_p,
    export_qasm,
    final_probability,
    gate_counts,
    hbac_final_p,
    marginal,
    method_label,
    minimal_work_protocol,
    noisy_final_probability,
    ppa_protocol,
    probability_from_temperature,
    report,
    reset_qubits,
    semi_open_final_p,
    simulate,
    sub_optimal_final_p,
    thermal_product_vector,
    total_qubits,
    total_work_cost,
    work_cost,
)
from qcool.chain import stationary
from qcool.constants import BOLTZMANN_J_PER_K
from qcool import methods, protocols
from qcool.methods import (
    _METHODS,
    _circuit,
    _gate_counts,
    _map_pays,
    _rounds,
    _walk,
)
from qcool.synth import synthesized_gate_count


# -- closed forms ----------------------------------------------------------


def test_dynamic_final_p_small_cases():
    assert dynamic_final_p(0.1, 1) == 0.1
    assert dynamic_final_p(0.1, 2) == pytest.approx(0.1, abs=1e-15)
    assert dynamic_final_p(0.1, 3) == pytest.approx(0.028, abs=1e-15)
    assert dynamic_final_p(0.0, 5) == 0.0


def test_dynamic_final_p_matches_enumeration():
    for n in range(1, 9):
        for p in (0.01, 0.1, 0.25, 0.49):
            v = thermal_product_vector(p, n) if n > 1 else np.array([1 - p, p])
            want = sorted_half_sum(v)
            assert dynamic_final_p(p, n) == pytest.approx(want, rel=1e-12), (n, p)


def test_dynamic_final_p_deep_cold_no_cancellation():
    # at p ~ 1e-34 the result is ~1e-67; a (1 - sum) formulation would
    # return 0 here
    p = 1e-34
    for n in (3, 5, 7):
        got = dynamic_final_p(p, n)
        assert got > 0.0
        v = thermal_product_vector(p, n)
        assert got == pytest.approx(sorted_half_sum(v), rel=1e-12)


def test_dynamic_final_p_validation():
    with pytest.raises(ValueError):
        dynamic_final_p(0.5, 3)
    with pytest.raises(ValueError):
        dynamic_final_p(-0.1, 3)
    with pytest.raises(ValueError):
        dynamic_final_p(0.1, 0)


def test_low_temperature_ratio_approaches_2_over_n_plus_1():
    # beta * E = 20; T_final/T_initial within 5 percent of 2/(n+1)
    gap = EnergyGap(20.0 * BOLTZMANN_J_PER_K)
    t_init = 1.0
    p = 1.0 / (1.0 + math.exp(20.0))
    for n in (3, 5, 7):
        from qcool import temperature_from_probability

        t_final = temperature_from_probability(dynamic_final_p(p, n), gap).kelvin
        ratio = t_final / t_init
        assert abs(ratio - 2.0 / (n + 1)) <= 0.05 * (2.0 / (n + 1)), (n, ratio)


def test_dynamic_final_p_refuses_binomials_past_a_float():
    assert dynamic_final_p(0.1, 1029) == 0.0
    for p in (0.0, 0.1):
        with pytest.raises(ValueError, match="n_qubits 1030"):
            dynamic_final_p(p, 1030)
    with pytest.raises(ValueError, match="n_qubits 1030"):
        final_probability(Dynamic(1030), 0.1)


def test_sub_optimal_final_p_stops_at_the_first_repeat():
    # The iterates settle on a fixed point, or for n = 2 on two adjacent
    # floats in turn; the answer is the plain loop's bit for bit.
    ps = (0.0, 5e-324, 1e-300, 0.1, 0.20845854145854145, 0.3, 0.49999999999999994)
    for n in range(2, 6):
        for p in ps:
            for r in (1, 2, 3, 7, 60, 61, 200, 201):
                want = iterated_dynamic_p(p, n, r)
                assert sub_optimal_final_p(p, n, r) == want, (n, p, r)
    # Two qubits at this p alternate between two floats from the start.
    p = 0.20845854145854145
    other = iterated_dynamic_p(p, 2, 1)
    assert other != p == iterated_dynamic_p(p, 2, 2)
    assert sub_optimal_final_p(p, 2, 10**18) == p
    assert sub_optimal_final_p(p, 2, 10**18 + 1) == other
    # 10**18 rounds answer at once, also through the config and a
    # noiseless noise model; the plain loop would run for days.
    want = iterated_dynamic_p(0.1, 3, 200)
    assert final_probability(SubOptimal(3, 10**18), 0.1) == want
    assert noisy_final_probability(SubOptimal(3, 10**18), 0.1, NoiseModel(0.0)) == want


def test_sub_optimal_final_p():
    assert sub_optimal_final_p(0.1, 3, 1) == dynamic_final_p(0.1, 3)
    assert sub_optimal_final_p(0.1, 3, 2) == pytest.approx(0.002308096, abs=1e-15)
    # iterating the map by hand
    t = dynamic_final_p(dynamic_final_p(0.1, 3), 3)
    assert sub_optimal_final_p(0.1, 3, 2) == t
    with pytest.raises(ValueError):
        sub_optimal_final_p(0.1, 3, 0)


def test_semi_open_final_p():
    assert semi_open_final_p(0.1, [3]) == dynamic_final_p(0.1, 3)
    assert semi_open_final_p(0.1, [3, 3]) == pytest.approx(0.01504, abs=1e-12)
    assert semi_open_final_p(0.1, [3, 3, 3]) == pytest.approx(0.0127072, abs=1e-12)
    assert semi_open_final_p(0.1, [3, 3, 3, 3]) == pytest.approx(
        0.012287296, abs=1e-12
    )
    # each extra round keeps cooling (monotone toward the limit)
    values = [semi_open_final_p(0.1, [3] * r) for r in range(1, 6)]
    assert all(a > b or a == b for a, b in zip(values, values[1:]))


def test_hbac_final_p():
    assert hbac_final_p(0.1, 3, 1) == pytest.approx(
        dynamic_final_p(0.1, 3), abs=1e-15
    )
    limit = 0.1**2 / (0.9**2 + 0.1**2)  # = 0.0121951...
    assert hbac_final_p(0.1, 3, 200) == pytest.approx(limit, abs=1e-12)
    assert hbac_final_p(0.1, 3, 200) < dynamic_final_p(0.1, 3)
    # monotone in rounds
    seq = [hbac_final_p(0.1, 3, r) for r in (1, 2, 5, 20, 200)]
    assert all(a >= b for a, b in zip(seq, seq[1:]))


def test_hbac_reset_choices():
    full = hbac_final_p(0.1, 3, 50)
    partial = hbac_final_p(0.1, 3, 50, reset_qubits=(3,))
    assert 0.0 < partial < 0.1
    assert full <= partial + 1e-12
    with pytest.raises(ValueError):
        hbac_final_p(0.1, 3, 2, reset_qubits=(4,))


def test_hbac_rederive_option():
    fixed = hbac_final_p(0.1, 3, 30)
    redo = hbac_final_p(0.1, 3, 30, rederive_each_round=True)
    # n=3 resorting never helps; both sit at the same fixed point
    assert redo == pytest.approx(fixed, abs=1e-12)


def test_hbac_rederive_matches_a_sort_unitary_each_round():
    def rederived(p, n, rounds, resets):
        v = thermal_product_vector(p, n)
        for k in range(rounds):
            if k:
                v = reset_qubits(v, resets, p)
            order = np.argsort(-v, kind="stable")
            perm = np.empty(v.size, dtype=np.int64)
            perm[order] = np.arange(v.size)
            v = CoolingUnitary.from_permutation(perm).apply_to_prob_vector(v)
        return marginal(v, 1)

    for n, resets in ((3, (2, 3)), (4, (4,)), (5, (2, 4))):
        for p in (1e-3, 0.1, 0.4999999):
            for rounds in (1, 2, 7):
                got = hbac_final_p(
                    p, n, rounds, reset_qubits=resets, rederive_each_round=True
                )
                assert got == rederived(p, n, rounds, resets), (n, p, rounds)


def test_hbac_rederive_stops_at_a_repeat_bit_for_bit():
    # n = 6 at p = 0.45 resetting qubit 6 enters a 2-cycle at round
    # 3,546; the other cases reach a fixed point after 10 to 1,097.
    cases = ((6, 0.45, (6,)), (4, 1e-3, (2, 3, 4)), (5, 0.4999999, (5,)))
    for n, p, resets in cases:
        plain = rederived_hbac_ps(p, n, 4001, resets)
        for rounds in (1, 2, 3, 11, 1098, 3545, 3546, 3547, 3548, 4000, 4001):
            got = hbac_final_p(
                p, n, rounds, reset_qubits=resets, rederive_each_round=True
            )
            assert got == plain[rounds - 1], (n, p, resets, rounds)


def test_hbac_rederive_runs_no_round_past_the_first_repeat(monkeypatch):
    sorts = 0
    argsort = np.argsort

    def counted(*args, **kwargs):
        nonlocal sorts
        sorts += 1
        return argsort(*args, **kwargs)

    monkeypatch.setattr(methods.np, "argsort", counted)
    settled = hbac_final_p(0.1, 8, 1000, rederive_each_round=True)
    sorts = 0
    assert hbac_final_p(0.1, 8, 160000, rederive_each_round=True) == settled
    assert sorts < 1000


def test_hbac_rederive_refuses_past_the_cost_cap(monkeypatch):
    # Resorting need not repeat within the rounds asked for, so the
    # estimate counts every round; too many are refused before the
    # first sort.
    def forbidden(*args, **kwargs):
        raise AssertionError("sorted a refused round")

    monkeypatch.setattr(methods.np, "argsort", forbidden)
    with pytest.raises(ResourceLimitError, match="cap of 1073741824"):
        hbac_final_p(0.1, 3, 10**12, rederive_each_round=True)
    # The estimate is about 45 us a 3-qubit round, so about 235,000
    # rounds fit under the cap and one more than that does not.
    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(methods, "thermal_product_vector", started)
    fits = methods._MAX_COST // ((8 << 3) + 4_500)
    with pytest.raises(Started):
        hbac_final_p(0.1, 3, fits, rederive_each_round=True)
    with pytest.raises(ResourceLimitError):
        hbac_final_p(0.1, 3, fits + 1, rederive_each_round=True)


def test_final_probability_dispatch():
    p = 0.1
    assert final_probability(Dynamic(3), p) == dynamic_final_p(p, 3)
    assert final_probability(SubOptimal(3, 2), p) == sub_optimal_final_p(p, 3, 2)
    assert final_probability(SemiOpen((3, 3)), p) == semi_open_final_p(p, (3, 3))
    assert final_probability(HBAC(3, 4), p) == hbac_final_p(p, 3, 4)


def test_final_probability_custom_protocol():
    ident = CustomProtocol(())
    assert final_probability(Dynamic(3, ident), 0.1) == pytest.approx(0.1, abs=1e-15)
    swap = CustomProtocol((("011", "100"),))
    assert final_probability(Dynamic(3, swap), 0.1) == pytest.approx(
        0.028, abs=1e-15
    )
    assert final_probability(SubOptimal(3, 2, swap), 0.1) == pytest.approx(
        sub_optimal_final_p(0.1, 3, 2), abs=1e-15
    )


# -- work ------------------------------------------------------------------


def test_work_cost_swap_example():
    u = CoolingUnitary(3, [["011", "100"]])
    v = thermal_product_vector(0.1, 3)
    assert work_cost(u, v) == pytest.approx(0.072, abs=1e-15)
    assert work_cost(u, ThermalSpec.homogeneous(0.1, 3)) == pytest.approx(
        0.072, abs=1e-15
    )


def test_work_cost_identity_is_exactly_zero():
    u = CoolingUnitary.identity(4)
    assert work_cost(u, thermal_product_vector(0.2, 4)) == 0.0


def test_work_cost_gap_scaling():
    u = CoolingUnitary(3, [["011", "100"]])
    v = thermal_product_vector(0.1, 3)
    gap = EnergyGap(2.5e-24)
    assert work_cost(u, v, gap) == pytest.approx(0.072 * 2.5e-24, rel=1e-12)


def test_work_nonnegative_for_thermal_inputs():
    # thermal diagonals are passive: no permutation extracts work
    rng = np.random.default_rng(8)
    from qcool import random_permutation_unitary

    for _ in range(30):
        n = int(rng.integers(2, 6))
        u = random_permutation_unitary(n, rng)
        v = thermal_product_vector(float(rng.uniform(0.01, 0.49)), n)
        assert work_cost(u, v) >= -1e-12


def test_total_work_dispatch():
    p = 0.1
    assert total_work_cost(Dynamic(3), p) == pytest.approx(0.072, abs=1e-15)
    # two rounds of 3-clusters: three copies at p, one at the cooled t
    u = minimal_work_protocol(3)
    t = dynamic_final_p(p, 3)
    want = 3 * work_cost(u, thermal_product_vector(p, 3)) + work_cost(
        u, thermal_product_vector(t, 3)
    )
    assert total_work_cost(SubOptimal(3, 2), p) == pytest.approx(want, rel=1e-12)
    # identity protocol does no work
    assert total_work_cost(Dynamic(3, CustomProtocol(())), p) == 0.0
    # every method draws positive work when it cools
    for config in (Dynamic(4), SubOptimal(3, 2), HBAC(3, 5), SemiOpen((3, 3))):
        assert total_work_cost(config, p) > 0.0


def test_semi_open_work_decomposes_over_rounds():
    p = 0.1
    u1 = minimal_work_protocol(3)
    v1 = thermal_product_vector(p, 3)
    t = dynamic_final_p(p, 3)
    from qcool import heterogeneous_max_cooling

    spec2 = ThermalSpec((t, p, p))
    u2 = heterogeneous_max_cooling(spec2)
    want = work_cost(u1, v1) + work_cost(u2, thermal_product_vector(spec2))
    assert total_work_cost(SemiOpen((3, 3)), p) == pytest.approx(want, rel=1e-12)


# -- configs and circuits --------------------------------------------------


def test_total_qubits():
    assert total_qubits(Dynamic(9)) == 9
    assert total_qubits(SubOptimal(3, 2)) == 9
    assert total_qubits(SubOptimal(2, 4)) == 16
    assert total_qubits(HBAC(3, 200)) == 3
    assert total_qubits(SemiOpen((3, 3))) == 5
    assert total_qubits(SemiOpen((4, 2, 3))) == 7


def test_config_validation():
    with pytest.raises(ConfigError):
        Dynamic(1)
    with pytest.raises(ConfigError):
        SubOptimal(1, 2)
    with pytest.raises(ConfigError):
        SubOptimal(3, 0)
    with pytest.raises(ConfigError):
        HBAC(3, 2, reset_qubits=(5,))
    with pytest.raises(ConfigError):
        SemiOpen(())
    with pytest.raises(ConfigError):
        SemiOpen((3, 1))
    with pytest.raises(ConfigError):
        Dynamic(3, "fast")


def test_hbac_default_reset_and_target_warning():
    assert HBAC(4, 2).reset_qubits == (2, 3, 4)
    with pytest.warns(UserWarning):
        HBAC(3, 2, reset_qubits=(1, 2, 3))


def test_method_labels():
    assert method_label(Dynamic(9)) == "dynamic-n9-minimal-work"
    assert method_label(SubOptimal(3, 2, "ppa")) == "suboptimal-n3-r2-ppa"
    assert method_label(HBAC(3, 7)) == "hbac-n3-r7-minimal-work"
    assert method_label(HBAC(3, 7, reset_qubits=(3,))).startswith(
        "hbac-n3-r7-reset3"
    )
    assert method_label(SemiOpen((3, 4, 3))) == "semiopen-3+4+3-minimal-work"
    assert (
        method_label(Dynamic(3, CustomProtocol((("011", "100"),))))
        == "dynamic-n3-custom"
    )


def test_build_circuit_dynamic():
    c = build_circuit(Dynamic(3))
    assert gate_counts(c).by_controls == {2: 5}


def test_build_circuit_suboptimal_structure():
    c = build_circuit(SubOptimal(3, 2))
    assert c.n_qubits == 9
    assert gate_counts(c).total == 20
    assert all(len(g.touched) == 3 for g in c.mcnots)
    # round 1 acts inside the three consecutive clusters, round 2 on the
    # cluster targets
    supports = [g.touched for g in c.mcnots]
    assert supports[0] == (1, 2, 3)
    assert supports[5] == (4, 5, 6)
    assert supports[10] == (7, 8, 9)
    assert supports[15] == (1, 4, 7)


def test_build_circuit_hbac_reset_layers():
    c = build_circuit(HBAC(3, 4, reset_qubits=(2, 3)))
    resets = [i for i in c.instructions if isinstance(i, ResetInstr)]
    assert len(resets) == 3  # strictly between the four cooling blocks
    assert all(r.qubits == (2, 3) for r in resets)
    assert gate_counts(c).total == 4 * 5


def test_build_circuit_makes_no_instruction_objects(monkeypatch):
    def refused(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(McNot, "__post_init__", refused)
    monkeypatch.setattr(ResetInstr, "__post_init__", refused)
    for config in (HBAC(3, 3), SubOptimal(3, 2), SemiOpen((3, 3))):
        assert len(build_circuit(config, 0.1)) > 0


def test_build_circuit_semi_open():
    c = build_circuit(SemiOpen((3, 3)), 0.1)
    assert c.n_qubits == 5
    supports = sorted({g.touched for g in c.mcnots})
    assert supports == [(1, 2, 3), (1, 4, 5)]
    with pytest.raises(ConfigError):
        build_circuit(SemiOpen((3, 3)))
    # single-round semi-open does not need the starting excitation
    assert build_circuit(SemiOpen((3,), )).n_qubits == 3


def test_circuit_matches_closed_form_all_methods():
    p = 0.1
    swap = CustomProtocol((("011", "100"),))
    cases = [
        (Dynamic(3), None),
        (Dynamic(4, "ppa"), None),
        (SubOptimal(3, 2), None),
        (SubOptimal(2, 3, "mirror"), None),
        (SubOptimal(3, 2, swap), None),
        (SubOptimal(2, 4), None),
        (HBAC(3, 6), None),
        (HBAC(4, 3, reset_qubits=(3, 4)), None),
        (HBAC(3, 7, reset_qubits=(3,), protocol=swap), None),
        (SemiOpen((3, 3)), p),
        (SemiOpen((3, 2, 3)), p),
        (SemiOpen((3, 4, 3), swap), p),
        (SemiOpen((5, 5, 5)), p),
    ]
    for config, init in cases:
        circuit = build_circuit(config, init)
        v0 = thermal_product_vector(p, total_qubits(config))
        out = simulate(circuit, v0, bath_excitation=p)
        got = marginal(out, 1)
        want = final_probability(config, p)
        assert got == pytest.approx(want, abs=1e-10), config
        rep = report(config, initial_p=p)
        assert rep.final_excitation == want, config
        assert rep.work_in_gap_units == pytest.approx(
            total_work_cost(config, p), rel=1e-12
        ), config
        assert rep.gate_counts == gate_counts(circuit), config
        assert build_circuit(config, p) == circuit, config
    assert final_probability(
        HBAC(3, 7, (3,), swap), p
    ) == hbac_final_p(p, 3, 7, reset_qubits=(3,), protocol=swap)


ANALYTIC_COUNT_CASES = [
    *(
        config
        for protocol in ("ppa", "mirror", "minimal-work")
        for config in (
            Dynamic(5, protocol),
            SubOptimal(3, 2, protocol),
            HBAC(4, 3, protocol=protocol),
            SemiOpen((4, 3, 3), protocol),
        )
    ),
    Dynamic(3, CustomProtocol((("011", "100"), (1, 2, 6)))),
    SubOptimal(3, 2, CustomProtocol((("011", "100"),))),
    HBAC(3, 7, reset_qubits=(3,), protocol=CustomProtocol((("011", "100"),))),
    SemiOpen((3, 4, 3), CustomProtocol((("011", "100"),))),
    HBAC(5, 4, reset_qubits=(2, 3)),
    HBAC(4, 3, reset_qubits=(4,)),
    Dynamic(2),
    Dynamic(12),
]


@pytest.mark.parametrize(
    "config", [*ANALYTIC_COUNT_CASES, Dynamic(16)], ids=method_label
)
def test_report_gate_counts_without_synthesis(config, monkeypatch):
    import qcool.methods as methods_module

    p = 0.1
    circuit = build_circuit(config, p)
    want = gate_counts(circuit)
    # The report must not synthesize to count.
    monkeypatch.setattr(methods_module, "synthesize_circuit", None)
    rep = report(config, initial_p=p)
    assert rep.gate_counts == want
    assert rep.gate_counts.resets == want.resets
    if config == Dynamic(2):
        assert want == gate_counts(Circuit(2)) and rep.gate_counts.by_controls == {}
    if config == Dynamic(12):
        assert rep.gate_counts.by_controls == {11: 29_234}


D3 = {"method": "dynamic", "n_qubits": 3}
SUB = {"method": "suboptimal", "cluster_size": 3, "rounds": 2}
CUSTOM = {**D3, "protocol": "custom", "cycles": [["011", "100"]]}

# One rule per line: (rule, accepted document, rejected document, the
# name the rejection must give).
CONFIG_RULES = [
    ("document is an object", D3, [D3], "object"),
    ("method is required", D3, {"n_qubits": 3}, "'method'"),
    ("method names a class", D3, {**D3, "method": "freeze"}, "'method'"),
    ("method is a string", D3, {**D3, "method": ["dynamic"]}, "'method'"),
    ("protocol is built in", {**D3, "protocol": "ppa"},
     {**D3, "protocol": "bogus"}, "protocol"),
    ("protocol is a string", {**D3, "protocol": "mirror"},
     {**D3, "protocol": ["ppa"]}, "'protocol'"),
    ("custom needs cycles", CUSTOM, {**D3, "protocol": "custom"}, "'cycles'"),
    ("cycles need custom", CUSTOM, {**D3, "cycles": [["011", "100"]]}, "'cycles'"),
    ("cycles need custom, not ppa", CUSTOM,
     {**D3, "protocol": "ppa", "cycles": [["011", "100"]]}, "'cycles'"),
    ("cycles is an array", CUSTOM, {**CUSTOM, "cycles": {"0": 1}}, "'cycles'"),
    ("a cycle is an array", CUSTOM, {**CUSTOM, "cycles": [5]}, "'cycles'"),
    ("a cycle holds two labels", CUSTOM, {**CUSTOM, "cycles": [[3]]}, "'cycles'"),
    ("a label is an integer >= 0", {**CUSTOM, "cycles": [[3, 4]]},
     {**CUSTOM, "cycles": [[3, -4]]}, "-4"),
    ("an integer label may be written 4.0", {**CUSTOM, "cycles": [[3, 4.0]]},
     {**CUSTOM, "cycles": [[3, 4.5]]}, "4.5"),
    ("a label is not a boolean", {**CUSTOM, "cycles": [[0, 1]]},
     {**CUSTOM, "cycles": [[0, True]]}, "True"),
    ("a string label is 0s and 1s", CUSTOM,
     {**CUSTOM, "cycles": [["011", "102"]]}, "'102'"),
    ("a string label is not empty", CUSTOM,
     {**CUSTOM, "cycles": [["011", ""]]}, "''"),
    ("n_qubits is required", D3, {"method": "dynamic"}, "'n_qubits'"),
    ("n_qubits is an integer", {**D3, "n_qubits": 3.0},
     {**D3, "n_qubits": 3.5}, "'n_qubits'"),
    ("n_qubits is not a boolean", D3, {**D3, "n_qubits": True}, "'n_qubits'"),
    ("n_qubits is not a string", D3, {**D3, "n_qubits": "3"}, "'n_qubits'"),
    ("n_qubits >= 2", {**D3, "n_qubits": 2}, {**D3, "n_qubits": 1}, "n_qubits"),
    ("cluster_size is required", SUB, {"method": "suboptimal", "rounds": 2},
     "'cluster_size'"),
    ("cluster_size is an integer", {**SUB, "cluster_size": 3.0},
     {**SUB, "cluster_size": None}, "'cluster_size'"),
    ("cluster_size >= 2", {**SUB, "cluster_size": 2}, {**SUB, "cluster_size": 1},
     "cluster_size"),
    ("rounds is required", SUB, {"method": "suboptimal", "cluster_size": 3},
     "'rounds'"),
    ("rounds is an integer", {**SUB, "rounds": 2.0}, {**SUB, "rounds": [2]},
     "'rounds'"),
    ("rounds >= 1", {**SUB, "rounds": 1}, {**SUB, "rounds": 0}, "rounds"),
    ("reset_qubits is an array", {**SUB, "method": "hbac", "reset_qubits": [2]},
     {**SUB, "method": "hbac", "reset_qubits": 2}, "'reset_qubits'"),
    ("reset_qubits is not empty", {**SUB, "method": "hbac", "reset_qubits": [3]},
     {**SUB, "method": "hbac", "reset_qubits": []}, "'reset_qubits'"),
    ("reset_qubits hold integers", {**SUB, "method": "hbac", "reset_qubits": [2.0]},
     {**SUB, "method": "hbac", "reset_qubits": [2.5]}, "'reset_qubits'"),
    ("reset_qubits >= 1", {**SUB, "method": "hbac", "reset_qubits": [2, 3]},
     {**SUB, "method": "hbac", "reset_qubits": [0]}, "reset_qubits"),
    ("cluster_sizes is required", {"method": "semiopen", "cluster_sizes": [3]},
     {"method": "semiopen"}, "'cluster_sizes'"),
    ("cluster_sizes is not empty", {"method": "semiopen", "cluster_sizes": [3, 2]},
     {"method": "semiopen", "cluster_sizes": []}, "'cluster_sizes'"),
    ("cluster_sizes hold integers", {"method": "semiopen", "cluster_sizes": [3.0]},
     {"method": "semiopen", "cluster_sizes": [3, False]}, "'cluster_sizes'"),
    ("cluster_sizes >= 2", {"method": "semiopen", "cluster_sizes": [2]},
     {"method": "semiopen", "cluster_sizes": [3, 1]}, "cluster_sizes"),
    ("no unknown field", D3, {**D3, "extra": 1}, "'extra'"),
    ("dynamic takes no cluster_size", D3, {**D3, "cluster_size": 3},
     "'cluster_size'"),
    ("suboptimal takes no n_qubits", SUB, {**SUB, "n_qubits": 3}, "'n_qubits'"),
    ("suboptimal takes no reset_qubits", SUB, {**SUB, "reset_qubits": [2]},
     "'reset_qubits'"),
    ("hbac takes no cluster_sizes", {**SUB, "method": "hbac"},
     {**SUB, "method": "hbac", "cluster_sizes": [3]}, "'cluster_sizes'"),
    ("semiopen takes no rounds", {"method": "semiopen", "cluster_sizes": [3]},
     {"method": "semiopen", "cluster_sizes": [3], "rounds": 2}, "'rounds'"),
]


@pytest.mark.parametrize(
    "accepted, rejected, name",
    [rule[1:] for rule in CONFIG_RULES],
    ids=[rule[0] for rule in CONFIG_RULES],
)
def test_config_rules(accepted, rejected, name):
    assert isinstance(config_from_json(accepted), tuple(_METHODS.values()))
    with pytest.raises(ConfigError, match=r"^invalid config: ") as info:
        config_from_json(rejected)
    assert name in str(info.value)


def test_every_method_has_a_config_rule():
    assert {doc["method"] for _, doc, _, _ in CONFIG_RULES} == set(_METHODS)


def test_method_classes_take_integers_only():
    # Non-integers are refused, not truncated or left to fail later.
    for make, field in (
        (lambda: Dynamic(3.0), "n_qubits"),
        (lambda: Dynamic("3"), "n_qubits"),
        (lambda: SubOptimal(3, 2.0), "rounds"),
        (lambda: HBAC(3.5, 2), "cluster_size"),
        (lambda: HBAC(3, 4, (2.7,)), "reset_qubits"),
        (lambda: SemiOpen((2.5, 3)), "cluster_sizes"),
    ):
        with pytest.raises(ConfigError, match=field):
            make()
    # Any integer type is taken, and stored as int.
    config = HBAC(np.int64(3), np.int32(4), (np.uint8(3),))
    assert config == HBAC(3, 4, (3,))
    fields = (config.cluster_size, config.rounds, *config.reset_qubits)
    assert all(type(v) is int for v in fields)
    assert type(Dynamic(np.int64(3)).n_qubits) is int
    assert SemiOpen((np.int16(3), 2)).cluster_sizes == (3, 2)
    assert report(Dynamic(np.int64(3)), initial_p=0.1) == report(Dynamic(3), initial_p=0.1)


def test_hbac_default_resets_refuse_a_cluster_past_the_cap():
    # The default resets list every auxiliary; a cluster too large to
    # run is refused before they are listed.
    with pytest.raises(ResourceLimitError, match="25 qubits"):
        HBAC(25, 2)
    with pytest.raises(ResourceLimitError, match=f"{10**12} qubits"):
        HBAC(10**12, 2)
    assert HBAC(24, 2).reset_qubits == tuple(range(2, 25))


@pytest.mark.parametrize("config", ANALYTIC_COUNT_CASES, ids=method_label)
def test_config_document_round_trip(config):
    name = {cls: key for key, cls in _METHODS.items()}[type(config)]
    doc = {"method": name}
    for field in dataclasses.fields(config):
        doc[field.name] = getattr(config, field.name)
    if isinstance(config.protocol, CustomProtocol):
        doc["protocol"], doc["cycles"] = "custom", config.protocol.cycles
    assert config_from_json(json.loads(json.dumps(doc))) == config


@pytest.mark.parametrize("protocol", ("ppa", "mirror", "minimal-work"))
@pytest.mark.parametrize("n", (2, 3, 5))
def test_dynamic_is_one_round_suboptimal(n, protocol):
    dyn, sub = Dynamic(n, protocol), SubOptimal(n, 1, protocol)
    a = report(dyn, initial_p=0.1)
    b = report(sub, initial_p=0.1)
    assert a.final_excitation == b.final_excitation
    assert a.work_in_gap_units == b.work_in_gap_units
    assert a.gate_counts == b.gate_counts
    assert build_circuit(dyn, 0.1) == build_circuit(sub, 0.1)
    assert build_circuit(dyn, 0.1) == build_circuit(dyn) == build_circuit(sub)


@pytest.mark.parametrize(
    "config",
    [c for c in ANALYTIC_COUNT_CASES if not isinstance(c, SemiOpen)],
    ids=method_label,
)
def test_initial_p_does_not_change_fixed_circuits(config):
    assert build_circuit(config, 0.1) == build_circuit(config)


def test_register_cap_enforced():
    # Clusters and probability vectors are capped at 24 qubits; a closed
    # form allocates nothing, so it needs no cap.
    big = Dynamic(25)
    assert final_probability(big, 0.1) == dynamic_final_p(0.1, 25)
    for call in (
        lambda: build_circuit(big),
        lambda: total_work_cost(big, 0.1),
        lambda: report(big, initial_p=0.1),
        lambda: final_probability(Dynamic(25, CustomProtocol(((0, 1),))), 0.1),
        lambda: final_probability(SemiOpen((2, 25)), 0.1),
        lambda: report(SemiOpen((2, 25)), initial_p=0.1),
        lambda: final_probability(HBAC(25, 2), 0.1),
        lambda: hbac_final_p(0.1, 25, 2),
    ):
        with pytest.raises(ResourceLimitError, match="25 qubits"):
            call()
    # SubOptimal(3, 3) builds vectors of 8 entries, except per-layer
    # noise, which holds at most 11 of the 27 qubits live.
    s33 = SubOptimal(3, 3)
    rep = report(s33, initial_p=0.1)
    assert rep.total_qubits == 27 and rep.gate_counts.total == 65
    assert rep.final_excitation == sub_optimal_final_p(0.1, 3, 3)
    circuit = build_circuit(s33, 0.1)
    assert circuit.n_qubits == 27 and len(circuit) == 65
    per_gate = noisy_final_probability(s33, 0.1, NoiseModel(0.01))
    assert per_gate > rep.final_excitation
    per_layer = {
        noise: noisy_final_probability(s33, 0.1, NoiseModel(noise, "per-layer"))
        for noise in (0.0, 1.0, 0.01)
    }
    assert per_layer[0.0] == rep.final_excitation
    # the last layer fully depolarizes the final cluster
    assert abs(per_layer[1.0] - 0.5) <= 4 * EPS
    assert rep.final_excitation < per_layer[0.01] < 0.5
    # Registers are capped at 63 qubits (64-bit row masks), before any
    # qubit map is built.
    for wide in (SubOptimal(2, 6), SubOptimal(2, 30)):
        assert final_probability(wide, 0.1) == sub_optimal_final_p(
            0.1, 2, wide.rounds
        )
        for call in (
            lambda: build_circuit(wide),
            lambda: report(wide, initial_p=0.1),
            lambda: total_work_cost(wide, 0.1),
        ):
            with pytest.raises(ResourceLimitError, match="cap of 63"):
                call()


def test_suboptimal_register_refused_unevaluated():
    # Past six rounds n**r exceeds 63 for every n >= 2; refusing it must
    # not compute (or print) the power, which at r = 3,000,000 alone
    # has over 1.4 million digits.
    assert SubOptimal(2, 6).width == 64
    huge = SubOptimal(3, 3_000_000)
    for call in (
        lambda: total_qubits(huge),
        lambda: report(huge, initial_p=0.1),
        lambda: build_circuit(huge),
        lambda: total_work_cost(huge, 0.1),
        lambda: noisy_final_probability(huge, 0.1, NoiseModel(0.01)),
    ):
        with pytest.raises(
            ResourceLimitError, match=r"3\*\*3000000 qubits exceeds the cap of 63"
        ):
            call()
    with pytest.raises(ResourceLimitError, match=r"2\*\*7 qubits"):
        SubOptimal(2, 7).width


def test_hbac_plan_holds_one_entry_per_distinct_round():
    rounds = 10**6
    plan = _rounds(HBAC(3, rounds), 0.1)
    assert len(plan) == 2
    assert [r.repeat for r in plan] == [1, rounds - 1]
    per_round = synthesized_gate_count(plan[0].unitary)
    assert _gate_counts(plan) == GateCounts({2: rounds * per_round}, rounds - 1)
    assert len(_rounds(HBAC(3, 1), 0.1)) == 1


def _unrolled(plan):
    return tuple(
        dataclasses.replace(r, repeat=1) for r in plan for _ in range(r.repeat)
    )


def _stepwise_hbac(config, p, noise):
    """(t, work) of HBAC round by round through the public functions."""
    u = config.plan(p)[0].unitary
    gates = synthesized_gate_count(u)
    if noise in (0.0, 1.0):
        mixed = noise if gates else 0.0
    else:
        mixed = -math.expm1(gates * math.log1p(-noise))
    v = thermal_product_vector(p, config.cluster_size)
    work = 0.0
    for k in range(config.rounds):
        if k:
            v = reset_qubits(v, config.reset_qubits, p)
        work += work_cost(u, v)
        v = u.apply_to_prob_vector(v)
        if mixed:
            v = (1.0 - mixed) * v + mixed / v.size
    return marginal(v, 1), work


def _bits(values):
    return [float(x).hex() for x in values]


def _maps(config):
    """Whether _walk runs config's repeated round as a linear map."""
    kept = config.cluster_size - len(config.reset_qubits)
    return config.rounds > 2 and _map_pays(
        config.cluster_size, kept, config.rounds - 1
    )


EPS = 2.0**-52


def _within(got, exact, moved, mapped, rounds):
    """Whether a float (t, work) is as close to the exact walk as stated.

    The map keeps t within 4e-15 relative at every p, and its work
    within 8 ulps of the energy the moved states carry (moved, which
    grows with rounds and p).  The walk's own error grows with rounds:
    t within (rounds + 2) * 4e-16 relative and work within
    (rounds + 4) ulps of moved.
    """
    t, work = got
    t_tol = 4e-15 if mapped else (rounds + 2) * 4e-16
    work_tol = (8 if mapped else rounds + 4) * EPS * moved
    exact_t, exact_work = exact
    return (
        abs(Fraction(t) - exact_t) <= t_tol * exact_t
        and abs(Fraction(work) - exact_work) <= work_tol
    )


@pytest.mark.parametrize("rounds", (1, 2, 200))
@pytest.mark.parametrize(
    "size, resets", ((3, ()), (5, (2, 3)), (3, (1,))), ids=("default", "23", "1")
)
def test_repeated_round_walks_as_unrolled(size, resets, rounds):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # resetting the target warns
        config = HBAC(size, rounds, resets)
    p = 0.1
    plan = _rounds(config, p)
    flat = _unrolled(plan)
    assert len(plan) == min(rounds, 2) and len(flat) == rounds
    mapped = _maps(config)
    assert mapped == (rounds == 200)
    for noise in (0.0, 1e-3, 1.0):
        walked = _walk(plan, p, noise)
        unrolled = _walk(flat, p, noise)
        assert _bits(unrolled) == _bits(_stepwise_hbac(config, p, noise))
        if mapped:
            # The map sums the repeats in another order, so it is held
            # to the exact walk instead of to the unrolled bits.
            t, work, moved = exact_walk(plan, p, noise, digits=50)
            assert _within(walked, (t, work), moved, True, rounds)
        else:
            assert _bits(walked) == _bits(unrolled)
    circuit = _circuit(config.width, plan)
    assert circuit == _circuit(config.width, flat)
    assert gate_counts(circuit) == _gate_counts(plan) == _gate_counts(flat)
    assert export_qasm(circuit) == export_qasm(_circuit(config.width, flat))


def test_repeats_the_map_does_not_pay_for_walk_as_unrolled():
    # 11 kept qubits of 12: a 2**11-entry map costs more than 199
    # repeats, so the walk keeps its loop and its bits.
    config = HBAC(12, 200, (2,))
    assert not _maps(config)
    p = 0.1
    plan = _rounds(config, p)
    for noise in (0.0, 1e-3):
        walked = _walk(plan, p, noise)
        assert _bits(walked) == _bits(_walk(_unrolled(plan), p, noise))
        assert _bits(walked) == _bits(_stepwise_hbac(config, p, noise))


_GRID_P = (1e-12, 3.4e-4, 0.04, 0.1, 0.3, 0.49, 0.4999)
_GRID_NOISE = (0.0, 1e-4, 1e-2, 1.0)


@pytest.mark.parametrize("rounds", (2, 3, 50, 200))
@pytest.mark.parametrize(
    "resets", ((), (2, 3), (1,), (3,)), ids=("default", "23", "1", "3")
)
@pytest.mark.parametrize("size", (3, 4, 5))
def test_walk_matches_exact_oracle(size, resets, rounds, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # resetting the target warns
        config = HBAC(size, rounds, resets)
    mapped = _maps(config)
    # Exact rationals grow by a few hundred bits a round; 50 digits
    # agree with them to 1e-40 (test_decimal_oracle_is_exact_enough).
    digits = None if rounds <= 3 else 50
    for p in _GRID_P:
        plan = _rounds(config, p)
        for noise in _GRID_NOISE:
            t, work, moved = exact_walk(plan, p, noise, digits)
            case = (p, noise)
            got = _walk(plan, p, noise=noise)
            assert _within(got, (t, work), moved, mapped, rounds), case
            if rounds > 2 and not mapped:
                # The map, where the walk would not pay for it, is held
                # to the same bound.
                with monkeypatch.context() as patch:
                    patch.setattr(methods, "_map_pays", lambda *sizes: True)
                    forced = _walk(plan, p, noise=noise)
                assert _within(forced, (t, work), moved, True, rounds), case


@pytest.mark.parametrize("rounds, noise", ((200, 0.0), (50, 1e-2)))
def test_decimal_oracle_is_exact_enough(rounds, noise):
    # The noise mix adds hundreds of bits a round to the exact values,
    # so the noisy case is kept short.
    plan = _rounds(HBAC(3, rounds), 0.4999)
    exact = exact_walk(plan, 0.4999, noise)
    fifty = exact_walk(plan, 0.4999, noise, digits=50)
    for a, b in zip(exact, fifty):
        assert abs(a - b) <= 1e-40 * abs(a)


def _steady_tol(p):
    """Relative work error of noiseless 3-qubit HBAC at any number of rounds.

    Its steady work is 0, so the map sums the deviation from the
    stationary state and nothing grows with rounds; what is left scales
    with the digits p lose near 1/2.
    """
    return 4 * EPS / (1 - 2 * p)


@pytest.mark.parametrize("p", (0.1, 0.49, 0.4999))
def test_ten_thousand_rounds_match_the_decimal_walk(p):
    # The map's bound does not depend on rounds, past 200 either.
    plan = _rounds(HBAC(3, 10**4), p)
    for noise in (0.0, 1e-2):
        t, work, moved = exact_walk(plan, p, noise, digits=50)
        got = _walk(plan, p, noise=noise)
        assert _within(got, (t, work), moved, True, 10**4), noise
        if not noise:
            assert abs(Fraction(got[1]) - work) <= _steady_tol(p) * work


@pytest.mark.parametrize("p", (1e-12, 3.4e-4, 0.1, 0.3, 0.49, 0.4999))
def test_long_hbac_runs_reach_the_three_qubit_limit(p, monkeypatch):
    # p**2 / ((1 - p)**2 + p**2) is where 3-qubit HBAC converges.  Its
    # work converges too: each round moves the deviation from that
    # limit, which decays by at least 1/2 a round, so 400 rounds come
    # within 1e-100 of the limit of the work.
    exact = Fraction(p) ** 2 / ((1 - Fraction(p)) ** 2 + Fraction(p) ** 2)
    limit = exact_walk(_rounds(HBAC(3, 400), p), p, digits=50)[1]
    t = final_probability(HBAC(3, 10**12), p)
    assert abs(Fraction(t) - exact) <= 1e-14 * exact
    for rounds in (3 * 10**12, 3 * 10**18):
        work = total_work_cost(HBAC(3, rounds), p)
        assert abs(Fraction(work) - limit) <= _steady_tol(p) * limit, rounds
    # 100,000 rounds take one map, not a reset per round.
    assert _map_pays(3, 1, 99_999)
    resets = []
    walk_reset = methods.sim._reset
    monkeypatch.setattr(
        methods.sim, "_reset", lambda *a: resets.append(1) or walk_reset(*a)
    )
    report(HBAC(3, 100_000), initial_p=p)
    assert not resets


@pytest.mark.parametrize("resets", ((1,), (3,)), ids=("1", "3"))
@pytest.mark.parametrize("p", (1e-12, 0.1, 0.49, 0.4999))
def test_zero_steady_work_stays_exact_over_long_runs(p, resets):
    # Fully depolarized rounds start every repeat from the same state, so
    # the work is round 1's plus (r - 1) times a steady work, which is 0
    # for these resets: an 8-state map whose error must not grow with r.
    # It is held to _steady_tol or to one ulp of the energy two rounds
    # move, which covers a work 10**12 times smaller than that energy.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # resetting the target warns
        two, three = (HBAC(4, r, resets) for r in (2, 3))
    _, w2, moved = exact_walk(_rounds(two, p), p, 1.0)
    steady = exact_walk(_rounds(three, p), p, 1.0)[1] - w2
    assert steady == 0
    for rounds in (10**4, 3 * 10**18):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = HBAC(4, rounds, resets)
        work = _walk(_rounds(config, p), p, noise=1.0)[1]
        tol = _steady_tol(p) * abs(w2) + EPS * moved
        assert abs(Fraction(work) - w2) <= tol, rounds


def test_stationary_vector_keeps_relative_digits():
    # Two states that leave each other with probabilities a and b stay
    # in proportion b : a, however small a is.
    # The chains are stacked, and each row is the one it is alone.
    pairs = ((1e-24, 0.5), (0.3, 0.7), (1.0, 1.0))
    chains = np.array([[[1 - a, a], [b, 1 - b]] for a, b in pairs])
    stacked = stationary(chains)
    for (a, b), pi, chain in zip(pairs, stacked, chains):
        assert pi.tobytes() == stationary(chain[None])[0].tobytes()
        exact = [Fraction(b) / (Fraction(a) + Fraction(b))]
        exact.append(1 - exact[0])
        for got, want in zip(pi, exact):
            assert abs(Fraction(got) - want) <= 4 * EPS * want
    # A random chain on 16 states: pi P = pi entry by entry.
    rng = np.random.default_rng(7)
    chain = rng.random((16, 16)) ** 8
    chain /= chain.sum(axis=1, keepdims=True)
    (pi,) = stationary(chain[None])
    assert np.all(np.abs(pi @ chain - pi) <= 64 * EPS * pi)
    assert abs(pi.sum() - 1.0) <= 16 * EPS
    # Two closed classes have no unique stationary vector: that row is
    # NaN, and a row stacked with it keeps its own vector.
    both = stationary(np.array([np.eye(3), chain[:3, :3] / chain[:3, :3].sum(1)[:, None]]))
    assert np.isnan(both[0]).all() and not np.isnan(both[1]).any()


def _custom(n):
    """A custom protocol on n qubits that cools a homogeneous target:
    01..1 swapped with 10..0, plus a 3-cycle among target-0 states."""
    cycles = [("0" + "1" * (n - 1), "1" + "0" * (n - 1))]
    if n >= 3:
        cycles.append((0, 1, 2))
    return CustomProtocol(tuple(cycles))


ORACLE_CASES = [
    Dynamic(3, "ppa"), Dynamic(3, _custom(3)),
    Dynamic(6, "mirror"), Dynamic(6, _custom(6)),
    Dynamic(9), Dynamic(9, _custom(9)),
    SubOptimal(3, 2), SubOptimal(3, 2, _custom(3)),
    SubOptimal(2, 3, "ppa"), SubOptimal(2, 3, _custom(2)),
    SemiOpen((3, 3)), SemiOpen((3, 3), _custom(3)),
    SemiOpen((3, 4, 3), "mirror"), SemiOpen((3, 4, 3), _custom(3)),
    HBAC(3, 50), HBAC(3, 50, protocol=_custom(3)),
    HBAC(5, 20, (2, 3)), HBAC(5, 20, (2, 3), _custom(5)),
]


@pytest.mark.parametrize("config", ORACLE_CASES, ids=method_label)
def test_every_method_matches_the_exact_walk(config):
    """report and total_work_cost against the exact walk of their plan.

    t, from a closed form or the walk, is within 8 eps relative at
    every p (2.7 eps reached).  Work is within 8 eps of moved, the
    energy the moved states carry: that is 8 eps relative to the work
    near p = 0 and 8 eps * moved / work in general, with moved / work
    growing like 1 / (1 - 2p), to about 2e7 at p = 0.4999999 (3.4 eps
    of moved reached).  HBAC's plan is walked at 50 digits, which
    agree with Fraction to 1e-40 (test_decimal_oracle_is_exact_enough).
    """
    gap = EnergyGap.from_frequency_ghz(5.0)
    digits = 50 if isinstance(config, HBAC) else None
    for p in (1e-12, 0.1, 0.49, 0.4999, 0.4999999):
        t, work, moved = exact_walk(_rounds(config, p), p, digits=digits)
        rep = report(config, initial_p=p)
        assert abs(Fraction(rep.final_excitation) - t) <= 8 * EPS * t, p
        joules = total_work_cost(config, p, gap)
        for got in (rep.work_in_gap_units, joules / gap.value):
            assert abs(Fraction(got) - work) <= 8 * EPS * moved, p


JOULE_CASES = [
    Dynamic(9),
    Dynamic(8, "ppa"),
    SubOptimal(3, 2),
    HBAC(3, 200),
    HBAC(5, 50, (2, 3)),
    SemiOpen((5, 5, 5, 5)),
    SemiOpen((3, 3, 3)),
]


@pytest.mark.parametrize("config", JOULE_CASES, ids=method_label)
def test_total_work_cost_is_work_joules(config):
    # Both scale the walk's work in gap units by the gap once, so they
    # agree to the last bit.
    gap = EnergyGap.from_frequency_ghz(5.0)
    for p in (0.04, 0.07, 0.1, 0.3):
        joules = report(config, initial_p=p, gap=gap).work_joules
        assert _bits([total_work_cost(config, p, gap)]) == _bits([joules]), p


def test_report_never_builds_the_circuit():
    # A billion rounds would tile 6 * 10**9 circuit rows, which
    # build_circuit refuses; the report reads its counts off the plan.
    config = HBAC(3, 10**9)
    rep = report(config, initial_p=0.1)
    assert rep.gate_counts == GateCounts({2: 5 * 10**9}, 10**9 - 1)
    assert rep.final_excitation == final_probability(config, 0.1)
    with pytest.raises(ResourceLimitError, match="5999999999 instructions"):
        build_circuit(config, 0.1)
    assert not hasattr(rep, "circuit")


def test_plans_hold_structure_only():
    # A round with resets carries its state on; one without starts
    # from a product state.  Nothing else about a state is planned.
    assert [f.name for f in dataclasses.fields(methods._Round)] == [
        "unitary", "clusters", "resets", "repeat",
    ]
    for config in ORACLE_CASES:
        for rnd in _rounds(config, 0.1):
            assert rnd.repeat == 1 or rnd.resets


def test_semi_open_rows_share_their_round_unitaries(monkeypatch):
    # Later rounds depend on p only through the thermal ranking, so rows
    # at different p hold the same unitary objects, and a round that
    # repeats an earlier one's ranking is synthesized once.
    config = SemiOpen((5, 5, 5, 5))
    plans = [[r.unitary for r in _rounds(config, p)] for p in (0.04, 0.07, 0.1)]
    for plan in plans[1:]:
        assert all(a is b for a, b in zip(plan, plans[0]))
    distinct = {id(u): u for u in plans[0]}
    assert len(distinct) < len(plans[0])
    calls = []
    real = methods.synthesize_circuit
    monkeypatch.setattr(
        methods, "synthesize_circuit", lambda u: calls.append(u) or real(u)
    )
    circuit = build_circuit(config, 0.07)
    assert sorted(map(id, calls)) == sorted(distinct)
    v = thermal_product_vector(0.07, circuit.n_qubits)
    got = marginal(simulate(circuit, v), 1)
    assert got == pytest.approx(final_probability(config, 0.07), rel=1e-12)


def test_walk_refuses_past_the_cost_cap(monkeypatch):
    # 12-qubit rounds that reset one qubit keep 11: the map over their
    # marginal costs more than walking 199 repeats, so those walk.  A
    # million repeats would walk, estimated at 5.6e9 units; a billion
    # would take the map, estimated at 2.7e11.  Both are refused before
    # a reset.
    resets = []
    walk_reset = methods.sim._reset
    monkeypatch.setattr(
        methods.sim, "_reset", lambda *a: resets.append(1) or walk_reset(*a)
    )
    report(HBAC(12, 200, (2,)), initial_p=0.1)
    assert len(resets) == 199
    resets.clear()
    for rounds in (10**6, 10**9):
        with pytest.raises(ResourceLimitError, match="cap of 1073741824"):
            report(HBAC(12, rounds, (2,)), initial_p=0.1)
        with pytest.raises(ResourceLimitError, match="cap of 1073741824"):
            noisy_final_probability(HBAC(12, rounds, (2,)), 0.1, NoiseModel(0.01))
    assert not resets
    assert methods._loop_cost(12, 10**6 - 1) > methods._MAX_COST


def test_resolve_protocol_shares_one_unitary(monkeypatch):
    monkeypatch.setattr(protocols, "_shared", protocols._Shared(1 << 20))
    for choice in ("ppa", CustomProtocol((("011", "100"),))):
        u = methods._resolve_protocol(choice, 3)
        assert methods._resolve_protocol(choice, 3) is u


def test_reports_keep_at_most_the_shared_cap_of_unitaries(monkeypatch):
    # Nine reports build unitaries of 2**14 to 2**16 states.  A table
    # capped at 2**15 states keeps only the newest of them, so about
    # 5 MiB stays allocated once the last plan is dropped; keeping all
    # nine would hold about 24 MiB.
    table = protocols._Shared(1 << 15)
    monkeypatch.setattr(protocols, "_shared", table)
    methods._rounds.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for n in (14, 15, 16):
            for protocol in ("ppa", "mirror", "minimal-work"):
                report(Dynamic(n, protocol), initial_p=0.1)
        methods._rounds.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8 << 20
    newest = list(table.table.values())[-1]
    assert table.states - newest.dim <= 1 << 15


def test_report_with_physical_gap():
    gap = EnergyGap.from_frequency_ghz(5.0)
    rep = report(Dynamic(3), temperature=Temperature.from_millikelvin(50), gap=gap)
    assert rep.method == "dynamic-n3-minimal-work"
    assert rep.total_qubits == 3
    assert rep.final_excitation == pytest.approx(
        dynamic_final_p(rep.initial_excitation, 3), abs=1e-15
    )
    assert rep.final_temperature.kelvin < rep.initial_temperature.kelvin
    assert rep.work_joules == pytest.approx(
        rep.work_in_gap_units * gap.value, rel=1e-12
    )
    assert rep.gate_counts.total == 5
    assert len(build_circuit(Dynamic(3), rep.initial_excitation)) == 5


def test_report_dimensionless():
    rep = report(SubOptimal(3, 2), initial_p=0.1)
    assert rep.initial_temperature is None and rep.final_temperature is None
    assert rep.work_joules is None
    assert rep.work_in_gap_units == pytest.approx(
        total_work_cost(SubOptimal(3, 2), 0.1), rel=1e-12
    )
    assert rep.gate_counts.resets == 0
    rep2 = report(HBAC(3, 3), initial_p=0.1)
    assert rep2.gate_counts.resets == 2
    assert gate_counts(build_circuit(HBAC(3, 3), 0.1)) == rep2.gate_counts


def test_report_refuses_hot_target_in_later_rounds():
    # (000 100) heats the target: 0.1 -> 0.748, past 1/2 before round 2.
    heat = CustomProtocol(((0b000, 0b100),))
    for config, label in (
        (SubOptimal(3, 2, heat), "suboptimal-n3-r2-custom"),
        (SemiOpen((3, 3), heat), "semiopen-3+3-custom"),
    ):
        with pytest.raises(PopulationInversionError) as info:
            report(config, initial_p=0.1)
        message = str(info.value)
        assert label in message and "round 2" in message
        assert "0.748" in message
        for evaluate in (final_probability, total_work_cost):
            with pytest.raises(PopulationInversionError, match="round 2"):
                evaluate(config, 0.1)
    with pytest.raises(PopulationInversionError, match="round 2"):
        build_circuit(SemiOpen((3, 3), heat), 0.1)
    # One round never starts from the heated target.
    assert report(SubOptimal(3, 1, heat), initial_p=0.1).final_excitation == (
        pytest.approx(0.748, abs=1e-15)
    )


def test_report_inverted_final_state_has_no_temperature():
    heat = Dynamic(3, CustomProtocol((("000", "100"),)))
    gap = EnergyGap.from_frequency_ghz(5.0)
    temperature = Temperature.from_millikelvin(50)
    rep = report(heat, temperature=temperature, gap=gap)
    p = probability_from_temperature(temperature, gap)
    assert rep.final_excitation == report(heat, initial_p=p).final_excitation
    assert rep.final_excitation > 0.5
    assert rep.final_temperature is None
    assert rep.initial_temperature.millikelvin == pytest.approx(50, rel=1e-12)
    assert rep.work_joules == pytest.approx(
        rep.work_in_gap_units * gap.value, rel=1e-12
    )


def test_report_argument_checks():
    with pytest.raises(ValueError):
        report(Dynamic(3))
    with pytest.raises(ValueError):
        report(Dynamic(3), initial_p=0.1, temperature=Temperature(1.0))


def test_config_from_json():
    assert config_from_json({"method": "dynamic", "n_qubits": 5}) == Dynamic(5)
    assert config_from_json(
        {"method": "suboptimal", "cluster_size": 3, "rounds": 2, "protocol": "ppa"}
    ) == SubOptimal(3, 2, "ppa")
    assert config_from_json(
        {"method": "hbac", "cluster_size": 3, "rounds": 9, "reset_qubits": [2, 3]}
    ) == HBAC(3, 9, (2, 3))
    assert config_from_json(
        {"method": "semiopen", "cluster_sizes": [3, 3]}
    ) == SemiOpen((3, 3))
    custom = config_from_json(
        {
            "method": "dynamic",
            "n_qubits": 3,
            "protocol": "custom",
            "cycles": [["011", "100"]],
        }
    )
    assert custom.protocol == CustomProtocol((("011", "100"),))


def test_config_from_json_rejects_garbage():
    for doc in (
        {"method": "dynamic"},
        {"method": "freeze", "n_qubits": 3},
        {"method": "dynamic", "n_qubits": 1},
        {"method": "dynamic", "n_qubits": 3, "extra": 1},
        {"method": "dynamic", "n_qubits": 3, "protocol": "custom"},
        {"method": "suboptimal", "cluster_size": 3},
        {"method": "semiopen", "cluster_sizes": []},
        [],
        # custom labels must fit the width the protocol runs on
        {"method": "dynamic", "n_qubits": 3, "protocol": "custom",
         "cycles": [["0000", "1111"]]},
        {"method": "suboptimal", "cluster_size": 3, "rounds": 2,
         "protocol": "custom", "cycles": [[0, 8]]},
        {"method": "hbac", "cluster_size": 3, "rounds": 2,
         "protocol": "custom", "cycles": [["011", "100"], ["100", "001"]]},
        {"method": "semiopen", "cluster_sizes": [3, 4], "protocol": "custom",
         "cycles": [["0111", "1000"]]},
    ):
        with pytest.raises(ConfigError):
            config_from_json(doc)
    # fields that do not apply to the method are named, not dropped
    for doc, field in (
        ({"method": "dynamic", "n_qubits": 3, "rounds": 7}, "rounds"),
        ({"method": "dynamic", "n_qubits": 3, "cycles": [["011", "100"]]}, "cycles"),
        ({"method": "suboptimal", "cluster_size": 3, "rounds": 2,
          "protocol": "ppa", "cycles": [["011", "100"]]}, "cycles"),
        ({"method": "hbac", "cluster_size": 3, "rounds": 2,
          "cluster_sizes": [3]}, "cluster_sizes"),
        ({"method": "semiopen", "cluster_sizes": [3],
          "reset_qubits": [2]}, "reset_qubits"),
    ):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            config_from_json(doc)


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"method": "dynamic", "n_qubits": 4}')
    assert config_from_json(path) == Dynamic(4)
    with pytest.raises(ConfigError):
        config_from_json(tmp_path / "missing.json")
