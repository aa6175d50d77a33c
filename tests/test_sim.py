import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_mcnot_int,
    gates,
    instructions,
    live_marginal,
    marginal_mask,
    simulate_stepwise,
)

import qcool.methods as methods_module
import qcool.sim as sim_module
from qcool import (
    HBAC,
    Circuit,
    Dynamic,
    McNot,
    NoiseModel,
    ResetInstr,
    ResourceLimitError,
    SemiOpen,
    SubOptimal,
    build_circuit,
    apply_mcnot,
    depolarize,
    marginal,
    minimal_work_protocol,
    noisy_final_probability,
    random_permutation_unitary,
    reset_qubits,
    simulate,
    synthesize_circuit,
    thermal_product_vector,
    validate_prob_vector,
)


def random_gate(rng, n):
    qubits = list(rng.permutation(np.arange(1, n + 1)))
    n_controls = int(rng.integers(0, n))
    target = int(qubits[0])
    controls = tuple(
        (int(q), int(rng.integers(0, 2))) for q in qubits[1 : 1 + n_controls]
    )
    return McNot(target, controls)


def test_apply_mcnot_matches_bit_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        gate = random_gate(rng, n)
        v = rng.random(1 << n)
        v /= v.sum()
        out = apply_mcnot(v, gate)
        for s in range(1 << n):
            dest = apply_mcnot_int(s, gate.target, gate.controls, n)
            assert out[dest] == v[s]


def test_apply_mcnot_toffoli():
    v = np.zeros(8)
    v[0b110] = 1.0
    out = apply_mcnot(v, McNot(3, ((1, 1), (2, 1))))
    assert out[0b111] == 1.0 and out.sum() == 1.0
    # open control on qubit 1 leaves 110 alone
    out = apply_mcnot(v, McNot(3, ((1, 0), (2, 1))))
    assert out[0b110] == 1.0


def test_apply_mcnot_validation():
    v = np.ones(8) / 8
    with pytest.raises(ValueError):
        apply_mcnot(v, McNot(4))
    with pytest.raises(ValueError):
        apply_mcnot(np.ones(5) / 5, McNot(1))


def test_depolarize_limits():
    v = thermal_product_vector(0.2, 3)
    assert np.array_equal(depolarize(v, (1, 2, 3), 0.0), v)
    out = depolarize(v, (1, 2, 3), 1.0)
    assert np.allclose(out, np.full(8, 1 / 8))


def test_depolarize_single_qubit_marginal():
    v = thermal_product_vector(0.2, 3)
    p = 0.3
    out = depolarize(v, (2,), p)
    # touched qubit moves toward 1/2, untouched marginals stay exact
    assert marginal(out, 2) == pytest.approx((1 - p) * 0.2 + p * 0.5, abs=1e-15)
    assert marginal(out, 1) == pytest.approx(0.2, abs=1e-15)
    assert marginal(out, 3) == pytest.approx(0.2, abs=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_depolarize_validation():
    v = np.ones(4) / 4
    with pytest.raises(ValueError):
        depolarize(v, (), 0.1)
    with pytest.raises(ValueError):
        depolarize(v, (3,), 0.1)
    with pytest.raises(ValueError):
        depolarize(v, (1,), 1.5)


def test_reset_retensors_bath():
    v = thermal_product_vector(0.3, 3)
    u = minimal_work_protocol(3)
    cooled = u.apply_to_prob_vector(v)
    out = reset_qubits(cooled, (2, 3), 0.3)
    expect = np.kron(
        np.array([1 - marginal(cooled, 1), marginal(cooled, 1)]),
        thermal_product_vector(0.3, 2),
    )
    assert np.allclose(out, expect, atol=1e-15)


def test_reset_preserves_target_marginal():
    # cooled three-qubit register at p=0.1: resetting both auxiliaries
    # keeps the target at 0.028
    v = thermal_product_vector(0.1, 3)
    cooled = minimal_work_protocol(3).apply_to_prob_vector(v)
    out = reset_qubits(cooled, (2, 3), 0.1)
    assert marginal(out, 1) == pytest.approx(0.028, abs=1e-15)


def test_reset_everything():
    v = np.zeros(4)
    v[3] = 1.0
    out = reset_qubits(v, (1, 2), 0.25)
    assert np.allclose(out, thermal_product_vector(0.25, 2))


def test_reset_validation():
    v = np.ones(4) / 4
    with pytest.raises(ValueError):
        reset_qubits(v, (1,), 0.7)
    with pytest.raises(ValueError):
        reset_qubits(v, (), 0.1)


@pytest.mark.parametrize("qubit", [1.5, 2.7, 2.0, np.float64(2.0), "2"])
def test_kernels_refuse_non_integer_qubits(qubit):
    v = thermal_product_vector(0.2, 3)
    with pytest.raises(ValueError, match="must be integers"):
        depolarize(v, (1, qubit), 0.2)
    with pytest.raises(ValueError, match="must be integers"):
        reset_qubits(v, (qubit,), 0.1)
    with pytest.raises(ValueError, match="must be an integer"):
        marginal(v, qubit)


def test_kernels_take_any_integer_type_for_qubits():
    v = thermal_product_vector(0.2, 3)
    for qubits in ((np.int64(2), np.uint8(3)), np.array([3, 2])):
        assert np.array_equal(depolarize(v, qubits, 0.2), depolarize(v, (2, 3), 0.2))
        assert np.array_equal(
            reset_qubits(v, qubits, 0.1), reset_qubits(v, (2, 3), 0.1)
        )


def test_marginal_convention():
    v = np.zeros(8)
    v[0b100] = 1.0  # qubit 1 excited
    assert marginal(v, 1) == 1.0
    assert marginal(v, 2) == 0.0 and marginal(v, 3) == 0.0
    with pytest.raises(ValueError):
        marginal(v, 4)


def test_simulate_noiseless_equals_unitary():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        u = random_permutation_unitary(n, rng)
        v = rng.random(1 << n)
        v /= v.sum()
        got = simulate(synthesize_circuit(u), v)
        assert np.array_equal(got, u.apply_to_prob_vector(v))


def test_simulate_zero_noise_model_matches_noiseless():
    u = random_permutation_unitary(4, 5)
    circuit = synthesize_circuit(u)
    v = thermal_product_vector(0.1, 4)
    a = simulate(circuit, v)
    b = simulate(circuit, v, noise=NoiseModel(0.0))
    assert np.array_equal(a, b)


def test_simulate_per_gate_noise_explicit():
    # one gate: result must be depolarize(apply(v), touched, p)
    gate = McNot(1, ((2, 1),))
    circuit = Circuit(2, (gate,))
    v = thermal_product_vector(0.3, 2)
    p = 0.05
    got = simulate(circuit, v, noise=NoiseModel(p))
    want = depolarize(apply_mcnot(v, gate), (1, 2), p)
    assert np.allclose(got, want, atol=1e-16)


def test_simulate_per_layer_groups_disjoint_gates():
    # gates on disjoint qubits form one layer: noise strikes once, on the
    # union
    g1 = McNot(1)
    g2 = McNot(2)
    circuit = Circuit(2, (g1, g2))
    v = np.array([0.4, 0.3, 0.2, 0.1])
    p = 0.2
    got = simulate(circuit, v, noise=NoiseModel(p, "per-layer"))
    want = depolarize(apply_mcnot(apply_mcnot(v, g1), g2), (1, 2), p)
    assert np.allclose(got, want, atol=1e-16)
    # overlapping gates split into two layers
    g3 = McNot(2, ((1, 1),))
    circuit2 = Circuit(2, (g1, g3))
    got2 = simulate(circuit2, v, noise=NoiseModel(p, "per-layer"))
    want2 = depolarize(
        apply_mcnot(depolarize(apply_mcnot(v, g1), (1,), p), g3), (1, 2), p
    )
    assert np.allclose(got2, want2, atol=1e-16)


def test_simulate_reset_uses_bath():
    circuit = Circuit(2, (ResetInstr((2,)),))
    v = np.array([0.7, 0.0, 0.3, 0.0])
    out = simulate(circuit, v, bath_excitation=0.25)
    assert np.allclose(out, [0.7 * 0.75, 0.7 * 0.25, 0.3 * 0.75, 0.3 * 0.25])


@pytest.mark.parametrize("bath", [0.9, -0.1, 0.5000001, float("nan")])
def test_simulate_checks_bath_excitation_on_entry(monkeypatch, bath):
    def no_gate(t, gate):
        raise AssertionError("a gate ran before the bath was checked")

    monkeypatch.setattr(sim_module, "_swap_target", no_gate)
    v = np.array([0.7, 0.0, 0.3, 0.0])
    for circuit in (
        Circuit(2, (McNot(1),)),  # no reset at all
        Circuit(2, (McNot(1), ResetInstr((2,)))),  # gate before the reset
    ):
        with pytest.raises(ValueError, match="bath excitation"):
            simulate(circuit, v, bath_excitation=bath)


def test_simulate_conservation_under_everything():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        instrs = []
        for _ in range(int(rng.integers(1, 12))):
            if rng.random() < 0.2:
                k = int(rng.integers(1, n + 1))
                qs = tuple(
                    int(q) for q in rng.choice(np.arange(1, n + 1), k, replace=False)
                )
                instrs.append(ResetInstr(qs))
            else:
                instrs.append(random_gate(rng, n))
        circuit = Circuit(n, tuple(instrs))
        v = rng.random(1 << n)
        v /= v.sum()
        out = simulate(
            circuit,
            v,
            noise=NoiseModel(float(rng.uniform(0, 0.5))),
            bath_excitation=0.1,
        )
        validate_prob_vector(out, atol=1e-12)


def test_simulate_width_mismatch():
    with pytest.raises(ValueError):
        simulate(Circuit(3), np.ones(4) / 4)


def test_validate_prob_vector():
    validate_prob_vector(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        validate_prob_vector(np.ones(3) / 3)
    with pytest.raises(ValueError):
        validate_prob_vector(np.full(4, np.nan))
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([1.0, 0.0, 0.0, -np.inf]))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(0.1, "per-shot")


# -- kernels at the sizes the CLI simulates ---------------------------------


def test_simulate_noiseless_equals_unitary_n12():
    u = minimal_work_protocol(12)
    v = thermal_product_vector(0.1, 12)
    got = simulate(synthesize_circuit(u), v)
    assert np.array_equal(got, u.apply_to_prob_vector(v))


@pytest.mark.parametrize(
    "config", [SemiOpen((5, 5, 5, 5)), SubOptimal(4, 2), HBAC(5, 20, (2, 3))]
)
def test_simulate_matches_stepwise_oracle_large(config):
    p = 0.07
    circuit = build_circuit(config, p)
    v = thermal_product_vector(p, circuit.n_qubits)
    for noise_p in (1e-12, 1e-2, 0.4999):
        for placement in ("per-gate", "per-layer"):
            noise = NoiseModel(noise_p, placement)
            got = simulate(circuit, v, noise=noise, bath_excitation=p)
            want = simulate_stepwise(circuit, v, noise, bath_excitation=p)
            assert np.array_equal(got, want), (noise_p, placement)
            assert marginal(got, 1) == marginal_mask(want, 1)


@pytest.mark.parametrize(
    "noise",
    [None, NoiseModel(0.01, "per-gate"), NoiseModel(0.01, "per-layer")],
    ids=["noiseless", "per-gate", "per-layer"],
)
def test_simulate_memory_is_bounded_by_the_row_count(noise):
    # simulate streams its schedule into the kernel one row at a time and
    # peaks at 4.3 MiB here, mostly the rows as a list; a step tuple held
    # per row for the whole circuit measured 10.5-20.4 MiB.
    p = 0.1
    circuit = build_circuit(Dynamic(12), p)
    assert len(circuit) == 29_234
    v = thermal_product_vector(p, 12)
    tracemalloc.start()
    try:
        simulate(circuit, v, noise=noise, bath_excitation=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


# -- properties ---------------------------------------------------------------


@st.composite
def registers(draw, max_n=14):
    """(n, probability vector) with a seeded random vector."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.random(1 << n)
    return n, v / v.sum()


noise_probabilities = st.sampled_from([0.0, 1e-12, 0.4999, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_mcnot_matches_bit_oracle_property(data):
    n, v = data.draw(registers())
    gate = data.draw(gates(n))
    out = apply_mcnot(v, gate)
    dest = [apply_mcnot_int(s, gate.target, gate.controls, n) for s in range(1 << n)]
    assert np.array_equal(out[dest], v)


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    noise_probabilities,
    st.sampled_from(["per-gate", "per-layer"]),
    st.floats(0.0, 0.5),
)
def test_simulate_conserves_probability_and_matches_oracle(data, noise_p, placement, bath):
    n, v = data.draw(registers())
    program = data.draw(st.lists(instructions(n), min_size=1, max_size=24))
    circuit = Circuit(n, tuple(program))
    noise = NoiseModel(noise_p, placement)
    out = simulate(circuit, v, noise=noise, bath_excitation=bath)
    validate_prob_vector(out)
    assert np.array_equal(out, simulate_stepwise(circuit, v, noise, bath))
    for q in range(1, n + 1):
        assert marginal(out, q) == marginal_mask(out, q)


@settings(max_examples=40, deadline=None)
@given(st.data(), noise_probabilities)
def test_public_kernels_leave_input_unmodified(data, noise_p):
    n, v = data.draw(registers())
    before = v.copy()
    apply_mcnot(v, data.draw(gates(n)))
    assert np.array_equal(v, before)
    qubits = data.draw(st.sets(st.integers(1, n), min_size=1))
    depolarize(v, sorted(qubits), noise_p)
    assert np.array_equal(v, before)


# -- the live-qubit kernel ----------------------------------------------------

EPS = 2.0**-52


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.integers(1, 10),
    st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    st.sampled_from(["per-gate", "per-layer"]),
    st.sampled_from([1e-12, 0.1, 0.4999]),
)
def test_live_marginal_matches_stepwise_oracle(data, n, noise_p, placement, p):
    program = data.draw(st.lists(instructions(n), max_size=24))
    circuit = Circuit(n, tuple(program))
    noise = NoiseModel(noise_p, placement)
    v0 = thermal_product_vector(p, n)
    want = marginal_mask(simulate_stepwise(circuit, v0, noise, p), 1)
    got = live_marginal(circuit, p, noise)
    # Every step adds, scales or swaps nonnegative numbers, so each entry
    # keeps its relative digits; the two differ only in the order of
    # their sums, by a few ulps an instruction (5.25 at most over 3,000
    # examples).
    assert abs(got - want) <= 16 * (len(circuit) + 1) * EPS * want


def test_live_marginal_reads_p_for_an_untouched_target():
    p, noise = 0.1, NoiseModel(0.3, "per-layer")
    for program in (
        (),
        (McNot(2, ((3, 0),)),),
        (McNot(1, ((2, 1),)), ResetInstr((1,))),
    ):
        assert live_marginal(Circuit(3, program), p, noise) == p


@pytest.mark.parametrize(
    "config",
    [SubOptimal(n, r, protocol) for n, r in ((3, 2), (4, 2), (2, 3))
     for protocol in ("minimal-work", "ppa", "mirror")],
    ids=lambda c: f"{c.cluster_size}x{c.rounds}-{c.protocol}",
)
def test_per_layer_rows_match_whole_register_simulate(config):
    p = 0.07
    circuit = build_circuit(config, p)
    v0 = thermal_product_vector(p, circuit.n_qubits)
    for noise_p in (1e-4, 1e-3, 1e-2, 0.3, 1.0):
        noise = NoiseModel(noise_p, "per-layer")
        want = marginal(simulate(circuit, v0, noise=noise, bath_excitation=p), 1)
        got = noisy_final_probability(config, p, noise)
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), noise_p


def test_per_layer_noise_levels_share_one_schedule(monkeypatch):
    # The noise levels of one noise sweep build the circuit and its
    # live-qubit schedule once, and each level's value is bit for bit
    # the one a fresh build gives.
    config, p = SubOptimal(4, 2), 0.07
    levels = (1e-4, 1e-3, 1e-2, 0.3)
    circuit = build_circuit(config, p)
    want = [live_marginal(circuit, p, NoiseModel(q, "per-layer")) for q in levels]
    methods_module._layer_program.cache_clear()
    built = []
    real = methods_module._circuit
    monkeypatch.setattr(
        methods_module, "_circuit", lambda *a: built.append(a) or real(*a)
    )
    got = [
        noisy_final_probability(config, p, NoiseModel(q, "per-layer"))
        for q in levels
    ]
    assert got == want
    assert len(built) == 1


def test_live_width_past_the_cap_is_refused_before_allocating(monkeypatch):
    # A gate on 25 qubits makes all 25 live at once; nothing that numpy
    # would allocate may run before the refusal.
    gate = McNot(1, tuple((q, 1) for q in range(2, 26)))
    circuit, noise = Circuit(25, (gate,)), NoiseModel(0.01, "per-layer")
    monkeypatch.setattr(sim_module, "np", None)
    with pytest.raises(ResourceLimitError, match="25 qubits exceeds the cap of 24"):
        live_marginal(circuit, 0.1, noise)
