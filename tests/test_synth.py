import hashlib
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    apply_mcnot_int,
    circuit_permutation,
    circuit_permutation_array,
    reference_cycles,
    reference_cycles_circuit,
    reference_gate_count,
    swapped_permutation,
)

from qcool import (
    Circuit,
    CoolingUnitary,
    CustomProtocol,
    Dynamic,
    GateCounts,
    McNot,
    PhaseSynthesisError,
    SemiOpen,
    cycle_circuit,
    export_qasm,
    gate_counts,
    gray_path,
    minimal_work_protocol,
    mirror_protocol,
    ppa_protocol,
    random_permutation_unitary,
    report,
    synthesize_circuit,
    synthesized_gate_count,
    transposition_circuit,
)
from qcool.methods import _rounds
from qcool.synth import _BLOCK, _cycles_circuit, _walked_gate_count
from qcool.unitary import _transpositions


def hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def test_gray_path_msb_first():
    assert gray_path(0b011, 0b100, 3) == [0b011, 0b111, 0b101, 0b100]
    assert gray_path(0, 1, 3) == [0, 1]
    assert gray_path("011", "100", 3) == [3, 7, 5, 4]


def test_gray_path_structure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        x, y = rng.choice(1 << n, size=2, replace=False)
        path = gray_path(int(x), int(y), n)
        assert path[0] == x and path[-1] == y
        assert len(path) == hamming(int(x), int(y)) + 1
        for a, b in zip(path, path[1:]):
            assert hamming(a, b) == 1
        assert len(set(path)) == len(path)
    with pytest.raises(ValueError):
        gray_path(3, 3, 3)


def test_adjacent_pair_single_gate():
    c = transposition_circuit(0b010, 0b011, 3)
    assert len(c) == 1
    (gate,) = c.instructions
    assert gate.target == 3
    assert gate.controls == ((1, 0), (2, 1))


def test_transposition_gate_count_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        x, y = (int(v) for v in rng.choice(1 << n, size=2, replace=False))
        c = transposition_circuit(x, y, n)
        d = hamming(x, y)
        assert len(c) == 2 * d - 1
        gates = c.instructions
        for i in range(len(gates)):
            assert gates[i] == gates[len(gates) - 1 - i]


def test_transposition_is_exact_swap():
    for n in (2, 3):
        for x in range(1 << n):
            for y in range(1 << n):
                if x == y:
                    continue
                perm = circuit_permutation(transposition_circuit(x, y, n))
                want = list(range(1 << n))
                want[x], want[y] = y, x
                assert perm == want, (n, x, y)


def test_transposition_is_exact_swap_random_sizes():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(4, 7))
        x, y = (int(v) for v in rng.choice(1 << n, size=2, replace=False))
        perm = circuit_permutation(transposition_circuit(x, y, n))
        want = list(range(1 << n))
        want[x], want[y] = y, x
        assert perm == want


def test_cycle_circuit_direction():
    perm = circuit_permutation(cycle_circuit([0, 1, 2], 2))
    assert perm == [1, 2, 0, 3]
    perm = circuit_permutation(cycle_circuit(["011", "100", "000"], 3))
    assert perm[3] == 4 and perm[4] == 0 and perm[0] == 3


def test_cycle_circuit_transposition_order():
    # (s1 s2 ... sm) becomes (s1 s2), (s1 s3), ..., (s1 sm) in sequence
    c = cycle_circuit([0, 1, 3], 2)
    first = transposition_circuit(0, 1, 2)
    second = transposition_circuit(0, 3, 2)
    assert c.instructions == first.instructions + second.instructions
    with pytest.raises(ValueError):
        cycle_circuit([0], 2)
    with pytest.raises(ValueError):
        cycle_circuit([0, 1, 0], 2)


def test_synthesize_matches_unitary():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        u = random_permutation_unitary(n, rng)
        circuit = synthesize_circuit(u)
        assert circuit_permutation(circuit) == list(u.permutation)


def test_synthesize_gate_count_formula():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        u = random_permutation_unitary(n, rng)
        expected = sum(
            2 * hamming(cycle[0], other) - 1
            for cycle in u.cycles
            for other in cycle[1:]
        )
        assert gate_counts(synthesize_circuit(u)).total == expected


def test_synthesize_identity_and_determinism():
    assert len(synthesize_circuit(CoolingUnitary.identity(4))) == 0
    u = random_permutation_unitary(5, 9)
    assert synthesize_circuit(u).instructions == synthesize_circuit(u).instructions


def test_synthesize_rejects_phases():
    phases = np.ones(8, dtype=complex)
    phases[0] = -1.0
    u = CoolingUnitary(3, [[3, 4]], phases=phases)
    with pytest.raises(PhaseSynthesisError):
        synthesize_circuit(u)


def test_minimal_work_three_qubit_circuit():
    circuit = synthesize_circuit(minimal_work_protocol(3))
    counts = gate_counts(circuit)
    assert counts.total == 5
    assert counts.by_controls == {2: 5}
    assert counts.resets == 0
    # action check against the bit-level oracle
    perm = circuit_permutation(circuit)
    assert perm[3] == 4 and perm[4] == 3
    assert all(perm[j] == j for j in range(8) if j not in (3, 4))


def test_every_gate_reads_all_other_qubits():
    u = random_permutation_unitary(4, 12)
    for gate in synthesize_circuit(u).mcnots:
        assert len(gate.touched) == 4
        assert gate.n_controls == 3


def test_array_oracle_matches_int_oracle():
    rng = np.random.default_rng(5)
    n = 5
    gates = []
    for _ in range(60):
        qubits = [int(q) for q in rng.permutation(n) + 1]
        k = int(rng.integers(0, n))
        controls = tuple((q, int(rng.integers(0, 2))) for q in qubits[1 : k + 1])
        gates.append(McNot(qubits[0], controls))
    circuit = Circuit(n, tuple(gates))
    assert list(circuit_permutation_array(circuit)) == circuit_permutation(circuit)


# SHA-256 of the exported minimal-work circuit, recorded from the earlier
# concatenation-based synthesis, and a budget in seconds for synthesis plus
# export. That synthesis was quadratic in the gates per cycle and took
# about 25 s at n = 12 and 19 min at n = 14 on a 2-vCPU Xeon.
LARGE_MINIMAL_WORK = {
    12: ("fac7cac8b55079792605489a49afdaff4af1db2be5814ef1e4088e964890ca38", 10.0),
    14: ("86855cf55365f2bea8d9aa052cdf5c34828d0c8f6e39b6c4da4e35d915bde9df", 30.0),
}


@pytest.mark.parametrize("n", sorted(LARGE_MINIMAL_WORK))
def test_minimal_work_synthesis_large_registers(n):
    golden, budget = LARGE_MINIMAL_WORK[n]
    u = minimal_work_protocol(n)
    start = time.perf_counter()
    circuit = synthesize_circuit(u)
    text = export_qasm(circuit)
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(text.encode()).hexdigest() == golden
    expected = sum(
        2 * hamming(cycle[0], other) - 1
        for cycle in u.cycles
        for other in cycle[1:]
    )
    assert gate_counts(circuit).total == expected
    if n == 12:
        assert np.array_equal(circuit_permutation_array(circuit), u.permutation)
    assert elapsed < budget, f"n = {n}: {elapsed:.1f} s over {budget} s"


# -- properties at large n -----------------------------------------------------


@st.composite
def custom_cycles(draw):
    """(n, disjoint cycles) at n in [12, 14], cycles of 2..6 states."""
    n = draw(st.integers(12, 14))
    states = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=60, unique=True)
    )
    cycles = []
    while len(states) >= 2:
        k = draw(st.integers(2, min(6, len(states))))
        cycles.append(tuple(states[:k]))
        states = states[k:]
    return n, tuple(cycles)


def check_synthesis(u):
    """The circuit realizes u, and the analytic count is its gate count."""
    circuit = synthesize_circuit(u)
    assert np.array_equal(circuit_permutation_array(circuit), u.permutation)
    counts = gate_counts(circuit)
    total = synthesized_gate_count(u)
    assert counts.total == total
    assert counts.by_controls == ({u.n_qubits - 1: total} if total else {})
    return counts


@settings(max_examples=25, deadline=None)
@given(custom_cycles())
def test_custom_cycles_synthesis_property_large_n(drawn):
    n, cycles = drawn
    counts = check_synthesis(CoolingUnitary(n, cycles))
    config = Dynamic(n, CustomProtocol(cycles))
    assert report(config, initial_p=0.1).gate_counts == counts


@settings(max_examples=5, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.integers(2, 12), min_size=1, max_size=2),
    st.sampled_from([1e-12, 0.4999]),
)
@example(2, [12], 0.4999)
@example(4, [9, 11], 1e-12)
def test_semiopen_round_synthesis_property(first, later, p):
    # Later rounds are re-derived for the (t, p, ..., p) profile they see,
    # so the plan, not the protocol, fixes their unitaries.
    config = SemiOpen((first, *later))
    by_controls = Counter()
    for rnd in _rounds(config, p):
        by_controls.update(check_synthesis(rnd.unitary).by_controls)
    rep = report(config, initial_p=p)
    assert rep.gate_counts == GateCounts(dict(by_controls), 0)


# -- whole-array synthesis against the per-gate loop ---------------------------


@st.composite
def labelled_cycles(draw):
    """(n, disjoint cycles of integer labels) at n in 1..63, few states."""
    n = draw(st.integers(1, 63))
    states = draw(
        st.lists(
            st.integers(0, (1 << n) - 1),
            max_size=min(1 << n, 16),
            unique=True,
        )
    )
    cycles = []
    while len(states) >= 2:
        k = draw(st.integers(2, min(5, len(states))))
        cycles.append(tuple(states[:k]))
        states = states[k:]
    return n, cycles


@settings(max_examples=300, deadline=None)
@given(labelled_cycles())
@example((1, []))
@example((1, [(0, 1)]))
@example((5, []))
@example((63, [((1 << 63) - 1, 0, 1 << 62, 1)]))
def test_synthesis_matches_per_gate_reference(drawn):
    n, cycles = drawn
    circuit = _cycles_circuit(n, _transpositions(cycles))
    assert circuit == reference_cycles_circuit(n, cycles)
    if n <= 10:
        u = CoolingUnitary(n, cycles)
        assert synthesized_gate_count(u) == len(synthesize_circuit(u))


def test_synthesis_across_blocks_matches_per_gate_reference():
    # About 8,000 transpositions, so rows are built in two blocks.
    u = random_permutation_unitary(13, 4)
    assert len(u._cycle_transpositions[0]) > _BLOCK
    circuit = synthesize_circuit(u)
    assert circuit == reference_cycles_circuit(13, u.cycles)
    assert synthesized_gate_count(u) == len(circuit)


def _cycles_of(n, count, rng):
    """Disjoint cycles of 2 to 5 random states holding exactly count
    transpositions."""
    states = rng.permutation(1 << n)[: 2 * count].tolist()
    cycles = []
    while count:
        k = min(int(rng.integers(1, 5)), count)
        cycles.append(tuple(states[: k + 1]))
        states, count = states[k + 1 :], count - k
    return cycles


@pytest.mark.parametrize("count", [_BLOCK, _BLOCK + 1])
def test_ladders_at_the_block_edge_match_per_gate_reference(count):
    n = 14
    cycles = _cycles_of(n, count, np.random.default_rng(count))
    pairs = _transpositions(cycles)
    assert len(pairs[0]) == count
    assert _cycles_circuit(n, pairs) == reference_cycles_circuit(n, cycles)


@pytest.mark.parametrize(
    "cycles",
    [
        [(4, 5)],
        [(0, (1 << 63) - 1)],
        [(6, ((1 << 63) - 1) ^ 6), (8, 9), (16, 17, ((1 << 63) - 1) ^ 16), (0, 1 << 62)],
    ],
    ids=["distance-1", "distance-63", "mixed"],
)
def test_ladders_at_distance_1_and_63_match_per_gate_reference(cycles):
    pairs = _transpositions(cycles)
    assert set(pairs[2].tolist()) <= {1, 63}
    assert _cycles_circuit(63, pairs) == reference_cycles_circuit(63, cycles)


# -- gate counts walked from the permutation -----------------------------------


def _walked_count(u):
    """synthesized_gate_count of a unitary never synthesized nor counted:
    the walk, which keeps only its int."""
    assert u._pairs is None and u._gates is None
    count = synthesized_gate_count(u)
    assert type(count) is int and u._pairs is None and u._gates == count
    return count


def _fresh(u):
    """A new unitary of u's permutation, with nothing cached."""
    return CoolingUnitary.from_permutation(u.permutation, u.n_qubits)


@pytest.mark.parametrize("n", range(2, 15))
@pytest.mark.parametrize("build", [ppa_protocol, mirror_protocol, minimal_work_protocol])
def test_walked_count_matches_per_cycle_reference_on_protocols(build, n):
    u = build(n)
    assert _walked_count(u) == reference_gate_count(u.permutation)


@pytest.mark.parametrize("p", [1e-3, 0.1, 0.4999])
@pytest.mark.parametrize("sizes", [(3, 5, 7), (4, 9, 11), (2, 12)])
def test_walked_count_matches_per_cycle_reference_on_semiopen_rounds(sizes, p):
    # Later rounds are re-derived for the (t, p, ..., p) profile they see.
    for rnd in _rounds(SemiOpen(sizes), p):
        u = _fresh(rnd.unitary)
        assert _walked_count(u) == reference_gate_count(u.permutation)
        assert synthesized_gate_count(rnd.unitary) == u._gates


@pytest.mark.parametrize("n, count", [(3, 3), (8, 40), (12, 900), (14, 5000)])
def test_walked_count_matches_per_cycle_reference_on_custom_cycles(n, count):
    cycles = _cycles_of(n, count, np.random.default_rng(n))
    u = CoolingUnitary(n, cycles)
    assert _walked_count(u) == reference_gate_count(u.permutation)


def _random_permutations(n, rng):
    """The identity, one transposition, one cycle through every state,
    every state in a 2-cycle, and a uniformly random permutation."""
    dim = 1 << n
    swap = np.arange(dim)
    a, b = rng.choice(dim, size=2, replace=False)
    swap[[a, b]] = swap[[b, a]]
    order = rng.permutation(dim)
    full = np.empty(dim, dtype=np.int64)
    full[order] = np.roll(order, -1)
    pairs = np.empty(dim, dtype=np.int64)
    pairs[order[0::2]], pairs[order[1::2]] = order[1::2], order[0::2]
    return {
        "identity": np.arange(dim),
        "transposition": swap,
        "full-cycle": full,
        "2-cycles": pairs,
        "random": rng.permutation(dim),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_walked_count_matches_per_cycle_reference_on_random_permutations(n):
    rng = np.random.default_rng(100 + n)
    for name, perm in _random_permutations(n, rng).items():
        u = CoolingUnitary.from_permutation(perm, n)
        assert _walked_count(u) == reference_gate_count(perm), name
    assert reference_gate_count(np.arange(1 << n)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_transposition_walk_sets_the_walked_count(n):
    # One walk gives synthesis its transpositions, in the canonical
    # cycles' order, and the count the count-only walk gives.
    for name, perm in _random_permutations(n, np.random.default_rng(200 + n)).items():
        u = CoolingUnitary.from_permutation(perm, n)
        first, other, distance = u._cycle_transpositions
        assert [a.dtype for a in (first, other, distance)] == [np.int32, np.int32, np.uint8]
        assert not any(a.flags.writeable for a in (first, other, distance))
        cycles = reference_cycles(perm)
        assert first.tolist() == [c[0] for c in cycles for _ in c[1:]], name
        assert other.tolist() == [s for c in cycles for s in c[1:]], name
        assert type(u._gates) is int
        assert u._gates == reference_gate_count(perm) == _walked_count(_fresh(u)), name


@pytest.mark.parametrize("n", [3, 9, 12])
def test_circuits_synthesized_after_counting_are_unchanged(n):
    for name, perm in _random_permutations(n, np.random.default_rng(n)).items():
        counted = CoolingUnitary.from_permutation(perm, n)
        count = _walked_count(counted)
        circuit = synthesize_circuit(counted)
        assert circuit == synthesize_circuit(_fresh(counted)), name
        assert len(circuit) == count == synthesized_gate_count(counted), name
    for build in (ppa_protocol, mirror_protocol, minimal_work_protocol):
        counted = build(n)
        count = _walked_count(counted)
        circuit = synthesize_circuit(counted)
        assert circuit == synthesize_circuit(build(n)) and len(circuit) == count


def test_counts_after_synthesis_are_ints():
    # A count taken after synthesis, beside the NumPy transposition
    # arrays, must still be an int, as json refuses NumPy integers.
    u = minimal_work_protocol(9)
    synthesize_circuit(u)
    count = synthesized_gate_count(u)
    assert type(count) is int and count == reference_gate_count(u.permutation)
    assert type(report(Dynamic(9), initial_p=0.1).gate_counts.total) is int


# -- synthesis at the sizes the benchmark and CI run ---------------------------


@pytest.mark.parametrize("n", [15, 16, 17, 18])
@pytest.mark.parametrize("build", [ppa_protocol, mirror_protocol, minimal_work_protocol])
def test_synthesis_is_the_permutation_gate_by_gate(build, n):
    # Up to 4,455,550 gates (ppa, n = 18), each one swap of two states.
    u = build(n)
    circuit = synthesize_circuit(u)
    assert np.array_equal(swapped_permutation(circuit), u.permutation)
    # The count the transposition walk sets is the count walk's.
    assert len(circuit) == u._gates == _walked_gate_count(u.indices.tolist())


def test_swapped_permutation_matches_the_state_by_state_oracle():
    # The gate-by-gate oracle agrees with pushing every state through,
    # on random permutations and on circuits that are not synthesized.
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 9):
        circuit = synthesize_circuit(random_permutation_unitary(n, rng))
        assert swapped_permutation(circuit).tolist() == list(circuit_permutation_array(circuit))
    full = Circuit(3, [McNot(q, tuple((c, int(rng.integers(2))) for c in (1, 2, 3) if c != q))
                       for q in rng.integers(1, 4, 40).tolist()])
    assert swapped_permutation(full).tolist() == circuit_permutation(full)

