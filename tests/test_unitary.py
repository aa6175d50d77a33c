import gc
import json
import tracemalloc

import numpy as np
import pytest

from helpers import (
    outcome,
    random_cycle_lists,
    reference_cycles,
    reference_json_cycles,
    reference_parse_cycles,
)

from qcool import (
    ConfigError,
    CoolingUnitary,
    DegenerateCycleError,
    OverlappingCyclesError,
    ResourceLimitError,
    load_cycles_json,
    minimal_work_protocol,
    mirror_protocol,
    parse_state_label,
    ppa_protocol,
    random_permutation_unitary,
    unitary_from_json,
)
from qcool.synth import synthesized_gate_count
from qcool.unitary import _cycle_states, _json_cycles, _transpositions


def test_parse_state_label():
    assert parse_state_label("101", 3) == 5
    assert parse_state_label(5, 3) == 5
    assert parse_state_label("0010", 4) == 2
    with pytest.raises(ValueError):
        parse_state_label("101", 4)  # wrong length
    with pytest.raises(ValueError):
        parse_state_label("102", 3)
    with pytest.raises(ValueError):
        parse_state_label(8, 3)
    with pytest.raises(ValueError):
        parse_state_label(-1, 3)
    with pytest.raises(TypeError):
        parse_state_label(1.5, 3)


def test_identity():
    u = CoolingUnitary.identity(3)
    assert u.n_qubits == 3 and u.dim == 8
    assert u.is_identity
    assert u.cycles == ()
    v = np.arange(8.0)
    assert np.array_equal(u.apply_to_prob_vector(v), v)


def test_swap_from_cycles():
    u = CoolingUnitary(3, [["011", "100"]])
    perm = u.permutation
    assert perm[3] == 4 and perm[4] == 3
    assert all(perm[j] == j for j in range(8) if j not in (3, 4))
    assert u.cycles == ((3, 4),)
    v = np.arange(8.0)
    out = u.apply_to_prob_vector(v)
    assert out[3] == 4.0 and out[4] == 3.0


def test_three_cycle_direction():
    # (s1 s2 s3) sends s1 -> s2 -> s3 -> s1
    u = CoolingUnitary(2, [[0, 1, 2]])
    perm = u.permutation
    assert perm[0] == 1 and perm[1] == 2 and perm[2] == 0 and perm[3] == 3


def test_mixed_labels_and_multiple_cycles():
    u = CoolingUnitary(3, [[0, "001"], ["100", 5, 6]])
    assert u.cycles == ((0, 1), (4, 5, 6))


def test_cycle_errors():
    with pytest.raises(DegenerateCycleError):
        CoolingUnitary(3, [[1]])
    with pytest.raises(DegenerateCycleError):
        CoolingUnitary(3, [[1, 2, 1]])
    with pytest.raises(OverlappingCyclesError):
        CoolingUnitary(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        CoolingUnitary(3, [[1, 9]])
    with pytest.raises(ValueError):
        CoolingUnitary(0)


def test_from_permutation_validation():
    with pytest.raises(ValueError):
        CoolingUnitary.from_permutation([0, 1, 1, 2])
    with pytest.raises(ValueError):
        CoolingUnitary.from_permutation([0, 1, 2])  # not a power of two
    with pytest.raises(ValueError):
        CoolingUnitary.from_permutation([0.5, 1.0])


def test_apply_dimension_mismatch():
    u = CoolingUnitary.identity(3)
    with pytest.raises(ValueError):
        u.apply_to_prob_vector(np.ones(4))


def test_compose_against_dense():
    rng = np.random.default_rng(3)
    for _ in range(10):
        u1 = random_permutation_unitary(4, rng)
        u2 = random_permutation_unitary(4, rng)
        product = (u1 @ u2).to_dense()
        assert np.array_equal(product, u1.to_dense() @ u2.to_dense())


def _random_phases(rng, dim):
    """Unit phases: about a quarter exactly 1, a quarter i, and the rest
    powers of e^(i pi / 8)."""
    angles = rng.integers(0, 16, dim) * (np.pi / 8)
    phases = np.exp(1j * angles)
    phases[rng.random(dim) < 0.25] = 1.0
    phases[rng.random(dim) < 0.25] = 1j
    return phases


def test_phased_compose_and_inverse_against_dense():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4, 6):
        dim = 1 << n
        plain = random_permutation_unitary(n, rng)
        for _ in range(4):
            u1 = CoolingUnitary.from_permutation(
                rng.permutation(dim), phases=_random_phases(rng, dim)
            )
            u2 = CoolingUnitary(
                n, random_permutation_unitary(n, rng).cycles,
                phases=_random_phases(rng, dim),
            )
            for a, b in ((u1, u2), (u2, u1), (u1, plain), (plain, u2)):
                dense = a.to_dense() @ b.to_dense()
                assert np.allclose((a @ b).to_dense(), dense, rtol=0, atol=1e-15)
            for u in (u1, u2):
                assert np.array_equal(u.inverse().to_dense(), u.to_dense().conj().T)
                assert np.allclose((u @ u.inverse()).to_dense(), np.eye(dim), rtol=0, atol=1e-15)


def test_compose_associative():
    rng = np.random.default_rng(4)
    for n in (2, 5, 8):
        a, b, c = (random_permutation_unitary(n, rng) for _ in range(3))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.array_equal(left.indices, right.indices)
        assert np.array_equal(left.data, right.data)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        CoolingUnitary.identity(2).compose(CoolingUnitary.identity(3))


def test_inverse():
    rng = np.random.default_rng(5)
    u = random_permutation_unitary(5, rng)
    assert (u @ u.inverse()).is_identity
    assert (u.inverse() @ u).is_identity
    v = CoolingUnitary(3, [[0, 1, 2]])
    assert (v @ v.inverse()).is_identity


def test_cycles_round_trip():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4, 6):
        u = random_permutation_unitary(n, rng)
        rebuilt = CoolingUnitary(n, u.cycles)
        assert np.array_equal(rebuilt.permutation, u.permutation)


def test_permutation_indices_inverse_of_each_other():
    u = random_permutation_unitary(4, 11)
    dim = u.dim
    assert np.array_equal(u.permutation[u.indices], np.arange(dim))
    assert np.array_equal(u.indptr, np.arange(dim + 1))


def test_phases():
    phases = np.ones(8, dtype=complex)
    phases[3] = -1.0
    phases[4] = 1j
    u = CoolingUnitary(3, [[3, 4]], phases=phases)
    assert u.has_phases
    dense = u.to_dense()
    assert dense[4, 3] == -1.0  # row 4 sources state 3
    assert dense[3, 4] == 1j
    # diagonal pushforward is phase-blind
    v = np.arange(8.0)
    plain = CoolingUnitary(3, [[3, 4]])
    assert np.array_equal(u.apply_to_prob_vector(v), plain.apply_to_prob_vector(v))
    # adjoint conjugates
    assert (u @ u.inverse()).is_identity


def test_phase_validation():
    bad = np.full(4, 0.5 + 0j)
    with pytest.raises(ValueError):
        CoolingUnitary(2, [], phases=bad)
    with pytest.raises(ValueError):
        CoolingUnitary(2, [], phases=np.ones(3, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1), 1j * np.inf])
def test_non_finite_phases_are_refused(bad):
    phases = np.ones(4, dtype=complex)
    phases[1] = bad
    with pytest.raises(ValueError, match="finite"):
        CoolingUnitary(2, [[1, 2]], phases=phases)
    with pytest.raises(ValueError, match="finite"):
        CoolingUnitary.from_permutation([0, 2, 1, 3], phases=phases)


def test_value_dtypes_and_footprint():
    u = random_permutation_unitary(8, 0)
    assert u.data.dtype == np.complex128
    assert u.indices.dtype == np.int32 and u.indptr.dtype == np.int32
    # 256 * 16 + 256 * 4 + 257 * 4
    assert u.memory_footprint() == 6148


def test_phases_of_exactly_one_are_not_kept():
    u = CoolingUnitary(2, [[1, 2]], phases=np.ones(4))
    assert not u.has_phases
    assert u._phases is None
    v = CoolingUnitary(2, [[1, 2]], phases=[1, 1, 1, 1j])
    assert v.has_phases and v._phases.dtype == np.complex128
    assert not (v @ v.inverse()).has_phases
    assert (v @ v.inverse())._phases is None


def _csr_layout(perm):
    """The arrays and byte count of the CSR form of a phase-free forward
    permutation: complex128 ones, int32 sources, int32 row offsets."""
    dim = len(perm)
    indices = np.argsort(perm).astype(np.int32)
    data = np.ones(dim, dtype=np.complex128)
    indptr = np.arange(dim + 1, dtype=np.int32)
    return data, indices, indptr, data.nbytes + indices.nbytes + indptr.nbytes


BUILT_IN = [ppa_protocol, mirror_protocol, minimal_work_protocol]


@pytest.mark.parametrize("n", range(1, 13))
def test_csr_views_match_the_stored_layout(n):
    rng = np.random.default_rng(n)
    unitaries = [build(n) for build in BUILT_IN]
    unitaries += [random_permutation_unitary(n, rng) for _ in range(3)]
    unitaries.append(CoolingUnitary(n, reference_cycles(rng.permutation(1 << n))))
    for u in unitaries:
        data, indices, indptr, nbytes = _csr_layout(u.permutation)
        for got, want in ((u.data, data), (u.indices, indices), (u.indptr, indptr)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        assert np.array_equal(u.permutation, np.argsort(u.indices))
        assert u.permutation.dtype == np.int32
        assert u.memory_footprint() == nbytes == 24 * u.dim + 4


def test_dense_cap():
    u = CoolingUnitary.identity(13)
    with pytest.raises(ResourceLimitError):
        u.to_dense()
    assert u.to_dense(cap=13).shape == (8192, 8192)


def test_arrays_read_only():
    u = CoolingUnitary.identity(2)
    with pytest.raises(ValueError):
        u.data[0] = 5
    with pytest.raises(ValueError):
        u.indices[0] = 1
    with pytest.raises(ValueError):
        u.permutation[0] = 1


def test_random_unitary_deterministic():
    a = random_permutation_unitary(6, 42)
    b = random_permutation_unitary(6, 42)
    assert np.array_equal(a.permutation, b.permutation)
    with pytest.raises(ResourceLimitError):
        random_permutation_unitary(25, 0)


C3 = {"n": 3, "cycles": [["011", "100"], [0, 1]]}

# (rule, accepted document, rejected document, the name the rejection
# must give).
CYCLE_RULES = [
    ("document is an object", C3, [C3], "object"),
    ("n is required", C3, {"cycles": []}, "'n'"),
    ("cycles is required", C3, {"n": 3}, "'cycles'"),
    ("no other field", C3, {**C3, "phases": []}, "'phases'"),
    ("n is an integer", {**C3, "n": 3.0}, {**C3, "n": 3.5}, "'n'"),
    ("n is not a boolean", {"n": 1, "cycles": [[0, 1]]},
     {"n": True, "cycles": [[0, 1]]}, "'n'"),
    ("n >= 1", {"n": 1, "cycles": []}, {"n": 0, "cycles": []}, "'n'"),
    ("n <= 24", {"n": 24, "cycles": []}, {"n": 25, "cycles": []}, "'n'"),
    ("cycles is an array", C3, {**C3, "cycles": "01"}, "'cycles'"),
    ("a cycle is an array", C3, {**C3, "cycles": [5]}, "'cycles'"),
    ("a cycle holds two labels", C3, {**C3, "cycles": [[1]]}, "'cycles'"),
    ("a label is an integer >= 0", C3, {**C3, "cycles": [[0, -1]]}, "-1"),
    ("an integer label may be written 1.0", {**C3, "cycles": [[0, 1.0]]},
     {**C3, "cycles": [[0, 1.5]]}, "1.5"),
    ("a label is not a boolean", C3, {**C3, "cycles": [[0, True]]}, "True"),
    ("a label is not null", C3, {**C3, "cycles": [[0, None]]}, "None"),
    ("a string label is 0s and 1s", C3, {**C3, "cycles": [["21", "10"]]}, "'21'"),
    ("a string label is not empty", C3, {**C3, "cycles": [["", "10"]]}, "''"),
    ("a string label has no newline", C3, {**C3, "cycles": [["10\n", "01"]]},
     "'10\\n'"),
]


@pytest.mark.parametrize(
    "accepted, rejected, name",
    [rule[1:] for rule in CYCLE_RULES],
    ids=[rule[0] for rule in CYCLE_RULES],
)
def test_cycle_document_rules(accepted, rejected, name):
    load_cycles_json(accepted)
    with pytest.raises(ConfigError, match=r"^invalid cycle list: ") as info:
        load_cycles_json(rejected)
    assert name in str(info.value)


def test_cycle_labels_load_as_ints():
    n, cycles = load_cycles_json({"n": 3, "cycles": [[0, 1.0, "11"]]})
    assert n == 3 and cycles == [[0, 1, "11"]]
    assert all(type(s) is int for s in cycles[0][:2])
    assert unitary_from_json({"n": 3.0, "cycles": [[0, 1.0]]}).cycles == ((0, 1),)


def test_huge_width_builds_no_huge_number():
    # The label range check shifts the label, so a width far past any
    # register does not build 2**width.
    assert parse_state_label(5, 10**18) == 5
    with pytest.raises(ValueError):
        parse_state_label(-1, 10**18)


def test_cycles_json(tmp_path):
    doc = {"n": 3, "cycles": [["011", "100"], [0, 1]]}
    n, cycles = load_cycles_json(doc)
    assert n == 3 and cycles == [["011", "100"], [0, 1]]

    path = tmp_path / "cycles.json"
    path.write_text(json.dumps(doc))
    u = unitary_from_json(path)
    assert u.cycles == ((0, 1), (3, 4))

    with pytest.raises(ConfigError):
        load_cycles_json({"n": 3})
    with pytest.raises(ConfigError):
        load_cycles_json({"n": 3, "cycles": [[1]]})
    with pytest.raises(ConfigError):
        load_cycles_json({"n": 0, "cycles": []})
    with pytest.raises(ConfigError):
        load_cycles_json({"n": 3, "cycles": [["21", "10"]]})
    with pytest.raises(ConfigError):
        load_cycles_json(tmp_path / "nope.json")


# -- cycles at register sizes where long walks hide -------------------------

PROTOCOLS = {
    "ppa": ppa_protocol,
    "mirror": mirror_protocol,
    "minimal-work": minimal_work_protocol,
}


def _expected_transpositions(cycles):
    """(first, other, distance) of (s1 sk), k > 1, in plain Python."""
    first = [c[0] for c in cycles for _ in c[1:]]
    other = [s for c in cycles for s in c[1:]]
    distance = [bin(a ^ b).count("1") for a, b in zip(first, other)]
    return first, other, distance


def _check_cycles_against_reference(u):
    want = reference_cycles(u.permutation)
    assert u.cycles == want
    for got, expected in zip(u._cycle_transpositions, _expected_transpositions(want)):
        assert got.tolist() == expected


@pytest.mark.parametrize("n", [12, 14, 16, 18])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_protocol_cycles_match_reference_walk(name, n):
    _check_cycles_against_reference(PROTOCOLS[name](n))


@pytest.mark.parametrize("n", [12, 16, 18])
def test_random_cycles_match_reference_walk(n):
    _check_cycles_against_reference(random_permutation_unitary(n, n))


@pytest.mark.parametrize(
    "n, gates",
    [(12, 29_234), (14, 147_816), (16, 719_573), (18, 3_432_308), (20, 16_014_580)],
)
def test_minimal_work_gate_counts(n, gates):
    assert synthesized_gate_count(minimal_work_protocol(n)) == gates


def test_permutation_and_cycles_are_fresh_and_equal():
    u = minimal_work_protocol(12)
    first, second = u.permutation, u.permutation
    assert first is not second and np.array_equal(first, second)
    assert not first.flags.writeable and not second.flags.writeable
    assert u.cycles == u.cycles
    assert isinstance(u.cycles, tuple)
    assert all(isinstance(c, tuple) for c in u.cycles)


@pytest.mark.parametrize("n", [14, 16])
@pytest.mark.parametrize("build", BUILT_IN)
def test_counted_unitary_keeps_only_its_indices(build, n):
    # The indices hold 4 bytes a state and the count is one int; neither
    # the CSR values and offsets, nor the forward permutation, nor the
    # cycle tuples, nor the transposition arrays stay alive.
    gc.collect()
    tracemalloc.start()
    try:
        u = build(n)
        synthesized_gate_count(u)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert u._pairs is None
    assert kept <= 4 * u.dim + 4096, kept - 4 * u.dim


def test_transposition_dtypes_follow_the_largest_state():
    u = minimal_work_protocol(12)
    assert [a.dtype for a in u._cycle_transpositions] == [np.int32, np.int32, np.uint8]
    top = (1 << 31) - 1
    assert [a.dtype for a in _transpositions([(top, 0, 5)])] == [np.int32, np.int32, np.uint8]
    for wide in ([(1 << 31, 0)], [(0, (1 << 63) - 1, 1 << 40)]):
        first, other, distance = _transpositions(wide)
        assert [a.dtype for a in (first, other, distance)] == [np.int64] * 3
        assert first.tolist() == [wide[0][0]] * (len(wide[0]) - 1)
        assert other.tolist() == list(wide[0][1:])
        assert distance.tolist() == [bin(wide[0][0] ^ s).count("1") for s in wide[0][1:]]
    assert [a.dtype for a in _transpositions([])] == [np.int32, np.int32, np.uint8]


# -- cycle labels parsed as whole arrays -------------------------------------


def _parsed(cycles, n):
    states, lengths = _cycle_states(cycles, n)
    ends = np.cumsum(lengths).tolist()
    flat = states.tolist()
    return [flat[e - k : e] for e, k in zip(ends, lengths.tolist())]


@pytest.mark.parametrize("wide", [False, True], ids=["n<=6", "n>=63"])
def test_cycle_states_refuse_as_the_per_label_checks(wide):
    # Same states, or the same first refusal with the same type and text.
    seen = set()
    for n, cycles in random_cycle_lists(np.random.default_rng(22), 3000, wide):
        want = outcome(reference_parse_cycles, cycles, n)
        assert outcome(_parsed, cycles, n) == want, (n, cycles)
        seen.add(want[0] if isinstance(want, tuple) else "ok")
        if not wide and not isinstance(want, tuple):
            u = CoolingUnitary(n, cycles)
            perm = list(range(1 << n))
            for states in want:
                for a, b in zip(states, states[1:] + states[:1]):
                    perm[a] = b
            assert u.permutation.tolist() == perm
    assert len(seen) == 5  # ok, ValueError, TypeError and both cycle errors


def test_cycle_states_hold_every_label_of_a_big_list():
    rng = np.random.default_rng(5)
    n = 20
    states = rng.permutation(1 << n)[: 1 << 12]
    cycles = [
        [int(a), format(int(b), "020b"), int(c)]
        for a, b, c in states[: 3 * (len(states) // 3)].reshape(-1, 3)
    ]
    assert _parsed(cycles, n) == reference_parse_cycles(cycles, n)


def test_cycle_json_refuses_as_the_per_label_checks():
    rng = np.random.default_rng(23)
    for n, cycles in random_cycle_lists(rng, 3000):
        for i in np.flatnonzero(rng.random(len(cycles)) < 0.1):
            cycles[i] = [5, "01", (0, 1), {"a": 1}][rng.integers(4)]
        want = outcome(reference_json_cycles, cycles, "cycle list")
        assert outcome(_json_cycles, cycles, "cycle list") == want, cycles
        doc = {"n": n, "cycles": cycles}
        if n <= 6:
            assert outcome(load_cycles_json, doc) == outcome(
                lambda: (n, reference_json_cycles(cycles, "cycle list"))
            )


def test_custom_protocol_labels_parse_once(monkeypatch):
    import qcool.methods as methods
    import qcool.unitary as unitary

    calls = []
    parse = unitary._cycle_states

    def counted(cycles, n):
        calls.append(n)
        return parse(cycles, n)

    for module in (methods, unitary):
        monkeypatch.setattr(module, "_cycle_states", counted)
    doc = {
        "method": "dynamic",
        "n_qubits": 3,
        "protocol": "custom",
        "cycles": [["011", 4], [1, "010"]],
    }
    config = methods.config_from_json(doc)
    u = methods._resolve_protocol(config.protocol, 3)
    assert u.cycles == ((1, 2), (3, 4)) and calls == [3]
    with pytest.raises(ConfigError, match="custom cycles on 3 qubits: state 9"):
        methods.config_from_json({**doc, "cycles": [[0, 9]]})
