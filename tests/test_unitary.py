import json

import numpy as np
import pytest

from qcool import (
    ConfigError,
    CoolingUnitary,
    DegenerateCycleError,
    OverlappingCyclesError,
    ResourceLimitError,
    load_cycles_json,
    parse_state_label,
    random_permutation_unitary,
    unitary_from_json,
)


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
    with pytest.raises(ValueError):
        CoolingUnitary(2, [], phases=np.array([1, 1, 1, 1j]), value_dtype=np.float32)


def test_value_dtypes_and_footprint():
    u = random_permutation_unitary(8, 0)
    assert u.data.dtype == np.complex128
    assert u.indices.dtype == np.int32 and u.indptr.dtype == np.int32
    # 256 * 16 + 256 * 4 + 257 * 4
    assert u.memory_footprint() == 6148

    compact = random_permutation_unitary(8, 0, value_dtype=np.float32)
    assert compact.data.dtype == np.float32
    assert compact.memory_footprint() == 3076
    with pytest.raises(ValueError):
        random_permutation_unitary(3, 0, value_dtype=np.float64)


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
