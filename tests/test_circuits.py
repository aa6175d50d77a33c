import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_text,
    instructions,
    reference_embed,
    reference_export_qasm,
    reference_simplify,
)

from qcool import (
    HBAC,
    Circuit,
    Dynamic,
    GateCounts,
    McNot,
    ResetInstr,
    SemiOpen,
    SubOptimal,
    build_circuit,
    embed,
    export_qasm,
    gate_counts,
    simplify_adjacent,
)
from qcool import circuits
from qcool.qasm import _chunk_rows


def test_mcnot_normalization():
    g = McNot(2, ((3, 1), (1, 0)))
    assert g.controls == ((1, 0), (3, 1))
    assert g.touched == (1, 2, 3)
    assert g.n_controls == 2
    assert McNot(2, ((1, 0), (3, 1))) == g


def test_mcnot_validation():
    with pytest.raises(ValueError):
        McNot(1, ((1, 1),))
    with pytest.raises(ValueError):
        McNot(2, ((1, 1), (1, 0)))
    with pytest.raises(ValueError):
        McNot(2, ((1, 2),))
    with pytest.raises(ValueError):
        McNot(0)


def test_reset_normalization():
    r = ResetInstr((3, 1))
    assert r.qubits == (1, 3)
    with pytest.raises(ValueError):
        ResetInstr(())
    with pytest.raises(ValueError):
        ResetInstr((1, 1))


def test_circuit_width_checks():
    with pytest.raises(ValueError):
        Circuit(2, (McNot(3),))
    with pytest.raises(ValueError):
        Circuit(2, (ResetInstr((3,)),))
    with pytest.raises(TypeError):
        Circuit(2, ("x",))
    c = Circuit(2, (McNot(1),)) + Circuit(2, (McNot(2),))
    assert len(c) == 2
    with pytest.raises(ValueError):
        Circuit(2) + Circuit(3)
    with pytest.raises(TypeError):
        Circuit(2) + 1


@pytest.mark.parametrize(
    "row, message",
    [
        ((3, 0, 0), "touches qubit 3 of 2"),
        ((0, 0b100, 0), "touches qubit 3 of 2"),
        ((1, 0b101, 0), "touches qubit 3 of 2"),
        ((-1, 0, 0), "target -1 is negative"),
        ((1, -2, 0), "control mask -2 is negative"),
        ((1, 0b01, 0), "target cannot also be a control"),
        ((1, 0b10, 0b01), "polarity outside"),
        ((0, 0b10, 0b10), "polarity outside"),
        ((0, 0, 0), "reset needs at least one qubit"),
    ],
)
def test_row_checks(row, message):
    # Rows built inside the package skip McNot and ResetInstr, so the
    # whole-array checks alone must refuse every malformed row.
    good = np.array([[2, 0b01, 0b01]])
    with pytest.raises(ValueError, match=message):
        Circuit._from_rows(2, np.vstack([good, [row]]))


@pytest.mark.parametrize(
    "row, message",
    [
        ((2**64 - 1, 0, 0), "touches qubit 18446744073709551615 of 3"),
        ((1, 2**64 - 2, 0), "touches qubit 64 of 3"),
    ],
)
def test_uint64_rows_past_int64_are_named_as_given(row, message):
    # Converted to int64 they would wrap to -1 and -2.
    with pytest.raises(ValueError, match=message):
        Circuit._from_rows(3, np.array([row], dtype=np.uint64))


def test_gate_counts():
    c = Circuit(
        3,
        (
            McNot(1),
            McNot(2, ((1, 1),)),
            McNot(3, ((1, 1), (2, 0))),
            McNot(1, ((2, 1), (3, 1))),
            ResetInstr((2,)),
        ),
    )
    counts = gate_counts(c)
    assert counts == GateCounts({0: 1, 1: 1, 2: 2}, resets=1)
    assert counts.total == 4


def test_embed():
    c = Circuit(2, (McNot(1, ((2, 0),)), ResetInstr((2,))))
    wide = embed(c, 5, (4, 2))
    gate, reset = wide.instructions
    assert wide.n_qubits == 5
    assert gate.target == 4 and gate.controls == ((2, 0),)
    assert reset.qubits == (2,)
    with pytest.raises(ValueError):
        embed(c, 5, (1,))
    with pytest.raises(ValueError):
        embed(c, 5, (2, 2))
    with pytest.raises(ValueError):
        embed(c, 5, (2, 6))


@pytest.mark.parametrize("qubit_map", [(1.5, 3.9), ("1", "3"), (1, None)])
def test_embed_refuses_non_integer_qubits(qubit_map):
    c = Circuit(2, (McNot(1, ((2, 0),)),))
    with pytest.raises(ValueError, match="must hold integers"):
        embed(c, 4, qubit_map)
    assert embed(c, 4, (np.int64(1), 3)) == embed(c, 4, (1, 3))


def test_simplify_adjacent():
    a = McNot(1, ((2, 1),))
    b = McNot(2)
    assert simplify_adjacent(Circuit(2, (a, a))).instructions == ()
    assert simplify_adjacent(Circuit(2, (a, b, b, a))).instructions == ()
    kept = simplify_adjacent(Circuit(2, (a, ResetInstr((1,)), a)))
    assert len(kept) == 3
    mixed = simplify_adjacent(Circuit(2, (b, a, a)))
    assert mixed.instructions == (b,)


@pytest.mark.parametrize(
    "n, protocol, rows, removed",
    [
        (12, "minimal-work", 29234, 5064),
        (12, "ppa", 45058, 7538),
        (12, "mirror", 12926, 0),
        (14, "minimal-work", 147816, 22346),
    ],
)
def test_simplify_adjacent_on_synthesized_circuits(n, protocol, rows, removed):
    c = build_circuit(Dynamic(n, protocol))
    simple = simplify_adjacent(c)
    assert (len(c), len(c) - len(simple)) == (rows, removed)
    assert simple == reference_simplify(c)


A = McNot(1, ((2, 1),))
B = McNot(2)
R = ResetInstr((1,))


@pytest.mark.parametrize(
    "program",
    [
        (),
        (A,),
        (A, A, A),
        (A, A, A, A, A),
        (B, A, A, A, B),
        (A, R, A),
        (A, A, R, A, A, A),
        (A, B, R, B, A),
        (R, R, A, R, R),
        (A, B, A, B, B, A, B, A),
        (A, B, B, A, A, B, B, A, A),
    ],
)
def test_simplify_adjacent_small_programs(program):
    c = Circuit(2, program)
    assert simplify_adjacent(c) == reference_simplify(c)


def _random_gates(rng, n, k):
    target = rng.integers(1, n + 1, k)
    mask = rng.integers(0, 1 << n, k) & ~np.left_shift(1, target - 1)
    return np.stack((target, mask, mask & rng.integers(0, 1 << n, k)), axis=1)


@pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 1000, 1 << 15])
def test_simplify_adjacent_on_nested_palindromes(k):
    # g1 ... gk gk ... g1 cancels from its middle outward, one seam
    # deep; with a reset in the middle nothing crosses it.
    gates = _random_gates(np.random.default_rng(k), 4, k)
    for rows in (
        np.concatenate((gates, gates[::-1])),
        np.concatenate((gates, [(0, 0b1010, 0)], gates[::-1])),
        np.concatenate((gates, gates[::-1], gates, gates[::-1])),
    ):
        c = Circuit._from_rows(4, rows)
        assert simplify_adjacent(c) == reference_simplify(c)


def test_simplify_adjacent_on_many_seams():
    # Thousands of short cascades: whole-array rounds, then walks.
    rng = np.random.default_rng(5)
    pool = np.array([(1, 0, 0), (2, 0, 0), (1, 0b10, 0b10), (0, 0b01, 0)])
    for _ in range(5):
        picks = rng.choice(len(pool), 5000, p=[0.45, 0.45, 0.08, 0.02])
        c = Circuit._from_rows(2, pool[picks])
        assert simplify_adjacent(c) == reference_simplify(c)


@pytest.mark.parametrize(
    "config",
    [
        HBAC(3, 5),
        HBAC(5, 4, reset_qubits=(2, 3)),
        SubOptimal(3, 2),
        SemiOpen((3, 3)),
        SemiOpen((4, 2, 3)),
    ],
)
def test_simplify_adjacent_on_embedded_and_tiled_circuits(config):
    c = build_circuit(config, 0.1)
    # The circuit, then the same rows backwards, which cancel across
    # the join up to the first reset.
    mirrored = c + Circuit._from_rows(c.n_qubits, c.rows[::-1])
    wide = embed(c, c.n_qubits + 2, range(c.n_qubits, 0, -1))
    for circuit in (c, mirrored, wide, wide + wide):
        assert simplify_adjacent(circuit) == reference_simplify(circuit)


def _built_circuits():
    for n in range(3, 13):
        for protocol in ("minimal-work", "ppa", "mirror"):
            yield build_circuit(Dynamic(n, protocol))
    for config in (HBAC(3, 20), HBAC(5, 4, reset_qubits=(2, 3)), SubOptimal(3, 2)):
        yield build_circuit(config, 0.1)
    yield build_circuit(SemiOpen((3, 3, 2)), 0.1)
    yield embed(build_circuit(Dynamic(5)), 8, (8, 1, 6, 2, 4))


def test_builders_make_valid_rows():
    # Rows built from checked rows are not checked again, so every
    # builder's output must pass the check it skips.
    for c in _built_circuits():
        for circuit in (c, simplify_adjacent(c)):
            circuits._check_rows(circuit.n_qubits, circuit.rows)


def test_rows_are_checked_once(monkeypatch):
    calls = 0
    check = circuits._check_rows

    def counted(n, rows):
        nonlocal calls
        calls += 1
        check(n, rows)

    monkeypatch.setattr(circuits, "_check_rows", counted)
    c = build_circuit(Dynamic(12))
    simple = simplify_adjacent(c)
    repr(c + simple)
    assert calls == 0
    Circuit(2, (McNot(1),))
    assert calls == 1


def test_tampered_pickle_is_refused():
    c = Circuit(2, (McNot(2, ((1, 1),)),))
    data = pickle.dumps(c)
    good = c.rows.tobytes()
    bad = np.array([[3, 0, 0]], dtype=np.int64).tobytes()
    assert data.count(good) == 1
    with pytest.raises(ValueError, match="touches qubit 3 of 2"):
        pickle.loads(data.replace(good, bad))


class _Tampered:
    """Pickles as a Circuit whose rows were swapped for other rows."""

    def __init__(self, n_qubits, rows):
        self.n_qubits, self.rows = n_qubits, rows

    def __reduce__(self):
        return Circuit._from_rows, (self.n_qubits, self.rows)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[1, 2], [0, 2], [1, 0]]),  # six numbers, read as two gates
        np.array([[1.5, 2, 0]]),
        np.array([["1", "2", "0"]]),
        np.array([[True, False, False]]),
        np.array([1, 2, 0]),
        np.array([[[1, 2, 0]]]),
        [[1, 2, 0]],
    ],
    ids=["shape-3x2", "float", "str", "bool", "1-d", "3-d", "list"],
)
def test_pickled_rows_must_be_an_integer_array_of_shape_k_by_3(rows):
    data = pickle.dumps(_Tampered(3, rows))
    with pytest.raises(ValueError, match=r"rows must be an integer array of shape \(k, 3\)"):
        pickle.loads(data)


def test_pickled_rows_of_any_integer_type_load():
    want = Circuit(3, (McNot(1, ((2, 0),)), ResetInstr((3,))))
    for dtype in (np.int64, np.int32, np.uint8):
        rows = want.rows.astype(dtype)
        assert pickle.loads(pickle.dumps(_Tampered(3, rows))) == want
    assert Circuit._from_rows(3, np.empty((0, 3), np.int64)) == Circuit(3)


def test_repr_lists_at_most_eight_instructions(monkeypatch):
    gates = (McNot(2, ((1, 0),)), ResetInstr((1, 2)), McNot(1))
    small = repr(Circuit(2, gates))
    assert "rows=3" in small and all(repr(g) in small for g in gates)
    big = build_circuit(Dynamic(12))
    made = 0
    instruction = circuits._instruction

    def counted(*row):
        nonlocal made
        made += 1
        return instruction(*row)

    monkeypatch.setattr(circuits, "_instruction", counted)
    text = repr(big)
    assert made <= 8
    assert "rows=29234" in text and text.count("McNot(") == 8


def test_circuit_value_semantics():
    gates = (McNot(2, ((1, 0),)), ResetInstr((1, 2)), McNot(1))
    c = Circuit(2, gates)
    assert c == Circuit(2, list(gates)) and hash(c) == hash(Circuit(2, gates))
    assert c != Circuit(3, gates) and c != Circuit(2, gates[:2])
    assert pickle.loads(pickle.dumps(c)) == c
    with pytest.raises(AttributeError):
        c.n_qubits = 3
    with pytest.raises(ValueError):
        c.rows[0, 0] = 1


# -- properties against per-instruction references ----------------------------


@st.composite
def programs(draw, max_n=14, max_size=30):
    """(n, instruction list) with repeats, so that some gates cancel."""
    n = draw(st.integers(1, max_n))
    pool = draw(st.lists(instructions(n), min_size=1, max_size=4))
    return n, draw(st.lists(st.sampled_from(pool), max_size=max_size))


@settings(max_examples=60, deadline=None)
@given(programs(), st.data())
def test_rows_match_per_instruction_references(drawn, data):
    n, program = drawn
    c = Circuit(n, program)
    assert c.instructions == tuple(program)
    assert len(c) == len(program)
    assert_same_text(export_qasm(c), reference_export_qasm(c))
    assert simplify_adjacent(c) == reference_simplify(c)
    extra = data.draw(st.integers(0, 2))
    qubit_map = data.draw(st.permutations(range(1, n + extra + 1)))[:n]
    assert embed(c, n + extra, qubit_map) == reference_embed(c, n + extra, qubit_map)
    by = Counter(i.n_controls for i in program if isinstance(i, McNot))
    resets = sum(isinstance(i, ResetInstr) for i in program)
    assert gate_counts(c) == GateCounts(dict(sorted(by.items())), resets)


@settings(max_examples=8, deadline=None)
@given(st.data())
@pytest.mark.parametrize("n", [1, 2, 14, 63])
def test_long_export_matches_per_instruction_reference(n, data):
    # Longer than a chunk, so rows with one text fall on both sides of a
    # chunk boundary; every circuit holds a reset, an x gate without
    # controls and, past one qubit, a gate with an open control.
    pool = data.draw(st.lists(instructions(n), min_size=1, max_size=8))
    pool += [ResetInstr((n,)), McNot(1)]
    if n > 1:
        pool.append(McNot(n, ((1, 0),)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=2 * _chunk_rows(n) + 97)
    c = Circuit(n, [pool[i] for i in picks])
    assert_same_text(export_qasm(c), reference_export_qasm(c))


@settings(max_examples=60, deadline=None)
@given(programs(max_n=3, max_size=600))
def test_simplify_adjacent_matches_reference_on_long_programs(drawn):
    # Long programs over few gates open enough seams for whole-array
    # rounds, not only the walks that short programs reach.
    n, program = drawn
    c = Circuit(n, program)
    assert simplify_adjacent(c) == reference_simplify(c)


def test_gate_counts_leave_numpy_ma_unimported():
    # np.unique without return_counts reads np.ma.is_masked, and the
    # first read imports numpy.ma, about 15 ms in a fresh process.
    src = str(Path(circuits.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = """
import sys
from qcool import HBAC, Circuit, Dynamic, GateCounts, build_circuit, gate_counts
assert gate_counts(build_circuit(HBAC(3, 4))) == GateCounts({2: 20}, 3)
assert gate_counts(build_circuit(Dynamic(6))).by_controls == {5: 110}
assert gate_counts(Circuit(4, [])) == GateCounts({}, 0)
assert "numpy.ma" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
