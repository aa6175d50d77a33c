import io

import numpy as np
import pytest

from helpers import (
    QasmSyntaxError,
    assert_same_text,
    circuit_permutation,
    count_ctrl_statements,
    parse_qasm,
    reference_export_qasm,
)

from qcool import (
    Circuit,
    Dynamic,
    HBAC,
    McNot,
    ResetInstr,
    SemiOpen,
    build_circuit,
    embed,
    export_qasm,
    random_permutation_unitary,
    synthesize_circuit,
    transposition_circuit,
    write_qasm,
)
from qcool import qasm

GOLDEN_SWAP_01_10 = """\
OPENQASM 3.0;
include "stdgates.inc";
qubit[2] q;
ctrl(1) @ x q[1], q[0];
ctrl(1) @ x q[0], q[1];
ctrl(1) @ x q[1], q[0];
"""


def test_golden_text():
    assert export_qasm(transposition_circuit(0b01, 0b10, 2)) == GOLDEN_SWAP_01_10


def test_export_deterministic():
    c = build_circuit(Dynamic(4))
    assert export_qasm(c) == export_qasm(c)


def test_open_controls_conjugated():
    c = Circuit(2, (McNot(1, ((2, 0),)),))
    assert export_qasm(c).splitlines()[3:] == [
        "x q[1];",
        "ctrl(1) @ x q[1], q[0];",
        "x q[1];",
    ]


@pytest.mark.parametrize("first", [0, 6, 8, 11, 22, 52])
def test_word_flip_tables(first):
    # Each entry spelled out bit by bit, in both orders, at every width
    # of the word.
    lines = [f"x q[{first + i}];\n".encode() for i in range(qasm._WORD)]
    for bits in range(qasm._WORD + 1):
        up, down = qasm._word_flips(first, bits)
        assert len(up) == len(down) == 1 << bits
        assert not up.flags.writeable and not down.flags.writeable
        for w in range(1 << bits):
            set_bits = [i for i in range(bits) if w >> i & 1]
            assert up[w] == b"".join(lines[i] for i in set_bits)
            assert down[w] == b"".join(lines[i] for i in reversed(set_bits))


@pytest.mark.parametrize("n", range(1, 64))
def test_flip_tables_cover_the_width(n):
    # As few words as 11-qubit words allow, as even as they split, each
    # word's tables laid out up then down, one word after the other.
    flips, words = qasm._flip_tables(n)
    count = -(-n // qasm._WORD)
    assert len(words) == count
    bits = [bin(mask).count("1") for _, mask, _, _ in words]
    assert max(bits) <= qasm._WORD and max(bits) == -(-n // count)
    assert [first for first, _, _, _ in words] == list(range(0, n, bits[0]))
    at = 0
    for first, mask, up, down in words:
        width = min(bits[0], n - first)
        assert (up, down) == (at, at + (1 << width))
        assert flips[up : down].tolist() == qasm._word_flips(first, width)[0].tolist()
        assert flips[down : down + (1 << width)].tolist() == qasm._word_flips(first, width)[1].tolist()
        at = down + (1 << width)
    assert at == len(flips)


def test_bare_not_gate():
    c = Circuit(1, (McNot(1),))
    assert export_qasm(c).splitlines()[3:] == ["x q[0];"]


def test_reset_pragma():
    c = Circuit(3, (ResetInstr((2, 3)),))
    assert export_qasm(c).splitlines()[3:] == [
        "// @thermal_reset q[1]",
        "reset q[1];",
        "// @thermal_reset q[2]",
        "reset q[2];",
    ]


def test_round_trip_action():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        u = random_permutation_unitary(n, rng)
        circuit = synthesize_circuit(u)
        parsed = parse_qasm(export_qasm(circuit))
        assert parsed.n_qubits == n
        assert circuit_permutation(parsed) == list(u.permutation)


def test_round_trip_mixed_instructions():
    c = Circuit(
        3,
        (
            McNot(2),
            McNot(1, ((2, 0), (3, 1))),
            ResetInstr((2,)),
            McNot(3, ((1, 1),)),
        ),
    )
    parsed = parse_qasm(export_qasm(c))
    kinds = [type(i).__name__ for i in parsed.instructions]
    assert kinds.count("ResetInstr") == 1
    # resets split reset-free segments; compare the actions of both parts
    def segments(circ):
        segs, cur = [], []
        for ins in circ.instructions:
            if isinstance(ins, ResetInstr):
                segs.append(cur)
                cur = []
            else:
                cur.append(ins)
        segs.append(cur)
        return segs

    for seg_a, seg_b in zip(segments(c), segments(parsed)):
        assert circuit_permutation(Circuit(3, tuple(seg_a))) == circuit_permutation(
            Circuit(3, tuple(seg_b))
        )


def _merged_resets(circuit: Circuit) -> list[list[int]]:
    """circuit's rows, each run of adjacent reset rows (target 0) merged
    into one: the parser gives one reset row a qubit, where a circuit
    resets a copy's qubits in one row."""
    rows: list[list[int]] = []
    for row in circuit.rows.tolist():
        if rows and row[0] == 0 == rows[-1][0]:
            rows[-1][1] |= row[1]
        else:
            rows.append(row)
    return rows


def _assert_round_trip(circuit: Circuit) -> None:
    parsed = parse_qasm(export_qasm(circuit))
    assert parsed.n_qubits == circuit.n_qubits
    assert _merged_resets(parsed) == _merged_resets(circuit)


# Synthesized circuits past 11 qubits, whose open controls span two
# words of the export's flip tables; n = 13 and 14 (about 36 s in all)
# run in CI's slow step.
ROUND_TRIP_SIZES = [
    pytest.param(n, marks=[pytest.mark.slow] if n > 12 else []) for n in (12, 13, 14)
]


@pytest.mark.parametrize("n", ROUND_TRIP_SIZES)
@pytest.mark.parametrize("protocol", ["ppa", "mirror", "minimal-work"])
def test_round_trip_rows_past_one_word(protocol, n):
    _assert_round_trip(build_circuit(Dynamic(n, protocol)))


@pytest.mark.parametrize(
    "config", [HBAC(3, 200), HBAC(5, 50, (2, 3))], ids=["hbac3x200", "hbac5x50-r23"]
)
def test_round_trip_rows_with_resets(config):
    _assert_round_trip(build_circuit(config, 0.07))


def test_ctrl_statement_count():
    text = export_qasm(build_circuit(Dynamic(3)))
    assert count_ctrl_statements(text) == 5


def test_hbac_export_contains_reset_blocks():
    text = export_qasm(build_circuit(HBAC(3, 2)))
    assert text.count("// @thermal_reset") == 2
    assert text.count("\nreset q[") == 2
    assert count_ctrl_statements(text) == 10


def test_checker_rejects_malformed():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 3.0;\n")
    good = GOLDEN_SWAP_01_10
    with pytest.raises(QasmSyntaxError):
        parse_qasm(good.replace("ctrl(1)", "ctrl(2)", 1))
    with pytest.raises(QasmSyntaxError):
        parse_qasm(good + "cx q[0], q[1];\n")
    with pytest.raises(QasmSyntaxError):
        parse_qasm(good.replace("q[1], q[0]", "q[3], q[0]", 1))
    with pytest.raises(QasmSyntaxError):
        parse_qasm(
            "OPENQASM 3.0;\n"
            'include "stdgates.inc";\n'
            "qubit[2] q;\n"
            "reset q[0];\n"  # bare reset without pragma
        )


def test_write_qasm(tmp_path):
    path = tmp_path / "circ.qasm"
    c = transposition_circuit(0, 3, 2)
    write_qasm(c, path)
    assert_same_text(path.read_text(), export_qasm(c))


def test_write_qasm_to_an_open_stream():
    # Dynamic(12) spans several chunks; HBAC carries reset pragmas.
    for c in (build_circuit(Dynamic(12)), build_circuit(HBAC(3, 3), 0.1)):
        stream = io.StringIO()
        write_qasm(c, stream)
        assert not stream.closed
        assert_same_text(stream.getvalue(), export_qasm(c))


# Circuits whose open controls span one or two flip words, or sit near a
# word's top qubit, and circuits with resets.
FLIP_CIRCUITS = {
    **{
        f"{protocol}-n{n}": (Dynamic(n, protocol), None)
        for n in range(9, 14)
        for protocol in ("minimal-work", "ppa", "mirror")
    },
    "hbac-5x4": (HBAC(5, 4), 0.1),
    "hbac-4x3-reset2+4": (HBAC(4, 3, reset_qubits=(2, 4)), 0.1),
    "semiopen-3+3+3": (SemiOpen((3, 3, 3)), 0.1),
    "semiopen-5+4": (SemiOpen((5, 4)), 0.05),
}


def _expected_flips(circuit):
    """x statements the rows call for, counted per row with int arithmetic:
    two for each open control of a gate, and one for a gate without
    controls."""
    count = 0
    for target, mask, polarity in circuit.rows.tolist():
        if target:
            count += 2 * (mask & ~polarity).bit_count() if mask else 1
    return count


@pytest.mark.parametrize("name", FLIP_CIRCUITS)
def test_flip_count_matches_the_rows(name):
    config, p = FLIP_CIRCUITS[name]
    circuit = build_circuit(config, p)
    text = export_qasm(circuit)
    assert text.count("\nx q[") == _expected_flips(circuit)
    if config.width > qasm._WORD and "semiopen" not in name:
        # Some open control sits in the second flip word.
        target, mask, polarity = circuit.rows.T
        assert ((mask & ~polarity)[target != 0] >> qasm._WORD).any()


EMBED_CIRCUITS = [
    name for name in FLIP_CIRCUITS if not name.endswith(("-n11", "-n12", "-n13"))
]


@pytest.mark.parametrize("width", [40, 51, 63])
@pytest.mark.parametrize("name", EMBED_CIRCUITS)
def test_wide_export_matches_the_per_instruction_reference(name, width):
    config, p = FLIP_CIRCUITS[name]
    circuit = build_circuit(config, p)
    rng = np.random.default_rng(width)
    target, mask, polarity = circuit.rows.T
    used = int(np.bitwise_or.reduce((mask & ~polarity)[target != 0], initial=0))
    qubits = np.arange(1, circuit.n_qubits + 1)
    opened = used >> (qubits - 1) & 1 == 1
    # Qubits that carry open controls spread over the whole register, in
    # a shuffled order, and the others anywhere else.
    spread = np.linspace(1, width, opened.sum()).round().astype(int)
    qubit_map = np.empty(circuit.n_qubits, dtype=int)
    qubit_map[opened] = rng.permutation(spread)
    rest = np.setdiff1d(np.arange(1, width + 1), spread)
    qubit_map[~opened] = rng.choice(rest, (~opened).sum(), replace=False)
    wide = embed(circuit, width, qubit_map.tolist())
    if width == 63 and opened.sum() >= 8:
        # Spread over 1..63, eight qubits fall in all six words.
        target, mask, polarity = wide.rows.T
        flips = (mask & ~polarity)[target != 0]
        word = (1 << qasm._WORD) - 1
        assert all(((flips >> (qasm._WORD * j)) & word).any() for j in range(6))
    _assert_matches_reference(wide)


def _assert_matches_reference(circuit):
    assert_same_text(export_qasm(circuit), reference_export_qasm(circuit))


def _random_circuit(width, count, rng):
    """count random rows on width qubits, with controls and polarities
    drawn sparse, even or dense and one row in eight a reset, then one
    gate for each qubit, opening it alone."""
    weights = np.left_shift(1, np.arange(width, dtype=np.int64))
    density = rng.choice([0.05, 0.5, 0.95], count)[:, None]
    mask = (rng.random((count, width)) < density) @ weights
    polarity = (rng.random((count, width)) < density) @ weights & mask
    target = rng.integers(1, width + 1, count)
    bit = np.left_shift(1, target - 1)
    reset = rng.random(count) < 1 / 8
    rows = np.stack([
        np.where(reset, 0, target),
        np.where(reset, mask | bit, mask & ~bit),
        np.where(reset, 0, polarity & ~bit),
    ], axis=1)
    edges = [(2 if q == 1 else 1, 1 << (q - 1), 0) for q in range(1, width + 1)]
    return Circuit._from_rows(width, np.concatenate((rows, edges)))


@pytest.mark.parametrize("width", [11, 12, 22, 23, 63])
def test_export_at_the_word_edges_matches_the_reference(width):
    # Widths that fill a word, and that spill one qubit into the next,
    # over several chunks.
    rng = np.random.default_rng(1000 + width)
    _assert_matches_reference(_random_circuit(width, 2 * qasm._chunk_rows(width) + 17, rng))


@pytest.mark.parametrize(
    "config, p",
    [(Dynamic(11), None), (Dynamic(12), None), (SemiOpen((5, 5, 5, 5)), 0.07)],
    ids=["minimal-work-n11", "minimal-work-n12", "semiopen-5+5+5+5"],
)
def test_built_circuits_at_the_word_edges_match_the_reference(config, p):
    _assert_matches_reference(build_circuit(config, p))


def test_open_control_words_differ_between_chunks():
    # Word 0 of the open-control mask is used only in the first chunk and
    # word 5 only in the last, so the chunks gather different columns.
    rows = qasm._chunk_rows(63)
    first = [McNot(63, ((1, 0), (2, 1))), ResetInstr((5, 63)), McNot(3)]
    middle = [McNot(9, ((20, 1),)), McNot(20, ((9, 1), (40, 1)))]
    last = [McNot(2, ((60, 0), (33, 1))), McNot(63, ((57, 0), (62, 0)))]
    program = (
        first * (rows // 3) + middle * (rows // 2) + last * (rows // 2 + 5)
    )
    c = Circuit(63, program)
    assert len(c) > 2 * rows
    target, mask, polarity = c.rows.T
    opened = (mask & ~polarity) * (target != 0)
    chunks = [opened[i : i + rows] for i in range(0, len(c), rows)]
    word = (1 << qasm._WORD) - 1
    assert (chunks[0] & word).any() and not (chunks[0] >> 5 * qasm._WORD).any()
    assert not (chunks[-1] & word).any() and (chunks[-1] >> 5 * qasm._WORD).any()
    _assert_matches_reference(c)


@pytest.mark.parametrize(
    "circuit",
    [
        Circuit(3),
        Circuit(63),
        Circuit(3, [ResetInstr((1, 3)), ResetInstr((2,))] * 3000),
    ],
    ids=["empty-n3", "empty-n63", "resets-only"],
)
def test_export_without_gates_matches_the_reference(circuit):
    _assert_matches_reference(circuit)
    stream = io.StringIO()
    write_qasm(circuit, stream)
    assert_same_text(stream.getvalue(), export_qasm(circuit))


def test_each_statement_is_formatted_once(monkeypatch):
    # Minimal-work n = 12 spans many chunks, each using the same few
    # (target, mask) pairs.
    c = build_circuit(Dynamic(12))
    assert len(c) > 4 * qasm._chunk_rows(12)
    calls = []

    def counted(target, mask):
        calls.append((target, mask))
        return statement(target, mask)

    statement = qasm._statement
    monkeypatch.setattr(qasm, "_statement", counted)
    _assert_matches_reference(c)
    assert sorted(calls) == sorted(set(map(tuple, c.rows[:, :2].tolist())))


def test_statement_table_stays_under_its_cap(monkeypatch):
    # Masks all distinct: past the cap the table starts again from the
    # chunk's own statements instead of growing with the circuit.
    rows = qasm._chunk_rows(21)
    cap = 2 * rows + rows // 2
    rng = np.random.default_rng(7)
    masks = rng.choice(1 << 20, size=3 * rows + 5, replace=False)
    c = Circuit._from_rows(21, np.stack([np.full_like(masks, 21), masks, masks & 0xF0F0], axis=1))
    held = []

    def recorded(*args):
        keys, text = statements(*args)
        held.append(len(text) - 1)
        return keys, text

    statements = qasm._statements
    monkeypatch.setattr(qasm, "_statements", recorded)
    monkeypatch.setattr(qasm, "_MAX_STATEMENTS", cap)
    _assert_matches_reference(c)
    # Two chunks fit under the cap; the third starts the table again,
    # and the short last chunk adds to it.
    assert held == [rows, 2 * rows, rows, rows + 5]
    assert max(held) < cap
