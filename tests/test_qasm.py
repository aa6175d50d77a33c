import io

import numpy as np
import pytest

from helpers import (
    QasmSyntaxError,
    circuit_permutation,
    count_ctrl_statements,
    parse_qasm,
)

from qcool import (
    Circuit,
    Dynamic,
    HBAC,
    McNot,
    ResetInstr,
    build_circuit,
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


@pytest.mark.parametrize("j", range(8))
def test_byte_flip_tables(j):
    # Each entry spelled out bit by bit, in both orders.
    lines = [f"x q[{8 * j + i}];\n" for i in range(8)]
    up, down = qasm._byte_flips(j)
    for b in range(256):
        bits = [i for i in range(8) if b >> i & 1]
        assert up[b] == "".join(lines[i] for i in bits)
        assert down[b] == "".join(lines[i] for i in reversed(bits))


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
    assert path.read_text() == export_qasm(c)


def test_write_qasm_to_an_open_stream():
    # Dynamic(12) spans several chunks; HBAC carries reset pragmas.
    for c in (build_circuit(Dynamic(12)), build_circuit(HBAC(3, 3), 0.1)):
        stream = io.StringIO()
        write_qasm(c, stream)
        assert not stream.closed and stream.getvalue() == export_qasm(c)
