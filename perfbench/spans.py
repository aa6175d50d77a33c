"""Span recorder that times qcool's layers from outside.

install() rebinds the public functions of each qcool module, wherever a
module has imported them, to wrappers that record a span (name, start,
end, parent, item) and count the work the call did.  No library code is
edited; the wrappers live only in the traced pass process.  Spans are
kept in memory and written out when the pass ends.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter


def _count_config(rec, args, kwargs, result):
    rec.counts["cli.config_loads"] += 1


def _count_states(rec, args, kwargs, result):
    rec.counts["protocols.states"] += result.dim


def _count_synth(rec, args, kwargs, result):
    unitary = args[0] if args else kwargs["unitary"]
    rec.counts["synth.gates"] += len(result.instructions)
    rec.counts["synth.calls"] += 1
    digest = hashlib.sha1(unitary.permutation.tobytes()).hexdigest()
    rec.distinct_unitaries.add((unitary.n_qubits, digest))


def _count_qasm(rec, args, kwargs, result):
    rec.counts["qasm.bytes"] += len(result.encode())


def _count_sim(rec, args, kwargs, result):
    from qcool.circuits import McNot

    circuit = args[0] if args else kwargs["circuit"]
    gates = sum(1 for ins in circuit.instructions if isinstance(ins, McNot))
    vector_bytes = 8 << circuit.n_qubits
    rec.counts["sim.gate_apps"] += gates
    # Computed, not measured: one float64 vector pass per gate.
    rec.counts["sim.bytes_computed"] += gates * vector_bytes
    rec.vector_bytes_max = max(rec.vector_bytes_max, vector_bytes)


# (span name, module, function, counter)
FUNCTIONS = (
    ("cli.config_load", "qcool.methods", "config_from_json", _count_config),
    ("protocols.build", "qcool.protocols", "protocol_unitary", _count_states),
    ("protocols.build", "qcool.protocols", "heterogeneous_max_cooling", _count_states),
    ("unitary.load", "qcool.unitary", "unitary_from_json", None),
    ("synth.synthesize", "qcool.synth", "synthesize_circuit", _count_synth),
    ("circuits.embed", "qcool.circuits", "embed", None),
    ("circuits.counts", "qcool.circuits", "gate_counts", None),
    ("circuits.simplify", "qcool.circuits", "simplify_adjacent", None),
    ("qasm.export", "qcool.qasm", "export_qasm", _count_qasm),
    ("sim.simulate", "qcool.sim", "simulate", _count_sim),
    ("methods.report", "qcool.methods", "report", None),
    ("methods.final_p", "qcool.methods", "final_probability", None),
    ("methods.work", "qcool.methods", "total_work_cost", None),
    ("methods.build_circuit", "qcool.methods", "build_circuit", None),
)
# (span name, attribute of CoolingUnitary)
UNITARY_METHODS = (
    ("unitary.cycles", "cycles"),
    ("unitary.apply", "apply_to_prob_vector"),
)
ROOT_SPAN = "cli.invoke"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, item)
        self.counts: Counter = Counter()
        self.distinct_unitaries: set = set()
        self.vector_bytes_max = 0
        self.item: int | None = None  # index of the running CLI invocation
        self.missing: list[str] = []  # traced functions the library lacks
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            index = len(rec.spans)
            rec.spans.append(None)
            rec._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[index] = (name, start, end, parent, rec.item)
            if counter is not None:
                counter(rec, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced qcool function in every qcool module.

        A function the library no longer has is listed in self.missing
        and its layer reads 0, so the rest of the trace still works.
        """
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "qcool" or name.startswith("qcool.")
        ]
        for span, module, attr, counter in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            traced = self.wrap(span, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        from qcool.unitary import CoolingUnitary

        for span, attr in UNITARY_METHODS:
            original = CoolingUnitary.__dict__.get(attr)
            if original is None:
                self.missing.append(f"CoolingUnitary.{attr}")
            elif isinstance(original, property):
                setattr(CoolingUnitary, attr, property(self.wrap(span, original.fget)))
            else:
                setattr(CoolingUnitary, attr, self.wrap(span, original))

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its children cover, summed by name."""
        child = self._child_time()
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def busy_by_item(self) -> dict[int, float]:
        """Time each invocation spent inside layer calls."""
        child = self._child_time()
        return {
            item: child[i]
            for i, (name, _, _, _, item) in enumerate(self.spans)
            if name == ROOT_SPAN
        }

    def summary(self) -> dict:
        return {
            "self_s": self.self_times(),
            "busy_s": list(self.busy_by_item().values()),
            "calls": dict(Counter(s[0] for s in self.spans)),
            "counts": dict(self.counts),
            "distinct_unitaries": len(self.distinct_unitaries),
            "vector_bytes_max": self.vector_bytes_max,
            "missing": self.missing,
        }
