"""Computational cooling of qubit registers.

Build permutation unitaries that concentrate population on the ground
half of a register, synthesize them into multi-controlled-NOT circuits
via Gray codes, and analyze four cooling methods (dynamic, sub-optimal
dynamic, heat-bath, semi-open) for reachable temperature, work cost,
circuit size, and behavior under depolarizing noise.

Conventions used throughout:

* qubits are numbered from 1; qubit 1 is both the cooling target and the
  most significant bit of a basis index, so "100" on three qubits is
  state 4 with qubit 1 excited;
* diagonal states are length-2**n probability vectors;
* energies are multiples of the qubit gap unless a physical EnergyGap is
  supplied, in which case joules and kelvin are available.
"""

import os

# On the benchmark's workloads qcool's float products are stacked
# matrices of at most 8x8, so NumPy's OpenBLAS workers get no work, yet
# each spins 2**28 cycles (about 0.1 s) after NumPy loads before it
# sleeps.  OpenBLAS reads this variable once, as it loads (the next
# import loads NumPy).  2**4 cycles, the minimum, lets an idle worker
# sleep at once, and the workers stay for large products.  On a shared
# 2-vCPU Xeon a benchmark pass's CPU time fell from 2.0x its wall time
# to 1.0x, and a fresh 1000x1000 product took 12.5 ms against 12.2 ms
# by default and 22.1 ms with one thread.  A value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .circuits import (
    Circuit,
    GateCounts,
    McNot,
    ResetInstr,
    embed,
    gate_counts,
    simplify_adjacent,
)
from .errors import (
    ConfigError,
    CycleError,
    DegenerateCycleError,
    OverlappingCyclesError,
    PhaseSynthesisError,
    PopulationInversionError,
    QcoolError,
    ResourceLimitError,
)
from .methods import (
    HBAC,
    CoolingReport,
    CustomProtocol,
    Dynamic,
    SemiOpen,
    SubOptimal,
    build_circuit,
    config_from_json,
    dynamic_final_p,
    final_probability,
    hbac_final_p,
    method_label,
    noisy_final_probability,
    report,
    semi_open_final_p,
    sub_optimal_final_p,
    total_qubits,
    total_work_cost,
    work_cost,
)
from .protocols import (
    heterogeneous_max_cooling,
    minimal_work_protocol,
    mirror_protocol,
    ppa_protocol,
    protocol_unitary,
    thermal_order,
)
from .qasm import export_qasm, write_qasm
from .sim import (
    NoiseModel,
    apply_mcnot,
    depolarize,
    marginal,
    reset_qubits,
    simulate,
    validate_prob_vector,
)
from .synth import (
    cycle_circuit,
    gray_path,
    synthesize_circuit,
    synthesized_gate_count,
    transposition_circuit,
)
from .thermo import (
    EnergyGap,
    Temperature,
    ThermalSpec,
    probability_from_temperature,
    temperature_from_probability,
    thermal_product_vector,
)
from .unitary import (
    CoolingUnitary,
    load_cycles_json,
    parse_state_label,
    random_permutation_unitary,
    unitary_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "ConfigError",
    "CoolingReport",
    "CoolingUnitary",
    "CustomProtocol",
    "CycleError",
    "DegenerateCycleError",
    "Dynamic",
    "EnergyGap",
    "GateCounts",
    "HBAC",
    "McNot",
    "NoiseModel",
    "OverlappingCyclesError",
    "PhaseSynthesisError",
    "PopulationInversionError",
    "QcoolError",
    "ResetInstr",
    "ResourceLimitError",
    "SemiOpen",
    "SubOptimal",
    "Temperature",
    "ThermalSpec",
    "apply_mcnot",
    "build_circuit",
    "config_from_json",
    "cycle_circuit",
    "depolarize",
    "dynamic_final_p",
    "embed",
    "export_qasm",
    "final_probability",
    "gate_counts",
    "gray_path",
    "hbac_final_p",
    "heterogeneous_max_cooling",
    "load_cycles_json",
    "marginal",
    "method_label",
    "minimal_work_protocol",
    "mirror_protocol",
    "noisy_final_probability",
    "parse_state_label",
    "ppa_protocol",
    "probability_from_temperature",
    "protocol_unitary",
    "random_permutation_unitary",
    "report",
    "reset_qubits",
    "semi_open_final_p",
    "simplify_adjacent",
    "simulate",
    "sub_optimal_final_p",
    "synthesize_circuit",
    "synthesized_gate_count",
    "temperature_from_probability",
    "thermal_order",
    "thermal_product_vector",
    "total_qubits",
    "total_work_cost",
    "transposition_circuit",
    "unitary_from_json",
    "validate_prob_vector",
    "work_cost",
    "write_qasm",
]
