"""Physical constants (CODATA 2018 exact values) and resource caps."""

from .errors import ResourceLimitError

# Planck constant, J s (exact since the 2019 SI redefinition).
PLANCK_J_S = 6.62607015e-34

# Boltzmann constant, J / K (exact).
BOLTZMANN_J_PER_K = 1.380649e-23

# Largest register size for which full 2**n diagonal vectors are built.
DEFAULT_QUBIT_CAP = 24

# Largest register size for which dense 2**n x 2**n matrices are built.
DEFAULT_DENSE_CAP = 12


def check_qubit_cap(n: int, cap: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise ResourceLimitError if an n-qubit register exceeds cap."""
    if n > cap:
        raise ResourceLimitError(
            f"register of {n} qubits exceeds the cap of {cap}"
        )
