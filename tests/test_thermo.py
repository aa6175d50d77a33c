import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcool import (
    EnergyGap,
    PopulationInversionError,
    ResourceLimitError,
    Temperature,
    ThermalSpec,
    probability_from_temperature,
    temperature_from_probability,
    thermal_product_vector,
)
from qcool.constants import BOLTZMANN_J_PER_K, PLANCK_J_S
from qcool.thermo import product_diagonal

GAP_5GHZ = EnergyGap.from_frequency_ghz(5.0)


def test_gap_from_frequency():
    assert GAP_5GHZ.value == PLANCK_J_S * 5e9
    assert not GAP_5GHZ.dimensionless
    with pytest.raises(ValueError):
        EnergyGap.from_frequency_ghz(0.0)
    with pytest.raises(ValueError):
        EnergyGap(-1.0)


def test_probability_at_50mk_5ghz():
    # mpmath (40 digits): 0.008168701470416747...
    p = probability_from_temperature(Temperature.from_millikelvin(50.0), GAP_5GHZ)
    assert p == pytest.approx(0.008168701470416747, rel=1e-13, abs=0.0)


def test_probability_limits():
    assert probability_from_temperature(Temperature(0.0), GAP_5GHZ) == 0.0
    assert probability_from_temperature(Temperature(math.inf), GAP_5GHZ) == 0.5
    # far below any float-expressible Boltzmann factor: underflows to 0
    assert probability_from_temperature(Temperature(1e-9), GAP_5GHZ) == 0.0


def test_probability_at_subnormal_temperatures():
    # k T underflows to 0 below about 1e-300 K, where dividing the gap
    # by it raised ZeroDivisionError; the Boltzmann factor is 0 there.
    temps = [0.0, 5e-324, 1e-303, 1e-20]
    ps = [probability_from_temperature(Temperature(t), GAP_5GHZ) for t in temps]
    assert ps == [0.0] * 4
    assert all(a <= b for a, b in zip(ps, ps[1:]))
    assert BOLTZMANN_J_PER_K * 1e-303 == 0.0


def test_probability_monotonic_in_temperature_and_gap():
    temps = [1e-3, 5e-3, 0.02, 0.05, 0.2, 1.0, 50.0, 1e6]
    ps = [probability_from_temperature(Temperature(t), GAP_5GHZ) for t in temps]
    assert all(a < b for a, b in zip(ps, ps[1:]))
    gaps = [EnergyGap.from_frequency_ghz(f) for f in (1.0, 2.0, 5.0, 20.0)]
    qs = [probability_from_temperature(Temperature(0.05), g) for g in gaps]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_temperature_round_trip():
    for t in (0.001, 0.01, 0.05, 0.3, 2.0, 77.0):
        p = probability_from_temperature(Temperature(t), GAP_5GHZ)
        back = temperature_from_probability(p, GAP_5GHZ)
        assert back.kelvin == pytest.approx(t, rel=1e-12)


def test_temperature_edge_cases():
    assert temperature_from_probability(0.0, GAP_5GHZ).kelvin == 0.0
    assert math.isinf(temperature_from_probability(0.5, GAP_5GHZ).kelvin)
    with pytest.raises(PopulationInversionError):
        temperature_from_probability(0.6, GAP_5GHZ)
    with pytest.raises(ValueError):
        temperature_from_probability(1.5, GAP_5GHZ)
    with pytest.raises(ValueError):
        temperature_from_probability(math.nan, GAP_5GHZ)


def test_dimensionless_gap_refuses_temperature():
    unit = EnergyGap.unit()
    assert unit.dimensionless and unit.value == 1.0
    with pytest.raises(ValueError):
        temperature_from_probability(0.1, unit)
    with pytest.raises(ValueError):
        probability_from_temperature(Temperature(1.0), unit)


def test_temperature_units():
    t = Temperature.from_millikelvin(50.0)
    assert t.kelvin == 0.05
    assert t.millikelvin == pytest.approx(50.0)
    with pytest.raises(ValueError):
        Temperature(-1.0)


def test_thermal_spec_validation():
    spec = ThermalSpec.homogeneous(0.1, 3)
    assert spec.n_qubits == 3 and spec.excitations == (0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ThermalSpec((0.5,))
    with pytest.raises(ValueError):
        ThermalSpec((-0.1, 0.2))
    with pytest.raises(ValueError):
        ThermalSpec(())
    with pytest.raises(ValueError):
        ThermalSpec((math.nan,))


def test_thermal_product_vector_entries():
    p = 0.1
    v = thermal_product_vector(p, 3)
    # qubit 1 is the most significant bit: state "100" = 4
    assert v[0] == pytest.approx(0.9**3)
    assert v[4] == pytest.approx(0.1 * 0.9**2)
    assert v[3] == pytest.approx(0.9 * 0.1**2)
    assert v[7] == pytest.approx(0.1**3)
    assert v.sum() == pytest.approx(1.0, abs=1e-15)

    w = thermal_product_vector(ThermalSpec((0.0, 0.25)))
    assert np.allclose(w, [0.75, 0.25, 0.0, 0.0])


def test_thermal_product_vector_properties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        spec = ThermalSpec(tuple(rng.uniform(0.0, 0.499, n)))
        v = thermal_product_vector(spec)
        assert v.size == 1 << n
        assert np.all(v >= 0.0)
        assert abs(v.sum() - 1.0) < 1e-12


def test_thermal_product_vector_cap():
    with pytest.raises(ResourceLimitError):
        thermal_product_vector(0.1, 25)
    with pytest.raises(ResourceLimitError):
        thermal_product_vector(0.1, 5, cap=4)
    with pytest.raises(TypeError):
        thermal_product_vector(0.1)
    with pytest.raises(ValueError):
        thermal_product_vector(ThermalSpec.homogeneous(0.1, 3), 4)


excitation_lists = st.lists(
    st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(excitation_lists)
@example([0.0] * 16)
@example([0.5] * 16)
@example([1.0] * 16)
@example([0.0, 0.5, 1.0, 1e-300, 0.49999999999999994] * 3 + [0.1])
def test_product_diagonal_is_the_kron_fold(excitations):
    want = np.ones(1)
    for p in excitations:
        want = np.kron(want, np.array([1.0 - p, p]))
    got = product_diagonal(excitations)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_product_diagonal_rows_are_each_rows_diagonal():
    # Rows of excitations, as sweep points are walked together: row i
    # is the diagonal of the i-th excitations, bit for bit, whichever
    # columns are shared objects, arrays or scalars.
    rng = np.random.default_rng(5)
    t, p = rng.uniform(0, 0.5, 6), rng.uniform(0, 0.5, 6)
    t[:2] = (0.0, -0.0)
    for columns in ([t, p, p, p], [p] * 5, [t, 0.25, p], [t]):
        got = product_diagonal(columns)
        assert got.shape == (6, 1 << len(columns))
        for i, row in enumerate(got):
            want = np.ones(1)
            for c in columns:
                x = c if np.ndim(c) == 0 else float(c[i])
                want = np.kron(want, np.array([1.0 - x, x]))
            assert row.tobytes() == want.tobytes()

