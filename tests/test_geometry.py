import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitgrid.geometry import ParaxialWarning, SetupGeometry, derive_grating_geometry

lengths = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
paraxial_setups = st.builds(
    SetupGeometry,
    k=lengths,
    s=st.floats(min_value=1e-6, max_value=1e-3),
    g=st.floats(min_value=0.1, max_value=1e3),
)


def quiet_geometry(setup):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParaxialWarning)
        return derive_grating_geometry(setup)


def test_unit_parameters():
    # s/g = 1 is far outside the small-angle regime: the values still follow
    # the defining formulas, flagged by the diagnostic warning
    with pytest.warns(ParaxialWarning):
        geom = derive_grating_geometry(SetupGeometry(k=1.0, s=1.0, g=1.0))
    assert geom.k_perp == 1.0
    assert geom.period == pytest.approx(math.pi, rel=1e-15)


def test_millimetre_golden():
    # green-ish laser line, quarter-millimetre slit half-separation, 1 m to the grid
    setup = SetupGeometry(k=2 * math.pi / 0.000532, s=0.25, g=1000.0)
    geom = derive_grating_geometry(setup)
    assert geom.k_perp == pytest.approx(2.9526246744265, rel=1e-12)
    assert geom.period == pytest.approx(1.064, rel=1e-12)


@given(paraxial_setups)
def test_product_identity(setup):
    geom = derive_grating_geometry(setup)
    assert geom.k_perp * geom.period == pytest.approx(math.pi, rel=1e-12)


@given(paraxial_setups, st.floats(min_value=1e-3, max_value=1e3))
def test_scaling_invariance(setup, factor):
    geom = quiet_geometry(setup)
    scaled = quiet_geometry(SetupGeometry(k=setup.k, s=setup.s * factor, g=setup.g * factor))
    assert scaled.k_perp == pytest.approx(geom.k_perp, rel=1e-12)
    assert scaled.period == pytest.approx(geom.period, rel=1e-12)


@pytest.mark.parametrize("bad", [{"k": 0.0}, {"k": -1.0}, {"s": 0.0}, {"g": -2.0}])
def test_rejects_nonpositive_lengths(bad):
    params = {"k": 1.0, "s": 0.01, "g": 1.0, **bad}
    with pytest.raises(ValueError):
        SetupGeometry(**params)


def test_paraxial_warning_threshold():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParaxialWarning)
        derive_grating_geometry(SetupGeometry(k=1.0, s=0.1, g=1.0))  # at the bound: quiet
    with pytest.warns(ParaxialWarning):
        derive_grating_geometry(SetupGeometry(k=1.0, s=0.11, g=1.0))
