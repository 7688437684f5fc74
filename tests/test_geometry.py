import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitgrid.geometry import ParaxialWarning, SetupGeometry
from slitgrid.grating import GratingSpec
from slitgrid.scattering import TwoSlitConfig, synthesize_field

lengths = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
paraxial_setups = st.builds(
    SetupGeometry,
    k=lengths,
    s=st.floats(min_value=1e-6, max_value=1e-3),
    g=st.floats(min_value=0.1, max_value=1e3),
)


def field(setup):
    return synthesize_field(0.1, 0.5, GratingSpec(0.3, truncation=5), "transmitted", setup)


def test_unit_parameters():
    # s/g = 1 is far outside the small-angle regime: k_perp still follows
    # the defining formula, and building the setup does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParaxialWarning)
        setup = SetupGeometry(k=1.0, s=1.0, g=1.0)
    assert setup.k_perp == 1.0


def test_millimetre_golden():
    # green-ish laser line, quarter-millimetre slit half-separation, 1 m to the grid
    setup = SetupGeometry(k=2 * math.pi / 0.000532, s=0.25, g=1000.0)
    assert setup.k_perp == pytest.approx(2.9526246744265, rel=1e-12)


@given(paraxial_setups, st.floats(min_value=1e-3, max_value=1e3))
def test_scaling_invariance(setup, factor):
    scaled = SetupGeometry(k=setup.k, s=setup.s * factor, g=setup.g * factor)
    assert scaled.k_perp == pytest.approx(setup.k_perp, rel=1e-12)


@pytest.mark.parametrize("bad", [{"k": 0.0}, {"k": -1.0}, {"s": 0.0}, {"g": -2.0}])
def test_rejects_nonpositive_lengths(bad):
    params = {"k": 1.0, "s": 0.01, "g": 1.0, **bad}
    with pytest.raises(ValueError):
        SetupGeometry(**params)


def configure(values):
    setup = SetupGeometry(k=values["k"], s=values["s"], g=values["g"])
    return setup, TwoSlitConfig(GratingSpec(0.3, values["period"]), values["delta_phi"])


@pytest.mark.parametrize("name", ["k", "s", "g", "period", "delta_phi"])
def test_a_one_element_array_is_refused_by_its_name(name):
    # float() of a (1,) array only warns on numpy before 2.4, so the check
    # is explicit and reads the same on every numpy
    values = {"k": 1000.0, "s": 0.005, "g": 1.0, "period": 0.7, "delta_phi": 0.5}
    values[name] = np.array([values[name]])
    with pytest.raises(TypeError, match=f"^{name} must be one number"):
        configure(values)


@pytest.mark.parametrize("kind", [np.array, np.float64], ids=["0-d array", "float64"])
def test_a_numpy_scalar_is_the_float_it_equals(kind):
    want = {"k": 1000.0, "s": 0.005, "g": 1.0, "period": 0.7, "delta_phi": 0.5}
    setup, config = configure({name: kind(value) for name, value in want.items()})
    got = {"k": setup.k, "s": setup.s, "g": setup.g, "period": config.spec.period}
    got["delta_phi"] = config.delta_phi
    assert got == want
    assert {type(value) for value in got.values()} == {float}


def test_paraxial_warning_threshold():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParaxialWarning)
        field(SetupGeometry(k=1.0, s=0.1, g=1.0))  # at the bound: quiet
    with pytest.warns(ParaxialWarning):
        field(SetupGeometry(k=1.0, s=0.11, g=1.0))


def test_paraxial_warning_names_the_calling_line():
    spec = GratingSpec(0.3, truncation=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        synthesize_field(0.1, 0.5, spec, "transmitted", SetupGeometry(k=1.0, s=0.3, g=1.0))
    assert [(w.category, w.filename, w.lineno) for w in caught] == [(ParaxialWarning, __file__, line)]
