import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitgrid.complementarity import (
    complementarity_sweep,
    distinguishability_closed,
    distinguishability_from_amplitudes,
    visibility_closed,
    visibility_quadrature,
)
from slitgrid.geometry import ParaxialWarning, SetupGeometry
from slitgrid.grating import AmplitudeTable, GratingSpec, grid_function, normalization_defect, sampling_window, sin_pi
from slitgrid.scattering import (
    OrderSpectrum,
    TwoSlitConfig,
    interference_intensity,
    single_slit_spectrum,
    synthesize_field,
    two_slit_power_limit,
    two_slit_spectrum,
)

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


SPEC = GratingSpec(0.3, truncation=5)
TABLE = AmplitudeTable.build(0.3, 5)
SPECTRUM = single_slit_spectrum(TABLE, "transmitted")
SETUP = SetupGeometry(k=1000.0, s=0.005, g=1.0)
UNIT = [1.5, -1, math.nan, math.inf]  # outside [0, 1]
POSITIVE = [0.0, -1, math.nan, math.inf]
FINITE = [math.nan, math.inf]

# every public entry point that takes a real value: the parameter its
# messages name, the call with the value in that place, whether it takes
# one number only, and the values outside its range (ValueError)
ENTRIES = {
    "SetupGeometry.k": ("k", lambda v: SetupGeometry(k=v, s=0.005, g=1.0), True, POSITIVE),
    "SetupGeometry.s": ("s", lambda v: SetupGeometry(k=1000.0, s=v, g=1.0), True, POSITIVE),
    "SetupGeometry.g": ("g", lambda v: SetupGeometry(k=1000.0, s=0.005, g=v), True, POSITIVE),
    "GratingSpec.cover_ratio": ("cover_ratio", GratingSpec, True, UNIT),
    "GratingSpec.period": ("period", lambda v: GratingSpec(0.3, v), True, POSITIVE),
    "AmplitudeTable.build": ("cover_ratio", lambda v: AmplitudeTable.build(v, 5), False, UNIT),
    "TwoSlitConfig.delta_phi": ("delta_phi", lambda v: TwoSlitConfig(SPEC, v), True, FINITE),
    "sin_pi": ("u", sin_pi, False, []),
    "grid_function": ("x", lambda v: grid_function(v, SPEC), False, []),
    "interference_intensity.x": ("x", interference_intensity, False, []),
    "interference_intensity.delta_phi": ("delta_phi", lambda v: interference_intensity(0.1, v), True, FINITE),
    "sampling_window": ("cover_ratio", lambda v: sampling_window(v, "reflected"), False, UNIT),
    "visibility_closed": ("cover_ratio", visibility_closed, False, UNIT),
    "visibility_quadrature": ("cover_ratio", visibility_quadrature, False, UNIT),
    "distinguishability_closed": ("cover_ratio", distinguishability_closed, False, UNIT),
    "complementarity_sweep": ("cover_ratio", lambda v: complementarity_sweep([v]), False, UNIT),
    "two_slit_spectrum": ("delta_phi", lambda v: two_slit_spectrum(TABLE, "transmitted", v), True, FINITE),
    "two_slit_power_limit.cover_ratio": ("cover_ratio", lambda v: two_slit_power_limit(v, "reflected"), False, UNIT),
    "two_slit_power_limit.delta_phi": ("delta_phi", lambda v: two_slit_power_limit(0.3, "reflected", v), True, FINITE),
    "OrderSpectrum.orders": ("orders", lambda v: OrderSpectrum("transmitted", [v], [0.5]), False, []),
    "OrderSpectrum.probabilities": ("probabilities", lambda v: OrderSpectrum("transmitted", [0.0], [v]), False, [-1, math.nan]),
    "OrderSpectrum.probability": ("order", SPECTRUM.probability, True, []),
    "synthesize_field.x": ("position x", lambda v: synthesize_field(v, 0.5, SPEC, "transmitted", SETUP), True, []),
    "synthesize_field.z": ("position z", lambda v: synthesize_field(0.1, v, SPEC, "transmitted", SETUP), True, []),
}
ONE_NUMBER = [entry for entry, (_, _, one, _) in ENTRIES.items() if one]
OUT_OF_RANGE = [(entry, bad) for entry, (_, _, _, outside) in ENTRIES.items() for bad in outside]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("value", ["0.3", None, 0.3 + 0j, object()], ids=["str", "None", "complex", "object"])
def test_a_value_that_is_not_real_is_refused_by_its_name(entry, value):
    name, call, _, _ = ENTRIES[entry]
    with pytest.raises(TypeError, match=f"^{name} must be real, got "):
        call(value)


@pytest.mark.parametrize("entry", ONE_NUMBER)
@pytest.mark.parametrize("kind", [np.array, list], ids=["array", "list"])
def test_a_one_element_array_is_refused_by_its_name(entry, kind):
    # float() of a (1,) array only warns on numpy before 2.4, so the check
    # is explicit and reads the same on every numpy
    name, call, _, _ = ENTRIES[entry]
    with pytest.raises(TypeError, match=rf"^{name} must be one number, got an array of shape \(1,\)$"):
        call(kind([0.3]))


@pytest.mark.parametrize("kind", [np.array, list], ids=["array", "list"])
def test_an_array_of_ratios_builds_one_row_per_ratio(kind):
    stack = AmplitudeTable.build(kind([0.3, 0.7]), 5)
    assert stack.r.shape == stack.t.shape == (2, 6)
    assert stack.cover_ratio.tolist() == [0.3, 0.7]
    assert stack.r[1].tobytes() == AmplitudeTable.build(0.7, 5).r.tobytes()


def test_a_two_dimensional_array_of_ratios_is_refused_by_its_name():
    message = r"^cover_ratio must be one number or a one-dimensional array, got an array of shape \(1, 1\)$"
    with pytest.raises(TypeError, match=message):
        AmplitudeTable.build(np.array([[0.3]]), 5)


@pytest.mark.parametrize("spectrum", [single_slit_spectrum, two_slit_spectrum])
def test_a_stack_of_tables_is_refused_by_the_spectra_by_its_name(spectrum):
    with pytest.raises(TypeError, match=r"^table must hold one covering ratio, got a stack of shape \(1,\)$"):
        spectrum(AmplitudeTable.build([0.3], 5), "transmitted")


@pytest.mark.parametrize("entry, bad", OUT_OF_RANGE, ids=[f"{entry}-{bad}" for entry, bad in OUT_OF_RANGE])
def test_a_value_out_of_range_is_a_value_error(entry, bad):
    _, call, _, _ = ENTRIES[entry]
    with pytest.raises(ValueError):
        call(bad)


# the parameters that take one-dimensional arrays only, called with a value of the given shape
ONE_DIMENSIONAL = {
    "cover_ratio": complementarity_sweep,
    "orders": lambda v: OrderSpectrum("transmitted", v, np.zeros(np.size(v))),
    "probabilities": lambda v: OrderSpectrum("transmitted", np.zeros(np.size(v)), v),
}


@pytest.mark.parametrize("name", ONE_DIMENSIONAL)
@pytest.mark.parametrize("value", [0.5, np.zeros((2, 2))], ids=["scalar", "2-d"])
def test_a_value_that_is_not_one_dimensional_is_refused_by_its_name(name, value):
    shape = re.escape(str(np.shape(value)))
    with pytest.raises(ValueError, match=f"^{name} must be one-dimensional, got shape {shape}$"):
        ONE_DIMENSIONAL[name](value)


# every public entry point that reads an amplitude table
TABLE_ENTRIES = {
    "normalization_defect": normalization_defect,
    "distinguishability_from_amplitudes": distinguishability_from_amplitudes,
    "single_slit_spectrum": lambda v: single_slit_spectrum(v, "transmitted"),
    "two_slit_spectrum": lambda v: two_slit_spectrum(v, "transmitted"),
}


@pytest.mark.parametrize("entry", TABLE_ENTRIES)
@pytest.mark.parametrize("value", [SPEC, 0.3, None], ids=["GratingSpec", "float", "None"])
def test_a_value_that_is_not_a_table_is_refused_by_its_name(entry, value):
    with pytest.raises(TypeError, match="^table must be an AmplitudeTable, got "):
        TABLE_ENTRIES[entry](value)


@pytest.mark.parametrize("kind", [np.array, np.float64], ids=["0-d array", "float64"])
def test_a_numpy_scalar_is_the_float_it_equals(kind):
    want = {"k": 1000.0, "s": 0.005, "g": 1.0, "period": 0.7, "delta_phi": 0.5}
    setup, config = configure({name: kind(value) for name, value in want.items()})
    got = {"k": setup.k, "s": setup.s, "g": setup.g, "period": config.spec.period}
    got["delta_phi"] = config.delta_phi
    assert got == want
    assert {type(value) for value in got.values()} == {float}


def test_an_int_beyond_int64_is_the_float_it_equals():
    # numpy makes such an int an object array, which is not real
    assert SetupGeometry(k=2**70, s=1, g=2**64).k_perp == 64.0
    assert GratingSpec(0.3, 2**70).period == float(2**70)
    assert sin_pi(2**70) == 0.0


def test_paraxial_warning_threshold():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParaxialWarning)
        field(SetupGeometry(k=1.0, s=0.1, g=1.0))  # at the bound: quiet
    for s in (math.nextafter(0.1, 1.0), 0.11):  # the next double above the bound warns, once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            field(SetupGeometry(k=1.0, s=s, g=1.0))
        assert [w.category for w in caught] == [ParaxialWarning]
    assert str(caught[0].message) == "s/g = 0.11 exceeds the paraxial bound 0.1; small-angle formulas degrade"


def test_paraxial_warning_names_the_calling_line():
    spec = GratingSpec(0.3, truncation=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        synthesize_field(0.1, 0.5, spec, "transmitted", SetupGeometry(k=1.0, s=0.3, g=1.0))
    assert [(w.category, w.filename, w.lineno) for w in caught] == [(ParaxialWarning, __file__, line)]
