import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitgrid.grating import (
    _BLOCK_BYTES,
    AmplitudeTable,
    GratingSpec,
    fourier_coefficient,
    grid_function,
    normalization_defect,
    reflection_amplitude,
    sampling_window,
    sin_pi,
    sinc_pi,
    transmission_amplitude,
)

# Reference values computed once with a 30-digit arbitrary-precision
# evaluation of the defining formulas.
C1_006 = -0.119290649837502
R1_006 = 0.0596453249187511
R2_006 = -0.0585888422332593
T3_05 = -0.106103295394597
G50_CENTER_006 = 1.06598636472208
G50_ZERO_006 = -0.000601661529935158

cover_ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_series(x, cover_ratio, terms, period=1.0):
    """Plain-loop partial sum, independent of the vectorized library path."""
    total = cover_ratio
    for n in range(1, terms + 1):
        c = 2.0 * (-1.0) ** n * math.sin(cover_ratio * math.pi * n) / (math.pi * n)
        total += c * math.cos(2.0 * math.pi * x * n / period)
    return total


def simpson(f, lo, hi, n=4096):
    x = np.linspace(lo, hi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (hi - lo) / (3.0 * n) * float(np.dot(w, f(x)))


class TestSinPi:
    def test_exact_zeros_at_integers(self):
        for u in (0.0, 1.0, 2.0, 3.0, -1.0, 17.0):
            assert sin_pi(u) == 0.0

    def test_exact_extrema(self):
        assert sin_pi(0.5) == 1.0
        assert sin_pi(1.5) == -1.0
        assert sin_pi(-0.5) == -1.0

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    def test_matches_plain_sin(self, u):
        assert sin_pi(u) == pytest.approx(math.sin(math.pi * u), abs=1e-12)

    def test_sinc_limit_and_zero(self):
        assert sinc_pi(0.0) == 1.0
        assert sinc_pi(1.0) == 0.0
        assert sinc_pi(0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)


class TestFourierCoefficient:
    def test_mean_value_is_cover_ratio(self):
        assert fourier_coefficient(0, 0.06) == 0.06

    def test_empty_grating_has_no_harmonics(self):
        assert fourier_coefficient(1, 0.0) == 0.0

    def test_first_harmonic(self):
        assert fourier_coefficient(1, 0.06) == pytest.approx(C1_006, rel=1e-12)

    @pytest.mark.parametrize("a", [0.06, 0.3, 0.77])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_against_profile_integral(self, a, n):
        # independent route: integrate the defining strip profile (1 on the
        # strip centered at half a period) against the cosine basis
        integral = 2.0 * simpson(
            lambda x: np.cos(2.0 * math.pi * n * x), (1.0 - a) / 2.0, (1.0 + a) / 2.0, n=16384
        )
        assert fourier_coefficient(n, a) == pytest.approx(integral, abs=1e-11)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_bad_cover_ratio(self, bad):
        with pytest.raises(ValueError):
            fourier_coefficient(1, bad)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            fourier_coefficient(-1, 0.5)


class TestGridFunction:
    def test_strip_center_and_gap_center(self):
        spec = GratingSpec(cover_ratio=0.06, period=1.0, truncation=50)
        center = brute_series(0.5, 0.06, 50)
        gap = brute_series(0.0, 0.06, 50)
        # library matches the brute-force sum, and the brute-force sum sits
        # inside the truncation-error bands the reconstruction is allowed
        assert grid_function(0.5, spec) == pytest.approx(center, abs=1e-12)
        assert grid_function(0.0, spec) == pytest.approx(gap, abs=1e-12)
        assert center == pytest.approx(G50_CENTER_006, abs=1e-12)
        assert gap == pytest.approx(G50_ZERO_006, abs=1e-12)
        assert abs(center - 1.0) <= 0.15
        assert abs(gap) <= 0.05

    def test_periodic_in_the_period(self):
        spec = GratingSpec(cover_ratio=0.2, period=0.7, truncation=40)
        for x in (0.0, 0.11, 0.35):
            assert grid_function(x + 0.7, spec) == pytest.approx(grid_function(x, spec), abs=1e-9)

    def test_vanishes_without_grating(self):
        spec = GratingSpec(cover_ratio=0.0, period=1.0, truncation=20)
        xs = np.linspace(-1.0, 1.0, 41)
        assert np.all(grid_function(xs, spec) == 0.0)

    def test_array_and_scalar_agree(self):
        spec = GratingSpec(cover_ratio=0.06, truncation=50)
        xs = np.array([0.0, 0.25, 0.5])
        values = grid_function(xs, spec)
        assert values.shape == (3,)
        assert values[2] == grid_function(0.5, spec)

    @pytest.mark.parametrize("shape, terms", [((3, 7), 50), ((40, 30), 2000)], ids=["one-block", "blocks"])
    def test_array_keeps_its_shape_and_equals_the_flat_call(self, shape, terms):
        spec = GratingSpec(cover_ratio=0.37, period=0.8, truncation=terms)
        xs = np.random.default_rng(5).uniform(-2.0, 2.0, shape)
        values = grid_function(xs, spec)
        assert values.shape == shape
        assert values.tobytes() == grid_function(xs.ravel(), spec).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["1-d", "2-d"])
    def test_empty_array_gives_an_empty_array(self, shape):
        values = grid_function(np.zeros(shape), GratingSpec(cover_ratio=0.3))
        assert values.shape == shape and values.dtype == np.float64

    def test_scalar_gives_a_float(self):
        value = grid_function(0.5, GratingSpec(cover_ratio=0.06, truncation=50))
        assert type(value) is float
        assert value == pytest.approx(G50_CENTER_006, abs=1e-12)

    def test_memory_stays_within_the_block_budget(self):
        # a dense 20000 x 2000 evaluation would hold two 320 MB matrices
        xs = np.random.default_rng(2).uniform(-3.0, 3.0, 20000)
        spec = GratingSpec(cover_ratio=0.37, truncation=2000)
        tracemalloc.start()
        try:
            values = grid_function(xs, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * _BLOCK_BYTES + values.nbytes


class TestAmplitudes:
    def test_zeroth_order(self):
        assert reflection_amplitude(0, 0.06) == -0.06
        assert transmission_amplitude(0, 0.06) == pytest.approx(0.94, rel=1e-15)
        assert transmission_amplitude(0, 1.0) == 0.0

    def test_reference_values(self):
        assert reflection_amplitude(1, 0.06) == pytest.approx(R1_006, rel=1e-12)
        assert reflection_amplitude(2, 0.06) == pytest.approx(R2_006, rel=1e-12)
        assert transmission_amplitude(3, 0.5) == pytest.approx(T3_05, rel=1e-12)
        assert transmission_amplitude(3, 0.5) == pytest.approx(-1.0 / (3.0 * math.pi), rel=1e-14)

    def test_harmonics_are_half_the_coefficient(self):
        for n in range(1, 8):
            assert reflection_amplitude(n, 0.31) == pytest.approx(
                -fourier_coefficient(n, 0.31) / 2.0, rel=1e-14
            )

    @given(cover_ratios, st.integers(min_value=-40, max_value=40))
    def test_symmetric_in_the_order(self, a, n):
        assert reflection_amplitude(-n, a) == reflection_amplitude(n, a)
        assert transmission_amplitude(-n, a) == transmission_amplitude(n, a)

    @given(cover_ratios, st.integers(min_value=1, max_value=60))
    def test_amplitude_bounds(self, a, n):
        r = reflection_amplitude(n, a)
        assert abs(r) <= a + 1e-12
        assert abs(r) <= 1.0 / (math.pi * n) + 1e-15

    def test_alternating_signs_for_sparse_grating(self):
        # a < 1/N keeps sin(a*pi*n) positive for every tabulated n
        signs = [math.copysign(1.0, reflection_amplitude(n, 0.01)) for n in range(1, 51)]
        assert all(signs[i] == -signs[i + 1] for i in range(49))

    def test_table_matches_scalar_functions(self):
        table = AmplitudeTable.build(0.37, truncation=25)
        for n in (0, 1, 7, 25):
            assert table.reflection(n) == reflection_amplitude(n, 0.37)
            assert table.transmission(n) == transmission_amplitude(n, 0.37)
            assert table.reflection(-n) == table.reflection(n)

    def test_table_rejects_orders_beyond_truncation(self):
        table = AmplitudeTable.build(0.2, truncation=10)
        with pytest.raises(ValueError):
            table.reflection(11)

    def test_channel_families(self):
        table = AmplitudeTable.build(0.2, truncation=3)
        assert table.amplitudes("transmitted") is table.t
        assert table.amplitudes("reflected") is table.r
        with pytest.raises(ValueError, match="channel must be one of"):
            table.amplitudes("both")


class TestSamplingWindow:
    def test_gap_and_strip(self):
        assert sampling_window(0.06, "transmitted") == (1.0 - 0.06, 1.0)
        assert sampling_window(0.06, "reflected") == (0.06, -1.0)

    def test_rejects_unknown_channel_and_bad_cover_ratio(self):
        with pytest.raises(ValueError, match="channel must be one of"):
            sampling_window(0.5, "sideways")
        with pytest.raises(ValueError, match="cover ratio"):
            sampling_window(1.5, "transmitted")


class TestNormalization:
    @given(cover_ratios)
    def test_exact_power_identity(self, a):
        r0 = reflection_amplitude(0, a)
        t0 = transmission_amplitude(0, a)
        assert abs(r0**2 + t0**2 + 2.0 * (a - a * a) - 1.0) <= 1e-14

    def test_degenerate_gratings_have_zero_defect(self):
        assert normalization_defect(AmplitudeTable.build(0.0, 10)) == 0.0
        assert normalization_defect(AmplitudeTable.build(1.0, 10)) == 0.0

    def test_defect_matches_tail_identity(self):
        defect = normalization_defect(AmplitudeTable.build(0.06, 50))
        assert 0.0 < defect <= 4.0 / (math.pi**2 * 50)
        tail = 2.0 * (0.06 - 0.06**2) - sum(
            fourier_coefficient(n, 0.06) ** 2 for n in range(1, 51)
        )
        assert defect == pytest.approx(tail, abs=1e-15)

    @given(cover_ratios, st.integers(min_value=1, max_value=300))
    def test_defect_nonnegative_and_bounded(self, a, n):
        defect = normalization_defect(AmplitudeTable.build(a, n))
        assert defect >= -1e-15
        assert defect <= 4.0 / (math.pi**2 * n) + 1e-15

    @given(cover_ratios)
    def test_parseval_partial_sum_bound(self, a):
        coeffs_sq = sum(fourier_coefficient(n, a) ** 2 for n in range(1, 201))
        assert coeffs_sq <= 2.0 * (a - a * a) + 1e-12

    @pytest.mark.parametrize("a", [0.06, 0.5])
    def test_channel_split_tends_to_geometric_fractions(self, a):
        table = AmplitudeTable.build(a, truncation=2000)
        reflected = float(table.r[0] ** 2 + 2.0 * np.sum(table.r[1:] ** 2))
        transmitted = float(table.t[0] ** 2 + 2.0 * np.sum(table.t[1:] ** 2))
        tail = 2.0 / (math.pi**2 * 2000)
        assert reflected == pytest.approx(a, abs=tail)
        assert transmitted == pytest.approx(1.0 - a, abs=tail)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            AmplitudeTable.build(1.5, 10)
        with pytest.raises(ValueError):
            AmplitudeTable.build(0.5, 0)

    def test_defect_reads_the_table_it_is_given(self):
        table = AmplitudeTable.build(0.3, 40)
        r = table.r.copy()
        r[0] += 1e-3
        biased = AmplitudeTable(table.cover_ratio, r, table.t)
        shift = normalization_defect(table) - normalization_defect(biased)
        assert shift == pytest.approx(2.0 * table.r[0] * 1e-3 + 1e-6, rel=1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        GratingSpec(cover_ratio=-0.01)
    with pytest.raises(ValueError):
        GratingSpec(cover_ratio=0.5, period=0.0)
    with pytest.raises(ValueError):
        GratingSpec(cover_ratio=0.5, truncation=0)
