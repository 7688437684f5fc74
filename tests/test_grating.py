import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitgrid.grating import (
    _BLOCK_BYTES,
    AmplitudeTable,
    GratingSpec,
    grid_function,
    normalization_defect,
    sampling_window,
    sin_pi,
    sinc_pi,
)
from slitgrid.verify import run_verification

# Reference values computed once with a 30-digit arbitrary-precision
# evaluation of the defining formulas.
C1_006 = -0.119290649837502
R1_006 = 0.0596453249187511
R2_006 = -0.0585888422332593
T3_05 = -0.106103295394597
G50_CENTER_006 = 1.06598636472208
G50_ZERO_006 = -0.000601661529935158

cover_ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_coefficient(n, cover_ratio):
    """``c_n`` for ``n >= 1`` by the plain defining formula, with ``math.sin``."""
    return 2.0 * (-1.0) ** n * math.sin(cover_ratio * math.pi * n) / (math.pi * n)


def brute_series(x, cover_ratio, terms, period=1.0):
    """Plain-loop partial sum, independent of the vectorized library path."""
    total = cover_ratio
    for n in range(1, terms + 1):
        total += brute_coefficient(n, cover_ratio) * math.cos(2.0 * math.pi * x * n / period)
    return total


def coefficients(cover_ratio, truncation):
    """``c_1..c_N`` read from the amplitude table as ``-2*r_n``."""
    return -2.0 * AmplitudeTable.build(cover_ratio, truncation).r[1:]


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
        # 100 samples of a period average every harmonic below the 100th to zero
        profile = grid_function(np.arange(100) / 100.0, GratingSpec(0.06, truncation=50))
        assert profile.mean() == pytest.approx(0.06, abs=1e-14)

    def test_empty_grating_has_no_harmonics(self):
        assert np.all(coefficients(0.0, 10) == 0.0)

    def test_first_harmonic(self):
        assert coefficients(0.06, 1)[0] == pytest.approx(C1_006, rel=1e-12)

    @pytest.mark.parametrize("a", [0.06, 0.3, 0.77])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_against_profile_integral(self, a, n):
        # independent route: integrate the defining strip profile (1 on the
        # strip centered at half a period) against the cosine basis
        integral = 2.0 * simpson(
            lambda x: np.cos(2.0 * math.pi * n * x), (1.0 - a) / 2.0, (1.0 + a) / 2.0, n=16384
        )
        assert coefficients(a, n)[n - 1] == pytest.approx(integral, abs=1e-11)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_bad_cover_ratio(self, bad):
        with pytest.raises(ValueError):
            AmplitudeTable.build(bad, 1)


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

    def test_a_factored_call_keeps_under_one_block_in_flight(self):
        # a few arrays of about sqrt(N) values per row, in blocks of rows
        xs = np.random.default_rng(2).uniform(-3.0, 3.0, 20000)
        values, peak = traced_peak(grid_function, xs, GratingSpec(cover_ratio=0.37, truncation=2000))
        assert peak <= _BLOCK_BYTES + values.nbytes + (1 << 20)

    def test_the_serial_fallback_keeps_one_buffer(self):
        # 64 positions at 100000 terms take the factored sum, a few arrays
        # of about sqrt(N) values per row; the bound is one 16-row block of
        # cosines (12.8 MB) plus the orders and the coefficients
        terms = 100000
        xs = np.random.default_rng(2).uniform(-3.0, 3.0, 64)
        _, peak = traced_peak(grid_function, xs, GratingSpec(cover_ratio=0.37, truncation=terms))
        assert peak <= (16 + 2) * terms * 8 + (1 << 20)

    def test_factored_blocks_fill_every_row(self):
        # 7000 positions at 2000 terms are three row blocks of the factored
        # sum, each 1000-position chunk one; a row's bits do not depend on
        # its block, so a skipped, doubled or moved block shows
        spec = GratingSpec(cover_ratio=0.37, truncation=2000)
        xs = np.random.default_rng(7).uniform(-3.0, 3.0, 7000)
        want = np.concatenate([grid_function(chunk, spec) for chunk in np.split(xs, 7)])
        assert grid_function(xs, spec).tobytes() == want.tobytes()

    def test_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("grid_function started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        xs = np.random.default_rng(3).uniform(-3.0, 3.0, 2500)
        values = grid_function(xs, GratingSpec(cover_ratio=0.37, truncation=2000))
        assert values.shape == (2500,) and np.all(np.isfinite(values))

    @pytest.mark.parametrize("terms", [30, 2000], ids=["one block", "factored"])
    def test_non_finite_positions_give_nan_rows(self, terms):
        xs = np.random.default_rng(4).uniform(-3.0, 3.0, 600)
        bad = [0, 17, 599]
        xs[bad] = [math.nan, math.inf, -math.inf]
        with np.errstate(invalid="ignore"):
            values = grid_function(xs, GratingSpec(cover_ratio=0.37, truncation=terms))
        assert np.all(np.isnan(values[bad]))
        assert np.all(np.isfinite(np.delete(values, bad)))


def traced_peak(function, *args):
    """``(result, peak traced bytes)`` of one call."""
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAmplitudes:
    def test_zeroth_order(self):
        assert AmplitudeTable.build(0.06, 1).r[0] == -0.06
        assert AmplitudeTable.build(0.06, 1).t[0] == pytest.approx(0.94, rel=1e-15)
        assert AmplitudeTable.build(1.0, 1).t[0] == 0.0

    def test_reference_values(self):
        table = AmplitudeTable.build(0.06, 2)
        assert table.r[1] == pytest.approx(R1_006, rel=1e-12)
        assert table.r[2] == pytest.approx(R2_006, rel=1e-12)
        t3 = AmplitudeTable.build(0.5, 3).t[3]
        assert t3 == pytest.approx(T3_05, rel=1e-12)
        assert t3 == pytest.approx(-1.0 / (3.0 * math.pi), rel=1e-14)

    def test_harmonics_are_half_the_coefficient(self):
        table = AmplitudeTable.build(0.31, 7)
        for n in range(1, 8):
            assert table.r[n] == pytest.approx(-brute_coefficient(n, 0.31) / 2.0, rel=1e-14)
            assert table.t[n] == table.r[n]

    @given(cover_ratios, st.integers(min_value=1, max_value=60))
    def test_amplitude_bounds(self, a, n):
        r = AmplitudeTable.build(a, n).r[n]
        assert abs(r) <= a + 1e-12
        assert abs(r) <= 1.0 / (math.pi * n) + 1e-15

    def test_alternating_signs_for_sparse_grating(self):
        # a < 1/N keeps sin(a*pi*n) positive for every tabulated n
        signs = np.sign(AmplitudeTable.build(0.01, 50).r[1:])
        assert np.all(signs[:-1] == -signs[1:])

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sampling_window("0.5", "transmitted"),
            lambda: GratingSpec("0.5"),
            lambda: AmplitudeTable.build("0.5"),
            lambda: GratingSpec(np.array(["0.5"])),
            lambda: GratingSpec(np.array([0.3])),
            lambda: AmplitudeTable.build(np.array([0.3])),
            lambda: AmplitudeTable.build(np.array([[0.3, 0.7]])),
        ],
    )
    def test_rejects_a_ratio_that_is_not_a_real_scalar(self, make):
        with pytest.raises(TypeError):
            make()

    def test_a_0d_ratio_is_stored_as_a_float(self):
        spec = GratingSpec(np.array(0.3))
        assert type(spec.cover_ratio) is float and spec.cover_ratio == 0.3
        assert type(AmplitudeTable.build(np.float32(0.5)).cover_ratio) is float


class TestNormalization:
    @given(cover_ratios)
    def test_exact_power_identity(self, a):
        table = AmplitudeTable.build(a, 1)
        r0, t0 = table.r[0], table.t[0]
        assert abs(r0**2 + t0**2 + 2.0 * (a - a * a) - 1.0) <= 1e-14

    def test_degenerate_gratings_have_zero_defect(self):
        assert normalization_defect(AmplitudeTable.build(0.0, 10)) == 0.0
        assert normalization_defect(AmplitudeTable.build(1.0, 10)) == 0.0

    def test_defect_matches_tail_identity(self):
        defect = normalization_defect(AmplitudeTable.build(0.06, 50))
        assert 0.0 < defect <= 4.0 / (math.pi**2 * 50)
        tail = 2.0 * (0.06 - 0.06**2) - sum(c**2 for c in coefficients(0.06, 50).tolist())
        assert defect == pytest.approx(tail, abs=1e-15)

    @given(cover_ratios, st.integers(min_value=1, max_value=300))
    def test_defect_nonnegative_and_bounded(self, a, n):
        defect = normalization_defect(AmplitudeTable.build(a, n))
        assert defect >= -1e-15
        assert defect <= 4.0 / (math.pi**2 * n) + 1e-15

    @given(cover_ratios)
    def test_parseval_partial_sum_bound(self, a):
        coeffs_sq = sum(c**2 for c in coefficients(a, 200).tolist())
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
    # bool subclasses int, but True is not a truncation order
    with pytest.raises(ValueError):
        GratingSpec(cover_ratio=0.3, truncation=True)
    with pytest.raises(ValueError):
        AmplitudeTable.build(0.3, True)
    with pytest.raises(ValueError):
        run_verification(truncation=True)
