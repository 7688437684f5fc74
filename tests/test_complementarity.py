import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from slitgrid.complementarity import (
    _cover_grid,
    complementarity_sweep,
    distinguishability_closed,
    distinguishability_from_amplitudes,
    visibility_closed,
    visibility_quadrature,
)
from slitgrid.grating import CHANNELS, AmplitudeTable, normalization_defect, sampling_window
from slitgrid.scattering import _mirrored, single_slit_spectrum, two_slit_spectrum

# 30-digit reference evaluations of the closed forms
V_T_006 = 0.0634524733178203
D_T_006 = 0.880042435215337
DUAL_006 = 0.778500904149889
D_T_05 = 0.148678816357662
DUAL_05 = 0.427390125002867
V_R_006 = 0.994088748645851
D_R_006 = 4.24352153366112e-5

# regression value located by the 1001-point sweep itself
SWEEP_MIN_DUALITY = 0.30661368084774776
SWEEP_MIN_LOCATION = 0.338

cover_ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)
channels = st.sampled_from(["transmitted", "reflected"])

U = 2.0**-53  # unit roundoff

# the quadrature's share of the visibility-oracle budget: each integral
# within 30u of rounding and 2.6e-26 of truncation (Bernstein) per unit
# width moves V by at most 120u + 1.04e-25, and their quotient adds 3u
QUADRATURE_V_BOUND = 123 * U + 1.1e-25

# k/1024: a and 1 - a are both exact, and so is every a*n of the harmonics
DYADIC = np.arange(1025) / 1024

# hand-made amplitudes: signed zeros, subnormals, squares that underflow,
# +-1, NaN, and any float whose square doubled is finite (|u| <= 2**511)
amplitudes = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-154, -1e-154, 1.0, -1.0, math.nan]),
    st.floats(min_value=-1e150, max_value=1e150),
)


def half_sum(u0, u1):
    """The two slit-image detectors' differences, halved: the amplitude route before it became one difference."""
    return 0.5 * (np.abs(u0 * u0 - u1 * u1) + np.abs(u1 * u1 - u0 * u0))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestVisibilityClosed:
    def test_no_grating_sees_no_fringe(self):
        assert visibility_closed(0.0, "transmitted") == 0.0

    def test_half_covered(self):
        assert visibility_closed(0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_sparse_grating(self):
        assert visibility_closed(0.06) == pytest.approx(V_T_006, rel=1e-12)

    def test_singular_endpoints_take_the_limit_exactly(self):
        assert visibility_closed(1.0, "transmitted") == 1.0
        assert visibility_closed(0.0, "reflected") == 1.0

    def test_reflected_sparse_grating(self):
        assert visibility_closed(0.06, "reflected") == pytest.approx(V_R_006, rel=1e-12)

    @given(cover_ratios, channels)
    def test_within_unit_interval(self, a, channel):
        assert 0.0 <= visibility_closed(a, channel) <= 1.0 + 1e-15

    @given(interior, channels)
    def test_visibility_is_the_intensity_contrast(self, a, channel):
        # the window w collects (pi*w +- sin(pi*a))/(2*pi) on the fringe maxima and minima
        width, s = sampling_window(a, channel)[0], math.sin(math.pi * a)
        on_maxima, on_minima = (math.pi * width + s) / (2.0 * math.pi), (math.pi * width - s) / (2.0 * math.pi)
        contrast = (on_maxima - on_minima) / (on_maxima + on_minima)
        assert visibility_closed(a, channel) == pytest.approx(contrast, rel=1e-10, abs=1e-13)

    def test_near_singular_endpoint_stays_accurate(self):
        eps = 1e-9
        result = visibility_closed(1.0 - eps, "transmitted")
        # second-order expansion of the contrast in the gap width
        assert result == pytest.approx(1.0 - (math.pi * eps) ** 2 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_within_three_ulps_of_the_exact_quotient(self, channel):
        # seeded ratios, the decades next to both endpoints and the ends of
        # the 100001-point CLI grid: sin of the rounded gap 1 - a, not of a,
        # put V_t there some 1e14 ulps off
        decades = 10.0 ** -np.arange(1, 17)
        grid = np.arange(100001) / 100000
        ratios = np.concatenate(
            (np.random.default_rng(21).random(200), decades, 1.0 - decades, grid[[0, 1, 2, -3, -2, -1]])
        )
        got = visibility_closed(ratios, channel)
        for a, v in zip(ratios.tolist(), got.tolist()):
            exact = oracle.visibility(a, channel)
            assert float(abs(v - exact)) <= 3.0 * math.ulp(float(exact)), (a, v)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            visibility_closed(-0.2)
        with pytest.raises(ValueError):
            visibility_closed(0.2, "sideways")


class TestVisibilityQuadrature:
    def test_half_covered_matches_closed_form(self):
        assert visibility_quadrature(0.5) == pytest.approx(
            2.0 / math.pi, abs=1e-10
        )

    def test_full_period_average(self):
        # the whole period collects as much on the minima as on the maxima
        assert visibility_quadrature(0.0, "transmitted") == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_window_takes_the_limit(self):
        assert visibility_quadrature(1.0, "transmitted") == 1.0
        assert visibility_quadrature(0.0, "reflected") == 1.0
        # a non-zero window whose half rounds to zero: both integrals vanish
        assert visibility_quadrature(5e-324, "reflected") == 1.0
        assert visibility_closed(5e-324, "reflected") == 1.0

    @pytest.mark.parametrize("channel", ["transmitted", "reflected"])
    def test_oracle_agreement_on_a_grid(self, channel):
        for i in range(21):
            a = i / 20.0
            closed = visibility_closed(a, channel)
            quad = visibility_quadrature(a, channel)
            assert quad == pytest.approx(closed, abs=1e-9)

    def test_sparse_grating_oracle(self):
        assert visibility_quadrature(0.06) == pytest.approx(
            visibility_closed(0.06), abs=1e-10
        )

    @pytest.mark.parametrize("channel", ["transmitted", "reflected"])
    @pytest.mark.parametrize("a", [0.0, 0.01, 0.25, 0.5, 0.99, 1.0])
    def test_integrals_match_mpmath_within_the_bound(self, a, channel):
        # window widths 1, 0.99, 0.75, 0.5, 0.01 and 0 in each channel
        mpmath = pytest.importorskip("mpmath")
        width, _ = sampling_window(a, channel)
        got = visibility_quadrature(a, channel)
        with mpmath.workdps(30):
            half = mpmath.mpf(width) / 2
            on_maxima = mpmath.quad(lambda x: mpmath.cos(mpmath.pi * x) ** 2, [-half, half])
            on_minima = mpmath.quad(lambda x: mpmath.sin(mpmath.pi * x) ** 2, [-half, half])
            exact = 1 if width == 0.0 else (on_maxima - on_minima) / (on_maxima + on_minima)
            assert abs(mpmath.mpf(got) - exact) <= QUADRATURE_V_BOUND

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_within_its_bound_of_the_exact_window_contrast(self, channel):
        # the verify sweep's 1001 ratios: sin(pi*w)/(pi*w) of the float
        # width w that the rule integrates over
        mpmath = pytest.importorskip("mpmath")
        widths, _ = sampling_window(np.arange(1001) / 1000, channel)
        got = visibility_quadrature(np.arange(1001) / 1000, channel)
        with mpmath.workdps(30):
            for w, v in zip(widths.tolist(), got.tolist()):
                exact = 1 if w == 0.0 else mpmath.sinpi(w) / (mpmath.pi * w)
                assert abs(mpmath.mpf(v) - exact) <= QUADRATURE_V_BOUND, w


class TestDistinguishability:
    def test_perfect_paths_without_grating(self):
        assert distinguishability_closed(0.0) == 1.0
        assert distinguishability_from_amplitudes(AmplitudeTable.build(0.0, 1)) == 1.0

    def test_mirror_leaves_no_transmitted_information(self):
        assert distinguishability_closed(1.0) == 0.0

    def test_half_covered(self):
        assert distinguishability_closed(0.5) == pytest.approx(D_T_05, rel=1e-12)
        assert distinguishability_closed(0.5) == pytest.approx(0.25 - 1.0 / math.pi**2, rel=1e-13)

    def test_sparse_grating(self):
        assert distinguishability_closed(0.06) == pytest.approx(D_T_006, rel=1e-12)

    def test_reflected_half_covered_matches_transmitted(self):
        assert distinguishability_closed(0.5, "reflected") == pytest.approx(D_T_05, rel=1e-12)

    def test_reflected_sparse_grating(self):
        assert distinguishability_closed(0.06, "reflected") == pytest.approx(D_R_006, rel=1e-10)

    @given(cover_ratios, channels, st.integers(min_value=1, max_value=50))
    def test_amplitude_route_equals_closed_form(self, a, channel, truncation):
        closed = distinguishability_closed(a, channel)
        amps = distinguishability_from_amplitudes(AmplitudeTable.build(a, truncation), channel)
        assert abs(closed - amps) <= 1e-14

    def test_amplitude_route_reads_the_table_it_is_given(self):
        table = AmplitudeTable.build(0.06, 1)
        t = table.t.copy()
        t[1] += 1e-3
        biased = AmplitudeTable(table.cover_ratio, table.r, t)
        assert distinguishability_from_amplitudes(biased, "reflected") == (
            distinguishability_from_amplitudes(table, "reflected")
        )
        shift = distinguishability_from_amplitudes(table) - distinguishability_from_amplitudes(biased)
        assert shift == pytest.approx(2.0 * table.t[1] * 1e-3 + 1e-6, rel=1e-9)

    @given(amplitudes, amplitudes, channels)
    def test_amplitude_route_has_the_bits_of_the_two_detector_half_sum(self, u0, u1, channel):
        table = AmplitudeTable(0.5, np.array([u0, u1]), np.array([u0, u1]))
        got = distinguishability_from_amplitudes(table, channel)
        assert type(got) is float
        assert bits(got) == bits(half_sum(np.float64(u0), np.float64(u1)))

    @pytest.mark.parametrize("truncation", [1, 2, 2000])
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_amplitude_route_has_the_bits_of_the_half_sum_row_by_row(self, truncation, channel):
        grid = np.concatenate((_cover_grid(101), [1e-300, 1e-154, 0.5 + 2.0**-53, 1.0 - 2.0**-53]))
        stack = AmplitudeTable.build(grid, truncation)
        amps = stack.amplitudes(channel)
        want = half_sum(amps[:, 0], amps[:, 1])
        assert np.array_equal(bits(distinguishability_from_amplitudes(stack, channel)), bits(want))
        for a, row in zip(grid.tolist(), want):
            assert bits(distinguishability_from_amplitudes(AmplitudeTable.build(a, truncation), channel)) == bits(row)

    def test_amplitude_route_stays_finite_where_the_half_sum_overflowed(self):
        u0 = 1.3e154  # u0**2 is finite, twice it is not; a built table has |u| <= 1
        table = AmplitudeTable(0.5, np.array([u0, 0.0]), np.array([u0, 0.0]))
        assert distinguishability_from_amplitudes(table) == u0 * u0
        with np.errstate(over="ignore"):
            assert half_sum(np.float64(u0), np.float64(0.0)) == math.inf

    @given(cover_ratios, channels)
    def test_within_unit_interval(self, a, channel):
        d = distinguishability_closed(a, channel)
        assert 0.0 <= d <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            distinguishability_closed(1.2)


def swap_bound(lower, upper, phi):
    """How far a swapped two-slit bin may lie from the bin of ``(lower, upper)`` at phase ``phi``.

    The swap negates one of the two amplitudes (up to a sign common to
    both) and moves the phase to ``phi + pi``.  So ``lower**2``,
    ``upper**2`` and their rounded sum ``A`` keep their bits, and the
    rounded product ``B = lower*upper`` changes only its sign.  In
    ``2P = A + 2cB``, with ``c`` the cosine of the stored phase, only ``c``
    differs.  ``2P`` moves by at most ``2|B| |c + c'|``, plus
    ``u |2cB| <= u A`` for each rounding of ``2cB`` and
    ``u |A + 2cB| <= 2u A`` for each outer sum (``2|B| <= A``), so ``P``
    moves by at most ``A (|c + c'|/2 + 3u)``.  The stored ``phi + pi`` is
    off by half an ulp of the sum and by ``|pi - fl(pi)| < 1.2u``; its
    reduction mod ``fl(2 pi)`` is exact.  Each ``cos`` adds one ulp, at
    most 2u.  So
    ``|c + c'| <= ulp(phi + pi)/2 + 5.2u``, and ``P`` moves by at most
    ``A (ulp(phi + pi)/4 + 5.6u)``.  The bound takes 7u to cover the
    second-order terms.
    """
    return (lower**2 + upper**2) * (math.ulp(phi + math.pi) / 4.0 + 7.0 * U)


@pytest.mark.parametrize("channel", CHANNELS)
def test_a_list_of_ratios_gives_the_bits_of_the_array(channel):
    # the list is widened to float64 once, then read as the array is
    ratios = np.random.default_rng(9).random(1000)
    from_list, from_array = visibility_closed(ratios.tolist(), channel), visibility_closed(ratios, channel)
    assert from_list.tobytes() == from_array.tobytes()
    d_list, d_array = distinguishability_closed(ratios.tolist(), channel), distinguishability_closed(ratios, channel)
    assert d_list.tobytes() == d_array.tobytes()


class TestChannelMirror:
    """Babinet: strip and gap swap roles, so the reflected channel at ``a`` is the transmitted one at ``1 - a``.

    No oracle is needed.  On the dyadic grid the swap is exact in every
    rounding, so V, D and V**2 + D**2, the single-slit spectra and the
    normalization defect keep their bits, the sign of every zero included
    (``sin_pi`` returns +0.0 at every integer).  The two-slit spectra swap
    with the phase moved by pi, within a bound derived in
    :func:`swap_bound`.
    """

    @given(cover_ratios)
    def test_visibility_swaps_channels(self, a):
        assert visibility_closed(a, "transmitted") == pytest.approx(
            visibility_closed(1.0 - a, "reflected"), rel=1e-14, abs=1e-15
        )

    @given(cover_ratios)
    def test_distinguishability_swaps_channels(self, a):
        assert distinguishability_closed(a, "transmitted") == pytest.approx(
            distinguishability_closed(1.0 - a, "reflected"), rel=1e-12, abs=1e-15
        )

    def test_closed_forms_swap_exactly_on_the_dyadic_grid(self):
        reflected = complementarity_sweep(DYADIC, "reflected")
        transmitted = complementarity_sweep(1.0 - DYADIC, "transmitted")
        for column in ("visibility", "distinguishability", "duality"):
            assert getattr(reflected, column).tobytes() == getattr(transmitted, column).tobytes()

    @pytest.mark.parametrize("truncation", [1, 30, 200])
    def test_spectra_swap_on_the_dyadic_grid(self, truncation):
        phases = [0.0, *np.random.default_rng(truncation).uniform(0.0, 2.0 * math.pi, 3).tolist()]
        for a in DYADIC.tolist():
            table, swapped = AmplitudeTable.build(a, truncation), AmplitudeTable.build(1.0 - a, truncation)
            assert normalization_defect(table).hex() == normalization_defect(swapped).hex()
            reflected = single_slit_spectrum(table, "reflected").probabilities
            assert reflected.tobytes() == single_slit_spectrum(swapped, "transmitted").probabilities.tobytes()
            full = _mirrored(table.r)
            for phi in phases:
                reflected = two_slit_spectrum(table, "reflected", phi)
                transmitted = two_slit_spectrum(swapped, "transmitted", phi + math.pi)
                gap = np.abs(reflected.probabilities - transmitted.probabilities)
                assert np.all(gap <= swap_bound(full[:-1], full[1:], phi)), (a, phi)


class TestComplementaritySweep:
    def test_record_values(self):
        columns = complementarity_sweep([0.0, 0.06, 0.5, 1.0], "transmitted")
        assert len(columns) == 4
        assert columns.cover_ratio.tolist() == [0.0, 0.06, 0.5, 1.0]
        assert columns.duality[0] == 1.0
        assert columns.duality[3] == 1.0
        assert columns.duality[1] == pytest.approx(DUAL_006, rel=1e-12)
        assert columns.duality[2] == pytest.approx(DUAL_05, rel=1e-12)

    def test_thousand_point_sweep_obeys_the_bound(self):
        grid = [i / 1000.0 for i in range(1001)]
        columns = complementarity_sweep(grid, "transmitted")
        dualities = columns.duality.tolist()
        assert max(dualities) <= 1.0 + 1e-12
        assert dualities[0] == 1.0 and dualities[-1] == 1.0
        lowest = min(dualities[1:-1])
        assert lowest < 0.5
        assert lowest == pytest.approx(SWEEP_MIN_DUALITY, abs=1e-12)
        assert columns.cover_ratio[dualities.index(lowest)] == SWEEP_MIN_LOCATION

    def test_reflected_sweep_obeys_the_bound_too(self):
        grid = [i / 200.0 for i in range(201)]
        columns = complementarity_sweep(grid, "reflected")
        assert max(columns.duality) <= 1.0 + 1e-12
        assert columns.duality[0] == 1.0 and columns.duality[-1] == 1.0

    def test_rejects_invalid_entries(self):
        with pytest.raises(ValueError):
            complementarity_sweep([0.2, 1.3])
        with pytest.raises(ValueError, match="channel must be one of"):
            complementarity_sweep([], "sideways")
        with pytest.raises(ValueError, match="one-dimensional"):
            complementarity_sweep(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "bad",
        [["0.5"], [b"0.5"], [0.5, "0.5"], np.array(["0.5"], dtype=object), np.array([0.5 + 0j])],
    )
    def test_rejects_ratios_that_are_not_real_numbers(self, bad):
        # as a scalar "0.5" is rejected by every entry point
        with pytest.raises(TypeError):
            complementarity_sweep(bad)
        with pytest.raises(TypeError):
            sampling_window(np.asarray(bad), "transmitted")

    def test_the_ratio_column_does_not_alias_the_input(self):
        a = np.array([0.1, 0.5])
        columns = complementarity_sweep(a)
        a[0] = 0.9
        assert columns.cover_ratio.tolist() == [0.1, 0.5]
