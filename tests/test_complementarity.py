import math

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
from slitgrid.grating import AmplitudeTable, sampling_window

# 30-digit reference evaluations of the closed forms
V_T_006 = 0.0634524733178203
D_T_006 = 0.880042435215337
DUAL_006 = 0.778500904149889
D_T_05 = 0.148678816357662
DUAL_05 = 0.427390125002867
IMAX_T_006 = 0.499822662459376
IMIN_T_006 = 0.440177337540624
V_R_006 = 0.994088748645851
D_R_006 = 4.24352153366112e-5

# regression value located by the 1001-point sweep itself
SWEEP_MIN_DUALITY = 0.30661368084774776
SWEEP_MIN_LOCATION = 0.338

cover_ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)
channels = st.sampled_from(["transmitted", "reflected"])


class TestVisibilityClosed:
    def test_no_grating_sees_no_fringe(self):
        assert visibility_closed(0.0, "transmitted").visibility == 0.0

    def test_half_covered(self):
        assert visibility_closed(0.5).visibility == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_sparse_grating(self):
        result = visibility_closed(0.06)
        assert result.visibility == pytest.approx(V_T_006, rel=1e-12)
        assert result.i_max == pytest.approx(IMAX_T_006, rel=1e-12)
        assert result.i_min == pytest.approx(IMIN_T_006, rel=1e-12)

    def test_singular_endpoints_take_the_limit_exactly(self):
        assert visibility_closed(1.0, "transmitted").visibility == 1.0
        assert visibility_closed(0.0, "reflected").visibility == 1.0

    def test_reflected_sparse_grating(self):
        assert visibility_closed(0.06, "reflected").visibility == pytest.approx(V_R_006, rel=1e-12)

    @given(cover_ratios, channels)
    def test_intensities_ordered_and_nonnegative(self, a, channel):
        result = visibility_closed(a, channel)
        assert result.i_max >= result.i_min >= 0.0
        assert 0.0 <= result.visibility <= 1.0 + 1e-15

    @given(interior, channels)
    def test_visibility_is_the_intensity_contrast(self, a, channel):
        result = visibility_closed(a, channel)
        contrast = (result.i_max - result.i_min) / (result.i_max + result.i_min)
        assert result.visibility == pytest.approx(contrast, rel=1e-10, abs=1e-13)

    def test_near_singular_endpoint_stays_accurate(self):
        eps = 1e-9
        result = visibility_closed(1.0 - eps, "transmitted")
        # second-order expansion of the contrast in the gap width
        assert result.visibility == pytest.approx(1.0 - (math.pi * eps) ** 2 / 6.0, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            visibility_closed(-0.2)
        with pytest.raises(ValueError):
            visibility_closed(0.2, "sideways")


class TestVisibilityQuadrature:
    def test_half_covered_matches_closed_form(self):
        assert visibility_quadrature(0.5).visibility == pytest.approx(
            2.0 / math.pi, abs=1e-10
        )

    def test_full_period_average(self):
        result = visibility_quadrature(0.0, "transmitted")
        assert result.i_max == pytest.approx(0.5, abs=1e-14)
        assert result.i_min == pytest.approx(0.5, abs=1e-14)
        assert result.visibility == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_window_takes_the_limit(self):
        assert visibility_quadrature(1.0, "transmitted").visibility == 1.0
        assert visibility_quadrature(0.0, "reflected").visibility == 1.0

    @pytest.mark.parametrize("channel", ["transmitted", "reflected"])
    def test_oracle_agreement_on_a_grid(self, channel):
        for i in range(21):
            a = i / 20.0
            closed = visibility_closed(a, channel).visibility
            quad = visibility_quadrature(a, channel).visibility
            assert quad == pytest.approx(closed, abs=1e-9)

    def test_sparse_grating_oracle(self):
        assert visibility_quadrature(0.06).visibility == pytest.approx(
            visibility_closed(0.06).visibility, abs=1e-10
        )

    @pytest.mark.parametrize("channel", ["transmitted", "reflected"])
    @pytest.mark.parametrize("a", [0.0, 0.01, 0.25, 0.5, 0.99, 1.0])
    def test_integrals_match_mpmath_within_the_bound(self, a, channel):
        # window widths 1, 0.99, 0.75, 0.5, 0.01 and 0 in each channel
        mpmath = pytest.importorskip("mpmath")
        width, _ = sampling_window(a, channel)
        result = visibility_quadrature(a, channel)
        # the visibility-oracle derivation: each integral over the width is
        # within 2.6e-26 of the exact one (Bernstein) plus 30u of rounding
        bound = width * (2.6e-26 + 30 * 2.0**-53)
        with mpmath.workdps(30):
            half = mpmath.mpf(width) / 2
            for integrand, value in (
                (lambda x: mpmath.cos(mpmath.pi * x) ** 2, result.i_max),
                (lambda x: mpmath.sin(mpmath.pi * x) ** 2, result.i_min),
            ):
                exact = mpmath.quad(integrand, [-half, half])
                assert abs(mpmath.mpf(value) - exact) <= bound


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

    @given(cover_ratios, channels)
    def test_within_unit_interval(self, a, channel):
        d = distinguishability_closed(a, channel)
        assert 0.0 <= d <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            distinguishability_closed(1.2)


class TestChannelMirror:
    @given(cover_ratios)
    def test_visibility_swaps_channels(self, a):
        assert visibility_closed(a, "transmitted").visibility == pytest.approx(
            visibility_closed(1.0 - a, "reflected").visibility, rel=1e-14, abs=1e-15
        )

    @given(cover_ratios)
    def test_distinguishability_swaps_channels(self, a):
        assert distinguishability_closed(a, "transmitted") == pytest.approx(
            distinguishability_closed(1.0 - a, "reflected"), rel=1e-12, abs=1e-15
        )


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
