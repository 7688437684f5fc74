import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slitgrid.geometry import ParaxialWarning, SetupGeometry
from slitgrid.grating import (
    CHANNELS,
    AmplitudeTable,
    GratingSpec,
    grid_function,
    sampling_window,
    sin_pi,
)
from slitgrid.scattering import (
    _check_phase,
    _plane_waves,
    OrderSpectrum,
    TwoSlitConfig,
    interference_intensity,
    single_slit_spectrum,
    synthesize_field,
    two_slit_power_limit,
    two_slit_spectrum,
)
from slitgrid.verify import PARSEVAL_COVER_RATIOS

# 30-digit reference evaluations of the defining formulas
P_SS_R1_006 = 0.00355756478466339
P_TWO_T_HALF_006 = 0.499645387815958
P_TWO_R_HALF_006 = 6.28972066294633e-8
INV_PI_SQ = 0.101321183642338

cover_ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestInterferenceIntensity:
    def test_central_maximum_exact(self):
        assert interference_intensity(0.0) == 1.0

    def test_strip_center_minimum_exact(self):
        # strips sit on the fringe minima at zero relative phase
        assert interference_intensity(0.5) == 0.0

    def test_quarter_period(self):
        assert interference_intensity(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_extrema_are_exact_in_the_stated_range(self):
        # the docstring's range: integers |x| < 2.1e7 give 1.0, half-integers
        # |x| < 1.26e7 give 0.0; both ends and a seeded draw in between
        rng = np.random.default_rng(5)
        whole = np.concatenate(([0, 21_000_000], rng.integers(0, 21_000_000, 20000))).astype(float)
        half = np.concatenate(([0, 12_599_999], rng.integers(0, 12_600_000, 20000))) + 0.5
        assert np.all(interference_intensity(np.concatenate((whole, -whole))) == 1.0)
        assert np.all(interference_intensity(np.concatenate((half, -half))) == 0.0)

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), phases)
    def test_bounded_and_periodic(self, x, dphi):
        value = interference_intensity(x, dphi)
        assert 0.0 <= value <= 1.0
        assert interference_intensity(x + 1.0, dphi) == pytest.approx(value, abs=1e-9)

    def test_matches_direct_cosine_square(self):
        for x in (0.1, 0.37, 2.3):
            direct = math.cos(math.pi * x + 0.4) ** 2
            assert interference_intensity(x, 0.4) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phase_like_the_two_slit_config(self, bad):
        # every function that takes a phase, not only the configuration class
        with pytest.raises(ValueError) as config:
            TwoSlitConfig(GratingSpec(0.3), bad)
        table = AmplitudeTable.build(0.3, 5)
        for call in (
            lambda: interference_intensity(np.zeros(3), bad),
            lambda: two_slit_power_limit(0.3, "transmitted", bad),
            lambda: two_slit_spectrum(table, "transmitted", bad),
        ):
            with pytest.raises(ValueError, match="delta_phi must be finite") as error:
                call()
            assert str(error.value) == str(config.value)


class TestSingleSlitSpectrum:
    def test_reflected_zeroth_order(self):
        spectrum = single_slit_spectrum(AmplitudeTable.build(0.06, 30), "reflected")
        assert spectrum.probability(0) == 0.06 * 0.06

    @pytest.mark.parametrize("bias", [0.0, 1e-3], ids=["built", "r1 biased"])
    def test_reflected_first_order(self, bias):
        # a hand-made table, as verify's --perturb makes, reaches the spectrum
        built = AmplitudeTable.build(0.06, 30)
        r = built.r.copy()
        r[1] += bias
        table = AmplitudeTable(built.cover_ratio, r, built.t)
        spectrum = single_slit_spectrum(table, "reflected")
        assert spectrum.probability(1) == spectrum.probability(-1) == r[1] ** 2
        assert spectrum.probability(1) == pytest.approx((math.sqrt(P_SS_R1_006) + bias) ** 2, rel=1e-12)
        assert single_slit_spectrum(table, "transmitted").probability(1) == built.t[1] ** 2

    def test_no_grating_transmits_straight_through(self):
        spectrum = single_slit_spectrum(AmplitudeTable.build(0.0, 10), "transmitted")
        assert spectrum.probability(0) == 1.0
        assert spectrum.total() == 1.0

    def test_orders_span_symmetric_range(self):
        spectrum = single_slit_spectrum(AmplitudeTable.build(0.2, 5), "transmitted")
        assert list(spectrum.orders) == [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5]
        np.testing.assert_array_equal(spectrum.probabilities, spectrum.probabilities[::-1])

    @pytest.mark.parametrize("a", [0.06, 0.5])
    @pytest.mark.parametrize("channel", ["transmitted", "reflected"])
    def test_totals_tend_to_geometric_split(self, a, channel):
        spectrum = single_slit_spectrum(AmplitudeTable.build(a, 2000), channel)
        limit, _ = sampling_window(a, channel)
        assert spectrum.total() == pytest.approx(limit, abs=2.0 / (math.pi**2 * 2000))


class TestTwoSlitConfig:
    @pytest.mark.parametrize("spec", [0.3, None, AmplitudeTable.build(0.3, 5)], ids=["float", "None", "table"])
    def test_a_spec_that_is_not_a_grating_spec_is_a_type_error(self, spec):
        with pytest.raises(TypeError, match="^spec must be a GratingSpec, got "):
            TwoSlitConfig(spec)


class TestOrderSpectrum:
    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_rejects_negative_and_nan_probabilities(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            OrderSpectrum("transmitted", np.array([0.0, 1.0]), np.array([0.5, bad]))

    @pytest.mark.parametrize(
        "spectrum, order",
        [(single_slit_spectrum, 0.5), (single_slit_spectrum, 6.0), (two_slit_spectrum, 0.0), (two_slit_spectrum, 5.5)],
        ids=["single half order", "single beyond N", "two whole order", "two beyond N"],
    )
    def test_an_order_that_is_not_tabulated_is_a_key_error(self, spectrum, order):
        with pytest.raises(KeyError, match="not present in spectrum"):
            spectrum(AmplitudeTable.build(0.3, 5), "transmitted").probability(order)

    @pytest.mark.parametrize("kind", [int, np.int64, np.float32, np.array], ids=["int", "int64", "float32", "0-d"])
    def test_an_order_of_another_real_type_reads_the_bin_of_its_float(self, kind):
        spectrum = single_slit_spectrum(AmplitudeTable.build(0.3, 5), "transmitted")
        assert spectrum.probability(kind(1)) == spectrum.probability(1.0) == spectrum.probabilities[6]

    @pytest.mark.parametrize(
        "order, message",
        [(np.array([0.5]), r"one number, got an array of shape \(1,\)"), ([0.5, 1.5], "one number"), ("0.5", "real")],
        ids=["1-d", "list", "str"],
    )
    def test_an_order_that_is_not_one_real_number_is_a_type_error(self, order, message):
        spectrum = two_slit_spectrum(AmplitudeTable.build(0.3, 5), "transmitted")
        with pytest.raises(TypeError, match=f"^order must be {message}"):
            spectrum.probability(order)


class TestSlitImageOrders:
    # the orders that image the slits: m = +-1/2 with both slits open, and
    # n = 0 with one (its first order is what the other slit's image reads)
    @pytest.mark.parametrize("a, channel", [(0.0, "transmitted"), (1.0, "reflected")])
    def test_the_open_channel_images_each_slit_whole(self, a, channel):
        table = AmplitudeTable.build(a, 10)
        two = two_slit_spectrum(table, channel)
        assert (two.probability(-0.5), two.probability(0.5), two.total()) == (0.5, 0.5, 1.0)
        single = single_slit_spectrum(table, channel)
        assert (single.probability(0), single.probability(1), single.total()) == (1.0, 0.0, 1.0)

    @pytest.mark.parametrize("a, channel", [(1.0, "transmitted"), (0.0, "reflected")])
    def test_the_closed_channel_carries_nothing(self, a, channel):
        table = AmplitudeTable.build(a, 10)
        for spectrum in (single_slit_spectrum(table, channel), two_slit_spectrum(table, channel, 0.7)):
            assert not np.any(spectrum.probabilities)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_a_half_covered_grating_splits_one_slit_alike_in_both_channels(self, channel):
        # each channel sees half of every period: |u_0| = 1/2 and |u_1| = 1/pi
        spectrum = single_slit_spectrum(AmplitudeTable.build(0.5, 30), channel)
        assert spectrum.probability(0) == 0.25
        assert spectrum.probability(1) == spectrum.probability(-1) == pytest.approx(INV_PI_SQ, rel=1e-12)

    def test_a_sparse_grating_passes_one_slit_nearly_whole(self):
        spectrum = single_slit_spectrum(AmplitudeTable.build(0.06, 30), "transmitted")
        assert spectrum.probability(0) == pytest.approx(0.8836, rel=1e-12)
        assert spectrum.probability(1) == pytest.approx(P_SS_R1_006, rel=1e-12)


class TestTwoSlitSpectrum:
    def test_transmitted_half_order(self):
        spectrum = two_slit_spectrum(AmplitudeTable.build(0.06, 30), "transmitted")
        assert spectrum.probability(0.5) == pytest.approx(P_TWO_T_HALF_006, rel=1e-12)

    def test_reflected_half_order_is_strongly_suppressed(self):
        spectrum = two_slit_spectrum(AmplitudeTable.build(0.06, 30), "reflected")
        assert spectrum.probability(0.5) == pytest.approx(P_TWO_R_HALF_006, rel=1e-10)
        single = single_slit_spectrum(AmplitudeTable.build(0.06, 30), "reflected")
        assert single.probability(1) / spectrum.probability(0.5) > 5e4

    def test_half_odd_integer_orders(self):
        spectrum = two_slit_spectrum(AmplitudeTable.build(0.3, 4), "transmitted")
        assert list(spectrum.orders) == [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]

    @pytest.mark.parametrize("spectrum", [single_slit_spectrum, two_slit_spectrum])
    @pytest.mark.parametrize(
        "amps, error, message",
        [
            (np.array([0.5 + 1j, 0.2]), TypeError, "must be real, got "),
            (np.zeros((3, 2)), ValueError, "must be one-dimensional"),
        ],
        ids=["complex", "2-d"],
    )
    def test_a_table_that_is_not_real_or_not_one_dimensional_is_refused(self, spectrum, amps, error, message):
        # a hand-made table is checked where its bins become an OrderSpectrum
        with pytest.raises(error, match=f"^probabilities {message}"):
            spectrum(AmplitudeTable(0.3, amps, amps), "transmitted")

    @given(cover_ratios, phases)
    def test_symmetric_under_order_reversal(self, a, dphi):
        table = AmplitudeTable.build(a, 12)
        for channel in ("transmitted", "reflected"):
            probs = two_slit_spectrum(table, channel, dphi).probabilities
            np.testing.assert_array_equal(probs, probs[::-1])

    def test_zero_phase_reduces_to_adjacent_sum(self):
        a, N = 0.17, 9
        table = AmplitudeTable.build(a, N)
        spectrum = two_slit_spectrum(table, "transmitted")
        t = table.t
        for n in range(-N, N):
            expected = (t[abs(n)] + t[abs(n + 1)]) ** 2 / 2.0
            assert spectrum.probability(n + 0.5) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("dphi", [0.9, -2.5, 7.0])
    @pytest.mark.parametrize("bias", [0.0, 1e-3], ids=["built", "r1 biased"])
    def test_bins_follow_the_bin_formula(self, dphi, bias):
        # a hand-made table, as verify's --perturb makes, moves exactly the
        # reflected bins that read r_1: m = +-1/2 and +-3/2
        a, N = 0.17, 9
        built = AmplitudeTable.build(a, N)
        r = built.r.copy()
        r[1] += bias
        table = AmplitudeTable(built.cover_ratio, r, built.t)
        cos_phi = math.cos(dphi)
        for channel, u in (("transmitted", table.t), ("reflected", table.r)):
            spectrum = two_slit_spectrum(table, channel, dphi)
            for n in range(-N, N):
                lower, upper = u[abs(n)], u[abs(n + 1)]
                expected = (lower * lower + upper * upper + 2.0 * cos_phi * lower * upper) / 2.0
                assert spectrum.probability(n + 0.5) == pytest.approx(expected, rel=1e-13, abs=1e-17)
        biased, clean = (two_slit_spectrum(t, "reflected", dphi) for t in (table, built))
        moved = clean.orders[biased.probabilities != clean.probabilities]
        assert moved.tolist() == ([-1.5, -0.5, 0.5, 1.5] if bias else [])

    def test_phase_wraps_around(self):
        spec = GratingSpec(0.2, truncation=8)
        assert TwoSlitConfig(spec, -math.pi).delta_phi == pytest.approx(math.pi)
        assert TwoSlitConfig(spec, 2.0 * math.pi).delta_phi == 0.0
        table = AmplitudeTable.build(0.2, 8)
        base = two_slit_spectrum(table, "transmitted", 0.7).probabilities
        wrapped = two_slit_spectrum(table, "transmitted", 0.7 + 2.0 * math.pi).probabilities
        np.testing.assert_allclose(wrapped, base, rtol=0.0, atol=1e-15)
        # the phase is reduced to [0, 2*pi) first, as TwoSlitConfig reduces it
        for dphi in (-2.5, 7.0, 2.0 * math.pi):
            reduced = TwoSlitConfig(spec, dphi).delta_phi
            got = two_slit_spectrum(table, "transmitted", dphi).probabilities
            assert got.tobytes() == two_slit_spectrum(table, "transmitted", reduced).probabilities.tobytes()

    @pytest.mark.parametrize("dphi", [-5e-324, -1e-300, -1e-17, -math.ulp(math.tau) / 4.0])
    def test_a_tiny_negative_phase_reduces_to_zero(self, dphi):
        # below half an ulp of tau, dphi % tau rounds up to tau itself, outside [0, 2*pi)
        assert _check_phase(dphi) == 0.0
        assert TwoSlitConfig(GratingSpec(0.3), dphi).delta_phi == 0.0

    def test_a_negative_phase_of_one_ulp_stays_below_two_pi(self):
        # tau - ulp(tau) is a float, so only the phases that round up move
        assert _check_phase(-math.ulp(math.tau)) == math.tau - math.ulp(math.tau)

    @given(st.floats(allow_nan=False, allow_infinity=False) | st.floats(min_value=-1e-15, max_value=0.0))
    @example(-5e-324)
    @example(-math.ulp(math.tau) / 4.0)
    def test_the_reduced_phase_lies_in_zero_to_two_pi(self, dphi):
        assert 0.0 <= _check_phase(dphi) < math.tau

    @pytest.mark.parametrize("a", [0.06, 0.25, 0.5, 0.75])
    def test_totals_match_closed_limits(self, a):
        table = AmplitudeTable.build(a, 2000)
        total_t = two_slit_spectrum(table, "transmitted").total()
        total_r = two_slit_spectrum(table, "reflected").total()
        assert total_t == pytest.approx(two_slit_power_limit(a, "transmitted"), abs=2.1e-4)
        assert total_r == pytest.approx(two_slit_power_limit(a, "reflected"), abs=2.1e-4)
        assert total_t + total_r == pytest.approx(1.0, abs=2.1e-4)

    def test_opposite_phase_moves_power_onto_the_strips(self):
        # per half-order the gain only holds while adjacent amplitudes
        # alternate in sign, i.e. for sparse gratings (a < 1/N)
        table = AmplitudeTable.build(0.02, 30)
        quiet = two_slit_spectrum(table, "reflected", 0.0).probabilities
        lit = two_slit_spectrum(table, "reflected", math.pi).probabilities
        assert np.all(lit >= quiet - 1e-18)

    @given(cover_ratios)
    def test_reflected_total_peaks_at_opposite_phase(self, a):
        table = AmplitudeTable.build(a, 50)
        quiet = two_slit_spectrum(table, "reflected", 0.0).total()
        lit = two_slit_spectrum(table, "reflected", math.pi).total()
        assert lit >= quiet - 1e-12

    def test_transmitted_total_at_opposite_phase_hits_the_minimum_limit(self):
        a = 0.3
        total = two_slit_spectrum(AmplitudeTable.build(a, 2000), "transmitted", math.pi).total()
        limit = 1.0 - a - sin_pi(a) / math.pi  # twice the minimum-case fringe integral
        assert total == pytest.approx(limit, abs=2.1e-4)
        assert limit == pytest.approx(two_slit_power_limit(a, "transmitted", math.pi), rel=1e-12)


class TestPowerLimits:
    @pytest.mark.parametrize("a", PARSEVAL_COVER_RATIOS)
    def test_the_parseval_tail_bound_holds_at_every_order(self, a):
        # verify's parseval-two-slit tolerance without its rounding term, at
        # zero phase for every N in 1..2000 and at three more phases for a
        # few; the limits add to one, so the channel sum is within twice it
        for n in range(1, 2001):
            table = AmplitudeTable.build(a, n)
            bound = 2.0 * (2 * n + 1) / (math.pi**2 * n**2)
            for phase in (0.0, math.pi / 2.0, 1.2345, math.pi) if n in (1, 2, 7, 245, 2000) else (0.0,):
                totals = [two_slit_spectrum(table, channel, phase).total() for channel in CHANNELS]
                for channel, total in zip(CHANNELS, totals):
                    assert abs(total - two_slit_power_limit(a, channel, phase)) <= bound
                assert abs(sum(totals) - 1.0) <= 2.0 * bound

    @given(cover_ratios, phases)
    def test_channels_always_share_unit_power(self, a, dphi):
        total = two_slit_power_limit(a, "transmitted", dphi) + two_slit_power_limit(
            a, "reflected", dphi
        )
        assert total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_an_array_equals_the_scalar_calls_bit_for_bit(self, channel):
        ratios = [0.0, 0.06, 0.3, 0.5, 1.0, *np.random.default_rng(2).random(64).tolist()]
        got = two_slit_power_limit(np.array(ratios), channel, 0.7)
        assert got.tobytes() == np.array([two_slit_power_limit(a, channel, 0.7) for a in ratios]).tobytes()
        assert two_slit_power_limit(ratios, channel, 0.7).tobytes() == got.tobytes()  # a list is that array


class TestFieldSynthesis:
    setup = SetupGeometry(k=1.0, s=0.001, g=1.0)  # 500 propagating orders

    def test_no_grating_free_propagation(self):
        spec = GratingSpec(0.0, truncation=20)
        for x, z in ((0.0, 0.0), (0.3, 1.7), (-2.0, 10.0)):
            value = synthesize_field(x, z, spec, "transmitted", self.setup)
            assert value == pytest.approx(cmath.exp(1j * self.setup.k * z), abs=1e-12)
            assert synthesize_field(x, z, spec, "reflected", self.setup) == 0.0

    def test_mirror_transmits_no_field(self):
        spec = GratingSpec(1.0, truncation=20)
        assert synthesize_field(0.2, 0.5, spec, "transmitted", self.setup) == 0.0

    def test_transmitted_field_at_grating_plane_matches_profile(self):
        spec = GratingSpec(0.06, period=math.pi / 0.001, truncation=50)
        period = math.pi / 0.001  # from the geometry: pi / k_perp
        for u in (0.0, 0.1, 0.25, 0.5, 0.8):
            value = synthesize_field(u * period, 0.0, spec, "transmitted", self.setup)
            assert value.imag == pytest.approx(0.0, abs=1e-12)
            expected = 1.0 - grid_function(u, GratingSpec(0.06, period=1.0, truncation=50))
            assert abs(value) == pytest.approx(abs(expected), abs=1e-10)

    def test_reflected_field_at_grating_plane_is_minus_profile(self):
        spec = GratingSpec(0.06, truncation=50)
        period = math.pi / 0.001
        value = synthesize_field(0.5 * period, 0.0, spec, "reflected", self.setup)
        expected = -grid_function(0.5, GratingSpec(0.06, period=1.0, truncation=50))
        assert value.real == pytest.approx(expected, abs=1e-10)

    def test_two_slit_field_factorizes_at_grating_plane(self):
        n_terms = 40
        spec = GratingSpec(0.06, truncation=n_terms)
        config = TwoSlitConfig(spec, delta_phi=0.9)
        period = math.pi / 0.001
        k_perp = 0.001
        edge = abs(AmplitudeTable.build(0.06, n_terms).t[n_terms])
        for u in (0.0, 0.13, 0.5, 1.2):
            x = u * period
            value = synthesize_field(x, 0.0, config, "transmitted", self.setup)
            incident = (
                cmath.exp(1j * k_perp * x) + cmath.exp(1j * 0.9) * cmath.exp(-1j * k_perp * x)
            ) / math.sqrt(2.0)
            profile = 1.0 - grid_function(u, GratingSpec(0.06, period=1.0, truncation=n_terms))
            assert abs(value - profile * incident) <= math.sqrt(2.0) * edge + 1e-12

    def test_evanescent_orders_are_dropped(self):
        tight = SetupGeometry(k=1.0, s=0.05, g=1.0)  # orders above 9 are evanescent
        wide_table = synthesize_field(0.3, 2.0, GratingSpec(0.3, truncation=30), "transmitted", tight)
        cut_table = synthesize_field(0.3, 2.0, GratingSpec(0.3, truncation=9), "transmitted", tight)
        assert wide_table == cut_table

    @pytest.mark.filterwarnings("ignore::slitgrid.geometry.ParaxialWarning")
    @pytest.mark.parametrize("side", ["transmitted", "reflected"])
    @pytest.mark.parametrize("delta_phi", [0.0, 0.9])
    def test_two_slit_bin_on_the_cutoff_is_dropped(self, side, delta_phi):
        # k_perp = 0.2, so the bins n = 2 and n = -3 have |k_x| = 5 * 0.2 == k exactly
        edge = SetupGeometry(k=1.0, s=0.2, g=1.0)

        def field(truncation):
            config = TwoSlitConfig(GratingSpec(0.3, truncation=truncation), delta_phi=delta_phi)
            return synthesize_field(0.7, 1.3, config, side, edge)

        assert field(3) == field(2)
        assert field(30) == field(2)

    @pytest.mark.parametrize("side", ["transmitted", "reflected"])
    def test_single_slit_field_is_even_in_x(self, side):
        spec = GratingSpec(0.3, truncation=50)
        period = math.pi / 0.001
        for u, z in ((0.13, 0.0), (0.5, 2.0), (1.2, -3.7)):
            plus = synthesize_field(u * period, z, spec, side, self.setup)
            minus = synthesize_field(-u * period, z, spec, side, self.setup)
            assert abs(plus - minus) <= 1e-12

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            synthesize_field(0.0, 0.0, GratingSpec(0.1), "both", self.setup)


class TestFieldSynthesisPerCall:
    """The memoised decomposition leaves warnings and validation to each call."""

    wide = SetupGeometry(k=1.0, s=0.3, g=1.0)  # s/g above the paraxial bound
    spec = GratingSpec(0.3, truncation=10)

    def test_each_call_on_a_warm_cache_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for x in (0.0, 0.1, 0.2, 0.3):
                synthesize_field(x, 1.0, self.spec, "transmitted", self.wide)
        assert [w.category for w in caught] == [ParaxialWarning] * 4

    def test_unknown_side_after_a_valid_call_raises_before_any_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            synthesize_field(0.1, 1.0, self.spec, "transmitted", self.wide)
            before = _plane_waves.cache_info()
            with pytest.raises(ValueError):
                synthesize_field(0.1, 1.0, self.spec, "both", self.wide)
        assert len(caught) == 1
        assert _plane_waves.cache_info() == before  # nothing looked up, nothing stored

    @pytest.mark.parametrize(
        "position",
        [np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2]), [0.1, 0.2, 0.3], "0.1", 0.1 + 0.2j],
        ids=["3 points", "2 points", "list", "str", "complex"],
    )
    @pytest.mark.parametrize("name", ["x", "z"])
    def test_a_position_that_is_not_one_real_number_raises_before_any_warning(self, position, name):
        # three orders propagate here, so three points of x used to broadcast
        # against them and sum to one wrong number (1.0725+0.5626j)
        spec = GratingSpec(0.3, truncation=5)
        point = {"x": 0.1, "z": 0.5, name: position}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = _plane_waves.cache_info()
            with pytest.raises(TypeError, match=f"position {name} "):
                synthesize_field(point["x"], point["z"], spec, "transmitted", self.wide)
        assert caught == []
        assert _plane_waves.cache_info() == before

    @pytest.mark.filterwarnings("ignore::slitgrid.geometry.ParaxialWarning")
    @pytest.mark.parametrize(
        "x, z",
        [(np.float64(0.1), np.float64(0.5)), (np.array(0.1), np.array(0.5)), (np.float32(0.25), 2), (True, np.int64(3))],
        ids=["float64", "0-d arrays", "float32, int", "bool, int64"],
    )
    def test_a_real_scalar_of_any_type_is_the_float_it_equals(self, x, z):
        want = synthesize_field(float(x), float(z), self.spec, "reflected", self.wide)
        got = synthesize_field(x, z, self.spec, "reflected", self.wide)
        assert type(got) is complex
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_a_warm_cache_does_no_per_configuration_work(self, monkeypatch):
        # the per-point speed rests on this: one grid of one configuration
        # builds one amplitude table and misses the cache once
        builds = []
        build = AmplitudeTable.build.__func__

        def counted(cls, *args):
            builds.append(args)
            return build(cls, *args)

        monkeypatch.setattr(AmplitudeTable, "build", classmethod(counted))
        _plane_waves.cache_clear()
        config = TwoSlitConfig(GratingSpec(0.06, truncation=30), delta_phi=0.9)
        setup = SetupGeometry(k=1000.0, s=0.005, g=1.0)
        for z in np.linspace(0.0, 20.0, 32).tolist():
            for x in np.linspace(-0.6, 0.6, 16).tolist():
                synthesize_field(x, z, config, "transmitted", setup)
        info = _plane_waves.cache_info()
        assert (info.misses, info.hits) == (1, 32 * 16 - 1)
        assert builds == [(0.06, 30)]

    @pytest.mark.parametrize("side", CHANNELS)
    @pytest.mark.parametrize("delta_phi", [None, 0.9], ids=["one slit", "two slits"])
    @pytest.mark.parametrize("k_perp", [2.0**-5, 2.0**-10], ids=["cut off", "all propagate"])
    def test_the_field_leaves_along_the_spectra_orders(self, side, delta_phi, k_perp):
        # order m leaves at k_x = 2*m*k_perp and propagates for |m| < k/(2*k_perp),
        # here 12.8 or all 30; k_perp is a power of two, so dividing by it is exact
        table = AmplitudeTable.build(0.3, 30)
        if delta_phi is None:
            orders = single_slit_spectrum(table, side).orders
        else:
            orders = two_slit_spectrum(table, side, delta_phi).orders
        ik_x = _plane_waves(0.3, 30, delta_phi, side, k_perp, 0.8)[1]
        directions = ik_x.imag / (2.0 * k_perp)
        assert directions.tobytes() == orders[np.abs(orders) < 0.4 / k_perp].tobytes()

    @pytest.mark.parametrize("delta_phi", [None, 0.9])
    def test_cached_arrays_are_read_only(self, delta_phi):
        arrays = _plane_waves(0.3, 10, delta_phi, "reflected", 0.01, 1.0)  # k_perp, k
        assert len(arrays) == 3
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
