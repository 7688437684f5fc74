import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
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
    _plane_waves,
    OrderSpectrum,
    TwoSlitConfig,
    detector_signal,
    interference_intensity,
    single_slit_detector_signal,
    single_slit_spectrum,
    synthesize_field,
    two_slit_power_limit,
    two_slit_probabilities,
    two_slit_spectrum,
)

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
        half = AmplitudeTable.build(0.3, 5).t
        for call in (
            lambda: interference_intensity(np.zeros(3), bad),
            lambda: two_slit_power_limit(0.3, "transmitted", bad),
            lambda: two_slit_probabilities(half, bad),
        ):
            with pytest.raises(ValueError, match="delta_phi must be finite") as error:
                call()
            assert str(error.value) == str(config.value)


class TestSingleSlitSpectrum:
    def test_reflected_zeroth_order(self):
        spectrum = single_slit_spectrum(GratingSpec(0.06, truncation=30), "reflected")
        assert spectrum.probability(0) == 0.06 * 0.06

    def test_reflected_first_order(self):
        spectrum = single_slit_spectrum(GratingSpec(0.06, truncation=30), "reflected")
        assert spectrum.probability(1) == pytest.approx(P_SS_R1_006, rel=1e-12)

    def test_no_grating_transmits_straight_through(self):
        spectrum = single_slit_spectrum(GratingSpec(0.0, truncation=10), "transmitted")
        assert spectrum.probability(0) == 1.0
        assert spectrum.total() == 1.0

    def test_orders_span_symmetric_range(self):
        spectrum = single_slit_spectrum(GratingSpec(0.2, truncation=5), "transmitted")
        assert list(spectrum.orders) == [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5]
        assert not spectrum.two_slit
        np.testing.assert_array_equal(spectrum.probabilities, spectrum.probabilities[::-1])

    @pytest.mark.parametrize("a", [0.06, 0.5])
    @pytest.mark.parametrize("channel", ["transmitted", "reflected"])
    def test_totals_tend_to_geometric_split(self, a, channel):
        spectrum = single_slit_spectrum(GratingSpec(a, truncation=2000), channel)
        limit, _ = sampling_window(a, channel)
        assert spectrum.total() == pytest.approx(limit, abs=2.0 / (math.pi**2 * 2000))


class TestOrderSpectrum:
    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_rejects_negative_and_nan_probabilities(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            OrderSpectrum("transmitted", np.array([0.0, 1.0]), np.array([0.5, bad]))


class TestTwoSlitSpectrum:
    def test_transmitted_half_order(self):
        config = TwoSlitConfig(GratingSpec(0.06, truncation=30))
        spectrum = two_slit_spectrum(config, "transmitted")
        assert spectrum.probability(0.5) == pytest.approx(P_TWO_T_HALF_006, rel=1e-12)

    def test_reflected_half_order_is_strongly_suppressed(self):
        config = TwoSlitConfig(GratingSpec(0.06, truncation=30))
        spectrum = two_slit_spectrum(config, "reflected")
        assert spectrum.probability(0.5) == pytest.approx(P_TWO_R_HALF_006, rel=1e-10)
        single = single_slit_spectrum(GratingSpec(0.06, truncation=30), "reflected")
        assert single.probability(1) / spectrum.probability(0.5) > 5e4

    def test_half_odd_integer_orders(self):
        config = TwoSlitConfig(GratingSpec(0.3, truncation=4))
        spectrum = two_slit_spectrum(config, "transmitted")
        assert list(spectrum.orders) == [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]
        assert spectrum.two_slit

    @given(cover_ratios, phases)
    def test_symmetric_under_order_reversal(self, a, dphi):
        config = TwoSlitConfig(GratingSpec(a, truncation=12), delta_phi=dphi)
        for channel in ("transmitted", "reflected"):
            probs = two_slit_spectrum(config, channel).probabilities
            np.testing.assert_array_equal(probs, probs[::-1])

    def test_zero_phase_reduces_to_adjacent_sum(self):
        a, N = 0.17, 9
        config = TwoSlitConfig(GratingSpec(a, truncation=N))
        spectrum = two_slit_spectrum(config, "transmitted")
        t = AmplitudeTable.build(a, N).t
        for n in range(-N, N):
            expected = (t[abs(n)] + t[abs(n + 1)]) ** 2 / 2.0
            assert spectrum.probability(n + 0.5) == pytest.approx(expected, abs=1e-15)

    def test_phase_wraps_around(self):
        spec = GratingSpec(0.2, truncation=8)
        assert TwoSlitConfig(spec, -math.pi).delta_phi == pytest.approx(math.pi)
        assert TwoSlitConfig(spec, 2.0 * math.pi).delta_phi == 0.0
        base = two_slit_spectrum(TwoSlitConfig(spec, 0.7), "transmitted").probabilities
        wrapped = two_slit_spectrum(
            TwoSlitConfig(spec, 0.7 + 2.0 * math.pi), "transmitted"
        ).probabilities
        np.testing.assert_allclose(wrapped, base, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("a", [0.06, 0.25, 0.5, 0.75])
    def test_totals_match_closed_limits(self, a):
        config = TwoSlitConfig(GratingSpec(a, truncation=2000))
        total_t = two_slit_spectrum(config, "transmitted").total()
        total_r = two_slit_spectrum(config, "reflected").total()
        assert total_t == pytest.approx(two_slit_power_limit(a, "transmitted"), abs=2.1e-4)
        assert total_r == pytest.approx(two_slit_power_limit(a, "reflected"), abs=2.1e-4)
        assert total_t + total_r == pytest.approx(1.0, abs=2.1e-4)

    def test_opposite_phase_moves_power_onto_the_strips(self):
        # per half-order the gain only holds while adjacent amplitudes
        # alternate in sign, i.e. for sparse gratings (a < 1/N)
        spec = GratingSpec(0.02, truncation=30)
        quiet = two_slit_spectrum(TwoSlitConfig(spec, 0.0), "reflected").probabilities
        lit = two_slit_spectrum(TwoSlitConfig(spec, math.pi), "reflected").probabilities
        assert np.all(lit >= quiet - 1e-18)

    @given(cover_ratios)
    def test_reflected_total_peaks_at_opposite_phase(self, a):
        spec = GratingSpec(a, truncation=50)
        quiet = two_slit_spectrum(TwoSlitConfig(spec, 0.0), "reflected").total()
        lit = two_slit_spectrum(TwoSlitConfig(spec, math.pi), "reflected").total()
        assert lit >= quiet - 1e-12

    def test_transmitted_total_at_opposite_phase_hits_the_minimum_limit(self):
        a = 0.3
        config = TwoSlitConfig(GratingSpec(a, truncation=2000), delta_phi=math.pi)
        total = two_slit_spectrum(config, "transmitted").total()
        limit = 1.0 - a - sin_pi(a) / math.pi  # twice the minimum-case fringe integral
        assert total == pytest.approx(limit, abs=2.1e-4)
        assert limit == pytest.approx(two_slit_power_limit(a, "transmitted", math.pi), rel=1e-12)


class TestDetectorSignals:
    def test_perfect_imaging_without_grating(self):
        signal = detector_signal(
            two_slit_spectrum(TwoSlitConfig(GratingSpec(0.0, truncation=10)), "transmitted")
        )
        assert (signal.p_d1, signal.p_d2, signal.p_loss) == (0.5, 0.5, 0.0)

    def test_mirror_transmits_nothing(self):
        signal = detector_signal(
            two_slit_spectrum(TwoSlitConfig(GratingSpec(1.0, truncation=10)), "transmitted")
        )
        assert signal.p_d1 == 0.0 and signal.p_d2 == 0.0

    def test_sparse_grating_detector_split(self):
        spectrum = two_slit_spectrum(TwoSlitConfig(GratingSpec(0.06, truncation=30)), "transmitted")
        signal = detector_signal(spectrum)
        assert signal.p_d1 == pytest.approx(P_TWO_T_HALF_006, rel=1e-12)
        assert signal.p_d2 == signal.p_d1
        assert signal.total == pytest.approx(spectrum.total(), abs=1e-15)

    @given(
        cover_ratios,
        phases,
        st.integers(min_value=1, max_value=200),
        st.sampled_from(CHANNELS),
    )
    def test_parts_sum_to_the_tabulated_total_within_rounding(self, a, dphi, truncation, channel):
        # p_loss is total - p_d1 - p_d2 rounded, so adding the parts back
        # need not give the total exactly
        spectrum = two_slit_spectrum(TwoSlitConfig(GratingSpec(a, truncation=truncation), dphi), channel)
        signal = detector_signal(spectrum)
        assert abs(signal.total - spectrum.total()) <= 4.0 * math.ulp(spectrum.total())

    def test_rejects_single_slit_spectra(self):
        with pytest.raises(ValueError):
            detector_signal(single_slit_spectrum(GratingSpec(0.06, truncation=10), "transmitted"))

    def test_single_slit_clear_view(self):
        signal = single_slit_detector_signal(GratingSpec(0.0, truncation=10))
        assert (signal.p_d1, signal.p_d2, signal.p_loss) == (1.0, 0.0, 0.0)

    def test_single_slit_sparse_grating(self):
        signal = single_slit_detector_signal(GratingSpec(0.06, truncation=30))
        assert signal.p_d1 == pytest.approx(0.8836, rel=1e-12)
        assert signal.p_d2 == pytest.approx(P_SS_R1_006, rel=1e-12)

    def test_single_slit_half_covered(self):
        signal = single_slit_detector_signal(GratingSpec(0.5, truncation=30))
        assert signal.p_d1 == 0.25
        assert signal.p_d2 == pytest.approx(INV_PI_SQ, rel=1e-12)


class TestPowerLimits:
    @given(cover_ratios, phases)
    def test_channels_always_share_unit_power(self, a, dphi):
        total = two_slit_power_limit(a, "transmitted", dphi) + two_slit_power_limit(
            a, "reflected", dphi
        )
        assert total == pytest.approx(1.0, abs=1e-14)


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

    @pytest.mark.parametrize("delta_phi", [None, 0.9])
    def test_cached_arrays_are_read_only(self, delta_phi):
        arrays = _plane_waves(0.3, 10, delta_phi, "reflected", 0.01, 1.0)  # k_perp, k
        assert len(arrays) == 3
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
