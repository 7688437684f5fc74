"""The closed forms derived with sympy from the model alone, then compared with the library.

The numeric checks elsewhere compare closed forms with sums and quadratures
of the same model, so a wrong formula shared by both sides would pass.
Here each formula is integrated from its definition: the strip profile for
the Fourier coefficients, the distinguishability, the single-slit totals
and the two-slit cross term, the fringe ``cos(pi*x)**2`` seen through the
sampling window for the visibility.  The library is then evaluated at
exact binary ratios and compared with the derived expression to 30 digits.
"""

import math

import pytest

from slitgrid.complementarity import distinguishability_closed, distinguishability_from_amplitudes, visibility_closed
from slitgrid.grating import CHANNELS, AmplitudeTable, sampling_window
from slitgrid.scattering import single_slit_spectrum, two_slit_power_limit

sp = pytest.importorskip("sympy")

# k/1024: a, 1 - a and every a*n are exact in binary, so the library and
# the derivation see the same ratio
RATIOS = [sp.Rational(k, 1024) for k in (1, 61, 256, 379, 512, 700, 1023)]
TERMS = 40


def test_the_fourier_coefficients_follow_from_the_strip():
    # one period [0, 1) holds the strip [(1 - a)/2, (1 + a)/2], centred on
    # the half period; c_n = 2 * integral of cos(2*pi*n*x) over it, c_0 the integral of 1
    a, x = sp.symbols("a x", positive=True)
    n = sp.symbols("n", integer=True, positive=True)
    strip = (x, (1 - a) / 2, (1 + a) / 2)
    assert sp.integrate(1, strip) == a
    derived = 2 * sp.integrate(sp.cos(2 * sp.pi * n * x), strip)
    closed = 2 * (-1) ** n * sp.sin(sp.pi * a * n) / (sp.pi * n)
    assert sp.simplify(sp.expand_trig(derived - closed)) == 0
    for ratio in RATIOS:
        table = AmplitudeTable.build(float(ratio), TERMS)
        assert table.cover_ratio == float(ratio)  # c_0 = a
        for order in range(1, TERMS + 1):
            want = float(derived.subs({a: ratio, n: order}).evalf(30))
            got = -2.0 * table.r[order]  # c_n = -2*r_n
            assert abs(got - want) <= 4 * math.ulp(abs(want)) + 1e-300, (ratio, order)


def test_the_visibility_follows_from_the_window_integrals():
    # the fringe cos(pi*x)**2 has its maximum and sin(pi*x)**2 its minimum
    # at x = 0; a window of width w centred there collects each of them
    w, x = sp.symbols("w x", positive=True)
    window = (x, -w / 2, w / 2)
    i_max = sp.integrate(sp.cos(sp.pi * x) ** 2, window)
    i_min = sp.integrate(sp.sin(sp.pi * x) ** 2, window)
    derived = sp.simplify((i_max - i_min) / (i_max + i_min))
    assert sp.simplify(sp.expand_trig(derived - sp.sin(sp.pi * w) / (sp.pi * w))) == 0
    for ratio in RATIOS:
        for channel in CHANNELS:
            width = 1 - ratio if channel == "transmitted" else ratio
            assert float(width) == sampling_window(float(ratio), channel)[0]
            v = float(derived.subs(w, width).evalf(30))
            assert abs(visibility_closed(float(ratio), channel) - v) <= 4 * math.ulp(v), (ratio, channel)


def strip_amplitudes(order):
    """``(r_n, t_n)`` of order ``n`` as integrals over one period ``[0, 1)`` in the covering ratio ``a``.

    The strip ``[(1 - a)/2, (1 + a)/2]`` reflects with sign -1 and the gap
    around it transmits: ``r_n = -integral of cos(2*pi*n*x)`` over the
    strip and ``t_n`` the same integral over the gap, without the sign.
    """
    a, x = sp.symbols("a x", positive=True)
    wave = sp.cos(2 * sp.pi * order * x)
    strip = (x, (1 - a) / 2, (1 + a) / 2)
    gap = sp.integrate(wave, (x, 0, (1 - a) / 2)) + sp.integrate(wave, (x, (1 + a) / 2, 1))
    return a, -sp.integrate(wave, strip), gap


def test_the_distinguishability_follows_from_the_zeroth_and_first_orders():
    # each detector sees u_0 from its own slit and u_1 from the other, so
    # D = |u_0**2 - u_1**2| for the channel's amplitudes u
    a, r0, t0 = strip_amplitudes(0)
    _, r1, t1 = strip_amplitudes(1)
    assert sp.simplify(t0 - (1 - a)) == 0 and sp.simplify(r0 + a) == 0
    assert sp.simplify(t1 - r1) == 0 and sp.simplify(t1 - sp.sin(sp.pi * a) / sp.pi) == 0
    derived = {"transmitted": sp.Abs(t0**2 - t1**2), "reflected": sp.Abs(r0**2 - r1**2)}
    for ratio in RATIOS:
        table = AmplitudeTable.build(float(ratio), 1)
        for channel in CHANNELS:
            want = float(derived[channel].subs(a, ratio).evalf(30))
            # w**2 - (sin(pi*a)/pi)**2 cancels for a narrow window, so both
            # forms are good to a few ulps of the window's w**2, not of D
            width = sampling_window(float(ratio), channel)[0]
            bound = 4 * math.ulp(width * width)
            assert abs(distinguishability_closed(float(ratio), channel) - want) <= bound, (ratio, channel)
            assert abs(distinguishability_from_amplitudes(table, channel) - want) <= bound, (ratio, channel)


def test_the_single_slit_total_follows_from_the_strip():
    # G is the strip's indicator, 1 on the strip and 0 elsewhere, so G**2 = G;
    # Parseval for G = c_0 + sum c_n cos(2*pi*n*x) makes the integral of
    # G**2 over a period c_0**2 + (sum over n >= 1 of c_n**2)/2
    a, x = sp.symbols("a x", positive=True)
    strip = (x, (1 - a) / 2, (1 + a) / 2)
    c0 = sp.integrate(1, strip)  # the mean of G
    assert c0 == a
    squares = sp.integrate(1**2, strip) - c0**2  # (sum over n >= 1 of c_n**2)/2
    # r_0 = -a, t_0 = 1 - a and r_n = t_n = -c_n/2 for n >= 1, each order
    # n and -n alike, so the single-slit total is u_0**2 + 2 * sum r_n**2
    totals = {"transmitted": (1 - a) ** 2 + squares, "reflected": a**2 + squares}
    for channel, total in totals.items():
        width = 1 - a if channel == "transmitted" else a
        assert sp.expand(total - width) == 0
    # the truncated spectrum misses 2 * sum over n > N of (sin(pi*a*n)/(pi*n))**2,
    # (psi'(N + 1) - Cl_2(2*pi*a) + sum_{n <= N} cos(2*pi*a*n)/n**2)/pi**2 with
    # the Clausen sum Cl_2(t) = sum cos(n*t)/n**2 that mpmath evaluates
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for ratio in RATIOS:
            exact = mpmath.mpf(ratio.p) / ratio.q
            head = mpmath.fsum(mpmath.cospi(2 * exact * n) / n**2 for n in range(1, TERMS + 1))
            tail = (mpmath.psi(1, TERMS + 1) - mpmath.clcos(2, 2 * mpmath.pi * exact) + head) / mpmath.pi**2
            table = AmplitudeTable.build(float(ratio), TERMS)
            for channel, total in totals.items():
                want = float(total.subs(a, ratio))
                got = float(single_slit_spectrum(table, channel).probabilities.sum())
                assert abs(got + tail - want) <= 4 * math.ulp(want), (ratio, channel)


def test_the_two_slit_cross_term_follows_from_the_window():
    # the channel's amplitudes are the Fourier coefficients of its window
    # W = sum u_n exp(2*pi*i*n*x): the gap's indicator transmitted and minus
    # the strip's reflected, so W**2 is the indicator either way, and u_n =
    # u_{-n} makes sum u_n*u_{n+1} = integral of W**2 * exp(-2*pi*i*x)
    # over a period, the window integral of exp(-2*pi*i*x)
    a, x = sp.symbols("a x", positive=True)
    wave = sp.exp(-2 * sp.I * sp.pi * x)
    windows = {
        "transmitted": sp.integrate(wave, (x, 0, (1 - a) / 2)) + sp.integrate(wave, (x, (1 + a) / 2, 1)),
        "reflected": sp.integrate(wave, (x, (1 - a) / 2, (1 + a) / 2)),
    }
    for channel, integral in windows.items():
        sign = sampling_window(0.5, channel)[1]
        derived = sp.simplify(sp.expand_complex(integral))
        assert sp.simplify(derived - sign * sp.sin(sp.pi * a) / sp.pi) == 0, channel
        for ratio in RATIOS:
            width = sampling_window(float(ratio), channel)[0]
            want = float(derived.subs(a, ratio).evalf(30))
            # the pairs (n, n + 1) and (-n - 1, -n) are equal, so the sum over
            # [-N, N] is twice the sum from n = 0; it misses the pairs past N,
            # each below 1/(pi**2 * n*(n + 1)) since |u_n| <= 1/(pi*n)
            u = AmplitudeTable.build(float(ratio), 4096).amplitudes(channel)
            assert abs(2.0 * float(u[:-1] @ u[1:]) - want) <= 2 / (math.pi**2 * 4096), (ratio, channel)
            # two_slit_power_limit is width + cos(phi) * cross, so the cross
            # term is good to a few ulps of the limit over |cos(phi)|
            for phase in (0.0, 1.0, 2.5, -2.0):
                limit = two_slit_power_limit(float(ratio), channel, phase)
                bound = 4 * (math.ulp(limit) + math.ulp(want)) / abs(math.cos(phase))
                assert abs((limit - width) / math.cos(phase) - want) <= bound, (ratio, channel, phase)
