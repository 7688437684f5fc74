"""Arbitrary-precision references for the tests, evaluated with mpmath.

Each reference evaluates its defining formula at 30 significant digits (the
visibility at 40) from the exact binary values of its float arguments, so
its own error lies far below a float's resolution.  mpmath is in the
``test`` extra; a test that calls a reference is skipped when mpmath is not
installed.
"""

import pytest

DIGITS = 30


def grid_profile(xs, cover_ratio, truncation, period):
    """``c0 + sum_n c_n cos(2*pi*n*x/period)`` of the strip profile at each of ``xs``, as mpmath numbers.

    ``c0 = cover_ratio`` and ``c_n = 2*(-1)**n * sin(cover_ratio*pi*n)/(pi*n)``
    for ``n = 1..truncation``.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS):
        a = mpmath.mpf(cover_ratio)
        c = [2 * (-1) ** n * mpmath.sinpi(a * n) / (mpmath.pi * n) for n in range(1, truncation + 1)]
        profile = []
        for x in xs:
            turns = 2 * mpmath.mpf(x) / mpmath.mpf(period)
            profile.append(a + mpmath.fsum(c_n * mpmath.cospi(n * turns) for n, c_n in enumerate(c, 1)))
        return profile


def sin_pi(u):
    """``sin(pi*u)`` of the exact binary value of ``u``, at 200 bits, as an mpmath number.

    mpmath reduces ``u`` exactly, so the bits cover ``|u|`` up to 2**60 with
    room to spare.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        return mpmath.sinpi(mpmath.mpf(u))


def plane_wave_sum(amps, k_x, k_z, x, z):
    """``sum_j amps_j * exp(i*(k_z_j*z + k_x_j*x))``, the field at ``(x, z)``, as an mpmath complex number.

    ``k_z`` carries the side's sign: +z transmitted, -z reflected.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS):
        x, z = mpmath.mpf(x), mpmath.mpf(z)
        return mpmath.fsum(
            mpmath.mpc(a) * mpmath.expj(mpmath.mpf(kz) * z + mpmath.mpf(kx) * x)
            for a, kx, kz in zip(amps.tolist(), k_x.tolist(), k_z.tolist())
        )


def visibility(cover_ratio, channel):
    """``sin(pi*a)/(pi*w)`` of the window width ``w`` (``1 - a`` transmitted, ``a`` reflected), as an mpmath number.

    The limit value 1 at ``w = 0``.  Evaluated at 40 digits, ``1 - a``
    included, so a test may count the ulps of a float visibility against it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(cover_ratio)
        width = 1 - a if channel == "transmitted" else a
        return mpmath.mpf(1) if width == 0 else mpmath.sinpi(a) / (mpmath.pi * width)


def fringe_minimum_power(cover_ratio, channel):
    """``(pi*w - sin(pi*a))/(2*pi)``, the power the window ``w`` collects on the fringe minima, as an mpmath number.

    Evaluated at 40 digits, ``1 - a`` included, so that the cancellation of
    a narrow window costs none of the digits a test counts ulps with.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(cover_ratio)
        width = 1 - a if channel == "transmitted" else a
        return (mpmath.pi * width - mpmath.sinpi(a)) / (2 * mpmath.pi)
