"""Arbitrary-precision references for the tests, evaluated with mpmath.

Each reference evaluates its defining formula at 30 significant digits from
the exact binary values of its float arguments, so its own error lies far
below a float's resolution.  mpmath is in the ``test`` extra; a test that
calls a reference is skipped when mpmath is not installed.
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
