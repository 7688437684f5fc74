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

