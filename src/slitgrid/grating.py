"""Planar-strip grating model.

The grating is a periodic comb of perfectly reflecting strips: reflectivity
one on strips of width ``cover_ratio * period`` centered at odd multiples of
half a period, zero on the open gaps.  Expanded as a cosine series,

    G(x) = c0 + sum_n c_n * cos(2*pi*x*n / period)

with ``c0 = cover_ratio`` and ``c_n = 2*(-1)**n * sin(cover_ratio*pi*n)/(pi*n)``.

Reflection picks up a pi phase jump, so ``r_0 = -c0`` and ``r_n = -c_n/2``;
transmission follows as ``t_0 = 1 + r_0`` and ``t_n = r_n`` for ``n >= 1``.
The harmonics ``r_n`` are evaluated in one place, :func:`_harmonics`, which
:meth:`AmplitudeTable.build` and :func:`grid_function` share; ``c_n = -2*r_n``
is read from it.  Both families are even in the order index, so the table
stores only ``n >= 0``.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "Channel",
    "CHANNELS",
    "DEFAULT_TRUNCATION",
    "SPECTRUM_TRUNCATION",
    "GratingSpec",
    "AmplitudeTable",
    "sin_pi",
    "sinc_pi",
    "grid_function",
    "sampling_window",
    "normalization_defect",
]

Channel = Literal["transmitted", "reflected"]
CHANNELS: tuple[Channel, ...] = ("transmitted", "reflected")

# Series truncations used for the reference figures: 50 terms reconstruct
# the grid profile well, 30 suffice for the order-spectrum tables.
DEFAULT_TRUNCATION = 50
SPECTRUM_TRUNCATION = 30


def _unwrap(values):
    """The closed forms' one return rule: a Python float for a 0-d result, else the array."""
    return float(values) if values.ndim == 0 else values


def sin_pi(u):
    """sin(pi*u), exact at integers; a float for a scalar, an array for an array.

    The argument is widened to float64 and reduced to [0, 1/2] before
    multiplying by pi, so integer ``u`` returns exactly 0.0 and values near
    integers keep full precision instead of inheriting the rounding error
    of ``pi*u``.  A scalar is a 0-d array on the same numpy path; the
    regression gate pins its bits to the C library's ``sin``.
    """
    red = np.mod(np.asarray(u, dtype=float), 2.0)
    sign = np.where(red >= 1.0, -1.0, 1.0)
    red = np.where(red >= 1.0, red - 1.0, red)
    red = np.where(red > 0.5, 1.0 - red, red)
    return _unwrap(sign * np.sin(np.pi * red))


def sinc_pi(u):
    """sin(pi*u)/(pi*u) with the limit value 1 at u = 0; a float for a scalar, else an array."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _unwrap(np.where(u == 0.0, 1.0, sin_pi(u) / (np.pi * u)))


def _check_cover_ratio(cover_ratio):
    """Reject a ratio outside [0, 1] or not real; return it widened, a float64 array or a float."""
    # The one scalar/array fork left: the same check on a 0-d array takes
    # about 9.5 us against 0.3 us, and verify and synthesize_field (once per
    # point) validate scalar ratios hundreds of times per request.
    if isinstance(cover_ratio, np.ndarray):
        if cover_ratio.dtype.kind not in "biuf":
            raise TypeError(f"cover ratios must be real numbers, got dtype {cover_ratio.dtype}")
        outside = ~((cover_ratio >= 0.0) & (cover_ratio <= 1.0))  # NaN is outside too
        if np.any(outside):
            bad = cover_ratio[outside].flat[0]
            raise ValueError(f"cover ratio must lie in [0, 1], got {float(bad)!r}")
        return cover_ratio.astype(float, copy=False)
    if not (0.0 <= cover_ratio <= 1.0):
        raise ValueError(f"cover ratio must lie in [0, 1], got {cover_ratio!r}")
    return float(cover_ratio)


def _check_one_cover_ratio(cover_ratio) -> float:
    """:func:`_check_cover_ratio` for a grating's one ratio: a Python float, never an array."""
    ratio = _check_cover_ratio(cover_ratio)
    if getattr(ratio, "ndim", 0):
        raise TypeError(f"a grating takes one cover ratio, got an array of shape {ratio.shape}")
    return float(ratio)


def _check_truncation(truncation: int) -> None:
    is_integer = isinstance(truncation, (int, np.integer)) and not isinstance(truncation, bool)
    if not (is_integer and truncation >= 1):
        raise ValueError(f"truncation order must be an integer >= 1, got {truncation!r}")


@dataclass(frozen=True)
class GratingSpec:
    """Strip grating: covering ratio, period, and series truncation order.

    ``cover_ratio = 0`` is no grating at all, ``cover_ratio = 1`` a full
    mirror; both degenerate cases are accepted.  The cover ratio and the
    period are one number each, never an array (``TypeError``), stored as
    Python floats, so a float32 value is widened before any arithmetic
    rounds in float32.
    """

    cover_ratio: float
    period: float = 1.0
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self) -> None:
        object.__setattr__(self, "cover_ratio", _check_one_cover_ratio(self.cover_ratio))
        if getattr(self.period, "ndim", 0):
            raise TypeError(f"period must be one number, got an array of shape {self.period.shape}")
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be positive, got {self.period!r}")
        _check_truncation(self.truncation)
        object.__setattr__(self, "period", float(self.period))


def _harmonics(cover_ratio: float, n: np.ndarray) -> np.ndarray:
    """``r_n = t_n = (-1)**(n+1) * sin(cover_ratio*pi*n)/(pi*n)`` for an array of orders ``n >= 1``."""
    sign = 2.0 * (n % 2) - 1.0  # (-1)**(n+1)
    return sign * sin_pi(cover_ratio * n) / (math.pi * n)


# An array of positions that fits one block of about this many bytes of
# cosines (see _block_rows) is one dense gemv; a larger one takes the
# factored sum, in row blocks of about this many bytes of temporaries.
_BLOCK_BYTES = 8 << 20
_ROW_ALIGN = 16


def _block_rows(terms: int) -> int:
    """Rows of one profile block: a multiple of ``_ROW_ALIGN`` within ``_BLOCK_BYTES``.

    Never fewer than ``_ROW_ALIGN`` rows, so beyond 65536 terms a block
    outgrows the budget.
    """
    return max(_ROW_ALIGN, _BLOCK_BYTES // (8 * terms) // _ROW_ALIGN * _ROW_ALIGN)


def _cosines(x, n, scale: float):
    """``cos(scale * outer(x, n))``, computed in place in one new array."""
    angles = np.multiply.outer(x, n)
    angles *= scale
    return np.cos(angles, out=angles)


def _turns(t, steps):
    """``outer(t, steps)`` less its nearest integers, for ``|t| <= 1/2`` and integer ``steps``.

    ``t`` is split into a multiple of 2**-32, whose products with steps
    below 2**22 are exact and are reduced exactly, and a remainder, whose
    products (under 2**-11) are added after the reduction.
    """
    high = np.round(t * 2.0**32) / 2.0**32
    turns = np.multiply.outer(high, steps)
    turns -= np.round(turns)
    turns += np.multiply.outer(t - high, steps)
    return turns


def _factored(x, period: float, coefficients):
    """``sum_n coefficients[n-1] * cos(2*pi*n*x/period)`` as a baby-step/giant-step sum.

    With ``t = x/period`` reduced to [-1/2, 1/2] and ``n = q*B + r`` for
    ``B = isqrt(N)`` and ``q < Q = N//B + 1``, ``cos(2*pi*n*t)`` splits
    into giant steps ``cos/sin(2*pi*q*B*t)`` and baby steps
    ``cos/sin(2*pi*r*t)`` (Paterson and Stockmeyer, SIAM J. Comput. 2, 60
    (1973)), so a row needs about ``4*sqrt(N)`` cosines and sines in
    place of ``N`` cosines.  The phases are reduced by :func:`_turns`.
    The sums over ``r`` and ``q`` are ``np.einsum`` calls, numpy's own
    loops with no BLAS.  The rows go in blocks with about
    ``_BLOCK_BYTES`` of temporaries, a few arrays of ``B`` or ``Q``
    values per row.
    """
    terms = coefficients.size
    baby = math.isqrt(terms)
    giant = terms // baby + 1  # orders 0..terms as q*baby + r
    table = np.zeros(giant * baby)
    table[1 : terms + 1] = coefficients
    table = table.reshape(giant, baby)
    values = np.empty(x.size)
    rows = _block_rows(4 * (baby + giant))
    for start in range(0, x.size, rows):
        # the remainder of x by the period is exact, and one division rounds it
        block = np.fmod(x[start : start + rows], period) / period
        block -= np.round(block)
        angles = _turns(block, np.arange(baby))
        angles *= 2.0 * math.pi
        cosines = np.einsum("ir,qr->iq", np.cos(angles), table)
        sines = np.einsum("ir,qr->iq", np.sin(angles), table)
        angles = _turns(block, baby * np.arange(giant))
        angles *= 2.0 * math.pi
        cosines *= np.cos(angles)
        sines *= np.sin(angles)
        values[start : start + rows] = np.einsum("iq->i", cosines) - np.einsum("iq->i", sines)
    return values


def grid_function(x, spec: GratingSpec):
    """Truncated series value of the strip profile at position ``x``.

    Converges (as the truncation grows) to 1 on the strips and 0 on the
    gaps, with the usual overshoot of a truncated discontinuous series
    near the strip edges.  A scalar ``x`` gives a float and an array keeps
    its shape; both are evaluated as a flattened array, a scalar as one
    row, on the calling thread.

    An array that fits one block of about 8 MiB of cosines (fewer than
    ``_block_rows(N) + 16`` positions) is the dense formula
    ``c0 + cos(2*pi/period * outer(x, n)) @ c``, bit for bit: one BLAS
    gemv.  BLAS rounds a row by the shape of the whole matrix, so the same
    ``x`` may differ in its last bit between arrays of different lengths,
    and by the dense formula's error from a larger array (the README gives
    an example of each).  Under several BLAS threads a dense row may also
    change in its last bit.

    A larger array is the factored sum of :func:`_factored`: the position
    is reduced to a fraction of a period, and each row needs about
    ``4*sqrt(N)`` cosines and sines and ``2*N`` multiply-adds in
    ``np.einsum`` instead of ``N`` cosines.  It calls no BLAS, so its
    bits do not depend on the BLAS thread count, and its phases are
    reduced to a fraction of a turn before any rounding grows with the
    order, so it is as close to the exact sum as the dense formula or
    closer.  Its rows are evaluated in blocks, so the memory
    beyond the result does not grow with ``len(x)``.  A non-finite
    position gives a NaN row on either path.
    """
    n = np.arange(1, spec.truncation + 1)
    coefficients = -2.0 * _harmonics(spec.cover_ratio, n)
    scale = 2.0 * math.pi / spec.period
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    if flat.size < _block_rows(n.size) + _ROW_ALIGN:
        values = _cosines(flat, n, scale) @ coefficients
    else:
        values = _factored(flat, spec.period, coefficients)
    return _unwrap((spec.cover_ratio + values).reshape(arr.shape))


def sampling_window(cover_ratio, channel: Channel) -> tuple:
    """``(width, sign)`` of the part of each period that feeds ``channel``.

    The transmitted channel sees the fringe through the open gap, width
    ``1 - cover_ratio`` and sign +1; the reflected channel through the
    strip, width ``cover_ratio`` and sign -1.  At zero slit phase the gap
    sits on the fringe maxima and the strip on the minima, and the sign
    also gives the direction the channel's light leaves in (+z
    transmitted, -z reflected).  This is the one place that tells the
    channels apart by name.  The covering ratio is widened first, as the
    configuration classes do: a scalar to a Python float and an array to
    a float64 array of widths, so a float32 ratio rounds nothing in
    float32.  The sign is always a float.
    """
    cover_ratio = _check_cover_ratio(cover_ratio)
    if channel == "transmitted":
        return 1.0 - cover_ratio, 1.0
    if channel == "reflected":
        return cover_ratio, -1.0
    raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")


@dataclass(frozen=True, eq=False)
class AmplitudeTable:
    """Amplitudes r_0..r_N and t_0..t_N of the non-negative orders.

    Both families are even in the order, so only ``n >= 0`` is stored;
    order ``n`` of either sign is entry ``abs(n)`` of ``r`` or ``t``.
    """

    cover_ratio: float
    r: np.ndarray
    t: np.ndarray

    @classmethod
    def build(cls, cover_ratio: float, truncation: int = DEFAULT_TRUNCATION) -> "AmplitudeTable":
        """The table at ``cover_ratio``, widened to a Python float first (``1 - a`` rounds in float64)."""
        cover_ratio = _check_one_cover_ratio(cover_ratio)
        _check_truncation(truncation)
        harmonics = _harmonics(cover_ratio, np.arange(1, truncation + 1))
        r = np.concatenate(([-cover_ratio], harmonics))
        t = np.concatenate(([1.0 - cover_ratio], harmonics))
        r.flags.writeable = False
        t.flags.writeable = False
        return cls(cover_ratio=cover_ratio, r=r, t=t)

    def amplitudes(self, channel: Channel) -> np.ndarray:
        """``t`` for the transmitted channel (window sign +1), ``r`` for the reflected one."""
        _, sign = sampling_window(self.cover_ratio, channel)
        return self.t if sign > 0.0 else self.r


def normalization_defect(table: AmplitudeTable) -> float:
    """Power unaccounted for by a truncated amplitude table.

    Returns ``1 - (r_0**2 + t_0**2 + sum_{n=1..N} 2*(r_n**2 + t_n**2))``.
    For a table from :meth:`AmplitudeTable.build` it is non-negative and
    bounded by the series tail ``4/(pi**2 * N)``, and exactly zero for the
    degenerate gratings ``cover_ratio`` 0 and 1.
    """
    head = table.r[0] ** 2 + table.t[0] ** 2
    tail = 2.0 * float(np.sum(table.r[1:] ** 2 + table.t[1:] ** 2))
    return 1.0 - (head + tail)
