"""Planar-strip grating model.

The grating is a periodic comb of perfectly reflecting strips: reflectivity
one on strips of width ``cover_ratio * period`` centered at odd multiples of
half a period, zero on the open gaps.  Expanded as a cosine series,

    G(x) = c0 + sum_n c_n * cos(2*pi*x*n / period)

with ``c0 = cover_ratio`` and ``c_n = 2*(-1)**n * sin(cover_ratio*pi*n)/(pi*n)``.

Reflection picks up a pi phase jump, so ``r_0 = -c0`` and ``r_n = -c_n/2``;
transmission follows as ``t_0 = 1 + r_0`` and ``t_n = r_n`` for ``n >= 1``.
The amplitudes are evaluated only in :meth:`AmplitudeTable.build`;
:func:`grid_function` and the CLI's ``coeffs`` table read ``c_0 = a`` and
``c_n = -2*r_n`` off the table.  Both families are even in the order index,
so the table stores only ``n >= 0``.  Every function here is pure.
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
    "GratingSpec",
    "AmplitudeTable",
    "sin_pi",
    "grid_function",
    "sampling_window",
    "normalization_defect",
]

Channel = Literal["transmitted", "reflected"]
CHANNELS: tuple[Channel, ...] = ("transmitted", "reflected")

# Series truncation used for the reference figures: 50 terms reconstruct
# the grid profile well.
DEFAULT_TRUNCATION = 50


def _unwrap(values):
    """The closed forms' one return rule: a Python float for a 0-d result, else the array."""
    return float(values) if values.ndim == 0 else values


def _real(name: str, value):
    """The one input rule: one real number gives a Python float, an array or a list a float64 array.

    One number is a float, int, bool, numpy scalar or 0-d array; a numpy
    dtype that is not real (str, None, complex, object) raises
    ``TypeError`` naming ``name``.  Ranges are the caller's check.
    """
    if type(value) in (float, int):  # not isinstance, which np.float64 and bool pass
        return float(value)  # an int beyond int64 too, which numpy would make an object
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be real, got {value!r:.60}")
    return float(array) if array.ndim == 0 else array.astype(float, copy=False)


def _one_real(name: str, value) -> float:
    """:func:`_real` for a parameter that takes one number: an array, even of one element, is refused."""
    value = _real(name, value)
    if type(value) is not float:
        raise TypeError(f"{name} must be one number, got an array of shape {value.shape}")
    return value


def _one_dimensional(name: str, value) -> np.ndarray:
    """:func:`_real` for a parameter that takes a 1-d array: another shape is a ``ValueError`` naming ``name``."""
    value = _real(name, value)
    if np.ndim(value) != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {np.shape(value)}")
    return value


def sin_pi(u):
    """sin(pi*u), exact at integers; a float for a scalar, an array for an array.

    The argument is widened by :func:`_real` and reduced by its nearest
    integer ``k`` before multiplying by pi, so integer ``u`` returns exactly
    +0.0 and values near integers keep full precision instead of inheriting
    the rounding error of ``pi*u``; ``sin(pi*(u - k))`` changes sign for
    odd ``k``, and ``0.0 - s`` keeps every zero +0.0.  The function is odd,
    bit for bit, since ``rint`` and ``sin`` are.

    Error bound, with eps = 2**-53: the remainder ``r = u - k`` is exact
    for every finite double (|r| <= min(|u|, 1/2) and r is a multiple of
    ulp(u)).  ``fl(pi)`` is within 0.36 eps of pi and the product
    ``fl(pi)*r`` rounds by eps, so the argument of ``sin`` is within
    1.36 eps of ``pi*r`` relatively; ``x cot x <= 1`` on [0, pi/2], so the
    sine moves by at most 1.36 eps relatively, below 1.36 ulp of the result
    (a subnormal product rounds by half an ulp absolutely).  ``sin`` itself
    is within 1 ulp, so the result is within 2.4 ulp of sin(pi*u).
    """
    u = _real("u", u)
    k = np.rint(u)
    s = np.sin(np.pi * (u - k))
    return _unwrap(np.where(np.floor(0.5 * k) != 0.5 * k, 0.0 - s, s))


def _check_cover_ratio(cover_ratio):
    """Reject a ratio outside [0, 1] or not real; return it by :func:`_real`, a float or a float64 array."""
    # A float skips _real: a scalar check takes 105-115 ns with this guard
    # and 175-185 ns without it, about 1 % of a 5.7-7.7 us synthesize_field
    # point, which checks a scalar ratio per call.
    if type(cover_ratio) is not float:
        cover_ratio = _real("cover_ratio", cover_ratio)
    if type(cover_ratio) is float:
        if not (0.0 <= cover_ratio <= 1.0):
            raise ValueError(f"cover ratio must lie in [0, 1], got {cover_ratio!r}")
        return cover_ratio
    outside = ~((cover_ratio >= 0.0) & (cover_ratio <= 1.0))  # NaN is outside too
    if outside.any():  # the method: np.any's Python wrapper takes 1.4 us a call
        raise ValueError(f"cover ratio must lie in [0, 1], got {float(cover_ratio[outside].flat[0])!r}")
    return cover_ratio


def _check_truncation(truncation: int) -> None:
    is_integer = isinstance(truncation, (int, np.integer)) and not isinstance(truncation, bool)
    if not (is_integer and truncation >= 1):
        raise ValueError(f"truncation order must be an integer >= 1, got {truncation!r}")


@dataclass(frozen=True)
class GratingSpec:
    """Strip grating: covering ratio, period, and series truncation order.

    ``cover_ratio = 0`` is no grating at all, ``cover_ratio = 1`` a full
    mirror; both degenerate cases are accepted.  The cover ratio and the
    period are one real number each by :func:`_one_real`, stored as
    Python floats, so a float32 value is widened before any arithmetic
    rounds in float32.
    """

    cover_ratio: float
    period: float = 1.0
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self) -> None:
        cover_ratio = _check_cover_ratio(_one_real("cover_ratio", self.cover_ratio))
        period = _one_real("period", self.period)
        if not (math.isfinite(period) and period > 0.0):
            raise ValueError(f"period must be positive and finite, got {period!r}")
        _check_truncation(self.truncation)
        object.__setattr__(self, "cover_ratio", cover_ratio)
        object.__setattr__(self, "period", period)


# An input of at most this many cosines (positions times terms) is one
# dense gemv, a larger one the factored sum.  The route stays only so that
# the 401 x 50 profile of the reference coeffs table keeps its pinned dense
# bits: since the factored sum evaluates each distinct reduced position
# once (107 of the 401 CLI positions), it is the faster one at every order
# the dense route takes.  On the 401 CLI positions, one BLAS thread, 2-core
# x86-64 VM, factored against dense (two rounds, whose speed differed):
# 127-207 against 171-261 us at 30 terms, 132-222 against 269-449 us at 50,
# 142-226 against 428-715 us at 81.
_DENSE_COSINES = 1 << 15

# The factored sum goes in row blocks of at most this many bytes of
# temporaries.  Each is at most an eighth of it, rows x Q float64 (the
# giant steps, the widest) within 64 KiB: half of glibc's default 128 KiB
# mmap threshold, so the blocks reuse heap pages instead of faulting in
# fresh mappings.
_BLOCK_BYTES = 512 << 10


def _block_rows(width: int) -> int:
    """Rows of one factored block, at least one: eight arrays of ``width`` values per row fit ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (64 * width))


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
    """``sum_n coefficients[n-1] * cos(2*pi*n*x/period)`` as a folded baby-step/giant-step sum.

    With ``t = x/period`` reduced to [-1/2, 1/2], each order is written
    ``n = q*B + r`` or ``n = q*B - r`` for ``B = 2*h + 1``,
    ``h = isqrt(N//2)``, ``0 <= r <= h`` and ``q < Q = (N + h)//B + 1``.
    The pair folds by ``cos(A + b) + cos(A - b) = 2*cos(A)*cos(b)`` (and
    its sine twin), so with ``A = 2*pi*q*B*t`` and ``b = 2*pi*r*t`` the sum is

        sum_q cos(A) * sum_r cos(b) * plus[q, r] - sin(A) * sum_r sin(b) * minus[q, r]

    where ``plus[q, r] = c[qB+r] + c[qB-r]`` and ``minus[q, r] = c[qB+r] - c[qB-r]``,
    an order outside 1..N weighs zero, ``r = 0`` counts once and ``q = 0``
    only its upper side (Paterson and Stockmeyer, SIAM J. Comput. 2, 60
    (1973), for the unfolded split).  A row needs the baby steps
    ``cos(b)`` for ``r = 0..h`` and ``sin(b)`` for ``r = 1..h`` and the
    giant steps ``cos/sin(A)``, about ``2*sqrt(2*N)`` cosines and sines in
    place of ``N`` cosines, and about ``N`` multiply-adds.  The phases are
    reduced by :func:`_turns`.  The sums over ``r`` and ``q`` are
    ``np.einsum`` calls, numpy's own loops with no BLAS, each over the last
    axis of both operands.

    The positions go in chunks of ``_block_rows(1)`` = 8192.  The sum is
    even in ``t`` bit for bit (``fmod``, ``round`` and :func:`_turns` are
    odd, ``cos`` even, ``sin`` odd, and each sine term a product of two
    sines), so each distinct ``|t|`` of a chunk is evaluated once and the
    chunk's rows are gathered from those; a non-finite position is a NaN
    row, whose sign bit may differ.  The distinct values go in blocks of
    :func:`_block_rows`, with a few arrays of ``h + 1`` or ``Q`` values per
    row, so the memory beyond the result does not grow with ``len(x)``.
    """
    terms = coefficients.size
    half = math.isqrt(terms // 2)
    width = 2 * half + 1
    giant = (terms + half) // width + 1
    # row q holds the coefficients of orders q*width - half .. q*width + half,
    # zero outside 1..terms
    table = np.zeros(giant * width)
    table[half + 1 : half + 1 + terms] = coefficients
    table = table.reshape(giant, width)
    upper, lower = table[:, half:], table[:, half::-1]  # orders q*width + r and q*width - r
    plus = upper + lower
    plus[:, 0] = upper[:, 0]  # r = 0 is one order, counted once
    minus = upper[:, 1:] - lower[:, 1:]
    values = np.empty(x.size)
    chunk, rows = _block_rows(1), _block_rows(giant)  # giant >= half + 1, the widest temporaries
    for first in range(0, x.size, chunk):
        # the remainder of x by the period is exact, and one division rounds it
        t = np.fmod(x[first : first + chunk], period) / period
        t -= np.round(t)
        t, inverse = np.unique(np.abs(t, out=t), return_inverse=True)
        distinct = np.empty(t.size)
        for start in range(0, t.size, rows):
            block = t[start : start + rows]
            angles = _turns(block, np.arange(half + 1))
            angles *= 2.0 * math.pi
            cosines = np.einsum("ir,qr->iq", np.cos(angles), plus)
            sines = np.einsum("ir,qr->iq", np.sin(angles[:, 1:]), minus)
            angles = _turns(block, width * np.arange(giant))
            angles *= 2.0 * math.pi
            cosines *= np.cos(angles)
            sines *= np.sin(angles)
            distinct[start : start + rows] = np.einsum("iq->i", cosines) - np.einsum("iq->i", sines)
        values[first : first + chunk] = distinct[inverse]
    return values


def grid_function(x, spec: GratingSpec):
    """Truncated series value of the strip profile at position ``x``.

    Converges (as the truncation grows) to 1 on the strips and 0 on the
    gaps, with the usual overshoot of a truncated discontinuous series
    near the strip edges.  A scalar ``x`` gives a float and an array keeps
    its shape; both are evaluated as a flattened array, a scalar as one
    row, on the calling thread.

    An input of at most ``2**15`` cosines (``len(x) * N``) is the dense
    formula ``c0 + cos(2*pi/period * outer(x, n)) @ c``, bit for bit: one
    BLAS gemv.  That is a scalar up to 32768 terms, and the 401 positions
    of the CLI up to 81.  BLAS rounds a row by the shape of the whole
    matrix, so the same ``x`` may differ in its last bit between dense
    inputs of different lengths, and by the dense formula's error from a
    larger input (the README gives an example of each).  Under several
    BLAS threads a dense row may also change in its last bit.

    A larger input is the factored sum of :func:`_factored`: the position
    is reduced to a fraction of a period, and each row needs about
    ``2*sqrt(2*N)`` cosines and sines and ``N`` multiply-adds in
    ``np.einsum`` instead of ``N`` cosines.  It calls no BLAS, so its
    bits do not depend on the BLAS thread count, and its phases are
    reduced to a fraction of a turn before any rounding grows with the
    order, so it is as close to the exact sum as the dense formula or
    closer.  The sum is even in the reduced position ``t`` bit for bit,
    so it evaluates each distinct ``|t|`` of a chunk of 8192 positions
    once (the 401 CLI positions are 107 of them) and gathers the rows.
    Its chunks and rows are evaluated in blocks and ``c0`` is added in
    place, so the memory beyond the result does not grow with
    ``len(x)``.  A non-finite position gives a NaN row on either path.
    """
    return _profile(x, AmplitudeTable.build(spec.cover_ratio, spec.truncation), spec.period)


def _profile(x, table: AmplitudeTable, period: float):
    """:func:`grid_function` on the coefficients of ``table``, for a caller that already holds it."""
    c0, coefficients = _coefficients(table)
    arr = np.asarray(_real("x", x))
    flat = arr.reshape(-1)
    if flat.size * coefficients.size <= _DENSE_COSINES:
        n = np.arange(1, coefficients.size + 1)
        values = _cosines(flat, n, 2.0 * math.pi / period) @ coefficients
    else:
        values = _factored(flat, period, coefficients)
    values += c0  # in place, the bits of c0 + values: one result-sized array, not two
    return _unwrap(values.reshape(arr.shape))


def sampling_window(cover_ratio, channel: Channel) -> tuple:
    """``(width, sign)`` of the part of each period that feeds ``channel``.

    The transmitted channel sees the fringe through the open gap, width
    ``1 - cover_ratio`` and sign +1; the reflected channel through the
    strip, width ``cover_ratio`` and sign -1.  At zero slit phase the gap
    sits on the fringe maxima and the strip on the minima, and the sign
    also gives the direction the channel's light leaves in (+z
    transmitted, -z reflected).  This is the one place that tells the
    channels apart by name.  The covering ratio is widened first by
    :func:`_real`, as the configuration classes do: a scalar to a Python
    float and an array or list to a float64 array of widths, so a float32
    ratio rounds nothing in float32.  The sign is always a float.
    """
    cover_ratio = _check_cover_ratio(cover_ratio)
    if channel == "transmitted":
        return 1.0 - cover_ratio, 1.0
    if channel == "reflected":
        return cover_ratio, -1.0
    raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")


@dataclass(frozen=True, eq=False)
class AmplitudeTable:
    """Amplitudes r_0..r_N and t_0..t_N of the non-negative orders, of one covering ratio or a stack.

    Both families are even in the order, so only ``n >= 0`` is stored;
    order ``n`` of either sign is entry ``abs(n)`` of the last axis of
    ``r`` or ``t``.  A table of one ratio holds a Python float and 1-d
    ``r`` and ``t``; a stack holds a 1-d array of ratios and one row of
    ``r`` and ``t`` per ratio.  The spectra read one ratio only.
    """

    cover_ratio: float | np.ndarray
    r: np.ndarray
    t: np.ndarray

    @classmethod
    def build(cls, cover_ratio, truncation: int = DEFAULT_TRUNCATION) -> "AmplitudeTable":
        """The table at ``cover_ratio``: one number gives one table, a 1-d array or list a stack.

        One number is widened to a Python float first (``1 - a`` rounds in
        float64).  An array of ``k`` ratios gives ``r`` and ``t`` of shape
        ``(k, N + 1)``, each row bit for bit the table of its ratio alone:
        every entry is the same float64 operations on the same operands.
        Another shape raises ``TypeError`` naming ``cover_ratio``.  The
        stack's arrays are ``k`` times as large; a caller that builds many
        ratios bounds ``k``, as ``verify`` does.
        """
        cover_ratio = _check_cover_ratio(cover_ratio)
        shape = () if type(cover_ratio) is float else cover_ratio.shape  # np.shape(float) takes 1.4 us
        if len(shape) > 1:
            raise TypeError(f"cover_ratio must be one number or a one-dimensional array, got an array of shape {shape}")
        _check_truncation(truncation)
        n = np.arange(1.0, truncation + 1)
        # r_n = t_n = sin(a*pi*n)/((-1)**(n+1)*pi*n) for n >= 1: x/-y rounds to -(x/y),
        # -0.0 included.  Both go before the copy: heap page faults follow the free order
        r = np.empty(shape + (truncation + 1,))
        sines, divisor = sin_pi(np.multiply.outer(cover_ratio, n)), math.pi * n
        divisor[1::2] *= -1.0
        np.divide(sines, divisor, out=r[..., 1:])
        del sines, divisor
        t = r.copy()
        r[..., 0], t[..., 0] = -cover_ratio, 1.0 - cover_ratio
        r.flags.writeable = False
        t.flags.writeable = False
        return cls(cover_ratio=cover_ratio, r=r, t=t)

    def amplitudes(self, channel: Channel) -> np.ndarray:
        """``t`` for the transmitted channel (window sign +1), ``r`` for the reflected one."""
        _, sign = sampling_window(self.cover_ratio, channel)
        return self.t if sign > 0.0 else self.r


def _check_table(table) -> None:
    """Refuse a ``table`` that is not an :class:`AmplitudeTable` with a ``TypeError`` naming it."""
    if not isinstance(table, AmplitudeTable):
        raise TypeError(f"table must be an AmplitudeTable, got {table!r:.60}")


def _check_one_table(table) -> None:
    """:func:`_check_table` for a reader of one covering ratio: a stack is a ``TypeError`` naming ``table``.

    A stack is a table whose ``cover_ratio`` is an array; the amplitudes of
    a hand-made table are checked by the spectrum made from them.
    """
    _check_table(table)
    if np.ndim(table.cover_ratio) != 0:
        raise TypeError(f"table must hold one covering ratio, got a stack of shape {np.shape(table.cover_ratio)}")


def _coefficients(table: AmplitudeTable) -> tuple[float, np.ndarray]:
    """``(c_0, [c_1 .. c_N])`` of the profile series: ``c_0 = a`` and ``c_n = -2*r_n``, a new array."""
    return table.cover_ratio, -2.0 * table.r[1:]


def normalization_defect(table: AmplitudeTable):
    """Power unaccounted for by a truncated amplitude table, per covering ratio.

    Returns ``1 - (r_0**2 + t_0**2 + sum_{n=1..N} 2*(r_n**2 + t_n**2))``
    over the last axis: a float for a table of one ratio, one value per
    row for a stack, each with the bits of its row alone.  For a table
    from :meth:`AmplitudeTable.build` it is non-negative and bounded by the
    series tail ``4/(pi**2 * N)``, and exactly zero for the degenerate
    gratings ``cover_ratio`` 0 and 1.
    """
    _check_table(table)
    r, t = table.r, table.t
    head = r[..., 0] ** 2 + t[..., 0] ** 2
    tail = 2.0 * (r[..., 1:] ** 2 + t[..., 1:] ** 2).sum(axis=-1)
    return _unwrap(1.0 - (head + tail))
