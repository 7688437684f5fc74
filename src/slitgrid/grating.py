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


def sin_pi(u):
    """sin(pi*u), exact at integers.

    The argument is reduced to [0, 1/2] before multiplying by pi, so integer
    ``u`` returns exactly 0.0 and values near integers keep full precision
    instead of inheriting the rounding error of ``pi*u``.  A numpy array
    gives an array; any other argument is a scalar and goes through
    ``math.sin``, with the same bits as numpy's ``sin`` on the reduced range.
    """
    if isinstance(u, np.ndarray):
        red = np.mod(u.astype(float, copy=False), 2.0)
        sign = np.where(red >= 1.0, -1.0, 1.0)
        red = np.where(red >= 1.0, red - 1.0, red)
        red = np.where(red > 0.5, 1.0 - red, red)
        out = sign * np.sin(np.pi * red)
        return float(out) if out.ndim == 0 else out
    red = float(u) % 2.0
    sign = 1.0
    if red >= 1.0:
        sign, red = -1.0, red - 1.0
    if red > 0.5:
        red = 1.0 - red
    return sign * math.sin(math.pi * red)


def sinc_pi(u):
    """sin(pi*u)/(pi*u) with the limit value 1 at u = 0; scalar or array."""
    if isinstance(u, np.ndarray):
        u = u.astype(float, copy=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u == 0.0, 1.0, sin_pi(u) / (np.pi * u))
        return float(out) if out.ndim == 0 else out
    if u == 0.0:
        return 1.0
    return sin_pi(u) / (math.pi * u)


def _check_cover_ratio(cover_ratio) -> None:
    if isinstance(cover_ratio, np.ndarray):
        outside = ~((cover_ratio >= 0.0) & (cover_ratio <= 1.0))  # NaN is outside too
        if np.any(outside):
            bad = cover_ratio[outside].flat[0]
            raise ValueError(f"cover ratio must lie in [0, 1], got {float(bad)!r}")
    elif not (0.0 <= cover_ratio <= 1.0):
        raise ValueError(f"cover ratio must lie in [0, 1], got {cover_ratio!r}")


def _check_truncation(truncation: int) -> None:
    if not (isinstance(truncation, (int, np.integer)) and truncation >= 1):
        raise ValueError(f"truncation order must be an integer >= 1, got {truncation!r}")


@dataclass(frozen=True)
class GratingSpec:
    """Strip grating: covering ratio, period, and series truncation order.

    ``cover_ratio = 0`` is no grating at all, ``cover_ratio = 1`` a full
    mirror; both degenerate cases are accepted.
    """

    cover_ratio: float
    period: float = 1.0
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self) -> None:
        _check_cover_ratio(self.cover_ratio)
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be positive, got {self.period!r}")
        _check_truncation(self.truncation)


def _harmonics(cover_ratio: float, n: np.ndarray) -> np.ndarray:
    """``r_n = t_n = (-1)**(n+1) * sin(cover_ratio*pi*n)/(pi*n)`` for an array of orders ``n >= 1``."""
    sign = 2.0 * (n % 2) - 1.0  # (-1)**(n+1)
    return sign * sin_pi(cover_ratio * n) / (math.pi * n)


# An array of positions is evaluated in row blocks of about this many bytes
# of cosines, each a multiple of _ROW_ALIGN rows (see _block_rows).
_BLOCK_BYTES = 8 << 20
_ROW_ALIGN = 16


def _block_rows(terms: int) -> int:
    """Rows of one profile block: a multiple of ``_ROW_ALIGN`` within ``_BLOCK_BYTES``.

    Never fewer than ``_ROW_ALIGN`` rows, so beyond 65536 terms a block
    outgrows the budget.
    """
    return max(_ROW_ALIGN, _BLOCK_BYTES // (8 * terms) // _ROW_ALIGN * _ROW_ALIGN)


def _cosines(x, n, scale: float, out=None):
    """``cos(scale * outer(x, n))``, computed in place in ``out`` (or a new array)."""
    angles = np.multiply.outer(x, n, out=out)
    angles *= scale
    return np.cos(angles, out=angles)


def grid_function(x, spec: GratingSpec):
    """Truncated series value of the strip profile at position ``x``.

    Converges (as the truncation grows) to 1 on the strips and 0 on the
    gaps, with the usual overshoot of a truncated discontinuous series
    near the strip edges.  Accepts scalar or array ``x``; an array keeps
    its shape.

    An array is flattened, evaluated in blocks of rows of about 8 MiB of
    cosines and reshaped, so the memory beyond the result does not grow
    with ``len(x)``.  Each row gets the bits of the dense formula
    ``c0 + cos(2*pi/period * outer(x, n)) @ c`` on the flattened ``x``:
    the blocks run the same ufuncs and the same BLAS gemv, and gemv takes
    each row through the same kernel as in one dense call.  Its main loop
    takes rows in groups, while trailing rows and one-row matrices each
    take another path, so every block but the last is a multiple of 16
    rows and a remainder shorter than 16 rows joins the last block.  An
    input that fits one block is one gemv of the dense shape.  A 2-D ``x``
    gets the bits of its flattened form, which may differ in the last bit
    from a stacked matmul over its rows.  A scalar ``x`` is one dot
    product, which BLAS rounds differently from a gemv row, so it may
    differ in the last bit from the same ``x`` inside an array (the
    README gives an example).

    The bits depend on the BLAS thread count for large grids.  A
    multi-threaded gemv splits the rows between threads at places that
    depend on the matrix shape, so the dense formula already changes the
    last bit of some rows with the thread count, and an input larger than
    one block may differ from it in the last bit of a few rows.  Under one
    BLAS thread every row equals the dense formula.
    """
    n = np.arange(1, spec.truncation + 1)
    coefficients = -2.0 * _harmonics(spec.cover_ratio, n)
    scale = 2.0 * math.pi / spec.period
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(spec.cover_ratio + _cosines(arr, n, scale) @ coefficients)
    flat = arr.reshape(-1)
    rows = _block_rows(n.size)
    last = max(flat.size - _ROW_ALIGN, 0) // rows * rows  # start of the last block
    buffer = np.empty((max(flat.size - last, min(rows, flat.size)), n.size))
    values = np.empty(flat.size)
    for start in range(0, last + 1, rows):
        stop = flat.size if start == last else start + rows
        values[start:stop] = _cosines(flat[start:stop], n, scale, buffer[: stop - start]) @ coefficients
    return (spec.cover_ratio + values).reshape(arr.shape)


def sampling_window(cover_ratio, channel: Channel) -> tuple:
    """``(width, sign)`` of the part of each period that feeds ``channel``.

    The transmitted channel sees the fringe through the open gap, width
    ``1 - cover_ratio`` and sign +1; the reflected channel through the
    strip, width ``cover_ratio`` and sign -1.  At zero slit phase the gap
    sits on the fringe maxima and the strip on the minima, and the sign
    also gives the direction the channel's light leaves in (+z
    transmitted, -z reflected).  This is the one place that tells the
    channels apart by name.  An array of covering ratios gives an array
    of widths; the sign is always a float.
    """
    _check_cover_ratio(cover_ratio)
    if channel == "transmitted":
        return 1.0 - cover_ratio, 1.0
    if channel == "reflected":
        return (cover_ratio if isinstance(cover_ratio, np.ndarray) else float(cover_ratio)), -1.0
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
        _check_cover_ratio(cover_ratio)
        _check_truncation(truncation)
        harmonics = _harmonics(cover_ratio, np.arange(1, truncation + 1))
        r = np.concatenate(([-cover_ratio], harmonics))
        t = np.concatenate(([1.0 - cover_ratio], harmonics))
        r.flags.writeable = False
        t.flags.writeable = False
        return cls(cover_ratio=float(cover_ratio), r=r, t=t)

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
