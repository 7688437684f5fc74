"""Visibility, distinguishability, and the duality bound.

Fringe visibility is measured by scanning the slit phase (equivalently,
translating the grating) and collecting one channel's total power.  The
finite strip/gap widths average the fringe over a window, so

    V_t(a) = sin(pi*a) / (pi*(1-a))        transmitted
    V_r(a) = sin(pi*a) / (pi*a)            reflected

with the limit value 1 at the singular endpoints (a=1 transmitted, a=0
reflected).  Which-path distinguishability is half the trace-norm distance
between the two detector responses, which for this balanced setup reduces
to the zeroth/first-order amplitude difference:

    D_t(a) = |t_0**2 - t_1**2| = (1-a)**2 - (sin(pi*a)/pi)**2
    D_r(a) = |r_0**2 - r_1**2| =     a**2 - (sin(pi*a)/pi)**2

Both visibilities also come out of direct fringe-intensity integrals over
the open gaps (or strips), implemented here with one fixed 16-node
Gauss-Legendre rule as an independent numerical oracle for the closed
forms.  By Babinet, each closed form is one function of the window width
and the shared ``sin(pi*a)``, so the reflected channel at ``a`` is the
transmitted one at ``1-a``: ``TestChannelMirror`` in the tests checks it.

For every covering ratio, V**2 + D**2 <= 1, with equality only at the
degenerate endpoints.  Transmitted and reflected photons are disjoint
subensembles; each channel is normalized on its own and the two are never
combined.

The closed forms and the quadrature oracle are each one numpy path: a
scalar ratio is a 0-d array and gives a float, an array gives an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grating import AmplitudeTable, Channel, _check_table, _one_dimensional, _real, _unwrap, sampling_window, sin_pi

__all__ = [
    "SweepColumns",
    "visibility_closed",
    "visibility_quadrature",
    "distinguishability_closed",
    "distinguishability_from_amplitudes",
    "complementarity_sweep",
]

# nodes on [-1, 1] and positive weights summing to 2; the integrands are
# entire, so this one rule is accurate to rounding at every window width
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True, eq=False)
class SweepColumns:
    """One channel's sweep as columns: covering ratio, V, D and V**2 + D**2.

    ``len()`` is the number of covering ratios.
    """

    cover_ratio: np.ndarray
    visibility: np.ndarray
    distinguishability: np.ndarray
    duality: np.ndarray

    def __len__(self) -> int:
        return len(self.cover_ratio)


def _contrast(difference, total):
    """``difference/total``, and the zero-width limit 1 where ``total`` is zero."""
    return _unwrap(np.divide(difference, total, out=np.ones(np.shape(total)), where=total != 0.0))


def _cover_grid(points: int) -> np.ndarray:
    """``points`` covering ratios evenly from 0 to 1, both ends exact: the sweep's and verify's grid."""
    return np.arange(points) / (points - 1)


def _distinguishability(width, s):
    # float_power is libm pow, as Python's ``**``; width*width rounds
    # differently from pow on about 0.1 % of inputs, in pinned sweep rows
    return _unwrap(np.abs(np.float_power(width, 2) - np.square(s / math.pi)))


def visibility_closed(cover_ratio, channel: Channel = "transmitted"):
    """Closed-form visibility for one channel.

    The contrast is ``sin(pi*a)/(pi*w)`` of the window width ``w`` (gap
    ``1-a`` transmitted, strip ``a`` reflected), 1 at ``w = 0``.  The sine
    reads ``a`` itself, not the rounded ``1-a``, so V is accurate to a few
    ulps on both channels.  A scalar covering ratio, a 0-d array included,
    gives a Python float; an array or list gives an array, widened to
    float64 once, here.
    """
    cover_ratio = _real("cover_ratio", cover_ratio)
    width = sampling_window(cover_ratio, channel)[0]  # checks the ratio before sin_pi reads it
    return _contrast(sin_pi(cover_ratio), math.pi * width)


def visibility_quadrature(cover_ratio, channel: Channel = "transmitted"):
    """Visibility from direct fringe-intensity integrals (numerical oracle).

    Integrates ``cos(pi*x)**2`` (the fringe maxima) and ``sin(pi*x)**2``
    (the minima) over the sampling window ``[-w/2, w/2]`` (one period
    normalized to 1) with a fixed 16-node Gauss-Legendre rule:
    deterministic, no adaptivity, and no use of the closed forms.  V is
    their difference over their sum.  Where the window is too narrow for
    its half to be non-zero, both integrals vanish and the visibility
    takes its analytic limit 1, matching the closed form.  Scalars and
    arrays give what :func:`visibility_closed` gives.
    """
    width, _ = sampling_window(cover_ratio, channel)
    half = 0.5 * np.asarray(width)
    angles = np.pi * (half[..., None] * _NODES)
    on_maxima = half * (np.cos(angles) ** 2 * _WEIGHTS).sum(axis=-1)
    on_minima = half * (np.sin(angles) ** 2 * _WEIGHTS).sum(axis=-1)
    return _contrast(on_maxima - on_minima, on_maxima + on_minima)


def distinguishability_closed(cover_ratio, channel: Channel = "transmitted"):
    """Closed-form path distinguishability for one channel.

    The absolute value mirrors the trace-norm definition; for covering
    ratios in [0, 1] the enclosed expression is already non-negative, so
    it only ever absorbs floating-point dust at the endpoints.  An array
    or list of covering ratios gives an array; it is widened to float64
    once, here.
    """
    cover_ratio = _real("cover_ratio", cover_ratio)
    return _distinguishability(sampling_window(cover_ratio, channel)[0], sin_pi(cover_ratio))


def distinguishability_from_amplitudes(table: AmplitudeTable, channel: Channel = "transmitted"):
    """Distinguishability ``|u_0**2 - u_1**2|`` from the zeroth- and first-order amplitudes.

    Reads ``u_0`` and ``u_1`` of ``table`` on the last axis: detector one
    sees ``u_0`` from its own slit and ``u_1`` from the other, detector two
    the reverse, so both differ by ``|u_0**2 - u_1**2|`` and the
    trace-norm half-sum over the two is that difference.  A table of one
    ratio gives a float, a stack one value per row, each with the bits of
    its row alone.  For a table from :meth:`AmplitudeTable.build` it must
    agree with the closed form to machine precision.
    """
    _check_table(table)
    amps = table.amplitudes(channel)
    u0, u1 = amps[..., 0], amps[..., 1]
    return _unwrap(np.abs(u0 * u0 - u1 * u1))


def complementarity_sweep(cover_ratios, channel: Channel = "transmitted") -> SweepColumns:
    """Evaluate (V, D, V**2 + D**2) for each covering ratio, input order kept.

    The ratios (a 1-d array or sequence) are copied, so no column aliases
    the caller's array.  V and D share one check and one ``sin(pi*a)``;
    an unknown channel is rejected even for no ratios.
    """
    a = np.array(_one_dimensional("cover_ratio", cover_ratios))
    width, s = sampling_window(a, channel)[0], sin_pi(a)
    v, d = _contrast(s, math.pi * width), _distinguishability(width, s)
    return SweepColumns(
        cover_ratio=a,
        visibility=v,
        distinguishability=d,
        duality=v * v + d * d,
    )
