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
forms.  The reflected-channel closed forms follow from the transmitted ones
by the substitution a <-> 1-a (equal roles of strip and gap) and are not
printed anywhere else; treat them as derived.

For every covering ratio, V**2 + D**2 <= 1, with equality only at the
degenerate endpoints.  Transmitted and reflected photons are disjoint
subensembles; each channel is normalized on its own and the two are never
combined.

Each closed form is one numpy path: a scalar covering ratio is a 0-d
array and gives floats, an array of ratios gives arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grating import AmplitudeTable, Channel, _unwrap, sampling_window, sin_pi, sinc_pi

__all__ = [
    "VisibilityResult",
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


@dataclass(frozen=True)
class VisibilityResult:
    """Channel power at the two grating positions and the fringe contrast.

    ``i_max`` is the total with the sampling windows on the fringe maxima
    of their channel, ``i_min`` with them on the minima;
    ``visibility = (i_max - i_min)/(i_max + i_min)`` whenever the
    denominator is positive, and the analytic limit 1 at the degenerate
    endpoint where both integrals vanish.  The fields are Python floats
    for a scalar covering ratio, a 0-d array included, else arrays.
    """

    i_max: float
    i_min: float
    visibility: float


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


def visibility_closed(cover_ratio, channel: Channel = "transmitted") -> VisibilityResult:
    """Closed-form visibility for one channel.

    The contrast is evaluated as ``sinc`` of the window width (gap width
    ``1-a`` transmitted, strip width ``a`` reflected), which carries the
    exact limit value 1 at the singular endpoint and stays fully accurate
    next to it.  An array of covering ratios gives a result of arrays.
    """
    width = np.asarray(sampling_window(cover_ratio, channel)[0])
    s = sin_pi(cover_ratio)
    i_max = (math.pi * width + s) / (2.0 * math.pi)
    i_min = (math.pi * width - s) / (2.0 * math.pi)
    i_min = np.where(i_min > 0.0, i_min, 0.0)  # max(0.0, i_min), NaN included
    return VisibilityResult(i_max=_unwrap(i_max), i_min=_unwrap(i_min), visibility=sinc_pi(width))


def visibility_quadrature(cover_ratio: float, channel: Channel = "transmitted") -> VisibilityResult:
    """Visibility from direct fringe-intensity integrals (numerical oracle).

    Integrates ``cos(pi*x)**2`` and ``sin(pi*x)**2`` over the sampling
    window ``[-w/2, w/2]`` (one period normalized to 1) with a fixed
    16-node Gauss-Legendre rule: deterministic, no adaptivity, and no use
    of the closed forms.  At the degenerate endpoint (zero-width window)
    both integrals vanish and the visibility takes its analytic limit 1,
    matching the closed form.
    """
    width, _ = sampling_window(cover_ratio, channel)
    if width == 0.0:
        return VisibilityResult(i_max=0.0, i_min=0.0, visibility=1.0)
    half = 0.5 * width
    angles = np.pi * (half * _NODES)
    i_max = half * float(np.dot(_WEIGHTS, np.cos(angles) ** 2))
    i_min = half * float(np.dot(_WEIGHTS, np.sin(angles) ** 2))
    return VisibilityResult(i_max=i_max, i_min=i_min, visibility=(i_max - i_min) / (i_max + i_min))


def distinguishability_closed(cover_ratio, channel: Channel = "transmitted"):
    """Closed-form path distinguishability for one channel.

    The absolute value mirrors the trace-norm definition; for covering
    ratios in [0, 1] the enclosed expression is already non-negative, so
    it only ever absorbs floating-point dust at the endpoints.  An array
    of covering ratios gives an array.
    """
    width, _ = sampling_window(cover_ratio, channel)
    leak = sin_pi(cover_ratio) / math.pi
    # float_power is libm pow, as Python's ``**``; width*width rounds
    # differently from pow on about 0.1 % of inputs, in pinned sweep rows
    return _unwrap(np.abs(np.float_power(width, 2) - leak * leak))


def distinguishability_from_amplitudes(
    table: AmplitudeTable, channel: Channel = "transmitted"
) -> float:
    """Distinguishability via the trace-norm sum over both slits.

    Reads the zeroth- and first-order amplitudes of ``table``: detector
    one sees ``u_0`` from its own slit and ``u_1`` from the other, and
    symmetrically for detector two.  For a table from
    :meth:`AmplitudeTable.build` it must agree with the closed form to
    machine precision.
    """
    u0, u1 = table.amplitudes(channel)[:2]
    return float(0.5 * (abs(u0 * u0 - u1 * u1) + abs(u1 * u1 - u0 * u0)))


def complementarity_sweep(cover_ratios, channel: Channel = "transmitted") -> SweepColumns:
    """Evaluate (V, D, V**2 + D**2) for each covering ratio, input order kept.

    The ratios (a 1-d array or sequence) are copied, so no column aliases
    the caller's array.  One vectorised pass per column; an unknown channel
    is rejected even for no ratios.
    """
    a = np.array(cover_ratios)
    if a.ndim != 1:
        raise ValueError(f"cover ratios must be one-dimensional, got shape {a.shape}")
    v = visibility_closed(a, channel).visibility
    d = distinguishability_closed(a, channel)
    return SweepColumns(
        cover_ratio=a.astype(float, copy=False),
        visibility=v,
        distinguishability=d,
        duality=v * v + d * d,
    )
