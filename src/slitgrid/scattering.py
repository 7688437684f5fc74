"""Interference at the grating plane and diffraction-order spectra.

With one slit open the grating scatters an incident plane wave into integer
orders with probabilities ``|r_n|**2`` / ``|t_n|**2``.  With both slits open
the incident waves arrive offset by plus/minus half an order, so the
outgoing directions carry half-odd-integer labels ``m = n + 1/2`` and the
adjacent-order amplitudes of the two slits overlap:

    P(m) = |u_n + exp(i*delta_phi) * u_{n+1}|**2 / 2

with ``u`` the reflection or transmission amplitudes and ``delta_phi`` the
relative phase between the slits.  At ``delta_phi = 0`` (strips on the
fringe minima) adjacent orders interfere destructively because their signs
alternate, which is what makes the grating nearly invisible in the
two-slit configuration.

Conventions: slit one carries the +1/2 offset, slit two the -1/2 offset,
so the ``m = +1/2`` bin takes slit one's zeroth order and slit two's
first, and ``m = -1/2`` the reverse.  These two directions are the
slit-image detectors, whose single-slit powers ``u_0**2`` and ``u_1**2``
the distinguishability compares.  Both slits are illuminated equally
(amplitude ``1/sqrt(2)`` each).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PARAXIAL_BOUND, ParaxialWarning, SetupGeometry
from .grating import (
    AmplitudeTable, Channel, GratingSpec, _check_one_table, _one_dimensional, _one_real, _real, _unwrap,
    sampling_window, sin_pi,
)

__all__ = [
    "TwoSlitConfig",
    "OrderSpectrum",
    "interference_intensity",
    "single_slit_spectrum",
    "two_slit_spectrum",
    "two_slit_power_limit",
    "synthesize_field",
]


def _check_phase(delta_phi) -> float:
    """``delta_phi`` as one finite Python float, by :func:`grating._one_real`, reduced to [0, 2*pi)."""
    delta_phi = _one_real("delta_phi", delta_phi)
    if not math.isfinite(delta_phi):
        raise ValueError(f"delta_phi must be finite, got {delta_phi!r}")
    reduced = delta_phi % math.tau
    return 0.0 if reduced == math.tau else reduced  # a tiny negative phase rounds up to tau


@dataclass(frozen=True)
class TwoSlitConfig:
    """Both slits open for :func:`synthesize_field`, equal illumination, relative phase ``delta_phi``.

    ``delta_phi = 0`` puts the grating strips on the interference minima
    (the intended operating point); the phase is one number, never an
    array (``TypeError``), widened to a Python float and reduced to
    [0, 2*pi).  A ``spec`` that is not a :class:`GratingSpec` is a
    ``TypeError``.
    """

    spec: GratingSpec
    delta_phi: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.spec, GratingSpec):
            raise TypeError(f"spec must be a GratingSpec, got {self.spec!r:.60}")
        object.__setattr__(self, "delta_phi", _check_phase(self.delta_phi))


@dataclass(frozen=True, eq=False)
class OrderSpectrum:
    """Probabilities per outgoing order for one channel.

    Orders are integers (single slit) or half-odd integers (two slits),
    stored ascending as floats.  Both are one-dimensional and widened to
    float64 by :func:`grating._real`; another shape is a ``ValueError``.
    """

    channel: Channel
    orders: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", _one_dimensional("orders", self.orders))
        object.__setattr__(self, "probabilities", _one_dimensional("probabilities", self.probabilities))
        if self.orders.shape != self.probabilities.shape:
            raise ValueError("orders and probabilities must have matching shapes")
        if not np.all(self.probabilities >= 0.0):  # also false for NaN
            raise ValueError("probabilities must be non-negative")

    def probability(self, order: float) -> float:
        """Probability at one order (exact index match); ``order`` is one real number."""
        order = _one_real("order", order)
        hits = np.nonzero(self.orders == order)[0]
        if hits.size == 0:
            raise KeyError(f"order {order!r} not present in spectrum")
        return float(self.probabilities[hits[0]])

    def total(self) -> float:
        """Summed probability over all tabulated orders."""
        return float(np.sum(self.probabilities))


def interference_intensity(x, delta_phi: float = 0.0):
    """Two-slit fringe intensity ``cos(pi*x + delta_phi)**2``, ``x`` in grating periods.

    Evaluated through the double-angle form.  At zero phase every integer
    ``|x| < 2.1e7`` gives exactly 1.0 and every half-integer
    ``|x| < 1.26e7`` exactly 0.0 (the first miss, ``12605631.5``, gives
    5.6e-17); ``pi*x`` rounds before any reduction, so ``2**40 + 0.5``
    gives 1.7e-8.  A scalar ``x`` gives a float, an array an array;
    ``delta_phi`` must be one finite number, and is reduced to [0, 2*pi)
    first, so that a huge phase still gives a finite fringe.
    """
    delta_phi = _check_phase(delta_phi)
    return _unwrap(0.5 * (1.0 + np.cos(2.0 * (np.pi * _real("x", x) + delta_phi))))


def _mirrored(amps: np.ndarray) -> np.ndarray:
    """[u_N .. u_1, u_0, u_1 .. u_N] from the stored non-negative half."""
    return np.concatenate((amps[:0:-1], amps))


def _orders(truncation: int, two_slit: bool) -> np.ndarray:
    """Outgoing order labels as ascending floats: ``n`` in [-N, N], or ``n + 1/2`` for ``n`` in [-N, N-1]."""
    if two_slit:
        return np.arange(-truncation, truncation, dtype=float) + 0.5
    return np.arange(-truncation, truncation + 1, dtype=float)


def single_slit_spectrum(table: AmplitudeTable, channel: Channel) -> OrderSpectrum:
    """Stage with one slit open: ``P(n) = u_n**2`` for ``n`` in [-N, N].

    ``u`` are the amplitudes of ``channel`` in ``table``, which holds one
    covering ratio.
    """
    _check_one_table(table)
    amps = table.amplitudes(channel)
    return OrderSpectrum(channel, _orders(amps.size - 1, False), _mirrored(amps) ** 2)


def two_slit_spectrum(table: AmplitudeTable, channel: Channel, delta_phi: float = 0.0) -> OrderSpectrum:
    """Stage with both slits open: half-order bins ``m = n + 1/2`` for ``n`` in [-N, N-1].

    ``P(m) = |u_n + exp(i*delta_phi)*u_{n+1}|**2 / 2`` expanded for the
    real amplitudes ``u`` of ``channel`` in ``table``: every bin whose two
    contributing orders are inside the truncated table, which holds one
    covering ratio.  ``delta_phi`` is one finite number, reduced to
    [0, 2*pi) before its cosine is taken.
    """
    _check_one_table(table)
    cos_phi = math.cos(_check_phase(delta_phi))
    amps = table.amplitudes(channel)
    full = _mirrored(amps)
    lower, upper = full[:-1], full[1:]
    # grouping the product keeps P(m) == P(-m) exact, not just up to rounding;
    # the clamp absorbs the last-ulp negatives of fully destructive bins
    probs = np.maximum(0.5 * (lower**2 + upper**2 + 2.0 * cos_phi * (lower * upper)), 0.0)
    return OrderSpectrum(channel, _orders(amps.size - 1, True), probs)


def two_slit_power_limit(cover_ratio: float, channel: Channel, delta_phi: float = 0.0) -> float:
    """Untruncated channel total with both slits open.

    Summing ``|u_n + e^{i*phi} u_{n+1}|**2 / 2`` over all orders gives
    ``1 - a + cos(phi)*sin(pi*a)/pi`` transmitted and
    ``a - cos(phi)*sin(pi*a)/pi`` reflected; the two always add to one.
    These equal the fringe intensity integrated over the open gaps
    (respectively the strips), which is how the visibility module checks
    them independently.  The cross term enters with the window's sign:
    at zero phase the gaps sit on the fringe maxima, the strips on the
    minima.
    """
    cos_phi = math.cos(_check_phase(delta_phi))
    width, sign = sampling_window(cover_ratio, channel)
    cross = cos_phi * sin_pi(cover_ratio) / math.pi
    return width + sign * cross


def synthesize_field(
    x: float,
    z: float,
    config: GratingSpec | TwoSlitConfig,
    side: Channel,
    setup: SetupGeometry,
) -> complex:
    """Scattered field at ``(x, z)`` as a sum of outgoing plane waves.

    Pass a :class:`GratingSpec` for single-slit (normal-incidence)
    illumination or a :class:`TwoSlitConfig` for both slits.  Transmitted
    waves run toward +z, reflected waves toward -z; evanescent orders are
    dropped.  The order spacing comes from ``setup.k_perp`` (the spec's
    own period is not used here).  ``x`` and ``z`` are one point each, one
    real number by :func:`grating._one_real`: an array of points, a list
    or a str raises ``TypeError``.

    At ``z = 0`` the single-slit transmitted field reproduces
    ``1 - grid_function(x)`` up to the propagation cutoff.

    The plane-wave decomposition (amplitudes and the phase factors
    ``1j*k_x`` and ``1j*k_z``, ``k_z`` signed by the side, of the
    propagating orders) depends only on the configuration, so it is
    memoised for the last 8 configurations: arrays of at most
    ``8 * (6N + 3)`` complex128 values, ``N`` the largest truncation in
    use.  The ``functools.lru_cache`` that holds them is thread-safe and
    the arrays are read-only, so results can still be shared freely across
    threads.  Each call still checks the position and ``side`` and warns
    on its own: one :class:`ParaxialWarning` per call outside the
    small-angle regime (``s/g`` above ``PARAXIAL_BOUND``, which also covers
    the breakdown ``k_perp >= k``), reported at the caller's line.  The
    sum is ``np.add.reduce``, the pairwise sum ``np.sum`` itself runs,
    without its Python wrapper, and the result has the same bits as
    rebuilding the decomposition on every call.
    """
    if not (type(x) is float and type(z) is float):  # floats skip two calls, 5 % of a cached point
        x, z = _one_real("position x", x), _one_real("position z", z)
    spec = config.spec if isinstance(config, TwoSlitConfig) else config
    sampling_window(spec.cover_ratio, side)  # rejects an unknown side before any warning
    ratio = setup.s / setup.g
    if not ratio <= PARAXIAL_BOUND:
        warnings.warn(
            f"s/g = {ratio:.4g} exceeds the paraxial bound "
            f"{PARAXIAL_BOUND:.4g}; small-angle formulas degrade",
            ParaxialWarning,
            stacklevel=2,
        )
    amps, ik_x, ik_z = _plane_waves(
        spec.cover_ratio,
        spec.truncation,
        config.delta_phi if isinstance(config, TwoSlitConfig) else None,
        side,
        setup.k_perp,
        setup.k,
    )
    # the phase factors have a zero real part, so the argument's imaginary
    # part rounds as k_z*z + k_x*x and only the sign of its zero real part
    # can differ, which exp ignores
    return complex(np.add.reduce(amps * np.exp(ik_z * z + ik_x * x)))


# The configuration classes store every real number as a Python float, so
# keys that compare equal compute alike and share an entry.  So do 0.0 and
# -0.0: they differ only in the sign of r_0 = -a, and at a = 0 every
# reflected amplitude is zero, a field that np.add.reduce returns as +0j.
@functools.lru_cache(maxsize=8)
def _plane_waves(cover_ratio, truncation, delta_phi, side, k_perp, k):
    """``(amps, 1j*k_x, 1j*(z_sign*k_z))`` of the propagating orders, read-only.

    ``delta_phi`` is None for a single slit and the reduced slit phase for
    two slits.
    """
    _, z_sign = sampling_window(cover_ratio, side)
    table = AmplitudeTable.build(cover_ratio, truncation)
    full = _mirrored(table.amplitudes(side))

    if delta_phi is None:
        amps = full.astype(complex)
    else:  # a half-order bin mixes the adjacent orders of the two slits
        amps = (full[:-1] + np.exp(1j * delta_phi) * full[1:]) / math.sqrt(2.0)
    # order m leaves at transverse wavenumber 2*m*k_perp, the spectra's labels
    k_x = 2.0 * _orders(truncation, delta_phi is not None) * k_perp

    propagating = np.abs(k_x) < k
    k_x = k_x[propagating]
    amps = amps[propagating]
    k_z = z_sign * np.sqrt(k * k - k_x * k_x)
    waves = (amps, 1j * k_x, 1j * k_z)
    for array in waves:
        array.flags.writeable = False
    return waves
