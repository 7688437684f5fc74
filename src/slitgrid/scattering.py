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
detector one collects the ``m = +1/2`` bin and detector two the
``m = -1/2`` bin.  Both slits are illuminated equally (amplitude
``1/sqrt(2)`` each).
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PARAXIAL_BOUND, ParaxialWarning, SetupGeometry
from .grating import AmplitudeTable, Channel, GratingSpec, _unwrap, sampling_window, sin_pi

__all__ = [
    "TwoSlitConfig",
    "OrderSpectrum",
    "DetectorSignal",
    "interference_intensity",
    "single_slit_spectrum",
    "two_slit_probabilities",
    "two_slit_spectrum",
    "detector_signal",
    "single_slit_detector_signal",
    "two_slit_power_limit",
    "synthesize_field",
]


def _check_phase(delta_phi: float) -> None:
    if getattr(delta_phi, "ndim", 0):
        raise TypeError(f"delta_phi must be one number, got an array of shape {delta_phi.shape}")
    if not math.isfinite(delta_phi):
        raise ValueError(f"delta_phi must be finite, got {delta_phi!r}")


@dataclass(frozen=True)
class TwoSlitConfig:
    """Both slits open, equal illumination, relative phase ``delta_phi``.

    ``delta_phi = 0`` puts the grating strips on the interference minima
    (the intended operating point); the phase is one number, never an
    array (``TypeError``), widened to a Python float and reduced to
    [0, 2*pi).
    """

    spec: GratingSpec
    delta_phi: float = 0.0

    def __post_init__(self) -> None:
        _check_phase(self.delta_phi)
        object.__setattr__(self, "delta_phi", float(self.delta_phi) % math.tau)


@dataclass(frozen=True, eq=False)
class OrderSpectrum:
    """Probabilities per outgoing order for one channel.

    Orders are integers (single slit) or half-odd integers (two slits),
    stored ascending as floats.
    """

    channel: Channel
    orders: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if self.orders.shape != self.probabilities.shape:
            raise ValueError("orders and probabilities must have matching shapes")
        if not np.all(self.probabilities >= 0.0):  # also false for NaN
            raise ValueError("probabilities must be non-negative")

    @property
    def two_slit(self) -> bool:
        """True when the spectrum is indexed by half-odd-integer orders."""
        return bool(np.all(np.mod(self.orders, 1.0) == 0.5))

    def probability(self, order: float) -> float:
        """Probability at one order (exact index match)."""
        hits = np.nonzero(self.orders == order)[0]
        if hits.size == 0:
            raise KeyError(f"order {order!r} not present in spectrum")
        return float(self.probabilities[hits[0]])

    def total(self) -> float:
        """Summed probability over all tabulated orders."""
        return float(np.sum(self.probabilities))


@dataclass(frozen=True)
class DetectorSignal:
    """Power reaching each slit-image detector plus everything else.

    ``p_loss`` is the power in all other diffraction orders; the three
    parts sum to the channel's tabulated total to within rounding.
    """

    p_d1: float
    p_d2: float
    p_loss: float

    @property
    def total(self) -> float:
        return self.p_d1 + self.p_d2 + self.p_loss


def interference_intensity(x, delta_phi: float = 0.0):
    """Two-slit fringe intensity ``cos(pi*x + delta_phi)**2``, ``x`` in grating periods.

    Evaluated through the double-angle form so the zeros at half-period
    offsets come out exactly 0.0 (and the maxima exactly 1.0).  A scalar
    ``x`` gives a float, an array an array; ``delta_phi`` must be one
    finite number.
    """
    _check_phase(delta_phi)
    return _unwrap(0.5 * (1.0 + np.cos(2.0 * (np.pi * np.asarray(x, dtype=float) + delta_phi))))


def _mirrored(amps: np.ndarray) -> np.ndarray:
    """[u_N .. u_1, u_0, u_1 .. u_N] from the stored non-negative half."""
    return np.concatenate((amps[:0:-1], amps))


def single_slit_spectrum(spec: GratingSpec, channel: Channel) -> OrderSpectrum:
    """Stage with one slit open: ``P(n) = u_n**2`` for ``n`` in [-N, N]."""
    table = AmplitudeTable.build(spec.cover_ratio, spec.truncation)
    amps = _mirrored(table.amplitudes(channel))
    orders = np.arange(-spec.truncation, spec.truncation + 1, dtype=float)
    return OrderSpectrum(channel=channel, orders=orders, probabilities=amps**2)


def two_slit_probabilities(half: np.ndarray, delta_phi: float) -> np.ndarray:
    """Half-order probabilities from one channel's stored amplitudes ``u_0..u_N``.

    ``P(m) = |u_n + exp(i*delta_phi)*u_{n+1}|**2 / 2`` expanded for the
    real amplitudes, for ``m = n + 1/2`` with ``n`` in [-N, N-1]: every
    bin whose two contributing orders are inside the truncated table.
    """
    _check_phase(delta_phi)
    full = _mirrored(half)
    lower, upper = full[:-1], full[1:]
    cos_phi = math.cos(delta_phi)
    # grouping the product keeps P(m) == P(-m) exact, not just up to rounding;
    # the clamp absorbs the last-ulp negatives of fully destructive bins
    return np.maximum(0.5 * (lower**2 + upper**2 + 2.0 * cos_phi * (lower * upper)), 0.0)


def two_slit_spectrum(config: TwoSlitConfig, channel: Channel) -> OrderSpectrum:
    """Stage with both slits open: half-order bins ``m = n + 1/2``.

    See :func:`two_slit_probabilities` for the bins and their probabilities.
    """
    spec = config.spec
    table = AmplitudeTable.build(spec.cover_ratio, spec.truncation)
    probs = two_slit_probabilities(table.amplitudes(channel), config.delta_phi)
    orders = np.arange(-spec.truncation, spec.truncation, dtype=float) + 0.5
    return OrderSpectrum(channel=channel, orders=orders, probabilities=probs)


def detector_signal(spectrum: OrderSpectrum) -> DetectorSignal:
    """Bin a two-slit spectrum onto the two slit-image detectors.

    Detector one is the ``m = +1/2`` bin, detector two the ``m = -1/2``
    bin; every other order counts as loss.  Rejects integer-indexed
    (single-slit) spectra.
    """
    if not spectrum.two_slit:
        raise ValueError("detector binning needs a two-slit (half-odd-integer) spectrum")
    return _binned(spectrum, 0.5, -0.5)


def single_slit_detector_signal(spec: GratingSpec) -> DetectorSignal:
    """Transmitted-channel detector split with only slit one open.

    The zeroth order goes to the slit's own detector; the first order
    points at the other detector (one side only), everything else is loss.
    """
    return _binned(single_slit_spectrum(spec, "transmitted"), 0, 1)


def _binned(spectrum: OrderSpectrum, first_order: float, second_order: float) -> DetectorSignal:
    """Detector one at ``first_order``, detector two at ``second_order``, the rest of the total as loss."""
    p_d1 = spectrum.probability(first_order)
    p_d2 = spectrum.probability(second_order)
    return DetectorSignal(p_d1=p_d1, p_d2=p_d2, p_loss=max(0.0, spectrum.total() - p_d1 - p_d2))


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
    _check_phase(delta_phi)
    width, sign = sampling_window(cover_ratio, channel)
    cross = math.cos(delta_phi) * sin_pi(cover_ratio) / math.pi
    return width + sign * cross


def _check_position(name: str, value) -> None:
    """Reject a position that is not one real number.

    An array or a list would broadcast against the orders and sum to one
    wrong number (or raise numpy's shape error), so only a real scalar or
    a 0-d real array passes.
    """
    if isinstance(value, np.ndarray):
        real = value.ndim == 0 and value.dtype.kind in "biuf"
    else:
        real = isinstance(value, numbers.Real)
    if not real:
        raise TypeError(f"position {name} must be a real scalar, got {type(value).__name__}")


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
    own period is not used here).  ``x`` and ``z`` are one point each: a
    real scalar or a 0-d array, never an array of points or a list
    (``TypeError``).

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
    if not (isinstance(x, float) and isinstance(z, float)):  # a float needs no further check
        _check_position("x", x)
        _check_position("z", z)
    spec = config.spec if isinstance(config, TwoSlitConfig) else config
    sampling_window(spec.cover_ratio, side)  # rejects an unknown side before any warning
    if not setup.paraxial_ok:
        warnings.warn(
            f"s/g = {setup.slit_ratio:.4g} exceeds the paraxial bound "
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

    if delta_phi is not None:
        # half-order bins: transverse (2n+1)*k_perp, amplitude mixing the
        # adjacent orders of the two slits
        n = np.arange(-truncation, truncation)
        k_x = (2.0 * n + 1.0) * k_perp
        phase_2 = np.exp(1j * delta_phi)
        amps = (full[:-1] + phase_2 * full[1:]) / math.sqrt(2.0)
    else:
        n = np.arange(-truncation, truncation + 1)
        k_x = 2.0 * n * k_perp
        amps = full.astype(complex)

    propagating = np.abs(k_x) < k
    k_x = k_x[propagating]
    amps = amps[propagating]
    k_z = z_sign * np.sqrt(k * k - k_x * k_x)
    waves = (amps, 1j * k_x, 1j * k_z)
    for array in waves:
        array.flags.writeable = False
    return waves
