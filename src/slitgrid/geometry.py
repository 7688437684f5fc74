"""Interferometer geometry: transverse wavenumber and matched grating period.

The setup is treated in two dimensions: a double slit with spacing ``2*s``
illuminated coherently, and a periodic strip grating at distance ``g``
downstream.  In the small-angle regime the fringe spacing at the grating
plane fixes the grating period, so the transverse wavenumber ``k_perp``
and the period always multiply to pi.  Order directions and the
propagation cutoff are applied by :func:`slitgrid.scattering.synthesize_field`.

All lengths are in one consistent unit chosen by the caller; nothing here
converts units.  Every function is pure and every value immutable, so
results can be shared freely across threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "PARAXIAL_BOUND",
    "ParaxialWarning",
    "SetupGeometry",
    "GratingGeometry",
    "derive_grating_geometry",
]

# Largest s/g accepted without a ParaxialWarning.  The amplitude algebra
# does not depend on it; it only flags setups where plane-wave,
# small-angle formulas start to lose meaning.
PARAXIAL_BOUND = 0.1


class ParaxialWarning(UserWarning):
    """Geometry is outside the small-angle regime the closed forms assume."""


@dataclass(frozen=True)
class SetupGeometry:
    """Physical layout of the experiment.

    Parameters
    ----------
    k : float
        Wavenumber of the light (radians per length), > 0.
    s : float
        Slit half-separation; the slit spacing is ``2*s``.
    g : float
        Distance from the double slit to the grating plane.

    All three are stored as Python floats, so a float32 value is widened
    before ``k*k`` or ``k*s/g`` round in float32.
    """

    k: float
    s: float
    g: float

    def __post_init__(self) -> None:
        for name in ("k", "s", "g"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def slit_ratio(self) -> float:
        """The small-angle parameter ``s/g``."""
        return self.s / self.g

    @property
    def paraxial_ok(self) -> bool:
        return self.slit_ratio <= PARAXIAL_BOUND


@dataclass(frozen=True)
class GratingGeometry:
    """Grating-plane quantities derived from the setup.

    ``k_perp`` is the transverse wavenumber each slit contributes at the
    grating plane and ``period`` the matched grating period; their product
    is pi up to floating rounding.
    """

    k_perp: float
    period: float


def derive_grating_geometry(setup: SetupGeometry) -> GratingGeometry:
    """Compute ``k_perp = k*s/g`` and the matched period ``pi*g/(k*s)``.

    Emits a :class:`ParaxialWarning` (non-fatal) when ``s/g`` exceeds
    ``PARAXIAL_BOUND``; that also covers the breakdown case ``k_perp >= k``
    (possible only for ``s >= g``), where the tilted incident waves would
    stop propagating.
    """
    if not setup.paraxial_ok:
        warnings.warn(
            f"s/g = {setup.slit_ratio:.4g} exceeds the paraxial bound "
            f"{PARAXIAL_BOUND:.4g}; small-angle formulas degrade",
            ParaxialWarning,
            stacklevel=2,
        )
    k_perp = setup.k * setup.s / setup.g
    period = math.pi * setup.g / (setup.k * setup.s)
    return GratingGeometry(k_perp=k_perp, period=period)
