"""Interferometer geometry: the setup and its transverse wavenumber.

The setup is treated in two dimensions: a double slit with spacing ``2*s``
illuminated coherently, and a periodic strip grating at distance ``g``
downstream.  Each slit's wave reaches the grating plane with transverse
wavenumber ``k_perp = k*s/g``; in the small-angle regime the fringe
spacing there fixes the matched grating period ``pi/k_perp``.  Order
directions, the propagation cutoff and the :class:`ParaxialWarning` are
applied by :func:`slitgrid.scattering.synthesize_field`.

All lengths are in one consistent unit chosen by the caller; nothing here
converts units.  Every value is immutable, so a setup can be shared
freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grating import _one_real

__all__ = ["PARAXIAL_BOUND", "ParaxialWarning", "SetupGeometry"]

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

    Each is one real number by ``grating._one_real`` (an array or a str is
    a ``TypeError``), stored as a Python float, so a float32 value is
    widened before ``k*k`` or ``k*s/g`` round in float32.
    """

    k: float
    s: float
    g: float

    def __post_init__(self) -> None:
        for name in ("k", "s", "g"):
            value = _one_real(name, getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def k_perp(self) -> float:
        """Transverse wavenumber ``k*s/g`` each slit contributes at the grating plane."""
        return self.k * self.s / self.g
