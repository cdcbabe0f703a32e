"""Transverse modes at the source plane: the radial factor of a
Bessel-Gaussian or Laguerre-Gaussian (p = 0) mode, the ell = 0 binary Bessel
hologram, and the BG range formulas.

A mode is R(r) exp(i ell phi) at z = 0, with a real radial factor R. R and
the hologram are functions of r alone, evaluated on the grid's distinct radii
(TransverseGrid.radial_quadrant) and scaled to unit power by the
caller (the closed-form prefactor does not normalize a Gaussian-apodized mode
on a finite window); every z-evolution is the free-space transport's
(propagation).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import UnsupportedModeError


class ModeFamily(enum.Enum):
    BG = "BG"
    LG = "LG"


@dataclass(frozen=True)
class ModeSpec:
    """Parametric description of a BG or LG transverse mode.

    family : BG or LG
    ell    : topological charge (integer)
    k_r    : radial wave number, rad/m (BG only; 0 degenerates to a pure
             Gaussian envelope)
    w0     : Gaussian waist, m
    wavelength : m
    """

    family: ModeFamily
    ell: int
    w0: float
    wavelength: float
    k_r: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.w0) and self.w0 > 0):
            raise ValueError(f"w0 must be positive and finite, got {self.w0}")
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not np.isfinite(self.k_r) or self.k_r < 0:
            raise ValueError(f"k_r must be finite and >= 0, got {self.k_r}")
        if int(self.ell) != self.ell:
            raise ValueError(f"ell must be an integer, got {self.ell}")
        if self.k_r >= self.wavenumber:
            raise ValueError(f"k_r must be below the free-space wave number 2 pi / wavelength "
                             f"= {self.wavenumber:.6g} rad/m, got {self.k_r}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def radial_factor(spec: ModeSpec, r: np.ndarray) -> np.ndarray:
    """The real R(r) of the z = 0 mode R(r) exp(i ell phi), unnormalised, at
    the radii r.

    BG: sqrt(2/pi) J_ell(k_r r) exp(-r^2 / w0^2), the Bessel factor from
    Cephes j0 for ell = 0 and +-j1 for |ell| = 1 (J_-1 = -J_1), jv beyond.
    LG (p = 0): (sqrt(2) r / w0)^|ell| exp(-r^2 / w0^2).
    """
    envelope = np.exp(-(r / spec.w0) ** 2)
    if spec.family is ModeFamily.LG:
        return (np.sqrt(2.0) * r / spec.w0) ** abs(spec.ell) * envelope
    if spec.k_r == 0.0 and spec.ell != 0:
        raise UnsupportedModeError("BG with k_r = 0 vanishes identically for ell != 0")
    x = spec.k_r * r
    if spec.ell == 0:
        bessel = special.j0(x)
    elif abs(spec.ell) == 1:
        bessel = spec.ell * special.j1(x)
    else:
        bessel = special.jv(spec.ell, x)
    return np.sqrt(2.0 / np.pi) * bessel * envelope


def binary_bessel_hologram(k_r: float, r: np.ndarray) -> np.ndarray:
    """The ell = 0 hologram's real transmission sign{J_0(k_r r)} at the radii
    r; exact zeros of J_0 resolve to +1 (a measure-zero set)."""
    if not k_r > 0:
        raise ValueError(f"hologram requires k_r > 0, got {k_r}")
    return np.where(special.j0(k_r * r) >= 0.0, 1.0, -1.0)


def nondiffracting_distance(spec: ModeSpec) -> float:
    """Propagation range over which a BG mode approximates a Bessel beam.

    Returns 2 pi w0 / (lambda k_r); math.inf when k_r = 0 (the envelope is a
    plain Gaussian with no conical structure to walk off).
    """
    if spec.family is not ModeFamily.BG:
        raise UnsupportedModeError("nondiffracting_distance applies to BG specs")
    if spec.k_r == 0.0:
        return math.inf
    return 2.0 * np.pi * spec.w0 / (spec.wavelength * spec.k_r)


def shadow_length(obstruction_radius: float, spec: ModeSpec) -> float:
    """Length of the geometric shadow behind an obstruction of radius R.

    Returns 2 pi R / (k_r lambda); math.inf when k_r = 0. Full transverse
    reconstruction is reached at twice this distance.
    """
    if spec.family is not ModeFamily.BG:
        raise UnsupportedModeError("shadow_length applies to BG specs")
    if not obstruction_radius > 0:
        raise ValueError(f"obstruction radius must be positive, got {obstruction_radius}")
    if spec.k_r == 0.0:
        return math.inf
    return 2.0 * np.pi * obstruction_radius / (spec.k_r * spec.wavelength)


def full_reconstruction_distance(obstruction_radius: float, spec: ModeSpec) -> float:
    return 2.0 * shadow_length(obstruction_radius, spec)
