"""Transverse modes at the source plane: the radial factor of a
Bessel-Gaussian or Laguerre-Gaussian (p = 0) mode, the ell = 0 binary Bessel
hologram, and the BG range formulas.

A mode is R(r) exp(i ell phi) at z = 0. Its radial factor is evaluated on the
grid's distinct radii (TransverseGrid.radial) and scaled to unit power by the
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
from .fields import TransverseGrid


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

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        return np.pi * self.w0 ** 2 / self.wavelength


def radial_factor(spec: ModeSpec, r: np.ndarray) -> np.ndarray:
    """R(r) of the z = 0 mode R(r) exp(i ell phi), unnormalised, at the radii r.

    BG: sqrt(2/pi) J_ell(k_r r) exp(-r^2 / w0^2), in complex arithmetic over
    the Rayleigh range z_R = pi w0^2 / lambda, J_ell(z_R k_r r / z_R)
    exp(-2 k r^2 / (4 z_R)). LG (p = 0): (sqrt(2) r / w0)^|ell| exp(-r^2 / w0^2).
    """
    if spec.family is ModeFamily.LG:
        # complex, so unit-power scaling rounds as it does for a BG factor
        return ((np.sqrt(2.0) * r / spec.w0) ** abs(spec.ell)
                * np.exp(-(r / spec.w0) ** 2)).astype(complex)
    k, z_r = spec.wavenumber, spec.rayleigh_range
    if spec.k_r >= k:
        raise ValueError("k_r must be below the free-space wave number")
    if spec.k_r == 0.0 and spec.ell != 0:
        raise UnsupportedModeError("BG with k_r = 0 vanishes identically for ell != 0")
    bessel = (special.jv(spec.ell, z_r * spec.k_r * r / complex(z_r)) if spec.k_r > 0
              else 1.0 + 0.0j)
    return np.sqrt(2.0 / np.pi) * bessel * np.exp(-2.0 * k * r ** 2 / (4.0 * complex(z_r)))


def binary_bessel_hologram(k_r: float, grid: TransverseGrid) -> np.ndarray:
    """The ell = 0 hologram's real transmission sign{J_0(k_r r)} on the grid;
    exact zeros of J_0 resolve to +1 (a measure-zero set)."""
    if not k_r > 0:
        raise ValueError(f"hologram requires k_r > 0, got {k_r}")
    return grid.radial(lambda r: np.where(special.j0(k_r * r) >= 0.0, 1.0, -1.0))


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
