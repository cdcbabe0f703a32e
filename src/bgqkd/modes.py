"""Analytic transverse modes: Bessel-Gaussian, Laguerre-Gaussian (p = 0), the
binary Bessel hologram, and the BG range formulas.

Conventions: forward propagation carries exp(-i k_z z); all evaluated modes
are numerically unit-normalized on their grid (the closed-form prefactor does
not normalize a Gaussian-apodized mode on a finite window).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import UnsupportedModeError
from .fields import ScalarField, TransverseGrid
from .jones import vortex_turn


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
    p      : radial index (LG only; this package supports p = 0)
    w0     : Gaussian waist, m
    wavelength : m
    """

    family: ModeFamily
    ell: int
    w0: float
    wavelength: float
    k_r: float = 0.0
    p: int = 0

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

    @property
    def k_z(self) -> float:
        """Longitudinal wave number sqrt(k^2 - k_r^2), rad/m."""
        k = self.wavenumber
        if self.k_r >= k:
            raise ValueError("k_r must be below the free-space wave number")
        return math.sqrt(k * k - self.k_r * self.k_r)


def _bg_samples(spec: ModeSpec, radial, z: float, grid) -> np.ndarray:
    """Unnormalised samples of `evaluate_bg`'s profile, with `radial(f)`
    sampling each function f of r: with grid None (z = 0 only), the radial
    factor R of the mode R exp(i ell phi); else with the phase
    exp(i ell phi - i k_z z) on the grid, left out where it is 1 (ell = z = 0).
    """
    if spec.family is not ModeFamily.BG:
        raise UnsupportedModeError(f"evaluate_bg requires a BG spec, got {spec.family}")
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    z_r = spec.rayleigh_range
    if abs(z) >= 10.0 * z_r:
        raise ValueError(f"|z| = {abs(z)} exceeds the 10 z_R sanity bound ({10 * z_r:.3g})")
    k, k_z = spec.wavenumber, spec.k_z  # k_z rejects k_r >= k, also where no phase is applied
    if spec.k_r == 0.0 and spec.ell != 0:
        raise UnsupportedModeError("BG with k_r = 0 vanishes identically for ell != 0")
    denom = z_r - 1j * z
    if spec.k_r > 0:
        bessel = radial(lambda r: special.jv(spec.ell, z_r * spec.k_r * r / denom))
    else:
        bessel = 1.0 + 0.0j
    envelope = radial(
        lambda r: np.exp((1j * spec.k_r ** 2 * z * spec.w0 ** 2 - 2.0 * k * r ** 2)
                         / (4.0 * denom)))
    if grid is None or (spec.ell == 0 and z == 0.0):
        samples = np.sqrt(2.0 / np.pi) * bessel * envelope
    else:
        phase = np.exp(1j * spec.ell * grid.phi - 1j * k_z * z)
        samples = np.sqrt(2.0 / np.pi) * bessel * phase * envelope
    if not np.all(np.isfinite(samples)):
        raise ValueError("BG evaluation produced non-finite samples")
    return samples


def _lg_samples(spec: ModeSpec, radial, z: float, grid) -> np.ndarray:
    """Unnormalised LG_0^ell samples; `radial` and grid as for `_bg_samples`."""
    if spec.family is not ModeFamily.LG:
        raise UnsupportedModeError(f"evaluate_lg requires an LG spec, got {spec.family}")
    if spec.p != 0:
        raise UnsupportedModeError(f"only p = 0 LG modes are supported, got p = {spec.p}")
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    k = spec.wavenumber
    z_r = spec.rayleigh_range
    w = spec.w0 * np.sqrt(1.0 + (z / z_r) ** 2)
    gouy = (abs(spec.ell) + 1) * np.arctan2(z, z_r)
    amplitude = (spec.w0 / w) * radial(
        lambda r: (np.sqrt(2.0) * r / w) ** abs(spec.ell) * np.exp(-(r / w) ** 2))
    if grid is None or (spec.ell == 0 and z == 0.0):
        # complex, so unit-power scaling rounds as it does for a phased mode
        return amplitude.astype(complex)
    if z == 0.0:
        curvature = 0.0
    else:
        radius = (z_r ** 2 + z ** 2) / z
        curvature = radial(lambda r: k * r ** 2 / (2.0 * radius))
    return amplitude * np.exp(1j * (spec.ell * grid.phi - k * z - curvature + gouy))


def evaluate_bg(spec: ModeSpec, grid: TransverseGrid, z: float = 0.0) -> ScalarField:
    """Evaluate a Bessel-Gaussian mode at propagation distance z, unit power.

    The transverse profile is
        J_ell(z_R k_r r / (z_R - i z)) * exp(i ell phi - i k_z z)
            * exp((i k_r^2 z w0^2 - 2 k r^2) / (4 (z_R - i z)))
    with z_R = pi w0^2 / lambda and k_z = sqrt(k^2 - k_r^2).
    """
    return ScalarField(grid, _bg_samples(spec, grid.radial, z, grid)).normalized()


def evaluate_lg(spec: ModeSpec, grid: TransverseGrid, z: float = 0.0) -> ScalarField:
    """Evaluate a Laguerre-Gaussian LG_0^ell mode at distance z, unit power."""
    # from the distinct radii, as for BG: against a per-pixel r it took 6.5
    # instead of 12.6 ms at n = 512 (ell = 0; 34 against 55 ms at n = 1024),
    # with the same traced peak and CLI peak RSS (2-core x86-64 host)
    return ScalarField(grid, _lg_samples(spec, grid.radial, z, grid)).normalized()


def evaluate_mode(spec: ModeSpec, grid: TransverseGrid, z: float = 0.0) -> ScalarField:
    if spec.family is ModeFamily.BG:
        return evaluate_bg(spec, grid, z)
    return evaluate_lg(spec, grid, z)


def radial_factor(spec: ModeSpec, r: np.ndarray) -> np.ndarray:
    """R(r) of the z = 0 mode R(r) exp(i ell phi), unnormalised, at the radii
    r: the formula `evaluate_mode` samples on the grid, without its phase."""
    samples = _bg_samples if spec.family is ModeFamily.BG else _lg_samples
    return samples(spec, lambda f: f(r), 0.0, None)


def binary_bessel_hologram(ell: int, k_r: float, grid: TransverseGrid) -> ScalarField:
    """Unimodular transmission sign{J_ell(k_r r)} exp(i ell phi).

    Exact zeros of J_ell resolve to +1 (a measure-zero set).
    """
    if not k_r > 0:
        raise ValueError(f"hologram requires k_r > 0, got {k_r}")
    sign = grid.radial(lambda r: np.where(special.jv(ell, k_r * r) >= 0.0, 1.0, -1.0))
    if ell == 0:
        return ScalarField(grid, sign)
    return ScalarField(grid, sign * vortex_turn(grid, ell))


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
