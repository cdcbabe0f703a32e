"""Independent numerical oracles used by the test suite.

Nothing here may import the package's propagation/special-function paths:
the Rayleigh-Sommerfeld integrator is a direct quadrature of the first
diffraction integral, the Bessel values/roots are frozen 22-digit
references computed once with mpmath (mp.mp.dps = 30), and the BG and LG
modes at any distance z are their closed forms evaluated on every pixel.
"""

import math

import numpy as np
from scipy import special

from conftest import pixel_radius

# J_ell(x) references, ell in {0, 1, 2}, arguments up to 100.
BESSEL_REFERENCE = {
    (0, 0.5): 0.9384698072408129042284,
    (0, 1.0): 0.7651976865579665514497,
    (0, 2.404825557695773): -1.201195007367685753423e-16,
    (0, 5.0): -0.1775967713143383043474,
    (0, 10.0): -0.2459357644513483351978,
    (0, 18.0): -0.01335580572198411088489,
    (0, 25.5): 0.144062157546847861734,
    (0, 40.0): 0.007366890584237289553532,
    (0, 63.7): 0.09964256648971133609746,
    (0, 100.0): 0.01998585030422312242423,
    (1, 0.5): 0.242268457674873886384,
    (1, 1.0): 0.4400505857449335159597,
    (1, 2.404825557695773): 0.5191474972894667381908,
    (1, 5.0): -0.3275791375914652220377,
    (1, 10.0): 0.04347274616886143666975,
    (1, 18.0): -0.1879948854880695940066,
    (1, 25.5): -0.06204853649148410172108,
    (1, 40.0): 0.1260383180375849992056,
    (1, 63.7): 0.008849675606441726499212,
    (1, 100.0): -0.07714535201411215803269,
    (2, 0.5): 0.03060402345868264130741,
    (2, 1.0): 0.1149034849319004804696,
    (2, 2.404825557695773): 0.4317548070196804000048,
    (2, 5.0): 0.0465651162777522155323,
    (2, 10.0): 0.2546303136851206225317,
    (2, 18.0): -0.007532514887801399560295,
    (2, 25.5): -0.1489287094285328893199,
    (2, 40.0): -0.001064974682358039593252,
    (2, 63.7): -0.09936471168260170575211,
    (2, 100.0): -0.02152875734450536558488,
}

# First zeros of J_0 and J_1.
J0_ROOTS = (2.404825557695772768622, 5.520078110286310649597,
            8.653727912911012216954, 11.79153443901428161374,
            14.93091770848778594776)
J1_ROOTS = (3.831705970207512315614, 7.015586669815618753537,
            10.17346813506272207719)


def rayleigh_sommerfeld_point(u0: np.ndarray, spacing: float, wavelength: float,
                              x: float, y: float, z: float) -> complex:
    """Direct Rayleigh-Sommerfeld (type I) integral to one observation point.

    Uses the exp(-i k rho) kernel matching the package's forward-phase
    convention; valid when the kernel phase is adequately sampled
    (k * r_max * spacing / z below ~1 rad).
    """
    n = u0.shape[0]
    ax = (np.arange(n) - n // 2) * spacing
    sx, sy = np.meshgrid(ax, ax, indexing="xy")
    k = 2.0 * np.pi / wavelength
    rho = np.sqrt((sx - x) ** 2 + (sy - y) ** 2 + z * z)
    kernel = (z / (2.0 * np.pi)) * (1.0 / rho + 1j * k) * np.exp(-1j * k * rho) / rho ** 2
    return complex(np.sum(u0 * kernel) * spacing * spacing)


def gaussian_overlap_blocked(radius: float, waist: float) -> float:
    """Power of a unit Gaussian exp(-2 r^2 / w^2) inside a centred disk."""
    return 1.0 - np.exp(-2.0 * radius ** 2 / waist ** 2)


def unit_power(samples: np.ndarray, grid) -> np.ndarray:
    """`samples` scaled to unit power over the grid (midpoint rule)."""
    return samples / np.sqrt(float(np.sum(np.abs(samples) ** 2) * grid.pixel_area))


def rayleigh_range(spec) -> float:
    """z_R = pi w0^2 / lambda of the spec's Gaussian envelope (m)."""
    return np.pi * spec.w0 ** 2 / spec.wavelength


def bg_radial(spec, r: np.ndarray, z: float = 0.0) -> np.ndarray:
    """The Bessel-Gaussian mode at propagation distance z without its phase
    exp(i ell phi - i k_z z), at the radii r, in complex arithmetic over z_R:
        sqrt(2/pi) J_ell(z_R k_r r / (z_R - i z))
            * exp((i k_r^2 z w0^2 - 2 k r^2) / (4 (z_R - i z)))
    with z_R = pi w0^2 / lambda."""
    z_r, k, k_r = rayleigh_range(spec), spec.wavenumber, spec.k_r
    denom = z_r - 1j * z
    bessel = (special.jv(spec.ell, z_r * k_r * r / denom) if k_r > 0
              else np.ones_like(r, dtype=complex))
    envelope = np.exp((1j * k_r ** 2 * z * spec.w0 ** 2 - 2.0 * k * r ** 2) / (4.0 * denom))
    return np.sqrt(2.0 / np.pi) * bessel * envelope


def bg_mode(spec, grid, z: float = 0.0) -> np.ndarray:
    """Unit-power Bessel-Gaussian mode at propagation distance z, per pixel:
    bg_radial times exp(i ell phi - i k_z z), k_z = sqrt(k^2 - k_r^2)."""
    k, k_r = spec.wavenumber, spec.k_r
    phase = np.exp(1j * spec.ell * grid.phi - 1j * math.sqrt(k * k - k_r * k_r) * z)
    return unit_power(bg_radial(spec, pixel_radius(grid), z) * phase, grid)


def lg_mode(spec, grid, z: float = 0.0) -> np.ndarray:
    """Unit-power Laguerre-Gaussian LG_0^ell mode at distance z, per pixel:
        (w0 / w) (sqrt(2) r / w)^|ell| exp(-r^2 / w^2)
            * exp(i (ell phi - k z - k r^2 / (2 R) + (|ell| + 1) arctan(z / z_R)))
    with w = w0 sqrt(1 + (z / z_R)^2) and R = (z_R^2 + z^2) / z."""
    r, ell = pixel_radius(grid), spec.ell
    z_r, k = rayleigh_range(spec), spec.wavenumber
    w = spec.w0 * np.sqrt(1.0 + (z / z_r) ** 2)
    gouy = (abs(ell) + 1) * np.arctan2(z, z_r)
    radial = (np.sqrt(2.0) * r / w) ** abs(ell) * np.exp(-(r / w) ** 2)
    if z == 0.0:
        curvature = 0.0
    else:
        radius = (z_r ** 2 + z ** 2) / z
        curvature = k * r ** 2 / (2.0 * radius)
    phase = np.exp(1j * (ell * grid.phi - k * z - curvature + gouy))
    return unit_power((spec.w0 / w) * radial * phase, grid)


def transverse_mode(spec, grid, z: float = 0.0) -> np.ndarray:
    """`bg_mode` or `lg_mode`, by the spec's family."""
    return (bg_mode if spec.family.name == "BG" else lg_mode)(spec, grid, z)
