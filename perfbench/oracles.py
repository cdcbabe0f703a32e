"""Closed-form references for the benchmark's output checks.

Nothing here imports bgqkd: every value is derived from the physics and the
security formulas directly (scipy only for special functions and 1-D
quadrature), so a check against these catches a fault in the program rather
than reproducing it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def hd_entropy(e: float, d: int) -> float:
    """H_d(e) = -(1-e) log2(1-e) - e log2(e/(d-1)), continuous at 0 and 1."""
    terms = []
    if e < 1.0:
        terms.append(-(1.0 - e) * math.log2(1.0 - e))
    if e > 0.0:
        terms.append(-e * math.log2(e / (d - 1)))
    return math.fsum(terms)


def mutual_information(e: float, d: int) -> float:
    """I_AB = log2 d - H_d(e), bits per sifted photon."""
    return math.log2(d) - hd_entropy(e, d)


def multiphoton_fraction(mu: float, q_mu: float) -> float:
    """Delta = (1 - e^-mu - mu e^-mu) / q_mu for a Poissonian source."""
    return (-math.expm1(-mu) - mu * math.exp(-mu)) / q_mu


def key_rates(e: float, delta: float, d: int, f_ec: float) -> tuple[float, float]:
    """GLLP rate per signal: (binary privacy term, log2 d privacy term)."""
    h_eff = hd_entropy(e / (1.0 - delta), d)
    h_e = hd_entropy(e, d)
    as_printed = (1.0 - delta) * (1.0 - h_eff) - f_ec * h_e
    table_consistent = (1.0 - delta) * (math.log2(d) - h_eff) - f_ec * h_e
    return as_printed, table_consistent


def noise_floor_qbers(e_free: float, ncs: list[float], floor: float) -> list[float]:
    """QBER of each channel when all error comes from a uniform floor f.

    A centred obstacle commutes with the spin-orbit structure, so a matched
    row holds s + f on the diagonal and f on the other three cells: e =
    3f/(s + 4f). The free-space QBER gives s_0 = 3f/e_0 - 4f, and the
    normalised counts NC_k = (s_k + f)/(s_0 + f) give every other s_k.
    """
    s0 = 3.0 * floor / e_free - 4.0 * floor
    return [3.0 * floor / (nc * (s0 + floor) - floor + 4.0 * floor) for nc in ncs]


def counts_qber(counts: np.ndarray) -> tuple[float, float]:
    """Sifted QBER and its standard error from an 8x8 count table.

    Each matched-basis row gives p_i = c_ii / sum_j c_ij (j in the basis of
    i); e = 1 - mean(p_i), and the binomial variances of the p_i combine.
    """
    fracs, variances = [], []
    for i in range(8):
        basis = slice(0, 4) if i < 4 else slice(4, 8)
        total = counts[i, basis].sum()
        p = counts[i, i] / total
        fracs.append(p)
        variances.append(max(p * (1.0 - p), 1.0 / total) / total)
    return 1.0 - float(np.mean(fracs)), float(np.sqrt(np.sum(variances)) / 8.0)


def weber(a: float, b: float, p: float) -> float:
    """Int_0^inf J0(a r) J0(b r) exp(-p r^2) r dr, Weber's second integral.

    Equals exp(-(a^2+b^2)/4p) I0(ab/2p) / 2p, written with the scaled I0 so
    that large arguments do not overflow.
    """
    return math.exp(-(a - b) ** 2 / (4.0 * p)) * special.i0e(a * b / (2.0 * p)) / (2.0 * p)


def spdc_amplitude(k_signal: float, k_idler: float, w0: float, pump_waist: float) -> float:
    """|c| for two ell = 0 BG modes and a Gaussian pump, each of unit power.

    The modes are J0(k r) exp(-r^2/w0^2) and the pump exp(-r^2/wp^2); each is
    divided by its own L2 norm, as the program normalises its samples.
    """
    p_mode = 2.0 / w0 ** 2
    norm_s = math.sqrt(2.0 * math.pi * weber(k_signal, k_signal, p_mode))
    norm_i = math.sqrt(2.0 * math.pi * weber(k_idler, k_idler, p_mode))
    norm_p = math.sqrt(math.pi * pump_waist ** 2 / 2.0)
    overlap = 2.0 * math.pi * weber(k_signal, k_idler, p_mode + 1.0 / pump_waist ** 2)
    return overlap / (norm_s * norm_i * norm_p)


def weber_by_quadrature(a: float, b: float, p: float) -> float:
    """The Weber integral by adaptive 1-D quadrature, for testing weber()."""
    upper = 12.0 / math.sqrt(p)
    val, _ = integrate.quad(lambda r: special.j0(a * r) * special.j0(b * r)
                            * math.exp(-p * r * r) * r, 0.0, upper, limit=400)
    return val


def heralded_power_inside(radius: float, k_r: float, w0: float) -> tuple[float, float]:
    """Power of the ell = 0 heralded profile inside a centred disk.

    The amplitude is J0(k_r r) exp(-r^2/w0^2) for BG and exp(-r^2/w0^2) for
    LG (k_r = 0). Returns (power inside the disk, total power), both by 1-D
    quadrature of |u|^2 2 pi r dr; LG has 1 - exp(-2R^2/w0^2) in closed form
    and is checked against it in the tests.
    """
    def density(r):
        return 2.0 * math.pi * (special.j0(k_r * r) ** 2) * math.exp(-2.0 * r * r / w0 ** 2) * r

    pts = None
    if k_r > 0:
        # the J0 zeros inside the disk keep the adaptive rule on the oscillation
        pts = [z / k_r for z in special.jn_zeros(0, 200) if z / k_r < radius]
    inside, _ = integrate.quad(density, 0.0, radius, points=pts, limit=400)
    outside, _ = integrate.quad(density, radius, 8.0 * w0, limit=800)
    return inside, inside + outside


def transmitted_power(radius: float, k_r: float, w0: float, pixel_area: float) -> float:
    """Power a centred opaque disk passes of a unit-power prepared state.

    The prepared state has the intensity of the heralded profile with its
    on-axis sample removed (the polarisation singularity), then is
    renormalised. That sample carries |u(0)|^2 dA = dA (J0(0) = 1) of the
    unnormalised power and lies inside the disk, so the passed share is
    (total - inside) / (total - dA).
    """
    inside, total = heralded_power_inside(radius, k_r, w0)
    return (total - inside) / (total - pixel_area)


def shadow_length(radius: float, k_r: float, wavelength: float) -> float:
    """Length 2 pi R / (k_r lambda) of the geometric shadow behind a disk."""
    return 2.0 * math.pi * radius / (k_r * wavelength)
