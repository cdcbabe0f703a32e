"""Field diagnostics the tests use to check prepared states: azimuthal (OAM)
spectra, Stokes maps, projected-lobe orientation, and the split into circular
components with |L> = (1, i)/sqrt(2), |R> = (1, -i)/sqrt(2).
"""

import numpy as np
from scipy import ndimage

from bgqkd.fields import ScalarField
from polarized_oracle import PolarizedField, polarized_from_arrays

_SQRT2 = np.sqrt(2.0)


def circular(f: PolarizedField) -> tuple[ScalarField, ScalarField]:
    """The circular components (<L|f>, <R|f>) of a polarized field."""
    h, v = f.h.samples, f.v.samples
    return (ScalarField(f.grid, (h - 1j * v) / _SQRT2),
            ScalarField(f.grid, (h + 1j * v) / _SQRT2))


def linear(l: ScalarField, r: ScalarField, wavelength: float) -> PolarizedField:
    """The polarized field with circular components l and r (inverse of circular)."""
    return polarized_from_arrays(l.grid, (l.samples + r.samples) / _SQRT2,
                                 1j * (l.samples - r.samples) / _SQRT2, wavelength)


def oam_spectrum(f: ScalarField, max_order: int = 8, n_radial: int = 256,
                 n_azimuthal: int = 256) -> dict[int, float]:
    """Fraction of field power per azimuthal harmonic exp(i m phi).

    The field is resampled onto a polar grid (bilinear interpolation) and
    FFT-analysed along the azimuth; returns {m: power fraction} for
    |m| <= max_order, normalized over the resolved orders.
    """
    n = f.grid.n
    spacing = f.grid.spacing
    r_max = f.grid.extent / 2.0
    r = np.linspace(0.0, r_max, n_radial, endpoint=False) + r_max / (2 * n_radial)
    th = np.linspace(0.0, 2.0 * np.pi, n_azimuthal, endpoint=False)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    # map physical (x, y) to fractional array indices (row = y, col = x)
    col = rr * np.cos(tt) / spacing + n // 2
    row = rr * np.sin(tt) / spacing + n // 2
    re = ndimage.map_coordinates(f.samples.real, [row, col], order=1, mode="constant")
    im = ndimage.map_coordinates(f.samples.imag, [row, col], order=1, mode="constant")
    polar = re + 1j * im
    coeffs = np.fft.fft(polar, axis=1) / n_azimuthal
    # power per harmonic: 2*pi * int |c_m(r)|^2 r dr
    dr = r[1] - r[0]
    power_m = 2.0 * np.pi * np.sum(np.abs(coeffs) ** 2 * r[:, None], axis=0) * dr
    total = power_m.sum()
    out = {}
    for m in range(-max_order, max_order + 1):
        out[m] = float(power_m[m % n_azimuthal] / total) if total > 0 else 0.0
    return out


def dominant_oam_fraction(f: ScalarField, m: int) -> float:
    spec = oam_spectrum(f, max_order=max(8, abs(m) + 2))
    return spec[m]


def stokes_maps(f: PolarizedField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise Stokes parameters (s0, s1, s2, s3) in the H/V basis."""
    h, v = f.h.samples, f.v.samples
    s0 = np.abs(h) ** 2 + np.abs(v) ** 2
    s1 = np.abs(h) ** 2 - np.abs(v) ** 2
    s2 = 2.0 * np.real(np.conj(h) * v)
    s3 = 2.0 * np.imag(np.conj(h) * v)
    return s0, s1, s2, s3


def polarization_variance(f: PolarizedField, intensity_floor: float = 1e-6) -> float:
    """Intensity-weighted variance of the normalized Stokes vector.

    Zero for a uniformly polarized (scalar) mode; order 0.5 for a vector mode
    whose polarization sweeps the full equator. Pixels below intensity_floor
    of the peak are excluded.
    """
    s0, s1, s2, s3 = stokes_maps(f)
    sel = s0 > intensity_floor * s0.max()
    w = s0[sel]
    sn = np.stack([s1[sel] / w, s2[sel] / w, s3[sel] / w])
    mean = np.average(sn, axis=1, weights=w)
    var = np.average((sn - mean[:, None]) ** 2, axis=1, weights=w)
    return float(var.sum())


def projected_lobe_axis(f: PolarizedField, analyzer_angle: float) -> float:
    """Orientation (rad, mod pi) of the two-lobe pattern behind a linear analyzer.

    Projects onto the analyzer axis and returns half the phase of the second
    azimuthal moment of the intensity, the standard axis estimator for
    cos^2-type lobes.
    """
    amp = np.cos(analyzer_angle) * f.h.samples + np.sin(analyzer_angle) * f.v.samples
    intensity = np.abs(amp) ** 2
    m2 = np.sum(intensity * np.exp(2j * f.grid.phi))
    return float(np.angle(m2) / 2.0) % np.pi
