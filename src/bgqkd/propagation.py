"""Scalar angular-spectrum diffraction engine and obstructed channels.

Fields are stacks of samples (..., n, n) beside their TransverseGrid; the
engine's OAM pair is one (2, n, n) array. Free space and the obstacles act
alike on both polarizations, so only scalars are transported, by one of two
transports that share the kernel exp(-i dz sqrt(k^2 - kx^2 - ky^2)) (forward
phase exp(-i k_z z); evanescent components are zeroed). The kernel depends
only on |k_t|^2, so it is evaluated once per distinct value and expanded in
C order (TransverseGrid.spectral, spectral_quadrant). A negative dz carries
a field backwards: its kernel is the conjugate of the forward one, the
adjoint of forward transport.

- propagate_samples carries any stack: an FFT, the kernel multiply and an
  inverse FFT. It carries the pair behind an obstacle, whose mask breaks
  the pair's symmetries, and the source pair of even ell.
- propagate_quadrant carries a field of definite parity in x and in y about
  the grid centre on its parity quadrant, of about (n/2)^2 samples: the DFT
  of an even sequence is its DCT-I, and that of an odd one its DST-I. It
  carries the receiver's scalar (a function of r) and, for odd ell, the
  source pair's first leg (jones.spin_orbit_leg), whose real part
  R(r) cos(ell phi) is odd in x and even in y.

The band-limit guard reads Gram matrices of the fields entering each segment,
taken from the transport's own spectrum before the kernel: fields.gram of
the n x n spectrum, or quadrant_band_sums of the parity quadrants' spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as spfft

from .fields import TransverseGrid, gram

FFT_WORKERS = -1  # scipy.fft workers; results are independent of the value

BAND_LIMIT_TOL = 1e-4
_BAND_ANNULUS = 0.1


def band_tail_fraction(grams: tuple[np.ndarray, np.ndarray], weights=(1.0,)) -> float:
    """Outer-annulus spectral power fraction of sum_s weights[s] * field_s,
    from the fields' band Gram matrices (see propagate_samples)."""
    c = np.asarray(weights, dtype=complex)
    tail, total = (float(np.real(c.conj() @ g @ c)) for g in grams)
    return tail / total if total > 0 else 0.0


def band_limit_message(tail: float) -> str | None:
    """The band-limit guard's complaint about a band-tail fraction, if any."""
    if tail > BAND_LIMIT_TOL:
        return (f"field has {tail:.2e} of spectral power in the outer "
                f"{_BAND_ANNULUS:.0%} of k-space; propagation may alias")
    return None


def free_space_kernel(k2: np.ndarray, wavelength: float, dz: float) -> np.ndarray:
    """The free-space kernel exp(-i dz k_z), k_z = sqrt(k^2 - |k_t|^2), at the
    transverse wave numbers squared k2 (rad^2/m^2), elementwise; zero on
    evanescent components."""
    k = 2.0 * np.pi / wavelength
    return np.exp(-1j * dz * np.sqrt(np.maximum(k * k - k2, 0.0))) * (k2 <= k * k)


def quadrant_kernel(grid: TransverseGrid, wavelength: float, dz: float) -> np.ndarray:
    """The free-space kernel on the (n/2+1)^2 quadrant of the FFT-ordered
    frequency grid, rows and columns 0..n/2 (see transfer_function)."""
    return grid.spectral_quadrant(lambda k2: free_space_kernel(k2, wavelength, dz))


def transfer_function(grid: TransverseGrid, wavelength: float, dz: float) -> np.ndarray:
    """The free-space kernel K on the FFT-ordered frequency grid:
    propagate_samples multiplies a field's spectrum by it, and
    propagate_quadrant a spectrum's quadrant by its quadrant. K(-k) = K(k), and
    the kernel of -dz is conj(K) pixel for pixel, so transport over -dz is the
    adjoint of transport over dz."""
    return grid.spectral(lambda k2: free_space_kernel(k2, wavelength, dz))


def propagate_samples(u: np.ndarray, grid: TransverseGrid, wavelength: float, dz: float,
                      grams: list | None = None) -> np.ndarray:
    """Advance a stack of scalar fields u (..., n, n) by dz metres of free
    space, backwards for dz < 0 (u itself at dz = 0). With a list `grams`,
    the stack's band Gram matrices over the outer band annulus and over all
    of k-space, read off its spectrum before the kernel multiply, are
    appended to it."""
    if dz == 0.0:
        return u
    spec = spfft.fft2(u, workers=FFT_WORKERS)
    if grams is not None:
        flat = spec.reshape(-1, grid.n * grid.n)
        cut = ((1.0 - _BAND_ANNULUS) * np.pi / grid.spacing) ** 2
        edge = flat[:, grid.spectral(lambda k2: k2 > cut).ravel()]
        grams.append((gram(edge, edge), gram(flat, flat)))
    spec *= transfer_function(grid, wavelength, dz)
    return spfft.ifft2(spec, overwrite_x=True, workers=FFT_WORKERS)


def _parity_axes(q: np.ndarray, grid: TransverseGrid):
    """(axis, transform, frequency slice) of each of the last two axes of a
    parity quadrant: an axis of n/2 + 1 samples is even (DCT-I, frequencies
    0..n/2), one of n/2 - 1 samples is odd (DST-I, frequencies 1..n/2-1)."""
    h = grid.n // 2
    axes = []
    for axis in (-2, -1):
        if q.shape[axis] == h + 1:
            axes.append((axis, spfft.dct, slice(0, h + 1)))
        elif q.shape[axis] == h - 1:
            axes.append((axis, spfft.dst, slice(1, h)))
        else:
            raise ValueError(f"a parity quadrant axis has n/2 + 1 or n/2 - 1 samples, "
                             f"got {q.shape[axis]} for n = {grid.n}")
    return axes


def propagate_quadrant(q: np.ndarray, grid: TransverseGrid, wavelength: float,
                       dz: float, spectra: list | None = None,
                       kernel: np.ndarray | None = None) -> np.ndarray:
    """Advance by dz metres of free space (backwards for dz < 0) a field of
    definite parity in x and in y about the grid centre, given by its parity
    quadrant; the result is the carried field's parity quadrant, q itself at
    dz = 0. With a list `spectra`, the quadrant's real spectrum before the
    kernel multiply is appended to it. `kernel`, if given, is
    quadrant_kernel(grid, wavelength, dz), evaluated once for several parts.

    Centred on index 0, each row and column of the grid is a periodic
    sequence of length n, and the parity of each axis is read off the
    quadrant's shape:
    - even: n/2 + 1 samples, at offsets 0..n/2 from the centre
      (TransverseGrid.radial_quadrant, unfold). The DFT of the sequence is
      their DCT-I, on frequencies 0..n/2.
    - odd: n/2 - 1 samples, at offsets 1..n/2-1. The sequence vanishes at
      offsets 0 and n/2, and its DFT is -i times their DST-I, on frequencies
      1..n/2-1.
    The grid's first row or column, at offset -n/2, is its own mirror image.
    A field even along that axis holds it as sample n/2; one odd along it has
    no room for it, so an odd grid field is its odd part plus its unpaired
    line, carried as an even part whose only nonzero line is sample n/2 (as
    jones.spin_orbit_leg carries R(r) cos(ell phi) of odd ell). Each
    transform is its own inverse up to a factor n, and the kernel multiply is
    that of propagate_samples on the matching frequencies, so the unfolded
    result equals propagate_samples of the unfolded field up to rounding.
    """
    if dz == 0.0:
        return q
    axes = _parity_axes(q, grid)
    # one worker: on a quadrant, threads cost more CPU than they save time
    spec = q
    for axis, transform, _ in axes:
        spec = transform(spec, type=1, axis=axis, overwrite_x=spec is not q)
    if spectra is not None:
        spectra.append(spec)
    if kernel is None:
        kernel = quadrant_kernel(grid, wavelength, dz)
    spec = spec * kernel[tuple(cut for *_, cut in axes)]
    for axis, transform, _ in axes:
        spec = transform(spec, type=1, axis=axis, overwrite_x=True)
    spec /= grid.n ** 2
    return spec


def quadrant_band_sums(pairs, grid: TransverseGrid) -> np.ndarray:
    """The sums of x * y over the outer band annulus and over all of k-space,
    [tail, total], added up over pairs (x, y) of real spectra of one parity
    quadrant each (propagate_quadrant's `spectra`). Each frequency is
    weighted by how many grid frequencies it stands for: grid.fold_counts in
    each axis, 2 on an odd one."""
    counts = grid.fold_counts
    total = np.outer(counts, counts)
    edge = ((1.0 - _BAND_ANNULUS) * np.pi / grid.spacing) ** 2
    tail = total * grid.spectral_quadrant(lambda k2: k2 > edge)
    out = np.zeros(2)
    for x, y in pairs:
        cuts = tuple(cut for *_, cut in _parity_axes(x, grid))
        xy = x * y
        out += np.sum(xy * tail[cuts]), np.sum(xy * total[cuts])
    return out


# ---------------------------------------------------------------------------
# obstacles and channel geometry

@dataclass(frozen=True)
class ObstacleSpec:
    """Opaque disk: radius (m), transverse center offset (m), axial position (m)."""

    radius: float
    center: tuple[float, float] = (0.0, 0.0)
    z: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"obstacle radius must be positive, got {self.radius}")
        if not (np.isfinite(self.z) and self.z >= 0):
            raise ValueError(f"obstacle z must be finite and >= 0, got {self.z}")
        if np.shape(self.center) != (2,):
            raise ValueError(f"obstacle center must have 2 entries (x, y), got {self.center}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"obstacle center must be finite, got {self.center}")


def covered_samples(grid: TransverseGrid, obstacles) -> tuple[np.ndarray, np.ndarray]:
    """The row and column indices of the samples that the opaque disks cover,
    hypot(x - cx, y - cy) < R, each sample once, sorted by row. The hypot runs
    only over each disk's box of rows and columns within R of its centre:
    outside it hypot >= max(|x - cx|, |y - cy|) >= R."""
    # config validation enforces that every obstacle fits inside the grid;
    # the samples are defined for any radius (an oversized disk covers all)
    covered = [np.empty(0, np.intp)]
    for obs in obstacles:
        x, y = grid.axis - obs.center[0], grid.axis - obs.center[1]
        cols, rows = np.flatnonzero(np.abs(x) < obs.radius), np.flatnonzero(np.abs(y) < obs.radius)
        inside_rows, inside_cols = np.nonzero(
            np.hypot(x[cols][None, :], y[rows][:, None]) < obs.radius)
        covered.append(rows[inside_rows] * grid.n + cols[inside_cols])
    return np.divmod(np.unique(np.concatenate(covered)), grid.n)


@dataclass(frozen=True)
class ChannelSpec:
    """Free-space channel of total length with obstacles and a fixed
    demodulation station.

    station_z is the axial position of the receiver's wave-plate station
    (placed right after the last obstacle in the reference scenarios); the
    remaining length - station_z is the decoding leg L to the detection
    plane. Obstacles must sit at or before the station.
    """

    length: float
    obstacles: tuple[ObstacleSpec, ...] = ()
    station_z: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length >= 0):
            raise ValueError(f"channel length must be >= 0, got {self.length}")
        obstacles = tuple(sorted(self.obstacles, key=lambda o: o.z))
        object.__setattr__(self, "obstacles", obstacles)
        if not 0 <= self.station_z <= self.length:
            raise ValueError("station_z must lie within [0, length]")
        for o in obstacles:
            if o.z > self.station_z:
                raise ValueError(
                    f"obstacle at z={o.z} lies beyond the demodulation station "
                    f"(station_z={self.station_z})"
                )

    @property
    def decoding_distance(self) -> float:
        """L: distance from the demodulation station to the detection plane."""
        return self.length - self.station_z
