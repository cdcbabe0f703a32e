"""Discrete transverse optical fields: the sampling grid and scalar fields.

All fields live on a square, axis-centred Cartesian grid. Quadrature is the
midpoint rule (sum times pixel area), which matches the FFT propagation grid
exactly. Polarization is carried as spin-orbit coefficients on a pair of
scalar OAM fields (see channel).

All objects are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TransverseGrid:
    """Square sampling grid of n x n points over a physical side length (m).

    Samples are centred on the optical axis: x_j = (j - n/2) * spacing.
    n must be a power of two (>= 64) so FFT propagation stays fast.
    """

    n: int
    extent: float

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid n must be a power of two >= 64, got {self.n}")
        if not (self.extent > 0 and np.isfinite(self.extent)):
            raise ValueError(f"grid extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        """Sample pitch in metres."""
        return self.extent / self.n

    @property
    def pixel_area(self) -> float:
        return self.spacing ** 2

    @cached_property
    def axis(self) -> np.ndarray:
        """1-D sample coordinates (m), shared by both axes."""
        return (np.arange(self.n) - self.n // 2) * self.spacing

    @cached_property
    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = np.meshgrid(self.axis, self.axis, indexing="xy")
        x.setflags(write=False)
        y.setflags(write=False)
        return x, y

    @cached_property
    def r(self) -> np.ndarray:
        x, y = self.xy
        r = np.hypot(x, y)
        r.setflags(write=False)
        return r

    @cached_property
    def _radial_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The axis values at offsets -m and +m from the centre are exact
        # negatives, so |axis[j]| = q[|j - n/2|] with q[m] = |axis[n/2 - m]|,
        # m = 0..n/2. The (n/2+1)^2 quadrant hypot(q, q) therefore holds
        # every radius, each from the same hypot as `r`.
        h = self.n // 2
        q = np.abs(self.axis[:h + 1])[::-1]
        radii, inverse = np.unique(np.hypot(q[None, :], q[:, None]), return_inverse=True)
        fold = np.abs(np.arange(self.n) - h)
        return radii, inverse.reshape(h + 1, h + 1), fold

    def radial(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(r) on the grid, with f called once on the 1-D array of distinct radii.

        f must act elementwise; the result equals f(self.r) bit for bit.
        """
        radii, inverse, fold = self._radial_index
        # take fills the grid in C order; [fold][:, fold] would be Fortran-ordered
        return f(radii)[inverse].take(fold, 0).take(fold, 1)

    @property
    def radii(self) -> np.ndarray:
        """The distinct sample radii, ascending: the points `radial` calls f on."""
        return self._radial_index[0]

    def ring_weights(self, m: int) -> np.ndarray:
        """Sum of exp(-i m phi) over the pixels at each of `radii`; for m = 0,
        the number of pixels there (as floats)."""
        radii, inverse, fold = self._radial_index
        if m == 0:
            # a quadrant cell stands for every pixel whose two folds land on it
            per_fold = np.bincount(fold)
            return np.bincount(inverse.ravel(), np.outer(per_fold, per_fold).ravel(),
                               radii.size)
        index = inverse.take(fold, 0).take(fold, 1).ravel()
        w = np.exp(-1j * m * self.phi).ravel()
        return (np.bincount(index, w.real, radii.size)
                + 1j * np.bincount(index, w.imag, radii.size))

    @cached_property
    def phi(self) -> np.ndarray:
        x, y = self.xy
        p = np.arctan2(y, x)
        p.setflags(write=False)
        return p

    @cached_property
    def _spectral_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # fftfreq's entries at j and n - j are exact negatives, so |k_t|^2 on
        # the grid is its (n/2+1)^2 quadrant over k[0..n/2] at min(j, n - j)
        h = self.n // 2
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)[:h + 1]
        k2, inverse = np.unique(k[None, :] ** 2 + k[:, None] ** 2, return_inverse=True)
        fold = np.minimum(np.arange(self.n), self.n - np.arange(self.n))
        return k2, inverse.reshape(h + 1, h + 1), fold

    def spectral(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(|k_t|^2) on the FFT-ordered frequency grid (rad^2/m^2), with f
        called once on the 1-D array of distinct values; f must act
        elementwise, and the result equals f(kx**2 + ky**2) bit for bit."""
        k2, inverse, fold = self._spectral_index
        return f(k2)[inverse].take(fold, 0).take(fold, 1)

    @property
    def distinct_k_squared(self) -> np.ndarray:
        """The distinct |k_t|^2, ascending: the points `spectral` calls f on."""
        return self._spectral_index[0]


def _freeze(samples: np.ndarray, n: int) -> np.ndarray:
    arr = np.array(samples, dtype=np.complex128)  # one fresh copy, also of real samples
    if arr.shape != (n, n):
        raise ValueError(f"samples must have shape ({n}, {n}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Complex scalar amplitude sampled on a TransverseGrid."""

    grid: TransverseGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", _freeze(self.samples, self.grid.n))

    def power(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.pixel_area)

    def normalized(self) -> "ScalarField":
        return unit_power_field(self.grid, self.samples)

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


def unit_power_field(grid: TransverseGrid, samples: np.ndarray) -> ScalarField:
    """ScalarField(grid, samples).normalized(), building one field instead of two."""
    p = float(np.sum(np.abs(samples) ** 2) * grid.pixel_area)
    if p == 0.0:
        raise ValueError("cannot normalize a zero field")
    return ScalarField(grid, samples / np.sqrt(p))
