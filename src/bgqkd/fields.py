"""Discrete transverse optical fields: the sampling grid and scalar fields.

All fields live on a square, axis-centred Cartesian grid. Quadrature is the
midpoint rule (sum times pixel area), which matches the FFT propagation grid
exactly. Polarization is carried as spin-orbit coefficients on a pair of
scalar OAM fields (see channel).

All objects are immutable after construction; operations are pure functions.
A grid keeps no n x n plane, only its axis and quadrant-sized folds. Every
plane-length overlap of the package is a small Gram matrix of stacked fields
(gram), summed over blocks of columns.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_GRAM_BLOCK = 8192  # columns per block of `gram`


def gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """conj(x) @ y.T for stacks of flattened fields x (k, m) and y (k', m),
    summed over blocks of columns: conj(x) of the whole stack would copy it,
    and a block's product is small enough that OpenBLAS, should its threads
    be up, runs it on the calling thread without waking them."""
    out = np.zeros((x.shape[0], y.shape[0]), np.result_type(x, y))
    for i in range(0, x.shape[1], _GRAM_BLOCK):
        out += x[:, i:i + _GRAM_BLOCK].conj() @ y[:, i:i + _GRAM_BLOCK].T
    return out


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

    @property
    def phi(self) -> np.ndarray:
        """Azimuth of every sample (rad), built per call."""
        return np.arctan2(self.axis[:, None], self.axis[None, :])

    @cached_property
    def _radial_index(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        # The axis values at offsets -m and +m from the centre are exact
        # negatives, so |axis[j]| = q[|j - n/2|] with q[m] = |axis[n/2 - m]|,
        # m = 0..n/2. The (n/2+1)^2 quadrant hypot(q, q) therefore holds
        # every radius, each from the same hypot as a per-pixel
        # hypot(axis[None, :], axis[:, None]). Rows j < n/2 are quadrant rows
        # n/2 - j, rows j >= n/2 are j - n/2, and likewise for columns.
        h = self.n // 2
        q = np.abs(self.axis[:h + 1])[::-1]
        radii, inverse = np.unique(np.hypot(q[None, :], q[:, None]), return_inverse=True)
        pieces = ((slice(0, h), slice(h, 0, -1)), (slice(h, self.n), slice(0, h)))
        return radii, inverse.reshape(h + 1, h + 1), pieces

    def radial_quadrant(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(r) on the (n/2+1)^2 quadrant of offsets 0..n/2 from the centre:
        cell [i, j] holds f at the radius hypot(j dx, i dx), with f called
        once on the 1-D array of distinct radii (f must act elementwise)."""
        radii, inverse, _ = self._radial_index
        return f(radii)[inverse]

    def unfold(self, quadrant: np.ndarray) -> np.ndarray:
        """The n x n field even about the centre in x and in y whose quadrant
        (as `radial_quadrant` lays it out) is given: the samples at row and
        column offsets +-i, +-j are all quadrant[i, j]."""
        return self._tile(quadrant, self._radial_index[2])

    def even_part(self, a: np.ndarray) -> np.ndarray:
        """The part of a stack a (..., n, n) even about the centre in x and in
        y, on the quadrant as `unfold` takes it: cell [i, j] is the mean of a
        over the samples at row and column offsets +-i, +-j, the adjoint of
        `unfold` divided by the fold counts. even_part(unfold(q)) is q."""
        h, pieces = self.n // 2, self._radial_index[2]
        out = np.zeros(a.shape[:-2] + (h + 1, h + 1), a.dtype)
        for rows, source_rows in pieces:
            for cols, source_cols in pieces:
                out[..., source_rows, source_cols] += a[..., rows, cols]
        counts = self.fold_counts
        return out / np.outer(counts, counts)

    @property
    def fold_counts(self) -> np.ndarray:
        """How many grid rows (or columns) each quadrant row (or column)
        stands for: (1, 2, ..., 2, 1), as the offsets 0 and -n/2 occur once
        and every other offset on both sides of the centre."""
        counts = np.full(self.n // 2 + 1, 2.0)
        counts[[0, -1]] = 1.0
        return counts

    def radial(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(r) on the grid, with f called once on the 1-D array of distinct radii.

        f must act elementwise; the result equals f of the per-pixel radius
        hypot(axis[None, :], axis[:, None]) bit for bit.
        """
        return self.unfold(self.radial_quadrant(f))

    @property
    def radii(self) -> np.ndarray:
        """The distinct sample radii, ascending: the points `radial` calls f on."""
        return self._radial_index[0]

    def ring_weights(self, m: int) -> np.ndarray:
        """Sum of exp(-i m phi) over the pixels at each of `radii`; for m = 0,
        the number of pixels there (as floats)."""
        radii, inverse, pieces = self._radial_index
        if m == 0:
            # a quadrant cell stands for every pixel whose row and column land on it
            counts = self.fold_counts
            return np.bincount(inverse.ravel(), np.outer(counts, counts).ravel(), radii.size)
        index = self._tile(inverse, pieces).ravel()
        w = np.exp(-1j * m * self.phi).ravel()
        return (np.bincount(index, w.real, radii.size)
                + 1j * np.bincount(index, w.imag, radii.size))

    @cached_property
    def _spectral_index(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        # fftfreq's entries at j and n - j are exact negatives, so |k_t|^2 on
        # the grid is its (n/2+1)^2 quadrant over k[0..n/2] at min(j, n - j):
        # rows 0..n/2 are quadrant rows 0..n/2, rows n/2+1..n-1 are n/2-1..1
        h = self.n // 2
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)[:h + 1]
        k2, inverse = np.unique(k[None, :] ** 2 + k[:, None] ** 2, return_inverse=True)
        pieces = ((slice(0, h + 1), slice(0, h + 1)), (slice(h + 1, self.n), slice(h - 1, 0, -1)))
        return k2, inverse.reshape(h + 1, h + 1), pieces

    def _tile(self, quadrant: np.ndarray, pieces) -> np.ndarray:
        """The n x n grid from its quadrant, filled in C order by four slice
        copies; pieces pair each destination slice of an axis with the
        quadrant slice it copies."""
        out = np.empty((self.n, self.n), quadrant.dtype)
        for rows, source_rows in pieces:
            for cols, source_cols in pieces:
                out[rows, cols] = quadrant[source_rows, source_cols]
        return out

    def spectral_quadrant(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(|k_t|^2) on the (n/2+1)^2 quadrant of the FFT-ordered frequency
        grid, rows and columns 0..n/2, with f called once on the 1-D array of
        distinct values (f must act elementwise)."""
        k2, inverse, _ = self._spectral_index
        return f(k2)[inverse]

    def spectral(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(|k_t|^2) on the FFT-ordered frequency grid (rad^2/m^2), with f
        called once on the 1-D array of distinct values; f must act
        elementwise, and the result equals f(kx**2 + ky**2) bit for bit."""
        return self._tile(self.spectral_quadrant(f), self._spectral_index[2])

    def spectral_sums(self, q: np.ndarray) -> np.ndarray:
        """The adjoint of `spectral` on a stack q (..., n/2+1, n/2+1) of
        spectra's quadrants, as `spectral_quadrant` lays them out: the sums
        over each of `distinct_k_squared` of the FFT-ordered spectra even in
        k_x and k_y whose quadrant q is, shape (..., count). Each cell
        weighs the grid frequencies it stands for (fold_counts in each axis),
        so the sum of that spectrum times spectral(f) equals
        spectral_sums(q) @ f(distinct_k_squared) up to rounding."""
        k2, inverse, _ = self._spectral_index
        counts = self.fold_counts
        w = (q * np.outer(counts, counts)).reshape(-1, inverse.size)

        def ring_sums(x):
            return np.stack([np.bincount(inverse.ravel(), row, k2.size) for row in x])
        sums = ring_sums(w.real) + 1j * ring_sums(w.imag) if np.iscomplexobj(w) else ring_sums(w)
        return sums.reshape(q.shape[:-2] + k2.shape)

    @property
    def distinct_k_squared(self) -> np.ndarray:
        """The distinct |k_t|^2, ascending: the points `spectral` calls f on."""
        return self._spectral_index[0]


@dataclass(frozen=True)
class ScalarField:
    """Complex scalar amplitude sampled on a TransverseGrid.

    The samples are read-only: an owned C-ordered complex128 array is frozen
    in place, so the caller's array becomes read-only too; anything else is
    copied to one (a conversion, or a view, whose base stays writable).
    """

    grid: TransverseGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples, n = np.require(self.samples, np.complex128, "COE"), self.grid.n
        if samples.shape != (n, n):
            raise ValueError(f"samples must have shape ({n}, {n}), got {samples.shape}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def power(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.pixel_area)

    def normalized(self) -> "ScalarField":
        p = self.power()
        if p == 0.0:
            raise ValueError("cannot normalize a zero field")
        return ScalarField(self.grid, self.samples / np.sqrt(p))

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2
