import tracemalloc

import numpy as np
import pytest

from bgqkd import (
    ModeFamily,
    ModeSpec,
    ScalarField,
    TransverseGrid,
    mub_state_vector,
)
from bgqkd.analysis import interior_window
from bgqkd.fields import _GRAM_BLOCK, gram
from bgqkd.propagation import free_space_kernel, transfer_function

from conftest import W0, WAVELENGTH, K_R, pixel_radius, random_polarized
from diagnostics import circular, linear
from polarized_oracle import (
    GridMismatchError,
    PolarizedField,
    heralded_input,
    horizontally_polarized,
    inner_product,
    prepare_state,
)
from reference_oracles import transverse_mode


def bg_scalar(grid, ell, k_r=K_R):
    spec = ModeSpec(family=ModeFamily.BG, ell=ell, w0=W0, wavelength=WAVELENGTH, k_r=k_r)
    return ScalarField(grid, transverse_mode(spec, grid))


class TestGrid:
    def test_spacing(self):
        g = TransverseGrid(n=128, extent=10e-3)
        assert g.spacing == pytest.approx(10e-3 / 128)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TransverseGrid(n=100, extent=10e-3)
        with pytest.raises(ValueError):
            TransverseGrid(n=32, extent=10e-3)

    def test_centered_axis(self):
        g = TransverseGrid(n=64, extent=6.4e-3)
        assert g.axis[32] == 0.0
        assert g.axis[0] == pytest.approx(-3.2e-3)

    def test_radial_reproduces_pixel_radius(self):
        for n in (64, 128, 256):
            g = TransverseGrid(n=n, extent=7.3e-3)
            assert np.array_equal(g.radial(lambda r: r), pixel_radius(g))

    def test_unfold_places_each_cell_at_its_offsets(self):
        # quadrant cell [i, j] lands on every pixel at row offset +-i and
        # column offset +-j from the centre; fold_counts counts those offsets
        g = TransverseGrid(n=64, extent=7.3e-3)
        q = np.random.default_rng(3).standard_normal((33, 33))
        offset = np.abs(np.arange(64) - 32)
        assert np.array_equal(g.unfold(q), q[offset[:, None], offset[None, :]])
        assert np.array_equal(g.fold_counts, np.bincount(offset))
        assert np.array_equal(g.unfold(g.radial_quadrant(lambda r: r)), pixel_radius(g))

    def test_spectral_quadrant_is_the_low_corner(self):
        g = TransverseGrid(n=64, extent=7.3e-3)
        assert np.array_equal(g.spectral_quadrant(np.sqrt), g.spectral(np.sqrt)[:33, :33])

    def test_spectral_reproduces_per_pixel_k_squared(self):
        for n, extent in ((64, 25.6e-6), (128, 7.3e-3), (512, 10e-3)):
            g = TransverseGrid(n=n, extent=extent)
            k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing)
            kx, ky = np.meshgrid(k1, k1, indexing="xy")
            assert np.array_equal(g.spectral(lambda k2: k2), kx ** 2 + ky ** 2)

    def test_spectral_calls_f_once_on_the_distinct_values(self, grid256):
        calls = []

        def f(k2):
            calls.append(k2)
            return np.sqrt(k2)
        out = grid256.spectral(f)
        assert len(calls) == 1
        (k2,) = calls
        assert k2.ndim == 1 and k2.size < grid256.n ** 2 / 8
        assert np.array_equal(k2, grid256.distinct_k_squared)
        assert np.array_equal(k2, np.unique(grid256.spectral(lambda k2: k2)))
        assert out.shape == (grid256.n, grid256.n)

    def test_expansions_are_c_contiguous(self, grid256):
        for out in (grid256.radial(lambda r: r), grid256.spectral(lambda k2: k2),
                    grid256.radial(lambda r: np.exp(1j * r)),
                    grid256.spectral(lambda k2: k2 > 0)):
            assert out.flags.c_contiguous

    def test_expansions_hold_no_intermediate_plane(self, grid256):
        # the result and the quadrant it is copied from, nothing else n x n
        for expand in (grid256.radial, grid256.spectral):
            expand(lambda v: v)  # the cached index, outside the trace
            tracemalloc.start()
            try:
                out = expand(lambda v: v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.4 * out.nbytes, f"{peak / out.nbytes:.2f} result planes"

    def test_ring_weights_are_grid_sums(self):
        for n in (64, 128):
            g = TransverseGrid(n=n, extent=7.3e-3)
            radii, ring = np.unique(pixel_radius(g), return_inverse=True)
            assert np.array_equal(g.radii, radii)
            counts = g.ring_weights(0)
            assert counts.sum() == n * n
            assert np.array_equal(counts, np.bincount(ring.ravel()))
            for m in (1, -2, 4):
                w = np.exp(-1j * m * g.phi).ravel()
                expected = [np.sum(w[ring.ravel() == k]) for k in range(radii.size)]
                assert np.allclose(g.ring_weights(m), expected, rtol=0, atol=1e-12), m


class TestSpectralSums:
    GRIDS = [(64, 25.6e-6), (256, 10e-3)]  # the first with evanescent corners

    @pytest.mark.parametrize("n,extent", GRIDS)
    def test_adjoint_of_spectral(self, n, extent):
        grid = TransverseGrid(n=n, extent=extent)
        rng = np.random.default_rng(n)
        shape = (2, 3, n // 2 + 1, n // 2 + 1)
        q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # the FFT-ordered spectrum even in k_x and k_y whose quadrant q is:
        # frequencies m and n - m share quadrant row (column) m
        fold = np.minimum(np.arange(n), n - np.arange(n))
        even = q[..., fold[:, None], fold[None, :]]
        assert np.array_equal(even[..., :n // 2 + 1, :n // 2 + 1], q)
        sums = grid.spectral_sums(q)
        assert sums.shape == (2, 3, grid.distinct_k_squared.size)
        for f in (lambda k2: free_space_kernel(k2, WAVELENGTH, 0.3), lambda k2: k2):
            expected = np.sum(even * grid.spectral(f), axis=(-2, -1))
            assert np.allclose(sums @ f(grid.distinct_k_squared), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n,extent", GRIDS)
    def test_sums_of_ones_count_the_pixels(self, n, extent):
        grid = TransverseGrid(n=n, extent=extent)
        counts = grid.spectral_sums(np.ones((n // 2 + 1, n // 2 + 1)))
        assert np.array_equal(counts, np.round(counts)) and counts.min() >= 1
        assert counts.sum() == n * n
        assert np.array_equal(counts, np.unique(grid.spectral(lambda k2: k2),
                                                return_counts=True)[1])

    @pytest.mark.parametrize("n,extent", GRIDS)
    def test_kernel_expands_to_transfer_function(self, n, extent):
        grid = TransverseGrid(n=n, extent=extent)
        # each pixel's value of |k_t|^2 is one of the distinct values, exactly
        ring = np.searchsorted(grid.distinct_k_squared, grid.spectral(lambda k2: k2))
        for dz in (0.3, -0.05):
            kernel = free_space_kernel(grid.distinct_k_squared, WAVELENGTH, dz)
            assert np.array_equal(kernel[ring], transfer_function(grid, WAVELENGTH, dz))


class TestEvenPart:
    GRIDS = [TransverseGrid(n=64, extent=7.3e-3), TransverseGrid(n=128, extent=10e-3)]

    @staticmethod
    def random_stack(grid, seed, shape=()):
        rng = np.random.default_rng(seed)
        shape = shape + (grid.n, grid.n)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("grid", GRIDS, ids=["64", "128"])
    def test_unfolded_quadrant_comes_back(self, grid):
        h = grid.n // 2
        q = self.random_stack(grid, 1)[:h + 1, :h + 1]
        assert np.array_equal(grid.even_part(grid.unfold(q)), q)

    @pytest.mark.parametrize("grid", GRIDS, ids=["64", "128"])
    def test_field_odd_in_x_is_zero(self, grid):
        a = self.random_stack(grid, 2, (2,))
        # column j sits at offset j - n/2, and its mirror image at n - j
        # (column 0, at offset -n/2, is its own)
        odd = a - a[..., (-np.arange(grid.n)) % grid.n]
        even = grid.even_part(odd)
        assert even.shape == (2, grid.n // 2 + 1, grid.n // 2 + 1)
        assert np.abs(even).max() < 1e-15 * np.abs(a).max()

    @pytest.mark.parametrize("grid", GRIDS, ids=["64", "128"])
    def test_adjoint_of_unfold(self, grid):
        # each cell is the mean over the pixels it stands for, so the sum of
        # a field times an unfolded quadrant weighs it by the fold counts
        h = grid.n // 2
        a = self.random_stack(grid, 3, (2,))
        q = self.random_stack(grid, 4)[:h + 1, :h + 1]
        weights = np.outer(grid.fold_counts, grid.fold_counts)
        expected = np.sum(a * grid.unfold(q), axis=(-2, -1))
        got = np.sum(grid.even_part(a) * weights * q, axis=(-2, -1))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestGram:
    @pytest.mark.parametrize("n,window", [(64, np.s_[:, :]), (256, np.s_[:, :]),
                                          (256, interior_window(256))])
    def test_equals_whole_product(self, n, window):
        # n^2 = 65,536 is 8 blocks; 64^2 is part of one, the interior 230^2 is
        # 6 whole blocks and a part
        rng = np.random.default_rng(n)
        a, b = (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
                for _ in range(2))
        x, y = (c[(..., *window)].reshape(2, -1) for c in (a, b))
        assert (x.shape[1] % _GRAM_BLOCK == 0) == (n == 256 and window == np.s_[:, :])
        for u, v in ((x, y), (x, x), (y, x)):
            expected = u.conj() @ v.T
            np.testing.assert_allclose(gram(u, v), expected, rtol=0,
                                       atol=1e-13 * np.abs(expected).max())


class TestInnerProduct:
    def test_normalization_identity(self, grid256):
        f = horizontally_polarized(bg_scalar(grid256, 0), WAVELENGTH).normalized()
        val = inner_product(f, f)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert abs(val.imag) < 1e-12

    def test_opposite_oam_orthogonal(self, grid256):
        a = horizontally_polarized(bg_scalar(grid256, +1), WAVELENGTH)
        b = horizontally_polarized(bg_scalar(grid256, -1), WAVELENGTH)
        assert abs(inner_product(a, b)) < 1e-6

    def test_cross_basis_overlap_quarter(self, grid256, bg_source):
        # |<psi00|phi00>|^2 = 0.25: the analytic four-dimensional value
        base = heralded_input(bg_source, grid256)
        psi00 = prepare_state("psi00", base)
        phi00 = prepare_state("phi00", base)
        expected = abs(np.vdot(mub_state_vector("psi00"),
                               mub_state_vector("phi00"))) ** 2
        assert expected == pytest.approx(0.25, abs=1e-12)
        assert abs(inner_product(psi00, phi00)) ** 2 == pytest.approx(0.25, abs=1e-3)

    def test_conjugate_symmetry_and_sesquilinearity(self, grid256):
        a = random_polarized(grid256, seed=1)
        b = random_polarized(grid256, seed=2)
        c = random_polarized(grid256, seed=3)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
        lin = PolarizedField(
            ScalarField(grid256, 0.7j * b.h.samples + 1.3 * c.h.samples),
            ScalarField(grid256, 0.7j * b.v.samples + 1.3 * c.v.samples),
            WAVELENGTH,
        )
        expected = 0.7j * inner_product(a, b) + 1.3 * inner_product(a, c)
        assert inner_product(a, lin) == pytest.approx(expected, rel=1e-12)

    def test_cauchy_schwarz(self, grid256):
        for seed in range(6):
            a = random_polarized(grid256, seed=10 + seed)
            b = random_polarized(grid256, seed=40 + seed)
            bound = a.power() * b.power()
            assert abs(inner_product(a, b)) ** 2 <= bound * (1 + 1e-12)

    def test_grid_mismatch_rejected(self, grid256):
        other = TransverseGrid(n=128, extent=10e-3)
        a = random_polarized(grid256, seed=5)
        b = random_polarized(other, seed=5)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_wavelength_mismatch_rejected(self, grid256):
        a = random_polarized(grid256, seed=6)
        b = random_polarized(grid256, seed=7, wavelength=2 * WAVELENGTH)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_grid_convergence(self):
        # doubling n at fixed extent moves band-limited overlaps by < 1e-4;
        # use mode pairs with order-one overlap
        pairs = []
        for n in (256, 512):
            g = TransverseGrid(n=n, extent=10e-3)
            a = horizontally_polarized(bg_scalar(g, 0), WAVELENGTH)
            b = horizontally_polarized(bg_scalar(g, 0, k_r=0.9 * K_R), WAVELENGTH)
            lg1, lg2 = (horizontally_polarized(ScalarField(g, transverse_mode(
                ModeSpec(family=ModeFamily.LG, ell=0, w0=w0, wavelength=WAVELENGTH), g)),
                WAVELENGTH) for w0 in (W0, 1.5 * W0))
            pairs.append((inner_product(a, b), inner_product(lg1, lg2)))
        for coarse, fine in zip(*pairs):
            assert abs(coarse) > 0.1
        for k in range(2):
            assert abs(pairs[0][k] - pairs[1][k]) / abs(pairs[1][k]) < 1e-4


class TestCircularBasis:
    def test_pure_h_splits_evenly(self, grid256):
        f = horizontally_polarized(bg_scalar(grid256, 0), WAVELENGTH).normalized()
        l, r = circular(f)
        assert l.power() == pytest.approx(0.5, abs=1e-9)
        assert r.power() == pytest.approx(0.5, abs=1e-9)

    def test_pure_left_has_no_right(self, grid256):
        u = bg_scalar(grid256, 0).samples
        f = PolarizedField(
            ScalarField(grid256, u / np.sqrt(2)),
            ScalarField(grid256, 1j * u / np.sqrt(2)),
            WAVELENGTH,
        )
        l, r = circular(f)
        assert r.power() < 1e-24
        assert l.power() == pytest.approx(f.power(), rel=1e-12)

    def test_round_trip_identity(self, grid256):
        f = random_polarized(grid256, seed=11)
        g = linear(*circular(f), f.wavelength)
        scale = np.abs(f.h.samples).max()
        assert np.max(np.abs(g.h.samples - f.h.samples)) < 1e-12 * scale
        assert np.max(np.abs(g.v.samples - f.v.samples)) < 1e-12 * scale

    def test_pointwise_intensity_preserved(self, grid256):
        f = random_polarized(grid256, seed=12)
        l, r = circular(f)
        lin = np.abs(f.h.samples) ** 2 + np.abs(f.v.samples) ** 2
        circ = np.abs(l.samples) ** 2 + np.abs(r.samples) ** 2
        assert np.max(np.abs(lin - circ)) < 1e-12 * lin.max()

    def test_power_invariant(self, grid256):
        f = random_polarized(grid256, seed=13)
        l, r = circular(f)
        assert l.power() + r.power() == pytest.approx(f.power(), rel=1e-12)


def test_zero_field_cannot_be_normalized():
    g = TransverseGrid(n=64, extent=1e-3)
    with pytest.raises(ValueError, match="zero field"):
        ScalarField(g, np.zeros((64, 64))).normalized()


class TestFreeze:
    """ScalarField freezes an owned complex array in place and copies the rest."""

    grid = TransverseGrid(n=64, extent=1e-3)

    def samples(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))

    def test_owned_complex_array_is_frozen_in_place(self):
        a = self.samples()
        f = ScalarField(self.grid, a)
        assert f.samples is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_real_samples_are_converted_and_the_input_left_writable(self):
        a = self.samples().real.copy()
        f = ScalarField(self.grid, a)
        assert f.samples.dtype == np.complex128 and not f.samples.flags.writeable
        assert a.flags.writeable
        a[0, 0] += 1.0
        assert f.samples[0, 0] != a[0, 0]

    def test_view_is_copied(self):
        base = np.stack([self.samples(1), self.samples(2)])
        f = ScalarField(self.grid, base[1])
        assert not np.shares_memory(f.samples, base)
        assert base.flags.writeable
        before = f.samples.copy()
        base[1] = 0.0  # a write through the base cannot reach the field
        assert np.array_equal(f.samples, before)

    def test_fortran_ordered_samples_are_copied_to_c_order(self):
        a = np.asfortranarray(self.samples())
        f = ScalarField(self.grid, a)
        assert f.samples.flags.c_contiguous and a.flags.writeable
        assert np.array_equal(f.samples, a)

    def test_read_only_samples(self):
        a = self.samples()
        a.setflags(write=False)
        assert ScalarField(self.grid, a).samples is a  # owned: shared as it is
        base = self.samples(3)
        view = base[:, :]
        view.setflags(write=False)
        f = ScalarField(self.grid, view)
        assert not np.shares_memory(f.samples, base)  # its base is still writable
        base[:] = 0.0
        assert np.array_equal(f.samples, self.samples(3))

    def test_wrong_shape_rejected_without_freezing(self):
        a = np.zeros((32, 64), dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            ScalarField(self.grid, a)
        assert a.flags.writeable
