import numpy as np
import pytest

from bgqkd import (
    ChannelSpec,
    ModeFamily,
    ModeSpec,
    ObstacleSpec,
    ScalarField,
    TransverseGrid,
    nondiffracting_distance,
)
from bgqkd.channel import (DetectionModel, detection_scalar, heralded_profile,
                           scattering_matrix)
from bgqkd.propagation import (
    covered_samples,
    propagate_quadrant,
    propagate_samples,
    transfer_function,
)

from conftest import W0, WAVELENGTH, K_R, pixel_radius, random_polarized
from diagnostics import unfold
from polarized_oracle import (
    BandLimitWarning,
    PolarizedField,
    apply_obstacle,
    back_propagate,
    boundary_power_fraction,
    conjugate_back_propagate,
    horizontally_polarized,
    inner_product,
    propagate,
    transmit_to_station,
)
from reference_oracles import (
    bg_mode,
    gaussian_overlap_blocked,
    lg_mode,
    rayleigh_range,
    rayleigh_sommerfeld_point,
    transverse_mode,
    unit_power,
)


def gaussian_field(grid, w0):
    spec = ModeSpec(family=ModeFamily.LG, ell=0, w0=w0, wavelength=WAVELENGTH)
    return horizontally_polarized(ScalarField(grid, transverse_mode(spec, grid)), WAVELENGTH)


def beam_width(f):
    """1/e^2 radius from the second moment of intensity (Gaussian beams)."""
    intensity = f.intensity()
    r2 = np.sum(intensity * pixel_radius(f.grid) ** 2) / np.sum(intensity)
    return np.sqrt(2.0 * r2)


class TestPropagate:
    def test_zero_distance_identity(self, grid256):
        f = random_polarized(grid256, seed=31)
        out = propagate(f, 0.0)
        assert out is f

    def test_negative_distance_rejected(self, grid256):
        f = random_polarized(grid256, seed=32)
        with pytest.raises(ValueError):
            propagate(f, -0.1)

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_gaussian_width_law(self, factor):
        grid = TransverseGrid(n=512, extent=10e-3)
        w0 = 0.4e-3
        f = gaussian_field(grid, w0)
        z_r = np.pi * w0 ** 2 / WAVELENGTH
        z = factor * z_r
        out = propagate(f, z)
        expected = w0 * np.sqrt(1.0 + factor ** 2)
        assert beam_width(out) == pytest.approx(expected, rel=0.01)

    def test_power_conserved(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        out = propagate(f, 0.25)
        assert out.power() == pytest.approx(f.power(), abs=1e-9)

    def test_linearity(self, grid256):
        a = random_polarized(grid256, seed=33)
        b = random_polarized(grid256, seed=34)
        summed = PolarizedField(
            ScalarField(grid256, a.h.samples + b.h.samples),
            ScalarField(grid256, a.v.samples + b.v.samples),
            WAVELENGTH,
        )
        z = 0.1
        lhs = propagate(summed, z)
        ra, rb = propagate(a, z), propagate(b, z)
        scale = np.abs(lhs.h.samples).max()
        assert np.max(np.abs(lhs.h.samples - ra.h.samples - rb.h.samples)) < 1e-12 * scale
        assert np.max(np.abs(lhs.v.samples - ra.v.samples - rb.v.samples)) < 1e-12 * scale

    def test_back_propagation_round_trip(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        z = 0.3
        back = back_propagate(propagate(f, z), z)
        fidelity = abs(inner_product(f, back)) ** 2 / (f.power() * back.power())
        assert fidelity > 1 - 1e-9

    def test_bg_nondiffracting_profile(self):
        # numerically propagated BG at half the non-diffracting range stays
        # correlated with the z = 0 ring profile inside r < 1 mm; there and
        # at the farthest self-heal station (0.517 m) it matches the oracle's
        # closed-form mode at that distance, a formula the package does not hold
        grid = TransverseGrid(n=512, extent=10e-3)
        spec = ModeSpec(family=ModeFamily.BG, ell=0, w0=W0, wavelength=WAVELENGTH, k_r=K_R)
        z_half = 0.5 * nondiffracting_distance(spec)
        start = unit_power(unfold(grid, heralded_profile(spec, grid)), grid)
        numerics = {z: propagate_samples(start, grid, WAVELENGTH, z) for z in (z_half, 0.517)}
        sel = pixel_radius(grid) < 1e-3
        i0 = np.abs(start[sel]) ** 2
        iz = np.abs(numerics[z_half][sel]) ** 2
        corr = np.corrcoef(i0, iz)[0, 1]
        assert corr > 0.99
        for z, numeric in numerics.items():
            analytic = bg_mode(spec, grid, z)
            overlap = abs(np.sum(np.conj(analytic) * numeric)
                          * grid.pixel_area) ** 2
            assert overlap > 0.999, z

    def test_lg_matches_closed_form_mode(self, grid256):
        # the oracle's LG_0^ell at z = 0, carried by the engine to one and two
        # Rayleigh ranges, overlaps the closed form there (waist, curvature
        # and Gouy phase), a formula the package does not hold
        for ell in (0, 1, 2):
            spec = ModeSpec(family=ModeFamily.LG, ell=ell, w0=0.4e-3, wavelength=WAVELENGTH)
            start = lg_mode(spec, grid256)
            for z in (rayleigh_range(spec), 2.0 * rayleigh_range(spec)):
                numeric = propagate_samples(start, grid256, WAVELENGTH, z)
                overlap = abs(np.vdot(lg_mode(spec, grid256, z), numeric)
                              * grid256.pixel_area) ** 2
                assert overlap > 0.999, (ell, z)

    def test_band_limit_warning(self, grid256):
        rng = np.random.default_rng(35)
        noisy = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        f = horizontally_polarized(ScalarField(grid256, noisy), WAVELENGTH)
        with pytest.warns(BandLimitWarning):
            propagate(f, 0.01)

    def test_evanescent_truncation_removes_power(self):
        # extreme grid: spacing below the wavelength puts real spectral
        # content beyond k, which must be dropped, never amplified
        grid = TransverseGrid(n=64, extent=64 * 0.4e-6)
        rng = np.random.default_rng(36)
        u = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        f = horizontally_polarized(ScalarField(grid, u), WAVELENGTH)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = propagate(f, 1e-6)
        assert out.power() < f.power()


class TestObstacle:
    def test_covering_grid_zeroes_field(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        out = apply_obstacle(f, ObstacleSpec(radius=8e-3))
        assert out.power() == 0.0

    def test_tiny_radius_near_identity(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        out = apply_obstacle(f, ObstacleSpec(radius=grid256.spacing / 4))
        center_power = (np.abs(f.h.samples[128, 128]) ** 2) * grid256.pixel_area
        assert f.power() - out.power() <= center_power + 1e-15

    def test_removed_power_matches_integral(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        obs = ObstacleSpec(radius=400e-6)
        out = apply_obstacle(f, obs)
        mask = pixel_radius(grid256) < obs.radius
        inside = float(np.sum(f.intensity()[mask]) * grid256.pixel_area)
        assert f.power() - out.power() == pytest.approx(inside, abs=1e-12)

    def test_gaussian_blocked_fraction_closed_form(self):
        grid = TransverseGrid(n=1024, extent=10e-3)
        f = gaussian_field(grid, W0)
        obs = ObstacleSpec(radius=600e-6)
        out = apply_obstacle(f, obs)
        expected = 1.0 - gaussian_overlap_blocked(obs.radius, W0)
        assert out.power() / f.power() == pytest.approx(expected, rel=2e-3)

    @pytest.mark.parametrize("kwargs", [
        {"z": float("nan")}, {"z": float("inf")},
        {"center": (float("nan"), 0.0)}, {"center": (0.0, float("-inf"))},
    ], ids=["z-nan", "z-inf", "center-nan", "center-inf"])
    def test_rejects_non_finite_position(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ObstacleSpec(radius=300e-6, **kwargs)

    @pytest.mark.parametrize("center", [[3e-4, -2e-4], np.array([3e-4, -2e-4])],
                             ids=["list", "ndarray"])
    def test_center_is_stored_as_a_tuple(self, cold_caches, bg_source, center):
        # a list or array centre reached the shared-leg cache unhashable
        obs = ObstacleSpec(radius=300e-6, center=center, z=0.02)
        ref = ObstacleSpec(radius=300e-6, center=(3e-4, -2e-4), z=0.02)
        assert obs.center == (3e-4, -2e-4) and all(type(c) is float for c in obs.center)
        assert obs == ref and hash(obs) == hash(ref)
        grid = TransverseGrid(n=128, extent=10e-3)
        got, expected = (scattering_matrix(ChannelSpec(length=0.05, obstacles=(o,), station_z=0.02),
                                           bg_source, DetectionModel(), grid).raw
                         for o in (obs, ref))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("center", [(1e-4,), (1e-4, 0.0, 2e-4)], ids=["1-entry", "3-entry"])
    def test_center_needs_two_entries(self, center):
        # one entry reached the obstacle mask as an IndexError, and a third was dropped
        with pytest.raises(ValueError, match="2 entries"):
            ObstacleSpec(radius=300e-6, center=center)

    def test_off_center_mask(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        obs = ObstacleSpec(radius=300e-6, center=(1e-3, 0.0))
        out = apply_obstacle(f, obs)
        assert 0 < out.power() < f.power()
        x, y = np.meshgrid(grid256.axis, grid256.axis, indexing="xy")
        blocked = np.hypot(x - 1e-3, y) < 300e-6
        assert np.all(out.h.samples[blocked] == 0)


@pytest.mark.parametrize("radius, center", [
    (800e-6, (0.0, 0.0)),
    (300e-6, (1e-3, -0.7e-3)),
    (1e-3, (-4e-3, 2e-3)),  # tangent to the grid's left edge, x = -5 mm
    (1e-3, (4.6e-3, 4.6e-3)),  # over the corner
    (20 * 10e-3 / 256, (0.0, 0.0)),  # samples exactly on the rim
    (10e-3 / 256 / 4, (0.0, 0.0)),  # sub-pixel, on the centre sample
    (10e-3 / 256 / 4, (10e-3 / 512, 10e-3 / 512)),  # sub-pixel, between samples
    (8e-3, (0.0, 0.0)),  # beyond the grid's corners
], ids=["centred", "off-centre", "edge", "corner", "rim", "sub-pixel", "between",
        "oversized"])
def test_obstacle_mask_equals_full_grid_hypot(grid256, radius, center):
    # the covered samples are those of the per-pixel hypot < R, each once, in
    # C order (so sorted by row)
    x, y = grid256.axis - center[0], grid256.axis - center[1]
    expected = np.flatnonzero(np.hypot(x[None, :], y[:, None]) < radius)
    rows, cols = covered_samples(grid256, (ObstacleSpec(radius=radius, center=center),))
    assert np.array_equal(rows * grid256.n + cols, expected)


def test_covered_samples_of_several_disks_are_their_union(grid256):
    disks = (ObstacleSpec(radius=700e-6, center=(300e-6, -900e-6)),
             ObstacleSpec(radius=500e-6, center=(-200e-6, -300e-6)),
             ObstacleSpec(radius=700e-6, center=(300e-6, -900e-6)))
    covered = np.zeros((grid256.n, grid256.n), bool)
    for o in disks:
        x, y = grid256.axis - o.center[0], grid256.axis - o.center[1]
        covered |= np.hypot(x[None, :], y[:, None]) < o.radius
    rows, cols = covered_samples(grid256, disks)
    assert np.array_equal(rows * grid256.n + cols, np.flatnonzero(covered))
    assert [a.size for a in covered_samples(grid256, ())] == [0, 0]


class TestChannelSpec:
    def test_orders_obstacles(self):
        o1 = ObstacleSpec(radius=1e-4, z=0.2)
        o2 = ObstacleSpec(radius=1e-4, z=0.1)
        chan = ChannelSpec(length=0.5, obstacles=(o1, o2), station_z=0.3)
        assert chan.obstacles[0].z == 0.1
        assert chan.decoding_distance == pytest.approx(0.2)

    def test_rejects_obstacle_past_station(self):
        with pytest.raises(ValueError):
            ChannelSpec(length=0.5, obstacles=(ObstacleSpec(radius=1e-4, z=0.4),),
                        station_z=0.3)

    def test_rejects_station_outside(self):
        with pytest.raises(ValueError):
            ChannelSpec(length=0.5, station_z=0.6)

    def test_transmit_applies_all(self, grid256):
        f = gaussian_field(grid256, 0.6e-3)
        chan = ChannelSpec(
            length=0.4,
            obstacles=(ObstacleSpec(radius=200e-6, z=0.05),
                       ObstacleSpec(radius=300e-6, z=0.1)),
            station_z=0.1,
        )
        out = transmit_to_station(f, chan, check_band_limit=False)
        assert out.power() < f.power()


@pytest.mark.parametrize("n,extent", [(64, 25.6e-6), (256, 10e-3), (512, 10e-3)])
def test_transfer_function_equals_per_pixel_kernel(n, extent):
    # n = 64 at dx = 0.4 um has evanescent corners, which the kernel zeroes
    grid = TransverseGrid(n=n, extent=extent)
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    kx, ky = np.meshgrid(k1, k1, indexing="xy")
    k2 = kx ** 2 + ky ** 2
    k = 2.0 * np.pi / WAVELENGTH
    for dz in (1e-5, 0.02, 0.3):
        expected = np.exp(-1j * dz * np.sqrt(np.maximum(k * k - k2, 0.0))) * (k2 <= k * k)
        kernel = transfer_function(grid, WAVELENGTH, dz)
        assert kernel.tobytes() == expected.tobytes()
        assert kernel.flags.c_contiguous
        assert np.array_equal(transfer_function(grid, WAVELENGTH, -dz), kernel.conj())


class TestRayleighSommerfeldOracle:
    def test_gaussian_on_axis(self):
        # independent direct-integration check of the FFT engine, n = 128
        grid = TransverseGrid(n=128, extent=8e-3)
        w0 = 0.8e-3
        f = gaussian_field(grid, w0).h
        for z in (0.4, 0.6, 0.8):
            numeric = propagate_samples(f.samples, grid, WAVELENGTH, z)
            center = grid.n // 2
            got = abs(numeric[center, center]) ** 2
            ref = abs(rayleigh_sommerfeld_point(
                f.samples, grid.spacing, WAVELENGTH, 0.0, 0.0, z)) ** 2
            assert got == pytest.approx(ref, rel=0.02)

    def test_obstructed_bg_heals_and_matches_oracle(self):
        # scaled geometry keeping the direct integral well sampled at n = 128:
        # the on-axis signal beyond the shadow recovers and agrees with the
        # Rayleigh-Sommerfeld sum within 2%
        lam, k_r, w0, r_obs = 40e-6, 3e3, 2e-3, 0.5e-3
        grid = TransverseGrid(n=128, extent=16e-3)
        spec = ModeSpec(family=ModeFamily.BG, ell=0, w0=w0, wavelength=lam, k_r=k_r)
        u = transverse_mode(spec, grid)
        blocked = ScalarField(grid, u * (pixel_radius(grid) >= r_obs))
        z_min = 2 * np.pi * r_obs / (k_r * lam)
        center = grid.n // 2

        def on_axis(z):
            out = propagate_samples(blocked.samples, grid, lam, z)
            return abs(out[center, center]) ** 2

        just_behind = on_axis(0.1 * z_min)
        healed = on_axis(2 * z_min)
        assert healed > 3 * just_behind
        ref = abs(rayleigh_sommerfeld_point(
            blocked.samples, grid.spacing, lam, 0.0, 0.0, 2 * z_min)) ** 2
        assert healed == pytest.approx(ref, rel=0.02)


class TestGuards:
    def test_boundary_power_reported(self, grid256):
        f = gaussian_field(grid256, 3.5e-3)  # wide beam reaching the edge
        assert boundary_power_fraction(f) > 1e-6
        narrow = gaussian_field(grid256, 0.6e-3)
        assert boundary_power_fraction(narrow) < 1e-12


@pytest.mark.parametrize("n,extent", [(64, 25.6e-6), (256, 10e-3)])
def test_negative_distance_is_the_conjugation_route(n, extent):
    # the kernel of -dz is the conjugate of the kernel of dz and K(-k) = K(k),
    # so P(-dz) u = conj(P(dz) conj(u)) up to rounding (n = 64 at dx = 0.4 um
    # has evanescent corners)
    grid = TransverseGrid(n=n, extent=extent)
    f = random_polarized(grid, seed=41)
    u = np.stack([f.h.samples, f.v.samples])
    for dz in (1e-5, 0.3):
        got = propagate_samples(u, grid, WAVELENGTH, -dz)
        ref = conjugate_back_propagate(u, grid, WAVELENGTH, dz)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_negative_distance_undoes_forward_transport(grid256):
    u = gaussian_field(grid256, 0.6e-3).h.samples
    for dz in (0.02, 0.3):
        back = propagate_samples(propagate_samples(u, grid256, WAVELENGTH, dz),
                                 grid256, WAVELENGTH, -dz)
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("n,extent,dz", [
    (64, 10e-3, 0.02), (64, 10e-3, -0.02), (64, 10e-3, 0.3), (64, 10e-3, -0.3),
    (256, 10e-3, 0.02), (256, 10e-3, -0.02), (256, 10e-3, 0.3), (256, 10e-3, -0.3),
    (256, 4e-3, 0.3), (256, 4e-3, -0.3),  # 0.30 m is 3.9 x N dx^2 / lambda here
])
def test_quadrant_transport_equals_full_plane_transport(bg_source, n, extent, dz):
    # the DFT of a sequence even about index 0 is its DCT-I, so the quadrant's
    # transport, unfolded, is the n x n transport of the unfolded field, the
    # undersampled kernel included
    grid = TransverseGrid(n=n, extent=extent)
    gaussian = grid.radial_quadrant(lambda r: np.exp(-(r / 0.6e-3) ** 2))
    receiver = detection_scalar(bg_source, grid, DetectionModel(smf_waist=0.45e-3))
    for q in (receiver, gaussian):
        got = unfold(grid, propagate_quadrant(q, grid, WAVELENGTH, dz))
        ref = propagate_samples(unfold(grid, q), grid, WAVELENGTH, dz)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert propagate_quadrant(gaussian, grid, WAVELENGTH, 0.0) is gaussian
