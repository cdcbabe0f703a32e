import math
from functools import partial

import numpy as np
import pytest
from scipy import special

from bgqkd import (
    ModeFamily,
    ModeSpec,
    ScalarField,
    TransverseGrid,
    UnsupportedModeError,
    binary_bessel_hologram,
    nondiffracting_distance,
    shadow_length,
)
from bgqkd.channel import heralded_profile
from bgqkd.jones import spin_orbit_pair, vortex_turn
from bgqkd.modes import full_reconstruction_distance, radial_factor

from conftest import W0, WAVELENGTH, K_R, pixel_radius
from diagnostics import dominant_oam_fraction
from reference_oracles import BESSEL_REFERENCE, J0_ROOTS, J1_ROOTS, bg_radial, unit_power


def bg_spec(ell=0, k_r=K_R, w0=W0):
    return ModeSpec(family=ModeFamily.BG, ell=ell, w0=w0, wavelength=WAVELENGTH, k_r=k_r)


def lg_spec(ell=0, w0=W0):
    return ModeSpec(family=ModeFamily.LG, ell=ell, w0=w0, wavelength=WAVELENGTH)


def profile_plane(spec, grid):
    """The heralded profile of `spec` unfolded to the grid, unnormalised."""
    return grid.unfold(heralded_profile(spec, grid))


def pair_powers(spec, grid):
    """The powers of the OAM pair the engine prepares from the heralded profile."""
    pair = spin_orbit_pair(heralded_profile(spec, grid), grid)
    return [ScalarField(grid, u).power() for u in pair]


def axis_cut(spec, grid):
    """|R(r)|^2 of the spec's radial factor along the grid axis from the centre."""
    return np.abs(radial_factor(spec, grid.axis[grid.n // 2:])) ** 2


class TestBesselBackend:
    def test_against_reference_table(self):
        # 22-digit frozen references; demand at least 12 matching digits
        for (ell, x), ref in BESSEL_REFERENCE.items():
            got = special.jv(ell, x)
            assert got == pytest.approx(ref, abs=max(1e-13, abs(ref) * 1e-12)), (ell, x)


class TestBgProfile:
    def test_unit_power(self, grid256):
        # the profile is scaled to unit power once, on its quadrant, by spin_orbit_pair
        for spec in (bg_spec(0), bg_spec(0, k_r=0.0)):
            assert pair_powers(spec, grid256) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_profile_matches_raw_formula(self, grid256):
        # shape equality with the hand-written z = 0 expression, including
        # the sqrt(2/pi) prefactor: sqrt(2/pi) J_0(0) = 0.7979 at the origin
        pref = math.sqrt(2.0 / math.pi)
        assert pref == pytest.approx(0.7979, abs=5e-5)
        r = pixel_radius(grid256)
        raw = pref * special.jv(0, K_R * r) * np.exp(-(r / W0) ** 2)
        assert raw[128, 128] == pytest.approx(pref)
        f = profile_plane(bg_spec(0), grid256)
        sel = (r < 2e-3) & (np.abs(raw) > 1e-3)  # stay away from nulls
        ratio = f[sel] / raw[sel]
        scale = abs(ratio.flat[0])
        assert np.max(np.abs(ratio - ratio.flat[0])) < 1e-9 * scale  # single factor

    def test_vortex_core_dark(self):
        assert radial_factor(bg_spec(1), np.array([0.0]))[0] == 0.0

    def test_first_null_at_bessel_root(self):
        grid = TransverseGrid(n=1024, extent=4e-3)
        f = profile_plane(bg_spec(0), grid)
        center = grid.n // 2
        cut = np.abs(f[center, center:]) ** 2
        j = np.argmax((cut[1:] > cut[:-1]))  # first index where intensity rises
        r_null = grid.axis[center + j]
        expected = J0_ROOTS[0] / K_R  # 133.6 um
        assert expected == pytest.approx(2.4048 / K_R, rel=1e-4)
        assert abs(r_null - expected) <= grid.spacing

    def test_nulls_track_roots(self):
        grid = TransverseGrid(n=1024, extent=4e-3)
        for ell, roots in ((0, J0_ROOTS[:3]), (1, J1_ROOTS[:2])):
            cut = axis_cut(bg_spec(ell), grid)
            for root in roots:
                r = root / K_R
                idx = int(round(r / grid.spacing))
                window = cut[idx - 1: idx + 2]
                # a null lives within one spacing: local intensity tiny
                assert window.min() < 1e-3 * cut.max()

    def test_kr_to_zero_converges_to_gaussian(self, grid256):
        f = unit_power(profile_plane(bg_spec(0, k_r=1.0), grid256), grid256)  # 1e-3 rad/mm
        g = unit_power(profile_plane(bg_spec(0, k_r=0.0), grid256), grid256)
        diff = np.sqrt(np.sum(np.abs(f - g) ** 2) * grid256.pixel_area)
        assert diff < 1e-3

    def test_oam_concentration(self, grid256):
        # the mode R(r) exp(i ell phi) that spdc_overlap sums over rings
        for ell in (0, 1, 2):
            radial = grid256.radial(partial(radial_factor, bg_spec(ell)))
            f = ScalarField(grid256, radial * vortex_turn(grid256, ell))
            assert dominant_oam_fraction(f, ell) > 0.999

    def test_bad_input(self):
        with pytest.raises(ValueError):
            bg_spec(0, k_r=float("inf"))

    def test_kr_zero_vortex_rejected(self):
        with pytest.raises(UnsupportedModeError):
            radial_factor(bg_spec(1, k_r=0.0), np.array([0.0, 1e-3]))

    def test_kr_beyond_wavenumber_rejected(self):
        # by the spec itself, so a config carrying one fails before any run
        k = bg_spec(0).wavenumber
        for k_r in (k, 2.0 * k):
            with pytest.raises(ValueError, match="wave number"):
                bg_spec(0, k_r=k_r)


class TestLgProfile:
    def test_gaussian_width(self):
        grid = TransverseGrid(n=512, extent=8e-3)
        f = profile_plane(lg_spec(0), grid)
        center = grid.n // 2
        cut = np.abs(f[center, center:]) ** 2
        target = cut[0] / np.e ** 2
        idx = int(np.argmax(cut < target))
        assert abs(grid.axis[center + idx] - W0) <= grid.spacing

    def test_vortex_core(self):
        assert radial_factor(lg_spec(1), np.array([0.0]))[0] == 0.0

    def test_ring_radius(self):
        grid = TransverseGrid(n=1024, extent=8e-3)
        cut = axis_cut(lg_spec(1), grid)
        r_peak = grid.axis[grid.n // 2 + int(np.argmax(cut))]
        assert abs(r_peak - W0 / math.sqrt(2)) <= grid.spacing

    def test_unit_power(self, grid256):
        assert pair_powers(lg_spec(1), grid256) == pytest.approx([1.0, 1.0], abs=1e-9)


@pytest.mark.parametrize("spec", [bg_spec(0), bg_spec(0, k_r=0.0), lg_spec(0)],
                         ids=["bg", "bg-kr0", "lg"])
def test_heralded_profile_matches_per_pixel_formula(grid256, spec):
    # the real radial factor on the quadrant's distinct radii, unfolded, gives
    # the bits of the ell = 0 formula evaluated on every pixel
    r = pixel_radius(grid256)
    envelope = np.exp(-(r / spec.w0) ** 2)
    expected = (np.sqrt(2.0 / np.pi) * special.j0(spec.k_r * r) * envelope
                if spec.family is ModeFamily.BG else envelope)
    assert np.array_equal(profile_plane(spec, grid256), expected)


@pytest.mark.parametrize("ell,k_r", [(ell, k_r) for k_r in (K_R, 41.5e3) for ell in range(-2, 3)]
                         + [(0, 0.0)])
def test_radial_factor_matches_complex_form(grid512, ell, k_r):
    # the real factor against the oracle's complex z_R arithmetic at z = 0,
    # within a few ulp of the peak (measured: up to 8.2, at 41.5 rad/mm);
    # J_-1 = -J_1 and J_-2 = J_2 carry the signs
    r = grid512.radii
    got, ref = radial_factor(bg_spec(ell, k_r=k_r), r), bg_radial(bg_spec(ell, k_r=k_r), r)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 12 * np.finfo(float).eps * np.max(np.abs(ref))


class TestHologram:
    def test_center_positive_and_first_flip(self, grid512):
        t = grid512.radial(partial(binary_bessel_hologram, K_R))
        center = grid512.n // 2
        assert t[center, center] == 1.0
        r_flip = J0_ROOTS[0] / K_R
        idx = center + int(np.ceil(r_flip / grid512.spacing)) + 1
        assert t[center, idx] == -1.0

    def test_unimodular(self, grid256):
        t = grid256.radial(partial(binary_bessel_hologram, K_R))
        assert set(np.unique(t)) == {-1.0, 1.0}

    def test_requires_positive_kr(self, grid256):
        with pytest.raises(ValueError):
            binary_bessel_hologram(0.0, grid256.radii)

    def test_matches_full_grid_formula(self, grid256):
        expected = np.where(special.jv(0, K_R * pixel_radius(grid256)) >= 0.0, 1.0, -1.0)
        assert np.array_equal(grid256.radial(partial(binary_bessel_hologram, K_R)), expected)

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
    def test_matches_jv_sign_on_grid_radii(self, n):
        # the hologram takes the sign of j0; AMOS jv(0, .) gives the same sign
        grid = TransverseGrid(n=n, extent=10e-3)
        for k_r in (1e3, K_R, 41.5e3, 60e3):
            expected = np.where(special.jv(0, k_r * grid.radii) >= 0.0, 1.0, -1.0)
            assert np.array_equal(binary_bessel_hologram(k_r, grid.radii), expected)


class TestDistances:
    def test_nondiffracting_reference_value(self):
        z_max = nondiffracting_distance(bg_spec(0))
        assert z_max == pytest.approx(0.54, rel=0.01)

    def test_nondiffracting_one_mm_waist(self):
        z_max = nondiffracting_distance(bg_spec(0, w0=1e-3))
        assert z_max == pytest.approx(0.431, rel=1e-3)

    def test_linear_in_waist(self):
        assert nondiffracting_distance(bg_spec(0, w0=2 * W0)) == pytest.approx(
            2 * nondiffracting_distance(bg_spec(0)), rel=1e-12)

    def test_shadow_lengths(self):
        assert shadow_length(600e-6, bg_spec(0)) == pytest.approx(0.2586, rel=1e-3)
        assert shadow_length(800e-6, bg_spec(0)) == pytest.approx(0.3448, rel=1e-3)

    def test_shadow_linear_in_radius(self):
        assert shadow_length(1.2e-3, bg_spec(0)) == pytest.approx(
            2 * shadow_length(600e-6, bg_spec(0)), rel=1e-12)

    def test_full_reconstruction_is_twice(self):
        assert full_reconstruction_distance(600e-6, bg_spec(0)) == pytest.approx(
            2 * shadow_length(600e-6, bg_spec(0)))

    def test_kr_zero_gives_infinity(self):
        assert math.isinf(nondiffracting_distance(bg_spec(0, k_r=0.0)))
        assert math.isinf(shadow_length(600e-6, bg_spec(0, k_r=0.0)))

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            shadow_length(0.0, bg_spec(0))
