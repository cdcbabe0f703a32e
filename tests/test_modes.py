import math

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
    evaluate_bg,
    evaluate_lg,
    nondiffracting_distance,
    shadow_length,
)
from bgqkd.modes import full_reconstruction_distance

from conftest import W0, WAVELENGTH, K_R
from diagnostics import dominant_oam_fraction
from reference_oracles import BESSEL_REFERENCE, J0_ROOTS, J1_ROOTS


def bg_spec(ell=0, k_r=K_R, w0=W0):
    return ModeSpec(family=ModeFamily.BG, ell=ell, w0=w0, wavelength=WAVELENGTH, k_r=k_r)


def lg_spec(ell=0, w0=W0, p=0):
    return ModeSpec(family=ModeFamily.LG, ell=ell, w0=w0, wavelength=WAVELENGTH, p=p)


class TestBesselBackend:
    def test_against_reference_table(self):
        # 22-digit frozen references; demand at least 12 matching digits
        for (ell, x), ref in BESSEL_REFERENCE.items():
            got = special.jv(ell, x)
            assert got == pytest.approx(ref, abs=max(1e-13, abs(ref) * 1e-12)), (ell, x)


class TestEvaluateBg:
    def test_unit_power(self, grid256):
        for ell in (0, 1, 2):
            f = evaluate_bg(bg_spec(ell=ell), grid256)
            assert f.power() == pytest.approx(1.0, abs=1e-9)

    def test_profile_matches_raw_formula(self, grid256):
        # shape equality with the hand-written z = 0 expression, including
        # the sqrt(2/pi) prefactor: sqrt(2/pi) J_0(0) = 0.7979 at the origin
        pref = math.sqrt(2.0 / math.pi)
        assert pref == pytest.approx(0.7979, abs=5e-5)
        raw = (pref * special.jv(0, K_R * grid256.r)
               * np.exp(-(grid256.r / W0) ** 2))
        assert raw[128, 128] == pytest.approx(pref)
        f = evaluate_bg(bg_spec(0), grid256)
        sel = (grid256.r < 2e-3) & (np.abs(raw) > 1e-3)  # stay away from nulls
        ratio = f.samples[sel] / raw[sel]
        scale = abs(ratio.flat[0])
        assert np.max(np.abs(ratio - ratio.flat[0])) < 1e-9 * scale  # single factor

    def test_vortex_core_dark(self, grid256):
        f = evaluate_bg(bg_spec(1), grid256)
        assert abs(f.samples[128, 128]) == 0.0

    def test_first_null_at_bessel_root(self):
        grid = TransverseGrid(n=1024, extent=4e-3)
        f = evaluate_bg(bg_spec(0), grid, z=0.0)
        center = grid.n // 2
        cut = np.abs(f.samples[center, center:]) ** 2
        j = np.argmax((cut[1:] > cut[:-1]))  # first index where intensity rises
        r_null = grid.axis[center + j]
        expected = J0_ROOTS[0] / K_R  # 133.6 um
        assert expected == pytest.approx(2.4048 / K_R, rel=1e-4)
        assert abs(r_null - expected) <= grid.spacing

    def test_nulls_track_roots(self):
        grid = TransverseGrid(n=1024, extent=4e-3)
        center = grid.n // 2
        for ell, roots in ((0, J0_ROOTS[:3]), (1, J1_ROOTS[:2])):
            f = evaluate_bg(bg_spec(ell), grid)
            cut = np.abs(f.samples[center, center:]) ** 2
            for root in roots:
                r = root / K_R
                idx = int(round(r / grid.spacing))
                window = cut[idx - 1: idx + 2]
                # a null lives within one spacing: local intensity tiny
                assert window.min() < 1e-3 * cut.max()

    def test_kr_to_zero_converges_to_gaussian(self, grid256):
        f = evaluate_bg(bg_spec(0, k_r=1.0), grid256)  # 1e-3 rad/mm
        g = evaluate_bg(bg_spec(0, k_r=0.0), grid256)
        diff = np.sqrt(np.sum(np.abs(f.samples - g.samples) ** 2) * grid256.pixel_area)
        assert diff < 1e-3

    def test_oam_concentration(self, grid256):
        for ell in (0, 1, 2):
            f = evaluate_bg(bg_spec(ell), grid256)
            assert dominant_oam_fraction(f, ell) > 0.999

    def test_sanity_bound_and_bad_input(self, grid256):
        spec = bg_spec(0)
        with pytest.raises(ValueError):
            evaluate_bg(spec, grid256, z=11 * spec.rayleigh_range)
        with pytest.raises(ValueError):
            evaluate_bg(spec, grid256, z=float("nan"))
        with pytest.raises(ValueError):
            bg_spec(0, k_r=float("inf"))

    def test_kr_zero_vortex_rejected(self, grid256):
        with pytest.raises(UnsupportedModeError):
            evaluate_bg(bg_spec(1, k_r=0.0), grid256)

    def test_matches_full_grid_formula(self, grid256):
        # the per-radius evaluation gives the bits of the docstring's
        # formula evaluated on every pixel
        r = grid256.r
        for ell, k_r in ((0, K_R), (1, K_R), (-1, K_R), (2, K_R), (-2, K_R), (0, 0.0)):
            spec = bg_spec(ell, k_r=k_r)
            z_r, k = spec.rayleigh_range, spec.wavenumber
            for z in (0.0, 0.3):
                denom = z_r - 1j * z
                bessel = (special.jv(ell, z_r * k_r * r / denom) if k_r > 0
                          else np.ones_like(r, dtype=complex))
                envelope = np.exp((1j * k_r ** 2 * z * W0 ** 2 - 2.0 * k * r ** 2)
                                  / (4.0 * denom))
                phase = np.exp(1j * ell * grid256.phi - 1j * spec.k_z * z)
                samples = np.sqrt(2.0 / np.pi) * bessel * phase * envelope
                expected = ScalarField(grid256, samples).normalized().samples
                got = evaluate_bg(spec, grid256, z=z).samples
                assert np.array_equal(got, expected), (ell, k_r, z)


class TestEvaluateLg:
    def test_gaussian_width(self):
        grid = TransverseGrid(n=512, extent=8e-3)
        f = evaluate_lg(lg_spec(0), grid)
        center = grid.n // 2
        cut = np.abs(f.samples[center, center:]) ** 2
        target = cut[0] / np.e ** 2
        idx = int(np.argmax(cut < target))
        assert abs(grid.axis[center + idx] - W0) <= grid.spacing

    def test_vortex_core(self, grid256):
        f = evaluate_lg(lg_spec(1), grid256)
        assert abs(f.samples[128, 128]) == 0.0

    def test_ring_radius(self):
        grid = TransverseGrid(n=1024, extent=8e-3)
        f = evaluate_lg(lg_spec(1), grid)
        center = grid.n // 2
        cut = np.abs(f.samples[center, center:]) ** 2
        r_peak = grid.axis[center + int(np.argmax(cut))]
        assert abs(r_peak - W0 / math.sqrt(2)) <= grid.spacing

    def test_p_nonzero_rejected(self, grid256):
        with pytest.raises(UnsupportedModeError):
            evaluate_lg(lg_spec(0, p=1), grid256)

    def test_unit_power(self, grid256):
        assert evaluate_lg(lg_spec(1), grid256).power() == pytest.approx(1.0, abs=1e-9)

    def test_matches_full_grid_formula(self, grid256):
        # the bits of the LG_0^ell formula evaluated on every pixel
        r = grid256.r
        for ell in (0, 1, -1, 2):
            spec = lg_spec(ell)
            z_r, k = spec.rayleigh_range, spec.wavenumber
            for z in (0.0, 0.3):
                w = W0 * np.sqrt(1.0 + (z / z_r) ** 2)
                gouy = (abs(ell) + 1) * np.arctan2(z, z_r)
                radial = (np.sqrt(2.0) * r / w) ** abs(ell) * np.exp(-(r / w) ** 2)
                if z == 0.0:
                    curvature = 0.0
                else:
                    radius = (z_r ** 2 + z ** 2) / z
                    curvature = k * r ** 2 / (2.0 * radius)
                phase = np.exp(1j * (ell * grid256.phi - k * z - curvature + gouy))
                samples = (W0 / w) * radial * phase
                expected = ScalarField(grid256, samples).normalized().samples
                got = evaluate_lg(spec, grid256, z=z).samples
                assert np.array_equal(got, expected), (ell, z)


class TestHologram:
    def test_center_positive_and_first_flip(self, grid512):
        t = binary_bessel_hologram(0, K_R, grid512)
        center = grid512.n // 2
        assert t.samples[center, center] == 1.0
        r_flip = J0_ROOTS[0] / K_R
        idx = center + int(np.ceil(r_flip / grid512.spacing)) + 1
        assert np.real(t.samples[center, idx]) == -1.0

    def test_ell1_positive_near_axis(self, grid512):
        t = binary_bessel_hologram(1, K_R, grid512)
        center = grid512.n // 2
        # phi = 0, small r: sign{J_1} = +1 and exp(i phi) = 1
        assert t.samples[center, center + 2] == pytest.approx(1.0)

    def test_unimodular(self, grid256):
        t = binary_bessel_hologram(1, K_R, grid256)
        assert np.max(np.abs(np.abs(t.samples) - 1.0)) < 1e-12

    def test_requires_positive_kr(self, grid256):
        with pytest.raises(ValueError):
            binary_bessel_hologram(0, 0.0, grid256)

    def test_matches_full_grid_formula(self, grid256):
        for ell in (0, 1, -1, 2, -2):
            sign = np.where(special.jv(ell, K_R * grid256.r) >= 0.0, 1.0, -1.0)
            expected = sign * np.exp(1j * ell * grid256.phi)
            got = binary_bessel_hologram(ell, K_R, grid256).samples
            assert np.array_equal(got, expected), ell


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
