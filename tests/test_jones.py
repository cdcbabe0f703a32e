import numpy as np
import pytest

from bgqkd import (
    ModeFamily,
    ModeSpec,
    ScalarField,
    TransverseGrid,
    check_mub,
    mub_state_vector,
)
from bgqkd.channel import DetectionModel, detection_scalar, heralded_profile
from bgqkd.jones import LABELS, SPIN_ORBIT, spin_orbit_pair, vortex_turn, wave_plates
from bgqkd.propagation import propagate_quadrant

from conftest import WAVELENGTH, random_polarized, spin_orbit_states
from diagnostics import (
    circular,
    dominant_oam_fraction,
    linear,
    polarization_variance,
    projected_lobe_axis,
)
from polarized_oracle import (
    HalfWavePlate,
    HorizontalPolarizer,
    OpticalTrain,
    PolarizedField,
    PreconditionError,
    QPlate,
    QuarterWavePlate,
    apply_element,
    heralded_input,
    horizontally_polarized,
    hwp_matrix,
    inner_product,
    preparation_train,
    prepare_state,
    qwp_matrix,
    state_rows,
)
from reference_oracles import transverse_mode



def h_field(scalar):
    return horizontally_polarized(scalar, WAVELENGTH)


def gaussian(grid, w0=1.253e-3):
    spec = ModeSpec(family=ModeFamily.LG, ell=0, w0=w0, wavelength=WAVELENGTH)
    return ScalarField(grid, transverse_mode(spec, grid))


class TestMatrices:
    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 9))
    def test_waveplates_unitary(self, theta):
        for m in (hwp_matrix(theta), qwp_matrix(theta)):
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_hwp_zero_maps_h_and_v(self, grid256):
        u = gaussian(grid256)
        h = h_field(u)
        out = apply_element(HalfWavePlate(0.0), h)
        assert np.allclose(out.h.samples, h.h.samples)
        assert np.allclose(out.v.samples, 0.0)
        v_in = PolarizedField(ScalarField(grid256, np.zeros_like(u.samples)), u, WAVELENGTH)
        out_v = apply_element(HalfWavePlate(0.0), v_in)
        assert np.allclose(out_v.v.samples, -u.samples)

    def test_qwp_zero_relative_phase(self, grid256):
        u = gaussian(grid256)
        v_in = PolarizedField(ScalarField(grid256, np.zeros_like(u.samples)), u, WAVELENGTH)
        out = apply_element(QuarterWavePlate(0.0), v_in)
        assert np.allclose(out.v.samples, 1j * u.samples)
        out_h = apply_element(QuarterWavePlate(0.0), h_field(u))
        assert np.allclose(out_h.h.samples, u.samples)

    def test_polarizer_zeroes_v(self, grid256):
        f = random_polarized(grid256, seed=21)
        out = apply_element(HorizontalPolarizer(), f)
        assert np.all(out.v.samples == 0)
        assert np.array_equal(out.h.samples, f.h.samples)

    def test_qplate_requires_half_integer(self):
        with pytest.raises(ValueError):
            QPlate(q=0.3)

    def test_qplate_unitary_everywhere(self, grid256):
        # the 2x2 q-plate matrix is orthogonal at every grid point
        f = random_polarized(grid256, seed=22)
        out = apply_element(QPlate(0.5), f)
        assert out.power() == pytest.approx(f.power(), rel=1e-12)
        lin = np.abs(f.h.samples) ** 2 + np.abs(f.v.samples) ** 2
        after = np.abs(out.h.samples) ** 2 + np.abs(out.v.samples) ** 2
        assert np.max(np.abs(lin - after)) < 1e-12 * lin.max()

    def test_train_power_preservation(self, grid256):
        # wave-plate/q-plate trains are unitary to 1e-12 (polarizer excluded)
        f = random_polarized(grid256, seed=23)
        for label in LABELS:
            train = preparation_train(label)
            unitary_part = OpticalTrain(tuple(
                e for e in train.elements if not isinstance(e, HorizontalPolarizer)))
            out = unitary_part.apply(f)
            assert out.power() == pytest.approx(f.power(), rel=1e-12)

    def test_adjoint_train_inverts(self, grid256, bg_source):
        from polarized_oracle import vpoint_conditioned

        base = vpoint_conditioned(heralded_input(bg_source, grid256)).normalized()
        for label in LABELS:
            train = preparation_train(label)
            fwd = train.apply(base)
            back = train.adjoint().apply(fwd)
            overlap = abs(inner_product(base, back.normalized())) ** 2
            assert overlap > 1 - 1e-12


class TestQPlateAction:
    def test_left_circular_to_right_with_oam(self, grid256):
        u = gaussian(grid256).samples / np.sqrt(2)
        f = PolarizedField(ScalarField(grid256, u), ScalarField(grid256, 1j * u), WAVELENGTH)
        out = apply_element(QPlate(0.5), f)
        # output should be |R>-polarized: R component = (h + i v)/sqrt(2)
        r_comp = (out.h.samples + 1j * out.v.samples) / np.sqrt(2)
        l_comp = (out.h.samples - 1j * out.v.samples) / np.sqrt(2)
        p_r = np.sum(np.abs(r_comp) ** 2)
        p_l = np.sum(np.abs(l_comp) ** 2)
        assert p_l / (p_l + p_r) < 1e-20
        assert dominant_oam_fraction(ScalarField(grid256, r_comp), +1) > 0.999


class TestPrepareState:
    def synthesize(self, label, profile, grid):
        """Independent construction from the analytic 4-vector."""
        vec = mub_state_vector(label)  # basis {R+,R-,L+,L-}
        phase_pos = np.exp(1j * grid.phi)
        phase_neg = np.exp(-1j * grid.phi)
        u = profile.samples
        r_scalar = (vec[0] * phase_pos + vec[1] * phase_neg) * u
        l_scalar = (vec[2] * phase_pos + vec[3] * phase_neg) * u
        f = linear(ScalarField(grid, l_scalar), ScalarField(grid, r_scalar), WAVELENGTH)
        # match the preparation's singular-sample null
        center = grid.n // 2
        h = f.h.samples.copy(); h[center, center] = 0.0
        v = f.v.samples.copy(); v[center, center] = 0.0
        return PolarizedField(ScalarField(grid, h), ScalarField(grid, v),
                              WAVELENGTH).normalized()

    @pytest.mark.parametrize("label", LABELS)
    def test_matches_analytic_synthesis(self, label, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        prepared = prepare_state(label, base)
        target = self.synthesize(label, base.h, grid256)
        fidelity = abs(inner_product(target, prepared)) ** 2
        assert fidelity > 0.999

    @pytest.mark.parametrize("ell", [1, 2])
    def test_trains_realize_spin_orbit_table(self, ell, grid256, bg_source):
        # each wave-plate train yields its SPIN_ORBIT row on the OAM pair,
        # pixel by pixel (relative to the peak amplitude), up to one global phase
        base = heralded_input(bg_source, grid256)
        pair = spin_orbit_pair(heralded_profile(bg_source, grid256), grid256, ell)
        states = spin_orbit_states(pair, grid256)
        for label, target in zip(LABELS, states):
            prepared = prepare_state(label, base, ell)
            phase = inner_product(target, prepared)
            assert abs(phase) == pytest.approx(1.0, abs=1e-12)
            for a, b in ((prepared.h, target.h), (prepared.v, target.v)):
                peak = np.max(np.abs(b.samples))
                assert np.max(np.abs(a.samples - phase * b.samples)) < 1e-12 * peak

    def test_phi00_uniform_polarization_oam_minus(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        out = prepare_state("phi00", base)
        assert polarization_variance(out) < 1e-6
        # diagonal polarization carrying OAM -1 in both components
        l, r = circular(out)
        assert dominant_oam_fraction(l, -1) > 0.999
        assert dominant_oam_fraction(r, -1) > 0.999

    def test_h_input_transmission_unity(self, grid256, bg_source):
        # the polarizer passes an H input fully: train transmission is 1
        # (relative to the V-point-conditioned input the pipeline prepares)
        from polarized_oracle import vpoint_conditioned

        base = vpoint_conditioned(heralded_input(bg_source, grid256))
        for label in LABELS:
            out = preparation_train(label).apply(base)
            assert out.power() == pytest.approx(base.power(), rel=1e-9)

    def test_rejects_non_h_input(self, grid256):
        u = gaussian(grid256)
        f = PolarizedField(u, u, WAVELENGTH)
        with pytest.raises(PreconditionError):
            prepare_state("psi00", f)

    def test_vector_states_have_varying_polarization(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        for idx in ("00", "01", "10", "11"):
            out = prepare_state(f"psi{idx}", base)
            assert polarization_variance(out) > 0.1

    def test_scalar_states_uniform(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        for idx in ("00", "01", "10", "11"):
            out = prepare_state(f"phi{idx}", base)
            assert polarization_variance(out) < 1e-6


@pytest.mark.parametrize("ell", [1, 2])
def test_spin_orbit_pair_matches_full_plane_formula(grid256, bg_source, ell):
    # from the quadrant, scaled with the fold counts and unfolded once, against
    # the plane: profile on every pixel, r = 0 sample nulled, unit power over
    # all pixels, times exp(+-i ell phi); for the real heralded profile and
    # the complex receiver scalar carried back over 0.3 m
    receiver = detection_scalar(bg_source, grid256, DetectionModel(smf_waist=0.45e-3))
    for q in (heralded_profile(bg_source, grid256),
              propagate_quadrant(receiver, grid256, WAVELENGTH, -0.3)):
        u = grid256.unfold(q).astype(complex)
        u[128, 128] = 0.0
        u /= np.sqrt(np.sum(np.abs(u) ** 2) * grid256.pixel_area)
        turn = np.exp(1j * ell * grid256.phi)
        ref = np.stack([u * turn, u * turn.conj()])
        got = spin_orbit_pair(q, grid256, ell)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestVortexTurn:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_matches_azimuth_exponential(self, n, ell):
        grid = TransverseGrid(n=n, extent=10e-3)
        turn = vortex_turn(grid, ell)
        phi = np.arctan2(grid.axis[:, None], grid.axis[None, :])
        # the bound is 0 for ell = 0: the plane is exactly 1 everywhere
        assert np.max(np.abs(turn - np.exp(1j * ell * phi))) <= 4 * ell * self.EPS
        assert np.max(np.abs(np.abs(turn) - 1.0)) <= 4 * max(ell, 1) * self.EPS
        assert turn[n // 2, n // 2] == 1.0  # arctan2(0, 0) = 0

    def test_ell_zero_is_exactly_one(self, grid256):
        assert np.all(vortex_turn(grid256, 0) == 1.0)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_fills_given_plane(self, grid256, ell):
        out = np.full((256, 256), np.nan, dtype=complex)
        assert vortex_turn(grid256, ell, out=out) is out
        assert np.array_equal(out, vortex_turn(grid256, ell))


class TestMubVectors:
    def test_psi01_components(self):
        vec = mub_state_vector("psi01")
        expected = np.array([1, 0, 0, -1]) / np.sqrt(2)
        assert np.allclose(vec, expected)

    def test_phi01_magnitudes(self):
        # |D,+ell>: equal weight on |R,+> and |L,+>; the relative phase is
        # fixed by the circular-basis convention, not by the D definition
        vec = mub_state_vector("phi01")
        assert np.allclose(np.abs(vec), [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])

    def test_all_unit_norm(self):
        for label in LABELS:
            assert np.linalg.norm(mub_state_vector(label)) == pytest.approx(1.0)

    def test_spin_orbit_rows_follow_labels(self):
        assert LABELS == ("psi00", "psi01", "psi10", "psi11",
                          "phi00", "phi01", "phi10", "phi11")
        for i, label in enumerate(LABELS):
            assert np.array_equal(SPIN_ORBIT[i], mub_state_vector(label))

    @pytest.mark.parametrize("label", ["psi02", "xyz00"])
    def test_unknown_label_refused(self, label):
        for fn in (wave_plates, mub_state_vector):
            with pytest.raises(ValueError, match=label):
                fn(label)


class TestCheckMub:
    def test_analytic_cross_basis(self):
        res = check_mub(LABELS[:4], LABELS[4:])
        assert res.failure is None and res.mutually_unbiased
        assert np.allclose(res.overlaps, 0.25, atol=1e-12)

    def test_same_basis_identity(self):
        res = check_mub(LABELS[:4], LABELS[:4])
        assert res.failure is None
        assert not res.mutually_unbiased
        assert np.allclose(res.overlaps, np.eye(4), atol=1e-12)

    def test_row_sums_complete(self):
        res = check_mub(LABELS[:4], LABELS[4:])
        assert np.allclose(res.overlaps.sum(axis=1), 1.0, atol=1e-12)

    def test_grid_states_match_analytic(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        psi = [prepare_state(l, base) for l in LABELS[:4]]
        phi = [prepare_state(l, base) for l in LABELS[4:]]
        res = check_mub(LABELS[:4], LABELS[4:], states_a=state_rows(psi),
                        states_b=state_rows(phi))
        assert res.failure is None and res.mutually_unbiased
        assert np.max(np.abs(res.overlaps - 0.25)) < 1e-3

    def test_all_64_pairs_match_analytic(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        states = [prepare_state(l, base) for l in LABELS]
        vecs = [mub_state_vector(l) for l in LABELS]
        for i in range(8):
            for j in range(8):
                grid_val = abs(inner_product(states[i], states[j])) ** 2
                ana_val = abs(np.vdot(vecs[i], vecs[j])) ** 2
                assert grid_val == pytest.approx(ana_val, abs=1e-3)

    def test_non_orthonormal_reported_not_raised(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        s = prepare_state("psi00", base)
        res = check_mub(LABELS[:4], LABELS[4:],
                        states_a=state_rows([s, s, s, s]),
                        states_b=state_rows([prepare_state(l, base) for l in LABELS[4:]]))
        assert "not orthonormal" in res.failure


class TestLobeRotation:
    def test_projected_lobes_track_analyzer(self, grid256, bg_source):
        # rotating the analyzer by D (a half-wave plate by D/2) rotates the
        # two-lobe pattern by D for the radial/azimuthal states, within 2 deg
        base = heralded_input(bg_source, grid256)
        two_deg = np.deg2rad(2.0)
        for name, sign in (("psi00", +1), ("psi01", +1), ("psi10", -1), ("psi11", -1)):
            out = prepare_state(name, base)
            for theta0 in (0.1, 0.6):
                delta = 0.35
                a0 = projected_lobe_axis(out, theta0)
                a1 = projected_lobe_axis(out, theta0 + delta)
                moved = (a1 - a0 + np.pi / 2) % np.pi - np.pi / 2
                assert moved == pytest.approx(sign * delta, abs=two_deg), name
