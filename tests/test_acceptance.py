"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The reproduction scenarios come from the committed presets
(default 1024 x 1024 grid); runtime budgets are asserted.
"""

import math
import time

import numpy as np
import pytest

from bgqkd import (
    ModeFamily,
    ModeSpec,
    ScalarField,
    TransverseGrid,
    check_mub,
    hd_entropy,
    key_rate,
    multiphoton_fraction,
    mutual_information,
    nondiffracting_distance,
    qber_from_matrix,
    scattering_matrix,
    shadow_length,
    simulate_counts,
    spdc_overlap,
)
from bgqkd.config import load_preset
from bgqkd.jones import LABELS
from bgqkd.propagation import propagate_samples

from conftest import W0, WAVELENGTH, K_R, pixel_radius, random_polarized
from polarized_oracle import (
    HorizontalPolarizer,
    OpticalTrain,
    back_propagate,
    heralded_input,
    horizontally_polarized,
    inner_product,
    preparation_train,
    prepare_state,
    propagate,
    state_rows,
)
from reference_oracles import rayleigh_sommerfeld_point, transverse_mode


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def preset_matrices():
    """Scattering matrices for both families over the three reference
    scenarios, computed from the committed presets at the default grid."""
    out = {}
    for preset in ("paper-bg", "paper-lg"):
        cfg = load_preset(preset)
        fam = cfg.source.family.value
        for scenario in cfg.scenarios:
            m = scattering_matrix(scenario.channel, cfg.source, cfg.detection,
                                  cfg.grid, scenario=scenario.name)
            out[(fam, scenario.name)] = m
    return out


def test_criterion_1_mub_property():
    t0 = time.perf_counter()
    grid = TransverseGrid(n=1024, extent=10e-3)
    src = ModeSpec(family=ModeFamily.BG, ell=1, w0=W0, wavelength=WAVELENGTH, k_r=K_R)
    base = heralded_input(src, grid)
    psi = [prepare_state(l, base) for l in LABELS[:4]]
    phi = [prepare_state(l, base) for l in LABELS[4:]]
    cross = check_mub(LABELS[:4], LABELS[4:], states_a=state_rows(psi),
                      states_b=state_rows(phi))
    cross_dev = float(np.max(np.abs(cross.overlaps - 0.25)))
    within_dev = 0.0
    for block in (psi, phi):
        g = np.array([[abs(inner_product(a, b)) ** 2 for b in block] for a in block])
        within_dev = max(within_dev, float(np.max(np.abs(g - np.eye(4)))))
    elapsed = time.perf_counter() - t0
    ok = (cross.mutually_unbiased and cross_dev <= 1e-3
          and within_dev <= 1e-3 and elapsed < 30.0)
    report(1, ok, f"cross dev {cross_dev:.2e}, within dev {within_dev:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_2_table_analytics():
    t0 = time.perf_counter()
    info_ok = all(
        abs(mutual_information(e, 4) - target) <= 0.01
        for e, target in [(0.04, 1.69), (0.05, 1.63), (0.15, 1.15), (0.51, 0.19)]
    )
    rate_cases = [(0.04, 2.0e-3, 1.32), (0.05, 2.0e-3, 1.19), (0.15, 1.4e-3, 0.13)]
    table_ok = all(
        abs(key_rate(e, delta, d=4, f_ec=1.2).per_signal - target) <= 0.02
        for e, delta, target in rate_cases
    )
    printed_differs = all(
        abs(key_rate(e, delta, d=4, f_ec=1.2, variant="as_printed").per_signal
            - target) > 0.02
        for e, delta, target in rate_cases
    )
    elapsed = time.perf_counter() - t0
    ok = info_ok and table_ok and printed_differs and elapsed < 1.0
    report(2, ok, f"I_AB ok={info_ok}, R/Q ok={table_ok}, "
                  f"printed-variant differs={printed_differs}, {elapsed:.2f}s")


def test_criterion_3_distance_formulas():
    t0 = time.perf_counter()
    spec = ModeSpec(family=ModeFamily.BG, ell=0, w0=1.253e-3,
                    wavelength=810e-9, k_r=18e3)
    z_max = nondiffracting_distance(spec)
    z1 = shadow_length(600e-6, spec)
    z2 = shadow_length(800e-6, spec)
    elapsed = time.perf_counter() - t0
    ok = (abs(z_max - 0.54) / 0.54 <= 0.01
          and abs(z1 - 0.2586) / 0.2586 <= 1e-3
          and abs(z2 - 0.3448) / 0.3448 <= 1e-3
          and elapsed < 1.0)
    report(3, ok, f"z_max={z_max:.4f}, z_min={z1:.4f}/{z2:.4f}, {elapsed:.2f}s")


def test_criterion_4_propagation_engine():
    t0 = time.perf_counter()
    grid = TransverseGrid(n=512, extent=10e-3)
    w0 = 0.4e-3
    z_r = math.pi * w0 ** 2 / WAVELENGTH
    f = horizontally_polarized(ScalarField(grid, transverse_mode(
        ModeSpec(family=ModeFamily.LG, ell=0, w0=w0, wavelength=WAVELENGTH), grid)), WAVELENGTH)
    width_ok = True
    for factor in (0.5, 1.0, 2.0):
        out = propagate(f, factor * z_r)
        intensity = out.intensity()
        w_meas = math.sqrt(2.0 * float(np.sum(intensity * pixel_radius(grid) ** 2)
                                       / np.sum(intensity)))
        expected = w0 * math.sqrt(1 + factor ** 2)
        width_ok &= abs(w_meas - expected) / expected <= 0.01

    power_ok = abs(propagate(f, 0.4).power() - f.power()) <= 1e-9

    round_trip = back_propagate(propagate(f, 0.4), 0.4)
    fidelity = abs(inner_product(f, round_trip)) ** 2 / (f.power() * round_trip.power())
    reciprocity_ok = fidelity > 1 - 1e-9

    # independent direct-integration oracle at n = 128
    g128 = TransverseGrid(n=128, extent=8e-3)
    u = transverse_mode(ModeSpec(family=ModeFamily.LG, ell=0, w0=0.8e-3,
                                 wavelength=WAVELENGTH), g128)
    rs_ok = True
    for z in (0.4, 0.6, 0.8):
        numeric = propagate_samples(u, g128, WAVELENGTH, z)
        got = abs(numeric[64, 64]) ** 2
        ref = abs(rayleigh_sommerfeld_point(u, g128.spacing, WAVELENGTH,
                                            0.0, 0.0, z)) ** 2
        rs_ok &= abs(got - ref) / ref <= 0.02
    elapsed = time.perf_counter() - t0
    ok = width_ok and power_ok and reciprocity_ok and rs_ok and elapsed < 120.0
    report(4, ok, f"w(z) ok={width_ok}, power ok={power_ok}, round trip "
                  f"ok={reciprocity_ok}, RS ok={rs_ok}, {elapsed:.1f}s")


def test_criterion_5_ordinal_reproduction(preset_matrices):
    t0 = time.perf_counter()
    qber = {}
    nc = {}
    for fam in ("BG", "LG"):
        free = preset_matrices[(fam, "free-space")]
        for name in ("free-space", "r1-600um", "r2-800um"):
            m = preset_matrices[(fam, name)]
            qber[(fam, name)] = qber_from_matrix(m).e
            nc[(fam, name)] = m.raw[0, 0] / free.raw[0, 0]
    r1_ok = (qber[("BG", "r1-600um")] < 0.10 and qber[("LG", "r1-600um")] < 0.10
             and nc[("BG", "r1-600um")] / nc[("LG", "r1-600um")] >= 1.5)
    r2_ok = (qber[("BG", "r2-800um")] < qber[("LG", "r2-800um")]
             and qber[("LG", "r2-800um")] > 0.25
             and nc[("BG", "r2-800um")] / nc[("LG", "r2-800um")] >= 10.0)
    elapsed = time.perf_counter() - t0
    ok = r1_ok and r2_ok and elapsed < 600.0
    report(5, ok,
           f"R1: e_BG={qber[('BG', 'r1-600um')]:.3f} e_LG={qber[('LG', 'r1-600um')]:.3f} "
           f"NC ratio={nc[('BG', 'r1-600um')] / nc[('LG', 'r1-600um')]:.1f}; "
           f"R2: e_BG={qber[('BG', 'r2-800um')]:.3f} e_LG={qber[('LG', 'r2-800um')]:.3f} "
           f"NC ratio={nc[('BG', 'r2-800um')] / nc[('LG', 'r2-800um')]:.1f}; "
           f"{elapsed:.1f}s")


def test_criterion_6_spdc_selection():
    t0 = time.perf_counter()
    grid = TransverseGrid(n=512, extent=10e-3)

    def mode(ell, k_r):
        return ModeSpec(family=ModeFamily.BG, ell=ell, w0=W0,
                        wavelength=WAVELENGTH, k_r=k_r)

    rule_ok = all(
        abs(spdc_overlap(mode(ls, K_R), mode(li, K_R), 1.0e-3, grid)) < 1e-6
        for ls, li in [(1, 1), (0, 1), (2, -1), (-1, -1), (1, -2)]
    )
    ks = np.linspace(10e3, 26e3, 21)
    mags = np.zeros((21, 21))
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            if j < i:
                mags[i, j] = mags[j, i]  # exchange symmetry
                continue
            mags[i, j] = abs(spdc_overlap(mode(0, k1), mode(0, k2), 1.0e-3, grid))
    imax, jmax = np.unravel_index(np.argmax(mags), mags.shape)
    diag_ok = bool(imax == jmax)
    row_ok = all(mags[i].argmax() == i for i in range(21))
    elapsed = time.perf_counter() - t0
    ok = rule_ok and diag_ok and row_ok and elapsed < 120.0
    report(6, ok, f"selection rule ok={rule_ok}, argmax diag ok={diag_ok}, "
                  f"per-row ok={row_ok}, {elapsed:.1f}s")


def test_criterion_7_monte_carlo(preset_matrices):
    t0 = time.perf_counter()
    stat_ok = True
    det_ok = True
    for key, m in preset_matrices.items():
        counts = simulate_counts(m, 1e6, seed=42)
        again = simulate_counts(m, 1e6, seed=42)
        det_ok &= np.array_equal(counts.counts, again.counts)
        det_ok &= counts.to_csv() == again.to_csv()
        e_hat, sigma = counts.empirical_qber()
        e = qber_from_matrix(m).e
        stat_ok &= abs(e_hat - e) <= 3 * sigma
    elapsed = time.perf_counter() - t0
    ok = stat_ok and det_ok and elapsed < 60.0
    report(7, ok, f"3-sigma ok={stat_ok}, determinism ok={det_ok}, {elapsed:.1f}s")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    grid = TransverseGrid(n=256, extent=10e-3)
    f = random_polarized(grid, seed=77)
    unitary_ok = True
    for label in LABELS:
        unitary_part = OpticalTrain(tuple(
            e for e in preparation_train(label).elements
            if not isinstance(e, HorizontalPolarizer)))
        out = unitary_part.apply(f)
        unitary_ok &= abs(out.power() - f.power()) <= 1e-12 * f.power()

    # I_AB = log2 d - H_d(e) = log2 d + (1-e) log2(1-e) + e log2(e/(d-1)), written out
    identity_ok = all(
        abs(mutual_information(e, d) - (math.log2(d) + (1 - e) * math.log2(1 - e)
                                        + (e * math.log2(e / (d - 1)) if e > 0 else 0.0)))
        <= 1e-12
        for d in (2, 4, 8) for e in np.linspace(0.0, 0.99, 100)
    )

    concave_ok = True
    for d in (2, 4, 8):
        e = np.linspace(1e-6, (d - 1) / d, 300)
        h = np.array([hd_entropy(x, d) for x in e])
        concave_ok &= bool(np.all(np.diff(h, 2) <= 1e-10))

    monotone_ok = True
    for variant in ("table_consistent", "as_printed"):
        vals = [key_rate(e, 2e-3, variant=variant).per_signal
                for e in np.linspace(0.0, 0.5, 51)]
        monotone_ok &= all(a > b for a, b in zip(vals, vals[1:]))

    delta_ok = multiphoton_fraction(1e-3, 1e-4) == pytest.approx(5.0e-3, rel=1e-3)
    elapsed = time.perf_counter() - t0
    ok = unitary_ok and identity_ok and concave_ok and monotone_ok and delta_ok
    report(8, ok, f"unitarity={unitary_ok}, identity={identity_ok}, "
                  f"concavity={concave_ok}, monotonicity={monotone_ok}, "
                  f"delta={delta_ok}, {elapsed:.1f}s")


def test_reproduction_example_bands(preset_matrices):
    """Op-level ordinal bands tied to the reproduction scenarios."""
    e_bg_r2 = qber_from_matrix(preset_matrices[("BG", "r2-800um")]).e
    assert 0.05 < e_bg_r2 < 0.35  # reference value 0.15, geometry ordinal
    m_lg_r2 = preset_matrices[("LG", "r2-800um")]
    assert float(m_lg_r2.matched_diagonal().mean()) < 0.5  # severe crosstalk
    # BG dominance: matched-basis mean diagonal (row-normalized) BG >= LG
    for name in ("r1-600um", "r2-800um"):
        bg_diag = preset_matrices[("BG", name)].matched_diagonal().mean()
        lg_diag = preset_matrices[("LG", name)].matched_diagonal().mean()
        assert bg_diag >= lg_diag
