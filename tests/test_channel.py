import dataclasses
import itertools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bgqkd import (
    ChannelSpec,
    CountsTable,
    DetectionModel,
    ModeFamily,
    ModeSpec,
    ObstacleSpec,
    ScatteringMatrix,
    TransverseGrid,
    UnsupportedModeError,
    qber_from_matrix,
    scattering_matrix,
    simulate_counts,
    spdc_overlap,
)
from bgqkd import channel
from bgqkd.analysis import interior_window
from bgqkd.channel import BOUNDARY_POWER_TOL, detection_states, matched_sums, source_leg
from bgqkd.fields import ScalarField, gram
from bgqkd.jones import LABELS, spin_orbit_leg, spin_orbit_pair
from bgqkd.modes import binary_bessel_hologram, radial_factor
from bgqkd.propagation import obstacle_mask, propagate_samples, transfer_function

from conftest import W0, WAVELENGTH, K_R, clear_ring_caches, pixel_radius, spin_orbit_states
from diagnostics import dominant_oam_fraction
from polarized_oracle import (
    BandLimitWarning,
    boundary_power_fraction,
    conjugate_back_propagate,
    heralded_input,
    horizontally_polarized,
    inner_product,
    prepare_state,
    transmit_to_station,
)
from reference_oracles import transverse_mode


CASCADE = DetectionModel(smf_waist=0.45e-3, noise_floor=0.0)


def bg_mode(ell, k_r=K_R, w0=W0):
    return ModeSpec(family=ModeFamily.BG, ell=ell, w0=w0, wavelength=WAVELENGTH, k_r=k_r)


def grid_sum_overlap(signal, idler, pump_waist, grid):
    """The SPDC amplitude as a sum over every pixel of the unit-power modes
    and a per-pixel unit-power pump."""
    m_s, m_i = transverse_mode(signal, grid), transverse_mode(idler, grid)
    pump = np.exp(-(pixel_radius(grid) / pump_waist) ** 2)
    pump = pump / np.sqrt(np.sum(np.abs(pump) ** 2) * grid.pixel_area)
    return complex(np.sum(np.conj(m_s) * np.conj(m_i) * pump) * grid.pixel_area)


class TestSpdcOverlap:
    @pytest.mark.parametrize("family", [ModeFamily.BG, ModeFamily.LG])
    @pytest.mark.parametrize("n", [64, 128])
    def test_ring_sum_matches_grid_sum(self, family, n):
        # ell_s + ell_i in {0, +-1, +-2, 4}; on the coarse n = 64 grid the
        # ring sums of exp(-4i phi) do not cancel (|c| ~ 20 for BG (2, 2))
        grid = TransverseGrid(n=n, extent=10e-3)

        def mode(ell):
            return ModeSpec(family=family, ell=ell, w0=W0, wavelength=WAVELENGTH,
                            k_r=K_R if family is ModeFamily.BG else 0.0)

        pairs = [(0, 0), (1, -1), (2, -2), (1, 0), (-1, 0), (1, 1), (-1, -1), (2, 2)]
        ref = [grid_sum_overlap(mode(a), mode(b), 1.0e-3, grid) for a, b in pairs]
        got = [spdc_overlap(mode(a), mode(b), 1.0e-3, grid) for a, b in pairs]
        peak = max(abs(c) for c in ref)
        for pair, c, c_ref in zip(pairs, got, ref):
            assert abs(c - c_ref) <= 1e-12 * abs(c_ref) + 1e-12 * peak, pair

    def test_mixed_families_match_grid_sum(self, grid256):
        lg = ModeSpec(family=ModeFamily.LG, ell=-1, w0=W0, wavelength=WAVELENGTH)
        c_ref = grid_sum_overlap(bg_mode(1), lg, 1.0e-3, grid256)
        assert spdc_overlap(bg_mode(1), lg, 1.0e-3, grid256) == pytest.approx(c_ref, rel=1e-12)

    @pytest.mark.parametrize("waist", [0.0, -1.0e-3, float("nan"), float("inf")])
    def test_pump_waist_must_be_positive_and_finite(self, grid256, waist):
        with pytest.raises(ValueError, match="pump_waist"):
            spdc_overlap(bg_mode(0), bg_mode(0), waist, grid256)

    def test_kr_zero_vortex_rejected(self, grid256):
        with pytest.raises(UnsupportedModeError):
            spdc_overlap(bg_mode(1, k_r=0.0), bg_mode(-1), 1.0e-3, grid256)

    def test_azimuthal_selection_rule(self, grid256):
        pump = 1.0e-3
        for ls, li in [(1, 1), (1, 0), (2, -1), (0, 1)]:
            c = spdc_overlap(bg_mode(ls), bg_mode(li), pump, grid256)
            assert abs(c) < 1e-6, (ls, li)

    def test_opposite_charges_couple(self, grid256):
        c = spdc_overlap(bg_mode(1), bg_mode(-1), 1.0e-3, grid256)
        assert abs(c) > 1e-3

    def test_signal_idler_exchange_symmetric(self, grid256):
        a = spdc_overlap(bg_mode(0, k_r=15e3), bg_mode(0, k_r=20e3), 1.0e-3, grid256)
        b = spdc_overlap(bg_mode(0, k_r=20e3), bg_mode(0, k_r=15e3), 1.0e-3, grid256)
        assert a == pytest.approx(b, rel=1e-12)

    def test_diagonal_dominates_small_scan(self, grid256):
        # |c| over a (k1, k2) grid peaks on the k1 = k2 diagonal
        ks = np.linspace(10e3, 26e3, 5)
        mag = np.zeros((5, 5))
        for i, k1 in enumerate(ks):
            for j, k2 in enumerate(ks):
                mag[i, j] = abs(spdc_overlap(bg_mode(0, k_r=k1), bg_mode(0, k_r=k2),
                                             1.0e-3, grid256))
        imax, jmax = np.unravel_index(np.argmax(mag), mag.shape)
        assert imax == jmax
        for i in range(5):
            assert mag[i, i] == pytest.approx(mag.max(), rel=None, abs=mag.max()) \
                or mag[i, i] >= mag[i].max() * 0.999


# the acceptance scan (criterion 6): selection-rule pairs at K_R, then the
# upper triangle of BG ell = 0 over 21 k_r values
SCAN_KS = np.linspace(10e3, 26e3, 21)
SCAN_PAIRS = ([(bg_mode(ls), bg_mode(li)) for ls, li in [(1, 1), (0, 1), (2, -1), (-1, -1), (1, -2)]]
              + [(bg_mode(0, k_r=SCAN_KS[i]), bg_mode(0, k_r=SCAN_KS[j]))
                 for i in range(21) for j in range(i, 21)])


def uncached_overlap(signal, idler, pump_waist, grid):
    """`spdc_overlap`'s ring sum with every factor evaluated afresh."""
    r, counts = grid.radii, grid.ring_weights(0)

    def unit(f):
        return f / np.sqrt(np.sum(counts * np.abs(f) ** 2) * grid.pixel_area)

    m_s, m_i = unit(radial_factor(signal, r)), unit(radial_factor(idler, r))
    pump = unit(np.exp(-(r / pump_waist) ** 2))
    weights = grid.ring_weights(signal.ell + idler.ell)
    return complex(np.sum(weights * np.conj(m_s) * np.conj(m_i) * pump) * grid.pixel_area)


class TestSpdcOverlapCache:
    grid = TransverseGrid(n=128, extent=10e-3)
    PUMP = ModeSpec(family=ModeFamily.LG, ell=0, w0=1.0e-3, wavelength=WAVELENGTH)

    def scan(self, pairs=SCAN_PAIRS):
        return [spdc_overlap(s, i, 1.0e-3, self.grid) for s, i in pairs]

    def test_each_distinct_mode_evaluated_once(self, monkeypatch, cold_ring_caches):
        modes, ms, scaled = [], [], []

        def counted_factor(spec, r):
            modes.append(spec)
            return radial_factor(spec, r)

        ring_weights = TransverseGrid.ring_weights

        def counted_weights(grid, m):
            ms.append(m)
            return ring_weights(grid, m)

        unit_on_rings = channel._unit_on_rings

        def counted_unit(f, grid):
            scaled.append(f)
            return unit_on_rings(f, grid)

        monkeypatch.setattr(channel, "radial_factor", counted_factor)
        monkeypatch.setattr(TransverseGrid, "ring_weights", counted_weights)
        monkeypatch.setattr(channel, "_unit_on_rings", counted_unit)
        self.scan()
        distinct = {mode for pair in SCAN_PAIRS for mode in pair}
        assert len(distinct) == 25  # k_r = 18 rad/mm, ell = 0 is in both parts
        distinct.add(self.PUMP)  # the pump is the LG ell = 0 mode of its waist
        assert len(modes) == len(distinct) and set(modes) == distinct
        assert sorted(ms) == [-2, -1, 0, 1, 2]
        assert len(scaled) == len(distinct)

    def test_cached_arrays_are_read_only(self, cold_ring_caches):
        self.scan(SCAN_PAIRS[:6])
        arrays = [channel._ring_factor(bg_mode(1), self.grid),
                  channel._ring_factor(self.PUMP, self.grid),
                  channel._ring_weights(self.grid, 0), channel._ring_weights(self.grid, 2)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("n", [64, 128])
    def test_equals_uncached_evaluation(self, n, cold_ring_caches):
        grid = TransverseGrid(n=n, extent=10e-3)
        lg = ModeSpec(family=ModeFamily.LG, ell=-2, w0=W0, wavelength=WAVELENGTH)
        pairs = SCAN_PAIRS + [(bg_mode(2), lg), (lg, bg_mode(0)), (bg_mode(2), bg_mode(2))]
        expected = [uncached_overlap(s, i, 1.0e-3, grid) for s, i in pairs]
        cold = [spdc_overlap(s, i, 1.0e-3, grid) for s, i in pairs]
        warm = [spdc_overlap(s, i, 1.0e-3, grid) for s, i in pairs]
        assert cold == expected and warm == expected

    def test_two_threads_match_serial_scan(self, cold_ring_caches):
        serial = self.scan()
        clear_ring_caches()
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda p: spdc_overlap(*p, 1.0e-3, self.grid), SCAN_PAIRS))
        assert threaded == serial


class TestHeraldedInput:
    def test_h_polarized(self, grid256, bg_source):
        f = heralded_input(bg_source, grid256)
        assert f.v.power() == 0.0
        assert f.power() == pytest.approx(1.0, abs=1e-9)

    def test_oam_zero(self, grid256, bg_source):
        f = heralded_input(bg_source, grid256)
        assert dominant_oam_fraction(f.h, 0) > 0.999

    def test_profile_matches_bg_mode(self, grid256, bg_source):
        f = heralded_input(bg_source, grid256)
        ref = transverse_mode(bg_mode(0), grid256)
        assert np.max(np.abs(f.h.samples - ref)) < 1e-12 * np.abs(ref).max()


class TestMeasureProjection:
    def test_matched_unpropagated_is_unity(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        for label in LABELS:
            f = prepare_state(label, base)
            amp = inner_product(prepare_state(label, base), f)
            assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_within_basis(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        f = prepare_state("psi00", base)
        assert abs(inner_product(prepare_state("psi01", base), f)) < 1e-6

    def test_cross_basis_quarter(self, grid256, bg_source):
        base = heralded_input(bg_source, grid256)
        f = prepare_state("psi00", base)
        amp = inner_product(prepare_state("phi00", base), f)
        assert abs(amp) ** 2 == pytest.approx(0.25, abs=1e-3)


def empty_matched_row_table():
    """Distinct entries 1..64, with the psi10 row (index 2) empty over its
    own basis, columns 0-3, but not over the other."""
    table = np.arange(1.0, 65.0).reshape(8, 8)
    table[2, :4] = 0.0
    return table


class TestMatchedRows:
    def test_matched_sums_written_out(self):
        t = np.arange(1.0, 65.0).reshape(8, 8)
        psi = [t[i, 0] + t[i, 1] + t[i, 2] + t[i, 3] for i in range(4)]
        phi = [t[i, 4] + t[i, 5] + t[i, 6] + t[i, 7] for i in range(4, 8)]
        assert np.array_equal(matched_sums(t), psi + phi)

    def test_row_normalized_zeroes_empty_matched_row(self):
        raw = empty_matched_row_table()
        rn = ScatteringMatrix(raw=raw, transmission=np.ones(8)).row_normalized()
        assert np.array_equal(rn[2], np.zeros(8))
        for i in (0, 1, 3):
            assert np.allclose(rn[i], raw[i] / raw[i, :4].sum(), rtol=1e-15, atol=0)
        for i in range(4, 8):
            assert np.allclose(rn[i], raw[i] / raw[i, 4:].sum(), rtol=1e-15, atol=0)

    def test_empirical_qber_drops_empty_matched_row(self):
        counts = empty_matched_row_table().astype(np.int64)
        kept = [(counts[i, i], counts[i, :4].sum()) for i in (0, 1, 3)]
        kept += [(counts[i, i], counts[i, 4:].sum()) for i in range(4, 8)]
        fracs = [hit / total for hit, total in kept]
        variance = sum(max(p * (1 - p), 1 / total) / total
                       for p, (_, total) in zip(fracs, kept))
        e, sigma = CountsTable(counts).empirical_qber()
        assert e == pytest.approx(1 - sum(fracs) / 7, rel=1e-14)
        assert sigma == pytest.approx(np.sqrt(variance) / 7, rel=1e-14)


def free_channel(length=0.32, station=0.02):
    return ChannelSpec(length=length, obstacles=(), station_z=station)


def obstructed_channel(radius, length=0.32, station=0.02):
    return ChannelSpec(length=length, station_z=station,
                       obstacles=(ObstacleSpec(radius=radius, z=station),))


@pytest.fixture(scope="module", params=["cascade"])
def free_matrix(request, grid256, bg_source):
    return scattering_matrix(free_channel(), bg_source, CASCADE, grid256, scenario="free")


@pytest.fixture(scope="module")
def noisy_free_matrix(grid256, bg_source):
    det = DetectionModel(smf_waist=0.45e-3, noise_floor=4e-4)
    return scattering_matrix(free_channel(), bg_source, det, grid256, scenario="free")


class TestScatteringMatrix:

    def test_entries_in_unit_interval(self, free_matrix):
        assert np.all(free_matrix.raw >= 0)
        assert np.all(free_matrix.raw <= 1 + 1e-12)

    def test_free_space_blocks(self, free_matrix):
        rn = free_matrix.row_normalized()
        assert np.max(np.abs(np.diag(rn) - 1.0)) < 1e-2
        assert np.max(np.abs(rn[:4, 4:] - 0.25)) < 1e-2
        assert np.max(np.abs(rn[4:, :4] - 0.25)) < 1e-2

    def test_matched_blocks_doubly_stochastic(self, free_matrix):
        rn = free_matrix.row_normalized()
        for block in (rn[:4, :4], rn[4:, 4:]):
            assert np.max(np.abs(block.sum(axis=1) - 1.0)) < 1e-3
            assert np.max(np.abs(block.sum(axis=0) - 1.0)) < 1e-3

    def test_parseval_bound(self, grid256, bg_source):
        for center in [(0.0, 0.0), (300e-6, -150e-6)]:  # the off-centre one has crosstalk
            chan = ChannelSpec(length=0.32, station_z=0.02, obstacles=(
                ObstacleSpec(radius=600e-6, center=center, z=0.02),))
            m = scattering_matrix(chan, bg_source, CASCADE, grid256, scenario="r1")
            assert np.all(matched_sums(m.raw) <= m.transmission + 1e-9)

    def test_exchange_symmetry(self, grid256):
        # scattering_matrix takes the charge as |ell|, so a flipped source
        # gives the same matrix; the flip acts on the prepared states, where
        # it permutes labels: psi00<->psi10, psi01<->psi11, phi00<->phi01,
        # phi10<->phi11
        m_pos = scattering_matrix(free_channel(), bg_mode(+1), CASCADE, grid256)
        m_neg = scattering_matrix(free_channel(), bg_mode(-1), CASCADE, grid256)
        assert np.array_equal(m_neg.raw, m_pos.raw)
        perm = [2, 3, 0, 1, 5, 4, 7, 6]
        assert np.allclose(m_neg.raw, m_pos.raw[np.ix_(perm, perm)], atol=1e-6)
        base = heralded_input(bg_mode(+1), grid256)
        for i, label in enumerate(LABELS):
            flipped = prepare_state(label, base, ell=-1)
            partner = prepare_state(LABELS[perm[i]], base, ell=+1)
            assert abs(inner_product(flipped, partner)) ** 2 == pytest.approx(
                1.0, abs=1e-9), label

    def test_noise_floor_added(self, grid256, bg_source):
        det = DetectionModel(smf_waist=0.45e-3, noise_floor=1e-3)
        m = scattering_matrix(free_channel(), bg_source, det, grid256)
        base = scattering_matrix(free_channel(), bg_source, CASCADE, grid256)
        assert np.allclose(m.raw, base.raw + 1e-3, atol=1e-9)

    def test_warnings_attached_on_coarse_grid(self, grid256, bg_source):
        m = scattering_matrix(free_channel(), bg_source, CASCADE, grid256)
        # n = 256 legitimately trips the band-limit guard for BG vector states
        assert any("k-space" in w for w in m.warnings)

    def test_detection_states_orthonormal(self, grid256, bg_source):
        receiver = detection_states(bg_source, grid256, 0.30, CASCADE)
        states = spin_orbit_states(spin_orbit_pair(receiver, grid256, 1), grid256)
        for block in (states[:4], states[4:]):
            for i, a in enumerate(block):
                for j, b in enumerate(block):
                    target = 1.0 if i == j else 0.0
                    assert abs(inner_product(a, b)) ** 2 == pytest.approx(target, abs=2e-3)

    def test_serialization_round_trip(self, free_matrix):
        d = free_matrix.to_json_dict()
        assert d["labels"] == list(LABELS)
        assert len(d["raw"]) == 8
        csv = free_matrix.to_csv()
        assert csv.count("\n") == 9
        for lines in (csv.splitlines(), free_matrix.normalized_csv().splitlines()):
            assert lines[0].split(",") == ["prepared\\measured", *LABELS]
            assert [line.split(",")[0] for line in lines[1:]] == list(LABELS)


# Jones-train oracle: every state built by its wave-plate train and carried
# through the channel as a polarized field, one by one.

def _oracle_detection_states(source, grid, channel, det):
    g = np.exp(-(pixel_radius(grid) / det.smf_waist) ** 2)
    g = g * binary_bessel_hologram(source.k_r, pixel_radius(grid))
    g = conjugate_back_propagate(ScalarField(grid, g).normalized().samples, grid,
                                 source.wavelength, channel.decoding_distance)
    base = horizontally_polarized(ScalarField(grid, g), source.wavelength)
    return [prepare_state(label, base) for label in LABELS]


def _oracle_matrix(source, grid, channel, det):
    dets = _oracle_detection_states(source, grid, channel, det)
    base = heralded_input(source, grid)
    raw, transmission, notes = np.zeros((8, 8)), np.zeros(8), []
    for i, label in enumerate(LABELS):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BandLimitWarning)
            f = transmit_to_station(prepare_state(label, base), channel)
        notes += [f"{label}: {w.message}" for w in caught
                  if issubclass(w.category, BandLimitWarning)]
        edge = boundary_power_fraction(f)
        if edge > BOUNDARY_POWER_TOL:
            notes.append(f"{label}: boundary power fraction {edge:.2e}")
        transmission[i] = f.power()
        raw[i] = [abs(inner_product(d, f)) ** 2 for d in dets]
    return raw, transmission, notes


ORACLE_CHANNELS = {
    "centred": obstructed_channel(600e-6),
    "off-centre": ChannelSpec(length=0.32, station_z=0.02, obstacles=(
        ObstacleSpec(radius=600e-6, center=(300e-6, -150e-6), z=0.02),)),
    "two-obstacle": ChannelSpec(length=0.32, station_z=0.08, obstacles=(
        ObstacleSpec(radius=400e-6, center=(500e-6, 0.0), z=0.01),
        ObstacleSpec(radius=300e-6, center=(-200e-6, 400e-6), z=0.05))),
    # two disks on the station plane that overlap: their union is masked once
    "overlapping": ChannelSpec(length=0.32, station_z=0.02, obstacles=(
        ObstacleSpec(radius=500e-6, center=(300e-6, -150e-6), z=0.02),
        ObstacleSpec(radius=450e-6, center=(-250e-6, 100e-6), z=0.02))),
    # a disk whose masked rows (y = -4.6..-1.0 mm) cross the interior
    # window's border row (y = -4.49 mm at n = 256) and reach into the beam
    "near-edge": ChannelSpec(length=0.32, station_z=0.02, obstacles=(
        ObstacleSpec(radius=1.8e-3, center=(200e-6, -2.8e-3), z=0.02),)),
}


@pytest.mark.parametrize("det", [CASCADE], ids=["cascade"])
@pytest.mark.parametrize("name", list(ORACLE_CHANNELS))
def test_engine_matches_jones_train_oracle(grid256, bg_source, name, det):
    channel = ORACLE_CHANNELS[name]
    m = scattering_matrix(channel, bg_source, det, grid256)
    raw, transmission, notes = _oracle_matrix(bg_source, grid256, channel, det)
    assert np.max(np.abs(m.raw - raw)) < 1e-9
    assert np.max(np.abs(m.transmission - transmission)) < 1e-12
    assert notes  # n = 256 trips the band-limit guard for BG states
    assert {w.split(":")[0] for w in m.warnings} == {w.split(":")[0] for w in notes}
    assert list(m.warnings) == notes  # the same figures, to the printed digits
    if name != "centred":
        # real crosstalk: a prepared state leaks into its orthogonal partners
        assert np.max(raw[:4, :4] - np.diag(np.diag(raw[:4, :4]))) > 1e-6


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
@pytest.mark.parametrize("radius", [None, 600e-6, 800e-6], ids=["free-space", "600um", "800um"])
def test_centred_obstacle_is_error_free(request, grid256, source, radius):
    # the paper's three links with no noise floor: a centred disk commutes
    # with the spin-orbit structure, so the receiver sees no error
    chan = free_channel() if radius is None else obstructed_channel(radius)
    m = scattering_matrix(chan, request.getfixturevalue(source), CASCADE, grid256)
    assert qber_from_matrix(m).e <= 1e-12


def off_centre_raw(source, grid, center):
    """The raw matrix through the 600 um disk at `center` on the 0.02 m station."""
    chan = ChannelSpec(length=0.32, station_z=0.02, obstacles=(
        ObstacleSpec(radius=600e-6, center=center, z=0.02),))
    return scattering_matrix(chan, source, CASCADE, grid).raw


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
@pytest.mark.parametrize("ell,start,moved,perm", [
    # a quarter turn of the disk, (c, 0) -> (0, c), turns the ell = 1 states'
    # vortex phase by exp(+-i pi / 2): psi00 <-> psi01 and psi10 <-> psi11
    (1, (300e-6, 0.0), (0.0, 300e-6), [1, 0, 3, 2, 4, 5, 6, 7]),
    # the ell = 2 phase turns by exp(+-i pi) = -1: every state keeps its label
    (2, (300e-6, 0.0), (0.0, 300e-6), list(range(8))),
    # a mirror y -> -y flips the OAM sign: psi00 <-> psi10, psi01 <-> psi11,
    # phi00 <-> phi01 and phi10 <-> phi11
    (1, (300e-6, 150e-6), (300e-6, -150e-6), [2, 3, 0, 1, 5, 4, 7, 6]),
], ids=["quarter-turn-ell1", "quarter-turn-ell2", "mirror"])
def test_off_centre_matrix_symmetry(request, grid256, source, ell, start, moved, perm):
    src = dataclasses.replace(request.getfixturevalue(source), ell=ell)
    a, b = off_centre_raw(src, grid256, start), off_centre_raw(src, grid256, moved)
    assert np.max(np.abs(b - a[np.ix_(perm, perm)])) <= 1e-11 * np.max(a)
    if ell == 1:
        # the disk's move is seen: the matrices themselves differ
        assert np.max(np.abs(b - a)) > 1e-2 * np.max(a)


@pytest.mark.parametrize("family", [ModeFamily.BG, ModeFamily.LG], ids=["BG", "LG"])
@pytest.mark.parametrize("ell", [1, -1, 2, 3])
@pytest.mark.parametrize("n,extent,dz", [
    (64, 10e-3, 0.02), (64, 10e-3, 0.3), (256, 10e-3, 0.02), (256, 10e-3, 0.3),
    # 0.30 m is 3.9 x N dx^2 / lambda here, and the unpaired lines at offset
    # -n/2 hold 1-8 % of the peak
    (256, 4e-3, 0.02), (256, 4e-3, 0.3),
])
def test_source_leg_equals_full_plane_transport(family, ell, n, extent, dz):
    # for odd ell, the pair's real part carried on parity quadrants and
    # written once equals the n x n transport of the pair, the undersampled
    # kernel included, and so do the band Gram matrices read off the parts'
    # spectra. The unpaired line holds at least 6e-9 of the peak on every
    # grid here (1e-2 on the 4 mm one), far above the bound, so a leg that
    # drops it fails. Even ell runs the n x n transport itself
    source = ModeSpec(family=family, ell=ell, w0=W0, wavelength=WAVELENGTH,
                      k_r=K_R if family is ModeFamily.BG else 0.0)
    grid = TransverseGrid(n=n, extent=extent)
    pair = source_leg(source, grid, 0.0)
    assert np.max(np.abs(pair[:, :, 0])) > 5e-9 * np.max(np.abs(pair))
    ref_grams, grams = [], []
    ref = propagate_samples(pair, grid, WAVELENGTH, dz, ref_grams)
    got = source_leg(source, grid, dz, grams)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert len(grams) == 1
    for g, r in zip(grams[0], ref_grams[0]):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))
    if ell % 2 == 0:
        assert np.array_equal(got, ref)
    # at dz = 0, the pair at the channel input, a new array on every call
    assert np.array_equal(pair, spin_orbit_pair(channel.heralded_profile(source, grid), grid,
                                                abs(ell)))
    assert source_leg(source, grid, 0.0) is not pair


@pytest.mark.parametrize("ell,planes", [
    # C's odd part (a DCT-I down the columns and a DST-I along the rows, each
    # way) and its unpaired column (two DCT-Is each way)
    (1, {"fft2": 0, "ifft2": 0, "dct": 6, "dst": 2}),
    # the pair's two planes, forward and back
    (2, {"fft2": 2, "ifft2": 2, "dct": 0, "dst": 0}),
    (3, {"fft2": 0, "ifft2": 0, "dct": 6, "dst": 2}),
])
def test_source_leg_runs_quadrants_for_odd_ell_only(fft_planes, grid256, bg_source, ell,
                                                   planes):
    source_leg(dataclasses.replace(bg_source, ell=ell), grid256, 0.02)
    assert fft_planes == planes


@pytest.mark.parametrize("ell", [0, 2, -4])
def test_quadrant_leg_refuses_even_ell(grid256, bg_source, ell):
    profile = channel.heralded_profile(bg_source, grid256)
    with pytest.raises(ValueError, match="odd ell"):
        spin_orbit_leg(profile, grid256, ell, WAVELENGTH, 0.02)


# Station-plane masks for the streamed Gram matrices: none, a centred disk, an
# off-centre disk, and two overlapping disks whose rows span y = -1.6..0.2 mm,
# across the centre row and, at n = 256, the block boundary at row 96
# (y = -1.25 mm).
STATION_MASKS = {
    "none": (),
    "centred": (ObstacleSpec(radius=600e-6),),
    "off-centre": (ObstacleSpec(radius=600e-6, center=(300e-6, -150e-6)),),
    "overlapping": (ObstacleSpec(radius=700e-6, center=(300e-6, -900e-6)),
                    ObstacleSpec(radius=500e-6, center=(-200e-6, -300e-6))),
}


# at n = 1024 the last blocks of rows lie wholly below the interior window
@pytest.mark.parametrize("n, ell, masks", [
    *itertools.product([64, 256], [1, 2, 3], STATION_MASKS), (1024, 1, "off-centre")])
def test_station_grams_equal_plane_grams(n, ell, masks):
    grid = TransverseGrid(n=n, extent=10e-3)
    source = bg_mode(ell)
    pair = source_leg(source, grid, 0.02)
    receiver = detection_states(source, grid, 0.30, CASCADE)
    mask = None
    if STATION_MASKS[masks]:
        mask = np.prod([obstacle_mask(grid, o) for o in STATION_MASKS[masks]], axis=0)
    got = channel.station_grams(pair, mask, receiver, grid, ell)

    u = pair if mask is None else pair * mask
    inner = u[(..., *interior_window(n))].reshape(2, -1)
    dets = spin_orbit_pair(receiver, grid, ell).reshape(2, -1)
    u = u.reshape(2, -1)
    want = [gram(dets, u), gram(u, u), gram(inner, inner)]
    for g, g_plane in zip(got, want):
        g_plane = g_plane * grid.pixel_area
        assert np.max(np.abs(g - g_plane)) <= 1e-14 * np.max(np.abs(g_plane))


class TestSharedLegs:
    """The source pair's transport, walked once per channel prefix (see
    channel._arrival) and shared by scenarios and snapshot stations."""

    grid = TransverseGrid(n=128, extent=10e-3)
    channels = (free_channel(), obstructed_channel(600e-6), obstructed_channel(800e-6))

    def run(self):
        return [scattering_matrix(c, bg_mode(1), CASCADE, self.grid) for c in self.channels]

    def test_transport_transforms_the_pair_once_per_segment(self, fft_planes, cold_leg_cache,
                                                            grid256, bg_source):
        # the first segment on the source's parity quadrants, with no n x n
        # transform: for ell = 1, C's odd part (a DCT-I down the columns and a
        # DST-I along the rows, each way) and its unpaired column (two DCT-Is
        # each way); then one forward and one inverse transform of the pair
        # per further segment: the band guard reads the transport's own spectrum
        chan = ChannelSpec(length=0.4, obstacles=(ObstacleSpec(radius=200e-6, z=0.05),
                                                  ObstacleSpec(radius=300e-6, z=0.1)),
                           station_z=0.2)
        _, grams = channel.station_pair(bg_source, grid256, chan.obstacles, chan.station_z)
        assert len(grams) == 3
        assert fft_planes == {"fft2": 2 * 2, "ifft2": 2 * 2, "dct": 2 + 4, "dst": 2}

    def test_band_grams_read_the_spectrum_before_the_kernel(self, cold_leg_cache):
        # dx = 0.4 um < lambda / sqrt(2), so the grid's corners are evanescent:
        # Gram matrices taken after the kernel multiply would miss their power.
        # A vortex two pixels wide puts a sixth of its power there, and the
        # disk 1 um on puts a quarter back; the first segment's matrices come
        # from the source's parity quadrants, the second's from the n x n pair
        grid = TransverseGrid(n=64, extent=25.6e-6)
        source = ModeSpec(family=ModeFamily.LG, ell=1, w0=0.2e-6, wavelength=WAVELENGTH)
        obs = ObstacleSpec(radius=3e-6, z=1e-6)
        _, grams = channel.station_pair(source, grid, (obs,), 30e-6)
        pair = source_leg(source, grid, 0.0)
        kernels = [transfer_function(grid, WAVELENGTH, dz) for dz in (obs.z, 30e-6 - obs.z)]
        entering = [pair, np.fft.ifft2(np.fft.fft2(pair) * kernels[0]) * obstacle_mask(grid, obs)]
        outer = (grid.spectral(lambda k2: k2) > (0.9 * np.pi / grid.spacing) ** 2).ravel()
        assert len(grams) == 2
        for got, u, kernel in zip(grams, entering, kernels):
            spec = np.fft.fft2(u).reshape(2, -1)
            for g, s in zip(got, (spec[:, outer], spec)):
                ref = s.conj() @ s.T
                np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            after = (np.fft.fft2(u) * kernel).reshape(2, -1)
            assert np.trace(got[1]).real > 1.1 * np.trace(after.conj() @ after.T).real

    def test_shared_leg_is_carried_once(self, fft_planes, cold_leg_cache):
        # free space, 600 um and 800 um, all on the station plane: the pair's
        # leg to the station once, on its parity quadrants (six DCT-Is and two
        # DST-Is), and per scenario the detection scalar's quadrant carried
        # back by two DCT-Is each way, with no n x n transform
        matrices = self.run()
        assert fft_planes == {"fft2": 0, "ifft2": 0, "dct": 6 + 3 * 4, "dst": 2}
        for c, m in zip(self.channels, matrices):
            channel._arrival.cache_clear()
            alone = scattering_matrix(c, bg_mode(1), CASCADE, self.grid)
            assert np.array_equal(m.raw, alone.raw)
            assert np.array_equal(m.transmission, alone.transmission)
            assert m.warnings == alone.warnings

    def test_cached_legs_are_read_only(self, cold_leg_cache):
        pair, grams = channel.station_pair(bg_mode(1), self.grid, (), 0.02)
        assert pair is channel.station_pair(bg_mode(1), self.grid, (), 0.02)[0]
        for a in (pair, *grams[0]):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_threads_match_serial_run_and_carry_the_leg_once(self, monkeypatch,
                                                              cold_leg_cache, workers):
        # pool threads that miss the cold cache together wait for the first
        # one's leg instead of carrying it again (more workers than cores and
        # frequent thread switches make the race likely)
        legs = []

        def counted(source, grid, dz, *args, **kwargs):
            legs.append(dz)
            return source_leg(source, grid, dz, *args, **kwargs)
        monkeypatch.setattr(channel, "source_leg", counted)
        serial = self.run()
        assert legs == [0.02]
        channel._arrival.cache_clear()
        legs.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                threaded = list(pool.map(
                    lambda c: scattering_matrix(c, bg_mode(1), CASCADE, self.grid),
                    self.channels, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert legs == [0.02]
        for a, b in zip(threaded, serial):
            assert np.array_equal(a.raw, b.raw)
            assert np.array_equal(a.transmission, b.transmission)
            assert a.warnings == b.warnings

    def test_cache_stays_bounded(self, cold_leg_cache):
        grid = TransverseGrid(n=64, extent=10e-3)
        limit = channel._arrival.cache_info().maxsize
        for i in range(limit + 3):
            channel.station_pair(bg_mode(1), grid, (), 0.01 * (i + 1))
        assert channel._arrival.cache_info().currsize == limit


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
class TestNonFiniteRejected:
    def test_noise_floor(self, value):
        with pytest.raises(ValueError, match="noise_floor"):
            DetectionModel(noise_floor=value)

    def test_smf_waist(self, value):
        with pytest.raises(ValueError, match="smf_waist"):
            DetectionModel(smf_waist=value)

    def test_pairs_per_second(self, value, noisy_free_matrix):
        # run.events: the heralded pairs of a one-second integration
        with pytest.raises(ValueError, match="events must be finite and >= 0"):
            simulate_counts(noisy_free_matrix, value, seed=0)


class TestSimulateCounts:
    def test_deterministic_given_seed(self, noisy_free_matrix):
        a = simulate_counts(noisy_free_matrix, 1e6, seed=7)
        b = simulate_counts(noisy_free_matrix, 1e6, seed=7)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_counts(noisy_free_matrix, 1e6, seed=8)
        assert not np.array_equal(a.counts, c.counts)

    def test_zero_time_zero_counts(self, noisy_free_matrix):
        t = simulate_counts(noisy_free_matrix, 0.0, seed=1)
        assert t.counts.sum() == 0

    @pytest.mark.parametrize("events", [-1.0, -1e-300])
    def test_negative_events_rejected(self, noisy_free_matrix, events):
        with pytest.raises(ValueError, match="events must be finite and >= 0"):
            simulate_counts(noisy_free_matrix, events, seed=1)

    def test_mean_is_events_over_64_times_raw(self, noisy_free_matrix):
        # each side picks a basis (1/2) and a state in it (1/4) uniformly;
        # cell (i, j) is drawn from the seed's spawned stream 8 i + j
        t = simulate_counts(noisy_free_matrix, 3e5, seed=2)
        mean = 3e5 * (0.125 * 0.125) * noisy_free_matrix.raw
        streams = np.random.SeedSequence(2).spawn(64)
        draws = [np.random.default_rng(ss).poisson(m) for ss, m in zip(streams, mean.ravel())]
        assert np.array_equal(t.counts, np.reshape(draws, (8, 8)))

    def test_large_sample_frequencies(self, noisy_free_matrix):
        t = simulate_counts(noisy_free_matrix, 1e7, seed=3)
        mean = 1e7 / 64 * noisy_free_matrix.raw
        sigma = np.sqrt(np.maximum(mean, 1.0))
        assert np.all(np.abs(t.counts - mean) <= 5 * sigma)
        # most cells within 3 sigma (law of large numbers, fixed seed)
        frac = np.mean(np.abs(t.counts - mean) <= 3 * sigma)
        assert frac > 0.95

    def test_empirical_qber_matches_matrix(self, noisy_free_matrix):
        from bgqkd import qber_from_matrix

        t = simulate_counts(noisy_free_matrix, 1e6, seed=11)
        e_hat, sigma = t.empirical_qber()
        e = qber_from_matrix(noisy_free_matrix).e
        assert abs(e_hat - e) <= 3 * sigma
