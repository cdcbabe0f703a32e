import dataclasses
import sys

import numpy as np
import pytest

import bgqkd
from bgqkd import (
    DetectionModel,
    ObstacleSpec,
    TransverseGrid,
    selfheal_scan,
    shadow_length,
)
from bgqkd.channel import detection_states, source_leg
from bgqkd.fields import gram
from bgqkd.jones import LABELS, SPIN_ORBIT, mub_state_vector, spin_orbit_pair
from bgqkd.propagation import propagate_samples

from diagnostics import phi
from polarized_oracle import conjugate_back_propagate, obstacle_mask

CASCADE = DetectionModel(smf_waist=0.45e-3, noise_floor=0.0)


def spin_orbit_amplitudes(dets, pair, grid):
    """8 x 8 amplitudes <d_j|f_i> at [i, j] for the prepared states carried by
    `pair` and the detection states carried by `dets`, both (2, n, n) on
    `grid`, from the pairs' 2 x 2 overlaps G[s, s'] = <g_s|u_s'>."""
    g = gram(dets.reshape(2, -1), pair.reshape(2, -1)) * grid.pixel_area
    return SPIN_ORBIT @ np.kron(np.eye(2), g).T @ SPIN_ORBIT.conj().T


def state_powers(pair, grid):
    """Power of each of the 8 states carried by `pair`."""
    return np.real(np.diag(spin_orbit_amplitudes(pair, pair, grid)))


def direct_space_scan(source, label, obs, z_stations, grid, detection):
    """The scan as a receiver in direct space: per station, the detection
    states and the axial sample are back-propagated over the leg and
    projected on the station-plane pair."""
    ell = abs(source.ell) or 1
    j = LABELS.index(label)
    station = obs.z if obs is not None else 0.0
    free = propagate_samples(source_leg(source, grid, 0.0), grid, source.wavelength, station)
    blocked = free
    if obs is not None:
        blocked = free * obstacle_mask(grid, obs)
    power = float(state_powers(blocked, grid)[j])
    axis = np.zeros((grid.n, grid.n))
    axis[grid.n // 2, grid.n // 2] = 1.0
    turn = np.exp(1j * ell * phi(grid))
    rows = []
    for z in z_stations:
        w = conjugate_back_propagate(axis, grid, source.wavelength, z - station)
        demod = np.stack([w * turn, w * turn.conj()])
        dets = spin_orbit_pair(detection_states(source, grid, z - station, detection), grid,
                               ell)
        (p_obs, a_obs), (p_free, a_free) = (
            [abs(spin_orbit_amplitudes(d, pair, grid)[j, j]) ** 2 for d in (dets, demod)]
            for pair in (blocked, free))
        rows.append((z, p_obs / p_free, power, a_obs / a_free if a_free > 0 else 0.0))
    return rows, free


def one_station(source, obs, z, grid):
    """(fidelity, transmitted power) of psi00 at the one station z."""
    (_, fidelity, power, _), = selfheal_scan(source, "psi00", obs, [z], grid, CASCADE)
    return fidelity, power


# the diagonal of M = a^H a per state, a[p, s] its amplitude on polarization
# p and OAM sign s: the vector states weigh both signs by 1/2, each scalar
# state one sign
SCAN_WEIGHTS = {"psi00": (0.5, 0.5), "psi01": (0.5, 0.5), "psi10": (0.5, 0.5),
                "psi11": (0.5, 0.5), "phi00": (0, 1), "phi01": (1, 0), "phi10": (0, 1),
                "phi11": (1, 0)}


@pytest.mark.parametrize("label", LABELS)
def test_scan_weights_are_diagonal(label):
    # the scan weights the pair by M and forms only its diagonal
    a = mub_state_vector(label).reshape(2, 2)
    m = a.conj().T @ a
    assert m[0, 1] == 0 and m[1, 0] == 0
    np.testing.assert_allclose(np.diagonal(m), SCAN_WEIGHTS[label], rtol=0, atol=1e-15)


@pytest.mark.parametrize("label", ["psi02", "xyz00"])
def test_unknown_label_refused(grid256, bg_source, label):
    with pytest.raises(ValueError, match=label):
        selfheal_scan(bg_source, label, None, [0.3], grid256, CASCADE)


def test_no_obstacle_unit_fidelity(grid256, bg_source):
    fidelity, power = one_station(bg_source, None, 0.3, grid256)
    assert fidelity == pytest.approx(1.0, abs=1e-12)
    assert power == pytest.approx(1.0, abs=1e-9)


def test_fidelity_rises_with_healing_distance(grid512, bg_source):
    obs = ObstacleSpec(radius=600e-6, z=0.0)
    z_min = shadow_length(obs.radius, bg_source)
    near = one_station(bg_source, obs, 0.2 * z_min, grid512)
    far = one_station(bg_source, obs, 2.0 * z_min, grid512)
    assert far[0] > near[0]
    assert near[1] == pytest.approx(far[1], rel=1e-9)


def test_bg_outheals_lg_at_full_reconstruction(grid512, bg_source, lg_source):
    obs = ObstacleSpec(radius=600e-6, z=0.0)
    z_eval = 2.0 * shadow_length(obs.radius, bg_source)  # 0.517 m
    bg_fidelity, _ = one_station(bg_source, obs, z_eval, grid512)
    lg_fidelity, _ = one_station(lg_source, obs, z_eval, grid512)
    assert bg_fidelity >= 1.5 * lg_fidelity


def test_transmitted_power_is_masked_power(grid256, bg_source):
    obs = ObstacleSpec(radius=600e-6, z=0.0)
    _, power = one_station(bg_source, obs, 0.1, grid256)
    assert 0.2 < power < 0.5  # BG rings: ~68% blocked at the prep plane


def test_z_before_obstacle_rejected(grid256, bg_source):
    obs = ObstacleSpec(radius=600e-6, z=0.1)
    with pytest.raises(ValueError):
        one_station(bg_source, obs, 0.05, grid256)


def test_scan_monotone_on_axis_recovery(grid512, bg_source):
    # classic reconstruction curve: on-axis intensity of the demodulated
    # ell = 0 profile rises monotonically toward (and past) the free value
    obs = ObstacleSpec(radius=600e-6, z=0.0)
    z_min = shadow_length(obs.radius, bg_source)
    stations = [f * z_min for f in (0.2, 0.5, 1.0, 1.5, 2.0)]
    rows = selfheal_scan(bg_source, "psi00", obs, stations, grid512, CASCADE)
    on_axis = [r[3] for r in rows]
    assert all(b > a for a, b in zip(on_axis, on_axis[1:]))
    assert on_axis[-1] >= 0.5
    fidelities = [r[1] for r in rows]
    assert fidelities[-1] > fidelities[0]


@pytest.mark.parametrize("detection", [CASCADE], ids=["cascade"])
@pytest.mark.parametrize("obs,extent", [
    (ObstacleSpec(radius=600e-6, z=0.0), 10e-3),
    # the 6 mm grid clips the beam, so on the grid the pair's axis null fills
    # in at the station and meets the centre sample the cascade drops
    (ObstacleSpec(radius=400e-6, center=(500e-6, -300e-6), z=0.1), 6e-3),
    (None, 10e-3),
], ids=["centred-z0", "off-centre-z0.1", "no-obstacle"])
# every label: phi00 and phi10 weigh only u_-, phi01 and phi11 only u_+, and
# psi01 and psi11 carry a sign on one of their two components
@pytest.mark.parametrize("label", LABELS)
def test_scan_matches_direct_space_receiver(bg_source, detection, obs, extent, label):
    grid = TransverseGrid(n=256, extent=extent)
    station = obs.z if obs is not None else 0.0
    stations = [station, station + 0.05, station + 0.3]
    expected, free = direct_space_scan(bg_source, label, obs, stations, grid, detection)
    got, expected = np.array(selfheal_scan(bg_source, label, obs, stations, grid, detection)), \
        np.array(expected)
    np.testing.assert_allclose(got[:, :3], expected[:, :3], rtol=1e-10, atol=0.0)
    # the on-axis ratio is undefined at the zero leg (see test_zero_leg_on_axis_is_nan)
    assert np.isnan(got[0, 3])
    np.testing.assert_allclose(got[1:, 3], expected[1:, 3], rtol=1e-10, atol=0.0)
    if station > 0:
        c = grid.n // 2
        assert all(abs(u[c, c]) > 1e-8 * np.abs(u).max() for u in free)


@pytest.mark.parametrize("detection", [CASCADE], ids=["cascade"])
@pytest.mark.parametrize("obs", [
    ObstacleSpec(radius=600e-6, z=0.0),
    ObstacleSpec(radius=400e-6, center=(500e-6, -300e-6), z=0.1),
], ids=["centred-z0", "off-centre-z0.1"])
def test_zero_leg_on_axis_is_nan(lg_source, detection, obs):
    # at a station on the obstacle plane both axial amplitudes are the ell = 2
    # pair's centre samples, a vortex null holding only rounding (their ratio
    # read 0.0 centred and 1.0 off-centre); the other columns keep their values
    source = dataclasses.replace(lg_source, ell=2)
    grid = TransverseGrid(n=128, extent=10e-3)
    stations = [obs.z, obs.z + 0.2]
    got = selfheal_scan(source, "psi00", obs, stations, grid, detection)
    expected, _ = direct_space_scan(source, "psi00", obs, stations, grid, detection)
    assert np.isnan(got[0][3]) and np.isfinite(got[1][3])
    np.testing.assert_allclose(np.array(got)[:, :3], np.array(expected)[:, :3],
                               rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(got[1][3], expected[1][3], rtol=1e-10)


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
@pytest.mark.parametrize("label,partner", [("phi00", "phi01"), ("phi10", "phi11")])
def test_scan_mirror_symmetry(request, grid256, source, label, partner):
    # a mirror y -> -y of the disk flips the OAM sign, which swaps the phi
    # states that weigh only u_- with those that weigh only u_+ (the psi
    # states weigh both, so their scans agree unmirrored as well)
    src = request.getfixturevalue(source)
    above = ObstacleSpec(radius=400e-6, center=(300e-6, 150e-6), z=0.02)
    below = dataclasses.replace(above, center=(300e-6, -150e-6))
    stations = [0.05, 0.1, 0.3]
    scan = np.array(selfheal_scan(src, label, above, stations, grid256, CASCADE))
    mirrored = np.array(selfheal_scan(src, partner, below, stations, grid256, CASCADE))
    np.testing.assert_allclose(mirrored, scan, rtol=1e-9, atol=0.0)
    unmirrored = np.array(selfheal_scan(src, partner, above, stations, grid256, CASCADE))
    assert np.max(np.abs(unmirrored - scan) / scan) > 1e-3


def _count_calls(monkeypatch, owner, name, weight=lambda *args, **kwargs: 1):
    """Rebind owner.name, and the same function wherever a bgqkd module binds
    it by name, to a wrapper; returns the running total of weight(call)."""
    fn = getattr(owner, name)
    total = [0]

    def counted(*args, **kwargs):
        total[0] += weight(*args, **kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "bgqkd":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return total


def test_scan_cost_does_not_grow_with_stations(monkeypatch, grid256, bg_source):
    obs = ObstacleSpec(radius=600e-6, z=0.05)
    fft = bgqkd.propagation.spfft

    def planes(x, *args, **kwargs):  # one 2-D transform per n x n plane
        return int(np.prod(np.shape(x)[:-2]))

    costs = []
    for stations in ([0.3], [0.05 + 0.05 * i for i in range(9)]):
        with monkeypatch.context() as m:
            ffts = [_count_calls(m, fft, name, planes) for name in ("fft2", "ifft2")]
            holograms = _count_calls(m, bgqkd.modes, "binary_bessel_hologram")
            # the n x n kernel expansions: a station reads the kernel on the
            # distinct |k_t|^2 only
            expansions = [_count_calls(m, TransverseGrid, "spectral"),
                          _count_calls(m, bgqkd.propagation, "transfer_function")]
            selfheal_scan(bg_source, "psi00", obs, stations, grid256, CASCADE)
            costs.append((sum(f[0] for f in ffts), holograms[0], *(e[0] for e in expansions)))
    assert costs[0] == costs[1]
    assert costs[0][1] == 1  # the receiver's hologram, once


@pytest.mark.parametrize("detection", [CASCADE], ids=["cascade"])
def test_scan_forward_transform_planes(fft_planes, grid256, bg_source, detection):
    # no n x n transform: the pair's leg to the station runs once, on its
    # parity quadrants (6 dct, 2 dst), and the scan takes the 2-D DCT-I of
    # the receiver's quadrant and of the even parts of its 2 station planes,
    # contracted on the matched state before the transform
    obs = ObstacleSpec(radius=600e-6, z=0.05)
    selfheal_scan(bg_source, "phi11", obs, [0.1, 0.2, 0.3], grid256, detection)
    assert fft_planes == {"fft2": 0, "ifft2": 0, "dct": 6 + 2 * (1 + 2), "dst": 2}
