"""Working-set bounds of the engine, in n x n complex planes (16 n^2 bytes).

Each bound is the traced (tracemalloc) peak of one call from a cold leg cache
on a fresh n = 256 grid, with about half a plane of headroom over what the
engine needs. No call makes an n x n turn plane: the vortex turn lives on
the grid quadrant (a quarter plane), and every turned field is written from it
a block of rows at a time.
A scan contracts the matched state's weights to 2 station planes, free and
blocked, demodulates them block by block in place, and folds their even parts
onto the grid quadrant before it lets them go; it transforms no n x n plane,
and a station adds none.
The source's first leg runs on parity quadrants and writes the pair once, so a
cold station pair holds the pair, the mask and the masked pair. A scattering
matrix makes no masked pair and no detection pair: beside the shared leg it
holds the station-plane mask, the receiver's quadrant and its vortex turn's
(a quarter plane each), and one block of rows at a time, so a second scenario
on a warm leg adds about 2 planes, most of them while the receiver's scalar is
carried back over the decoding leg. The grid itself keeps no n x n plane.
"""

import tracemalloc

import numpy as np
import pytest

from bgqkd import ObstacleSpec, TransverseGrid, channel, selfheal_scan
from bgqkd.channel import DetectionModel, scattering_matrix
from bgqkd.jones import LABELS
from bgqkd.propagation import ChannelSpec

N = 256
PLANE = 16 * N * N
CASCADE = DetectionModel(smf_waist=0.45e-3, noise_floor=4e-4)
STATIONS = [0.0517, 0.1293, 0.2586, 0.3879, 0.5171]  # paper-selfheal-bg


@pytest.fixture
def grid():
    """A fresh grid, with the shared-leg cache cleared before and after."""
    channel._arrival.cache_clear()
    yield TransverseGrid(n=N, extent=10e-3)
    channel._arrival.cache_clear()


def traced_peak_planes(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / PLANE
    finally:
        tracemalloc.stop()


def scan_peak(src, grid, detection) -> float:
    obs = ObstacleSpec(radius=600e-6, z=0.0)
    return traced_peak_planes(
        lambda: selfheal_scan(src, LABELS[0], obs, STATIONS, grid, detection))


def masked_matrix_peak(src, grid, detection) -> float:
    link = ChannelSpec(length=0.32, obstacles=(ObstacleSpec(radius=600e-6, z=0.02),),
                       station_z=0.02)
    return traced_peak_planes(lambda: scattering_matrix(link, src, detection, grid))


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
def test_cascade_selfheal_scan_peak(request, grid, source):
    peak = scan_peak(request.getfixturevalue(source), grid, CASCADE)
    # 4.93 planes: the scan's station planes go before it takes any spectrum
    assert peak < 5.4, f"{peak:.2f} planes"


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
def test_cold_station_leg_peak(request, grid, source):
    # 6.35 planes with the pair carried as two n x n planes (spectrum, kernel
    # and inverse transform); 4.99 on the parity quadrants
    src = request.getfixturevalue(source)
    peak = traced_peak_planes(lambda: channel.station_pair(
        src, grid, (ObstacleSpec(radius=600e-6, z=0.02),), 0.02))
    assert peak < 5.5, f"{peak:.2f} planes"


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
def test_masked_scattering_matrix_peak(request, grid, source):
    # 8.25 planes with an n x n masked pair, detection pair and window copies;
    # 4.35 streamed, set by carrying the cold leg
    peak = masked_matrix_peak(request.getfixturevalue(source), grid, CASCADE)
    assert peak < 4.8, f"{peak:.2f} planes"


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
def test_warm_leg_scattering_matrix_peak(request, grid, source):
    # a second scenario on the cached leg: 5.88 planes above it with the n x n
    # pairs, 1.99 streamed (tracemalloc sees only what the second call makes)
    src = request.getfixturevalue(source)
    masked_matrix_peak(src, grid, CASCADE)
    peak = masked_matrix_peak(src, grid, CASCADE)
    assert peak < 2.4, f"{peak:.2f} planes"


def test_grid_keeps_no_plane_after_a_run(grid, bg_source):
    link = ChannelSpec(length=0.32, obstacles=(ObstacleSpec(radius=600e-6, z=0.02),),
                       station_z=0.02)
    scattering_matrix(link, bg_source, CASCADE, grid)
    selfheal_scan(bg_source, LABELS[0], ObstacleSpec(radius=600e-6, z=0.0), STATIONS[:2],
                  grid, CASCADE)
    grid.ring_weights(1)
    for name, value in vars(grid).items():
        for a in value if isinstance(value, tuple) else (value,):
            assert not (isinstance(a, np.ndarray) and a.size >= N * N), name
