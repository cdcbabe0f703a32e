"""Working-set bounds of the engine, in n x n complex planes (16 n^2 bytes).

Each bound is the traced (tracemalloc) peak of one call from a cold leg cache
on a fresh n = 256 grid, with about half a plane of headroom over what the
engine needs. A scan contracts the matched state's weights before its
transform, so its station-plane spectra are 2 planes, free and blocked; it
folds them, times the detection spectrum, onto the distinct |k_t|^2 once,
and a station adds no n x n plane.
A scattering matrix holds the shared leg and the masked pair beside the
detection scalar being built, carried back over the decoding leg as a transport
over -L into a fresh spectrum. The grid itself keeps no n x n plane.
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
    assert peak < 6.3, f"{peak:.2f} planes"


@pytest.mark.parametrize("source", ["bg_source", "lg_source"])
def test_masked_scattering_matrix_peak(request, grid, source):
    peak = masked_matrix_peak(request.getfixturevalue(source), grid, CASCADE)
    assert peak < 9.5, f"{peak:.2f} planes"


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
