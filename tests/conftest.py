import sys

import numpy as np
import pytest
from scipy import fft as spfft

from bgqkd import ModeFamily, ModeSpec, TransverseGrid
from bgqkd.config import SCHEMA, Key

WAVELENGTH = 810e-9
W0 = 1.253e-3
K_R = 18e3


@pytest.fixture(scope="session")
def grid256():
    return TransverseGrid(n=256, extent=10e-3)


@pytest.fixture(scope="session")
def grid512():
    return TransverseGrid(n=512, extent=10e-3)


@pytest.fixture(scope="session")
def bg_source():
    return ModeSpec(family=ModeFamily.BG, ell=1, w0=W0, wavelength=WAVELENGTH, k_r=K_R)


@pytest.fixture(scope="session")
def lg_source():
    return ModeSpec(family=ModeFamily.LG, ell=1, w0=W0, wavelength=WAVELENGTH)


def pixel_radius(grid):
    """The radius of every sample of `grid` (m), per pixel."""
    return np.hypot(grid.axis[None, :], grid.axis[:, None])


def clear_caches():
    """Clear every functools.lru_cache bound at the top level of a loaded
    bgqkd module, found by introspection."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "bgqkd" or name.startswith("bgqkd.")):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    obj.cache_clear()


@pytest.fixture
def cold_caches():
    """The package's lru caches (shared transport legs, SPDC mode quadrants
    and weights, any other), cleared before and after the test."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def fft_planes(monkeypatch):
    """Counts of the n x n planes scipy.fft's fft2 and ifft2 transform, and
    of the parity quadrants (about (n/2)^2 samples) its dct and dst transform
    along one axis, while the test runs."""
    planes = {"fft2": 0, "ifft2": 0, "dct": 0, "dst": 0}
    for name in planes:
        def counted(x, *args, _name=name, _fn=getattr(spfft, name), **kwargs):
            planes[_name] += int(np.prod(np.shape(x)[:-2]))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(spfft, name, counted)
    return planes


def random_polarized(grid, seed, wavelength=WAVELENGTH, band_limit=0.2):
    """Smooth random band-limited field for property tests."""
    from bgqkd import ScalarField
    from polarized_oracle import PolarizedField

    rng = np.random.default_rng(seed)
    k_cut = band_limit * np.pi / grid.spacing
    keep = grid.spectral(lambda k2: k2) <= k_cut ** 2
    comps = []
    for _ in range(2):
        spec = (rng.standard_normal((grid.n, grid.n))
                + 1j * rng.standard_normal((grid.n, grid.n))) * keep
        comps.append(np.fft.ifft2(spec))
    f = PolarizedField(ScalarField(grid, comps[0]), ScalarField(grid, comps[1]), wavelength)
    return f.normalized()


def spin_orbit_states(pair, grid, wavelength=WAVELENGTH):
    """The 8 polarized states sum_k SPIN_ORBIT[i, k] |p_k> (x) pair[k % 2],
    (p_k) = (R, R, L, L), with |R> = (1, -i)/sqrt(2), |L> = (1, i)/sqrt(2);
    pair is the engine's (2, n, n) array on grid."""
    from bgqkd import ScalarField
    from bgqkd.jones import SPIN_ORBIT
    from polarized_oracle import PolarizedField

    states = []
    for a in SPIN_ORBIT:
        r = a[0] * pair[0] + a[1] * pair[1]
        l = a[2] * pair[0] + a[3] * pair[1]
        h, v = (r + l) / np.sqrt(2.0), 1j * (l - r) / np.sqrt(2.0)
        states.append(PolarizedField(ScalarField(grid, h), ScalarField(grid, v), wavelength))
    return states


def schema_leaves(key=Key("mapping", item=SCHEMA), path=()):
    """(path, Key) of every scalar key of the config schema, walked from the
    table itself; the path of a list entry continues with index 0."""
    if key.kind == "mapping":
        for name, sub in key.item.items():
            yield from schema_leaves(sub, path + (name,))
    elif key.kind == "list":
        yield from schema_leaves(key.item, path + (0,))
    else:
        yield path, key


def field_path(path):
    """The ConfigError path of a schema_leaves path: ("a", 0, "b") -> "a[0].b"."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
