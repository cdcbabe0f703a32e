"""The paper's spin-orbit recipe: the eight state labels (LABELS, plain
strings psi00..phi11 whose order is the row order of SPIN_ORBIT and of every
8 x 8 table), the wave plates around the q = ell/2 plate that prepare each
from an H-polarized photon, their four-dimensional spin-orbit vectors, the
OAM pair the engine carries (one (2, n, n) array), its vortex turn, for odd
ell its first free-space leg on real parity quadrants, and the
mutual-unbiasedness check. The per-pixel Jones trains that realize the
recipe on grid fields are the tests' reference (tests/polarized_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TransverseGrid
from .propagation import propagate_quadrant, quadrant_band_sums, quadrant_kernel


# ---------------------------------------------------------------------------
# the eight states

_QUARTER, _HALFPI = np.pi / 4, np.pi / 2
_S = 1.0 / np.sqrt(2.0)
_DP = (1.0 + 1j) / 2.0  # <R|D> ; <L|A>
_DM = (1.0 - 1j) / 2.0  # <L|D> ; <R|A>

# Each state's spin-orbit 4-vector and the angles of the wave plates before
# and after the q-plate that realize it from a horizontally polarized input.
# Vector states use half-wave plates (the second omitted where no
# polarization flip is needed); scalar states use quarter-wave plates. The
# scalar rows are keyed by the state they actually generate: the (-pi/4, 0)
# pair yields the diagonal +ell state and (pi/4, pi/2) the diagonal -ell
# state, etc.
_STATES = {
    "psi00": ((_S, 0, 0, _S), 0.0, None),
    "psi01": ((_S, 0, 0, -_S), _QUARTER, None),
    "psi10": ((0, _S, _S, 0), 0.0, 0.0),
    "psi11": ((0, -_S, _S, 0), _QUARTER, 0.0),
    "phi00": ((0, _DP, 0, _DM), _QUARTER, _HALFPI),    # |D, -ell>
    "phi01": ((_DP, 0, _DM, 0), -_QUARTER, 0.0),       # |D, +ell>
    "phi10": ((0, _DM, 0, _DP), _QUARTER, 0.0),        # |A, -ell>
    "phi11": ((_DM, 0, _DP, 0), -_QUARTER, _HALFPI),   # |A, +ell>
}

# The labels, vector basis (psi) then scalar basis (phi): a label's index is
# its row in SPIN_ORBIT and in every 8 x 8 table.
LABELS: tuple[str, ...] = tuple(_STATES)


def _state(label: str) -> tuple:
    if label not in _STATES:
        raise ValueError(f"unknown state label {label!r} (expected one of {', '.join(LABELS)})")
    return _STATES[label]


def wave_plates(label: str) -> tuple[str, float, float | None]:
    """The wave plates around the q-plate that prepare the labelled state:
    their kind ("HWP" or "QWP") and their angles (rad) before and after the
    q-plate, the second None where no plate follows it."""
    _, before, after = _state(label)
    return ("HWP" if label.startswith("psi") else "QWP", before, after)


def mub_state_vector(label: str) -> np.ndarray:
    """Unit 4-vector in the ordered basis {|R,+l>, |R,-l>, |L,+l>, |L,-l>}.

    Diagonal/anti-diagonal polarization follows |D> = (|H>+|V>)/sqrt(2),
    |A> = (|H>-|V>)/sqrt(2) resolved onto |L> = (1,i)/sqrt(2),
    |R> = (1,-i)/sqrt(2); state phases are fixed by those conventions (all
    physical comparisons go through |<a|b>|^2).
    """
    return np.array(_state(label)[0], dtype=complex)


SPIN_ORBIT: np.ndarray = np.stack([mub_state_vector(l) for l in LABELS])
SPIN_ORBIT.setflags(write=False)


def vortex_turn(grid: TransverseGrid, ell: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i ell phi) on `grid` as ((x + i y) / r)^ell: one n x n complex
    plane, `out` if given. 1/r is evaluated once per distinct radius, and
    the r = 0 sample is 1 (phi = arctan2(0, 0) = 0). No transcendental
    function runs per pixel; the turn agrees with exp(i ell phi) to within
    4 ell ulp."""
    turn = np.empty((grid.n, grid.n), dtype=complex) if out is None else out
    inv_r = grid.radial(lambda r: np.divide(1.0, r, out=np.zeros_like(r), where=r > 0))
    np.multiply(grid.axis[None, :], inv_r, out=turn.real)
    np.multiply(grid.axis[:, None], inv_r, out=turn.imag)
    turn[grid.n // 2, grid.n // 2] = 1.0
    return turn if ell == 1 else np.power(turn, ell, out=turn)


def quadrant_turn(grid: TransverseGrid, ell: int) -> np.ndarray:
    """vortex_turn's values at row and column offsets >= 0, on the quadrant
    as TransverseGrid.radial_quadrant lays it out: cell [i, j] holds the turn
    at (x, y) = (j dx, i dx), and the r = 0 cell is 0. The rest of the grid
    is its mirror image: t(-x, y) = (-1)^ell conj t(x, y) and
    t(x, -y) = conj t(x, y), both exact in floating point."""
    h = grid.n // 2
    offsets = np.abs(grid.axis[:h + 1])[::-1]  # as TransverseGrid.radial_quadrant
    inv_r = grid.radial_quadrant(lambda rr: np.divide(1.0, rr, out=np.zeros_like(rr),
                                                      where=rr > 0))
    turn = np.empty((h + 1, h + 1), complex)
    np.multiply(offsets[None, :], inv_r, out=turn.real)
    np.multiply(offsets[:, None], inv_r, out=turn.imag)
    del inv_r
    return turn if ell == 1 else np.power(turn, ell, out=turn)


def unit_quadrant(profile: np.ndarray, grid: TransverseGrid) -> np.ndarray:
    """A copy of the quadrant `profile` with its r = 0 cell zeroed, scaled to
    unit power over the grid (each cell weighted by grid.fold_counts in each
    axis)."""
    q = np.array(profile)
    q[0, 0] = 0.0  # the one sample at r = 0
    counts = grid.fold_counts
    q /= np.sqrt(counts @ np.abs(q) ** 2 @ counts * grid.pixel_area)
    return q


def spin_orbit_pair(profile: np.ndarray, grid: TransverseGrid, ell: int = 1) -> np.ndarray:
    """The unit-power OAM scalars profile * exp(+-i ell phi), on-axis sample
    removed, as one (2, n, n) array on `grid`. The profile is a field even
    about the grid centre in x and in y, given by its quadrant
    (TransverseGrid.radial_quadrant): it is scaled to unit power there, each
    cell weighted by the pixels it stands for (grid.fold_counts in each
    axis), and unfolded once.

    Every prepared state is a spin-orbit superposition of the pair: the
    wave-plate train of LABELS[i] run on H (x) profile equals, up to a global
    phase, sum_k SPIN_ORBIT[i, k] |p_k> (x) pair[k % 2] with
    (p_k) = (R, R, L, L), the rows of SPIN_ORBIT being mub_state_vector of
    LABELS.
    """
    u = grid.unfold(unit_quadrant(profile, grid))
    pair = np.empty((2, grid.n, grid.n), dtype=complex)
    turn = vortex_turn(grid, ell, out=pair[0])
    # conj(turn) * u, the operand order (and rounding) of numpy's elided u * turn.conj()
    np.multiply(np.conj(turn, out=pair[1]), u, out=pair[1])
    np.multiply(u, turn, out=turn)
    return pair


def spin_orbit_leg(profile: np.ndarray, grid: TransverseGrid, ell: int, wavelength: float,
                   dz: float, grams: list | None = None) -> np.ndarray:
    """spin_orbit_pair(profile, grid, ell) of a real profile and odd ell,
    carried over dz > 0 of free space: propagate_samples(spin_orbit_pair(...),
    grid, wavelength, dz, grams) up to rounding: with a list `grams`, the band
    Gram matrices of the pair at dz = 0 are appended to it. No n x n transform
    runs: the pair is written once, at the end.

    The pair is u_+- = C +- i S with C = R cos(ell phi) and S = R sin(ell phi)
    for the profile R. For odd ell, C is odd in x and even in y, and
    S = sigma C^T with sigma = sin(ell pi / 2), so C alone is carried on
    parity quadrants (propagate_quadrant) and S is read off its transpose. An
    odd axis leaves the grid's unpaired line at offset -n/2 out, so C's
    column there (-C at x = +n/2 dx) is carried as an even part of its own.

    The Gram matrices come from C's part spectra before the kernel. Parts of
    unlike parity are orthogonal over any band symmetric in each axis, and
    S's spectra are the transposes of C's, so G = [[2 cc, -2i x], [2i x, 2 cc]]
    over the OAM signs: cc is the weighted power sum of C's part spectra, and
    x = sigma sum E E^T over the spectrum E of the unpaired column, all real.
    """
    if ell % 2 == 0:
        raise ValueError(f"the quadrant leg carries odd ell only, got ell = {ell}")
    h = grid.n // 2
    # first: the parts share the kernel, and the grid's spectral index built
    # with it outlives the leg, so it is made below the leg's temporaries
    kernel = quadrant_kernel(grid, wavelength, dz)
    r = unit_quadrant(profile, grid)
    turn = quadrant_turn(grid, ell)
    c = r * turn.real
    del r, turn
    edge = np.zeros((h + 1, h + 1))
    edge[:, h] = -c[:, h]  # the column at x = -n/2 dx, C being odd in x
    spectra = []
    odd, edge = [propagate_quadrant(p, grid, wavelength, dz, spectra, kernel)
                 for p in (c[:, 1:h], edge)]
    del c, kernel
    sigma = (-1) ** (ell // 2)
    halves = {1: edge.copy(), -1: edge}  # C where x >= 0 and where x < 0
    halves[1][:, 1:h] += odd
    halves[-1][:, 1:h] -= odd
    del odd, edge
    if grams is not None:
        cc = quadrant_band_sums(((d, d) for d in spectra), grid)
        x = sigma * quadrant_band_sums([(spectra[1], spectra[1].T)], grid)
        grams.append(tuple(np.array([[2 * a, -2j * w], [2j * w, 2 * a]])
                           for a, w in zip(cc, x)))
    del spectra

    pair = np.empty((2, grid.n, grid.n), complex)
    isq = np.empty((h, h), complex)
    regions = ((np.s_[:h], np.s_[h:0:-1], -1), (np.s_[h:], np.s_[:h], 1))
    for rows, q_rows, sy in regions:
        for cols, q_cols, sx in regions:
            cq = halves[sx][q_rows, q_cols]
            np.multiply(halves[sy].T[q_rows, q_cols], 1j * sigma, out=isq)
            np.add(cq, isq, out=pair[0, rows, cols])
            np.subtract(cq, isq, out=pair[1, rows, cols])
    return pair


@dataclass(frozen=True)
class MubCheckResult:
    """Overlap-squared matrix between two four-state sets and the verdict."""

    overlaps: np.ndarray
    mutually_unbiased: bool
    failure: str | None = None


def check_mub(set_a, set_b, *, states_a=None, states_b=None, tol: float = 1e-3) -> MubCheckResult:
    """Overlap-squared matrix |<a_i|b_j>|^2 and whether all entries are 1/4.

    With only labels given, the analytic 4-vector model is used. Passing
    states_a/states_b, one row per labelled state such that conj(A) @ B.T
    holds their inner products (grid fields: samples times sqrt(pixel area)),
    checks that realization instead. Non-orthonormal input sets are reported
    as a structured failure rather than an exception.
    """
    if (states_a is None) != (states_b is None):
        raise ValueError("provide both states_a and states_b or neither")
    if states_a is None:
        states_a, states_b = ([mub_state_vector(l) for l in s] for s in (set_a, set_b))
    a, b = np.asarray(states_a), np.asarray(states_b)
    overlaps = np.abs(a.conj() @ b.T) ** 2

    ortho_tol = max(tol, 1e-9)
    for name, states in (("A", a), ("B", b)):
        defect = float(np.max(np.abs(states.conj() @ states.T - np.eye(len(states)))))
        if defect > ortho_tol:
            return MubCheckResult(overlaps, False,
                                  f"set {name} is not orthonormal (defect {defect:.3e})")
    target = 1.0 / overlaps.shape[1]  # 1/d
    unbiased = bool(np.all(np.abs(overlaps - target) <= tol))
    return MubCheckResult(overlaps, unbiased, None)
