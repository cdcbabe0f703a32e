"""The paper's spin-orbit recipe: the eight state labels (LABELS, plain
strings psi00..phi11 whose order is the row order of SPIN_ORBIT and of every
8 x 8 table), the wave plates around the q = ell/2 plate that prepare each
from an H-polarized photon, their four-dimensional spin-orbit vectors, the
OAM pair the engine carries (one (2, n, n) array), its vortex turn and its
first free-space leg on real parity quadrants, and the mutual-unbiasedness
check. The per-pixel Jones trains that realize the
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


def _unit_quadrant(profile: np.ndarray, grid: TransverseGrid) -> np.ndarray:
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
    u = grid.unfold(_unit_quadrant(profile, grid))
    pair = np.empty((2, grid.n, grid.n), dtype=complex)
    turn = vortex_turn(grid, ell, out=pair[0])
    # conj(turn) * u, the operand order (and rounding) of numpy's elided u * turn.conj()
    np.multiply(np.conj(turn, out=pair[1]), u, out=pair[1])
    np.multiply(u, turn, out=turn)
    return pair


def _signed(parts: list, sy: int, sx: int, h: int) -> np.ndarray:
    """The (h+1)^2 quadrant, offsets 0..h, of the sum of carried parity
    quadrants in the grid region whose row and column offsets have signs sy
    and sx: an odd axis's samples 1..h-1 flip sign with it, and its samples
    0 and h are 0."""
    out = np.zeros((h + 1, h + 1), complex)
    for p in parts:
        odd_y, odd_x = p.shape[0] == h - 1, p.shape[1] == h - 1
        sign = (sy if odd_y else 1) * (sx if odd_x else 1)
        out[slice(1, h) if odd_y else slice(None),
            slice(1, h) if odd_x else slice(None)] += sign * p
    return out


def spin_orbit_leg(profile: np.ndarray, grid: TransverseGrid, ell: int, wavelength: float,
                   dz: float, grams: list | None = None) -> np.ndarray:
    """spin_orbit_pair(profile, grid, ell) of a real profile, carried over
    dz > 0 of free space: propagate_samples(spin_orbit_pair(...), grid,
    wavelength, dz, grams) up to rounding: with a list `grams`, the band Gram
    matrices of the pair at dz = 0 are appended to it. No n x n transform
    runs: the pair is written once, at the end.

    The pair is u_+- = C +- i S with C = R cos(ell phi) and S = R sin(ell phi)
    for the profile R, and C and S are each even or odd along x and along y,
    so they are carried on parity quadrants (propagate_quadrant). An odd axis
    leaves the grid's unpaired line at offset -n/2 out, so it is carried as
    an even part of its own, nonzero only on that line. For odd ell, C is odd
    in x and even in y, and S = sigma C^T with sigma = sin(ell pi / 2): C's
    odd part and its unpaired column (-C at x = +n/2 dx) are carried, and S
    is read off their transposes. For even ell, C is even in x and in y, and
    S is odd in both: S's interior, its unpaired row and column, and its
    corner are carried beside C.

    The Gram matrices come from the parts' spectra before the kernel. Parts
    of unlike parity are orthogonal over any band symmetric in each axis, so
    G[s, t] = cc + s t ss + i (t - s) x for the OAM signs s, t: cc and ss are
    the weighted power sums of C's and S's part spectra, and x the weighted
    sum of C's times S's spectrum over their common parity, all real.
    """
    h = grid.n // 2
    # first: the parts share the kernel, and the grid's spectral index built
    # with it outlives the leg, so it is made below the leg's temporaries
    kernel = quadrant_kernel(grid, wavelength, dz)
    r = _unit_quadrant(profile, grid)
    offsets = np.abs(grid.axis[:h + 1])[::-1]  # as TransverseGrid.radial_quadrant
    inv_r = grid.radial_quadrant(lambda rr: np.divide(1.0, rr, out=np.zeros_like(rr),
                                                      where=rr > 0))
    turn = np.empty((h + 1, h + 1), complex)  # vortex_turn's values at offsets >= 0
    np.multiply(offsets[None, :], inv_r, out=turn.real)
    np.multiply(offsets[:, None], inv_r, out=turn.imag)
    del inv_r
    if ell != 1:
        np.power(turn, ell, out=turn)
    c_spectra, s_spectra = [], []
    if ell % 2:
        c = r * turn.real
        del r, turn
        edge = np.zeros((h + 1, h + 1))
        edge[:, h] = -c[:, h]  # the column at x = -n/2 dx, C being odd in x
        odd, even = [propagate_quadrant(p, grid, wavelength, dz, c_spectra, kernel)
                     for p in (c[:, 1:h], edge)]
        del c, edge, kernel
        # S = sigma C^T: its spectra are the transposes, sigma folded into x below
        sigma = (-1) ** (ell // 2)
        s_spectra = [d.T for d in c_spectra]
        halves = {1: even.copy(), -1: even}  # C where x >= 0 and where x < 0
        halves[1][:, 1:h] += odd
        halves[-1][:, 1:h] -= odd
        del odd, even
        i_s = 1j * sigma

        def c_of(sy, sx):
            return halves[sx]

        def s_of(sy, sx):
            return halves[sy].T
    else:
        c, s = r * turn.real, r * turn.imag
        del r, turn
        column = np.zeros((h - 1, h + 1))
        column[:, h] = -s[1:h, h]  # S is odd in x and in y
        row = np.zeros((h + 1, h - 1))
        row[h, :] = -s[h, 1:h]
        corner = np.zeros((h + 1, h + 1))
        corner[h, h] = s[h, h]
        even = propagate_quadrant(c, grid, wavelength, dz, c_spectra, kernel)
        carried = [propagate_quadrant(p, grid, wavelength, dz, s_spectra, kernel)
                   for p in (s[1:h, 1:h], column, row, corner)]
        del c, s, column, row, corner, kernel
        sigma, i_s = 1, 1j

        def c_of(sy, sx):
            return even

        def s_of(sy, sx):
            return _signed(carried, sy, sx, h)

    if grams is not None:
        cc = quadrant_band_sums(((d, d) for d in c_spectra), grid)
        ss = quadrant_band_sums(((d, d) for d in s_spectra), grid)
        x = sigma * quadrant_band_sums(
            ((a, b) for a in c_spectra for b in s_spectra if a.shape == b.shape), grid)
        grams.append(tuple(np.array([[a + b, a - b - 2j * w], [a - b + 2j * w, a + b]])
                           for a, b, w in zip(cc, ss, x)))
    del c_spectra, s_spectra

    pair = np.empty((2, grid.n, grid.n), complex)
    isq = np.empty((h, h), complex)
    regions = ((np.s_[:h], np.s_[h:0:-1], -1), (np.s_[h:], np.s_[:h], 1))
    for rows, q_rows, sy in regions:
        for cols, q_cols, sx in regions:
            cq = c_of(sy, sx)[q_rows, q_cols]
            np.multiply(s_of(sy, sx)[q_rows, q_cols], i_s, out=isq)
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
