"""The paper's spin-orbit recipe: the eight state labels (LABELS, plain
strings psi00..phi11 whose order is the row order of SPIN_ORBIT and of every
8 x 8 table), the wave plates around the q = ell/2 plate that prepare each
from an H-polarized photon, their four-dimensional spin-orbit vectors, the
OAM pair the engine carries (one (2, n, n) array) and its vortex turn, and
the mutual-unbiasedness check. The per-pixel Jones trains that realize the
recipe on grid fields are the tests' reference (tests/polarized_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TransverseGrid


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
    q = np.array(profile)
    q[0, 0] = 0.0  # the one sample at r = 0
    counts = grid.fold_counts
    q /= np.sqrt(counts @ np.abs(q) ** 2 @ counts * grid.pixel_area)
    u = grid.unfold(q)
    pair = np.empty((2, grid.n, grid.n), dtype=complex)
    turn = vortex_turn(grid, ell, out=pair[0])
    # conj(turn) * u, the operand order (and rounding) of numpy's elided u * turn.conj()
    np.multiply(np.conj(turn, out=pair[1]), u, out=pair[1])
    np.multiply(u, turn, out=turn)
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
