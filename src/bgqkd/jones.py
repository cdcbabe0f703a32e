"""Jones calculus in the linear (H, V) basis: wave plates, q-plates, the
horizontal polarizer, preparation trains for the eight spin-orbit states, and
mutual-unbiasedness checks.

Matrices:
    half-wave plate  J(t) = [[cos 2t,  sin 2t], [sin 2t, -cos 2t]]
    quarter-wave     J(t) = [[c^2 + i s^2, (1-i) s c], [(1-i) s c, s^2 + i c^2]]
    q-plate (tuned)  Q(phi) = [[cos 2q phi, sin 2q phi], [sin 2q phi, -cos 2q phi]]
    polarizer        P_H = [[1, 0], [0, 0]]

With |L> = (1, i)/sqrt(2) and |R> = (1, -i)/sqrt(2), the tuned q-plate maps
Q|L> = exp(+i 2q phi)|R> and Q|R> = exp(-i 2q phi)|L>.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import PreconditionError
from .fields import (
    PolarizedField,
    ScalarField,
    horizontally_polarized,
    inner_product,
    polarized_from_arrays,
)

_H_INPUT_V_POWER_TOL = 1e-6


# ---------------------------------------------------------------------------
# elements

def hwp_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [[c * c + 1j * s * s, (1.0 - 1j) * s * c],
         [(1.0 - 1j) * s * c, s * s + 1j * c * c]],
        dtype=complex,
    )


@dataclass(frozen=True)
class HalfWavePlate:
    theta: float

    def adjoint(self) -> "HalfWavePlate":
        return self  # real symmetric, involutory


@dataclass(frozen=True)
class QuarterWavePlate:
    theta: float
    inverse: bool = False  # adjoint retarder (conjugated matrix)

    def adjoint(self) -> "QuarterWavePlate":
        return QuarterWavePlate(self.theta, not self.inverse)


@dataclass(frozen=True)
class QPlate:
    """Tuned (retardation pi) q-plate; q is a half-integer."""

    q: float = 0.5

    def __post_init__(self):
        if abs(2.0 * self.q - round(2.0 * self.q)) > 1e-12:
            raise ValueError(f"q must be a half-integer, got {self.q}")

    def adjoint(self) -> "QPlate":
        return self  # pointwise real symmetric, involutory


@dataclass(frozen=True)
class HorizontalPolarizer:
    def adjoint(self) -> "HorizontalPolarizer":
        return self  # hermitian projector


JonesElement = Union[HalfWavePlate, QuarterWavePlate, QPlate, HorizontalPolarizer]


def _apply_constant(m: np.ndarray, f: PolarizedField) -> PolarizedField:
    h = m[0, 0] * f.h.samples + m[0, 1] * f.v.samples
    v = m[1, 0] * f.h.samples + m[1, 1] * f.v.samples
    return polarized_from_arrays(f.grid, h, v, f.wavelength)


def apply_element(element: JonesElement, f: PolarizedField) -> PolarizedField:
    """Pointwise 2x2 action of one element on the (H, V) components."""
    if isinstance(element, HalfWavePlate):
        return _apply_constant(hwp_matrix(element.theta), f)
    if isinstance(element, QuarterWavePlate):
        m = qwp_matrix(element.theta)
        if element.inverse:
            m = m.conj().T
        return _apply_constant(m, f)
    if isinstance(element, HorizontalPolarizer):
        return horizontally_polarized(f.h, f.wavelength)
    if isinstance(element, QPlate):
        a = 2.0 * element.q * f.grid.phi
        c, s = np.cos(a), np.sin(a)
        h = c * f.h.samples + s * f.v.samples
        v = s * f.h.samples - c * f.v.samples
        return polarized_from_arrays(f.grid, h, v, f.wavelength)
    raise TypeError(f"unknown Jones element {element!r}")


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered Jones elements; the first listed element is applied first."""

    elements: tuple[JonesElement, ...]

    def apply(self, f: PolarizedField) -> PolarizedField:
        for e in self.elements:
            f = apply_element(e, f)
        return f

    def adjoint(self) -> "OpticalTrain":
        """Reversed train of adjoint elements (undoes the unitary part)."""
        return OpticalTrain(tuple(e.adjoint() for e in reversed(self.elements)))


# ---------------------------------------------------------------------------
# state labels and preparation trains

class MubBasis(enum.Enum):
    VECTOR = "psi"
    SCALAR = "phi"


@dataclass(frozen=True)
class MubLabel:
    basis: MubBasis
    index: str  # "00", "01", "10", "11"

    def __post_init__(self):
        if self.index not in ("00", "01", "10", "11"):
            raise ValueError(f"index must be one of 00/01/10/11, got {self.index!r}")

    def __str__(self) -> str:
        return f"{self.basis.value}{self.index}"

    @classmethod
    def from_string(cls, s: str) -> "MubLabel":
        s = s.strip().lower()
        for basis in MubBasis:
            if s.startswith(basis.value):
                return cls(basis, s[len(basis.value):])
        raise ValueError(f"unknown state label {s!r} (expected psi00..phi11)")


ALL_LABELS: tuple[MubLabel, ...] = tuple(
    MubLabel(b, idx) for b in (MubBasis.VECTOR, MubBasis.SCALAR)
    for idx in ("00", "01", "10", "11")
)

_QUARTER = np.pi / 4
_HALFPI = np.pi / 2

# Wave-plate angles realizing each state from a horizontally polarized input.
# Vector states use half-wave plates around the q-plate (second plate omitted
# where no polarization flip is needed); scalar states use quarter-wave plates.
# The scalar rows are keyed by the state they actually generate: the
# (-pi/4, 0) pair yields the diagonal +ell state and (pi/4, pi/2) the
# diagonal -ell state, etc.
_VECTOR_ANGLES = {
    "00": (0.0, None),
    "01": (_QUARTER, None),
    "10": (0.0, 0.0),
    "11": (_QUARTER, 0.0),
}
_SCALAR_ANGLES = {
    "00": (_QUARTER, _HALFPI),   # |D, -ell>
    "01": (-_QUARTER, 0.0),      # |D, +ell>
    "10": (_QUARTER, 0.0),       # |A, -ell>
    "11": (-_QUARTER, _HALFPI),  # |A, +ell>
}


def preparation_train(label: MubLabel, ell: int = 1) -> OpticalTrain:
    """Polarizer + wave-plate + q-plate train generating the labelled state.

    The q-plate charge is q = ell / 2 so the output carries OAM +-ell.
    """
    qplate = QPlate(q=ell / 2.0)
    if label.basis is MubBasis.VECTOR:
        a1, a2 = _VECTOR_ANGLES[label.index]
        elements: list[JonesElement] = [HorizontalPolarizer(), HalfWavePlate(a1), qplate]
        if a2 is not None:
            elements.append(HalfWavePlate(a2))
    else:
        b1, b2 = _SCALAR_ANGLES[label.index]
        elements = [HorizontalPolarizer(), QuarterWavePlate(b1), qplate,
                    QuarterWavePlate(b2)]
    return OpticalTrain(tuple(elements))


def vpoint_conditioned(f: PolarizedField) -> PolarizedField:
    """Zero the on-axis sample, where the q-plate orientation is singular.

    The physical spin-orbit states carry a polarization singularity on the
    axis, so the sampled field there must not contribute; leaving it breaks
    the exact grid orthogonality of opposite-OAM states (the cos(2 phi)
    moment of the centre pixel survives the lattice symmetry cancellation).
    """
    grid = f.grid
    on_axis = grid.r == 0.0
    if not np.any(on_axis):
        return f
    h = np.where(on_axis, 0.0, f.h.samples)
    v = np.where(on_axis, 0.0, f.v.samples)
    return polarized_from_arrays(grid, h, v, f.wavelength)


def prepare_state(label: MubLabel, input_field: PolarizedField, ell: int = 1) -> PolarizedField:
    """Run the labelled preparation train on an H-polarized input, normalized.

    The input must be H-polarized (V power below 1e-6 of the total); its
    radial profile is inherited by the output, with the on-axis sample
    removed (see vpoint_conditioned).
    """
    total = input_field.power()
    if total <= 0:
        raise PreconditionError("input field has zero power")
    if input_field.v.power() > _H_INPUT_V_POWER_TOL * total:
        raise PreconditionError(
            "preparation input must be horizontally polarized "
            f"(V fraction {input_field.v.power() / total:.2e})"
        )
    out = preparation_train(label, ell).apply(vpoint_conditioned(input_field))
    return out.normalized()


# ---------------------------------------------------------------------------
# analytic four-dimensional model

def mub_state_vector(label: MubLabel) -> np.ndarray:
    """Unit 4-vector in the ordered basis {|R,+l>, |R,-l>, |L,+l>, |L,-l>}.

    Diagonal/anti-diagonal polarization follows |D> = (|H>+|V>)/sqrt(2),
    |A> = (|H>-|V>)/sqrt(2) resolved onto |L> = (1,i)/sqrt(2),
    |R> = (1,-i)/sqrt(2); state phases are fixed by those conventions (all
    physical comparisons go through |<a|b>|^2).
    """
    s = 1.0 / np.sqrt(2.0)
    dp = (1.0 + 1j) / 2.0  # <R|D> ; <L|A>
    dm = (1.0 - 1j) / 2.0  # <L|D> ; <R|A>
    table = {
        ("psi", "00"): np.array([s, 0, 0, s]),
        ("psi", "01"): np.array([s, 0, 0, -s]),
        ("psi", "10"): np.array([0, s, s, 0]),
        ("psi", "11"): np.array([0, -s, s, 0]),
        ("phi", "00"): np.array([0, dp, 0, dm]),
        ("phi", "01"): np.array([dp, 0, dm, 0]),
        ("phi", "10"): np.array([0, dm, 0, dp]),
        ("phi", "11"): np.array([dm, 0, dp, 0]),
    }
    return table[(label.basis.value, label.index)].astype(complex)


SPIN_ORBIT: np.ndarray = np.stack([mub_state_vector(l) for l in ALL_LABELS])
SPIN_ORBIT.setflags(write=False)


def spin_orbit_pair(profile: ScalarField, ell: int = 1) -> tuple[ScalarField, ScalarField]:
    """The unit-power OAM scalars profile * exp(+-i ell phi), on-axis sample removed.

    Every prepared state is a spin-orbit superposition of the pair:
    prepare_state(labels[i], H (x) profile, ell) equals, up to a global phase,
    sum_k SPIN_ORBIT[i, k] |p_k> (x) pair[k % 2] with (p_k) = (R, R, L, L),
    the rows of SPIN_ORBIT being mub_state_vector of ALL_LABELS.
    """
    grid = profile.grid
    u = np.where(grid.r == 0.0, 0.0, profile.samples)
    u = u / np.sqrt(np.sum(np.abs(u) ** 2) * grid.pixel_area)
    turn = np.exp(1j * ell * grid.phi)
    return ScalarField(grid, u * turn), ScalarField(grid, u * turn.conj())


@dataclass(frozen=True)
class MubCheckResult:
    """Overlap-squared matrix between two four-state sets and the verdict."""

    overlaps: np.ndarray
    mutually_unbiased: bool
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _gram(xs, ys) -> np.ndarray:
    return np.array([[np.vdot(x, y) if isinstance(x, np.ndarray) else inner_product(x, y)
                      for y in ys] for x in xs])


def check_mub(set_a, set_b, *, states_a=None, states_b=None, tol: float = 1e-3) -> MubCheckResult:
    """Overlap-squared matrix |<a_i|b_j>|^2 and whether all entries are 1/4.

    With only labels given, the analytic 4-vector model is used. Passing
    states_a/states_b (grid fields prepared for those labels) checks the
    discrete realization instead. Non-orthonormal input sets are reported as
    a structured failure rather than an exception.
    """
    if (states_a is None) != (states_b is None):
        raise ValueError("provide both states_a and states_b or neither")
    if states_a is None:
        states_a, states_b = ([mub_state_vector(l) for l in s] for s in (set_a, set_b))
    states_a, states_b = list(states_a), list(states_b)
    overlaps = np.abs(_gram(states_a, states_b)) ** 2

    ortho_tol = max(tol, 1e-9)
    for name, states in (("A", states_a), ("B", states_b)):
        defect = float(np.max(np.abs(_gram(states, states) - np.eye(len(states)))))
        if defect > ortho_tol:
            return MubCheckResult(overlaps, False,
                                  f"set {name} is not orthonormal (defect {defect:.3e})")
    target = 1.0 / overlaps.shape[1]  # 1/d
    unbiased = bool(np.all(np.abs(overlaps - target) <= tol))
    return MubCheckResult(overlaps, unbiased, None)
