"""Per-pixel polarized reference for the spin-orbit engine.

The engine carries two scalar OAM fields and the 8 x 4 SPIN_ORBIT table.
This module builds the same states the long way, as the tests' oracle:
two-component (H, V) fields, the Jones elements of the preparation trains
(wave plates around the q-plate, read from the package's recipe
`bgqkd.jones.wave_plates`), and transport of both components through a
channel with the package's scalar engine. Nothing in `bgqkd` imports it.

Matrices in the linear (H, V) basis:
    half-wave plate  J(t) = [[cos 2t,  sin 2t], [sin 2t, -cos 2t]]
    quarter-wave     J(t) = [[c^2 + i s^2, (1-i) s c], [(1-i) s c, s^2 + i c^2]]
    q-plate (tuned)  Q(phi) = [[cos 2q phi, sin 2q phi], [sin 2q phi, -cos 2q phi]]
    polarizer        P_H = [[1, 0], [0, 0]]

With |L> = (1, i)/sqrt(2) and |R> = (1, -i)/sqrt(2), the tuned q-plate maps
Q|L> = exp(+i 2q phi)|R> and Q|R> = exp(-i 2q phi)|L>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from bgqkd.analysis import interior_window
from bgqkd.channel import heralded_profile
from bgqkd.errors import BgqkdError
from bgqkd.fields import ScalarField, TransverseGrid
from bgqkd.jones import wave_plates
from bgqkd.modes import ModeSpec
from bgqkd.propagation import (
    ChannelSpec,
    ObstacleSpec,
    band_limit_message,
    band_tail_fraction,
    obstacle_mask,
    propagate_samples,
)

from conftest import pixel_radius
from reference_oracles import unit_power

_H_INPUT_V_POWER_TOL = 1e-6


class GridMismatchError(BgqkdError):
    """Two fields do not share the same transverse grid (or wavelength)."""


class PreconditionError(BgqkdError):
    """An operation's physical precondition is violated."""


class BandLimitWarning(UserWarning):
    """Field carries non-negligible power near the Nyquist edge."""


# ---------------------------------------------------------------------------
# polarized fields

@dataclass(frozen=True)
class PolarizedField:
    """Two-component (H, V) transverse field with its wavelength (m)."""

    h: ScalarField
    v: ScalarField
    wavelength: float

    def __post_init__(self):
        if self.h.grid != self.v.grid:
            raise GridMismatchError("H and V components must share one grid")
        if not (self.wavelength > 0 and np.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def grid(self) -> TransverseGrid:
        return self.h.grid

    def power(self) -> float:
        return self.h.power() + self.v.power()

    def normalized(self) -> "PolarizedField":
        p = self.power()
        if p == 0.0:
            raise ValueError("cannot normalize a zero field")
        s = 1.0 / np.sqrt(p)
        return polarized_from_arrays(self.grid, self.h.samples * s, self.v.samples * s,
                                     self.wavelength)

    def intensity(self) -> np.ndarray:
        return self.h.intensity() + self.v.intensity()


def polarized_from_arrays(grid: TransverseGrid, h: np.ndarray, v: np.ndarray,
                          wavelength: float) -> PolarizedField:
    return PolarizedField(ScalarField(grid, h), ScalarField(grid, v), wavelength)


def horizontally_polarized(scalar: ScalarField, wavelength: float) -> PolarizedField:
    """Put a scalar profile into the H component, V = 0."""
    zero = np.zeros_like(scalar.samples)
    return PolarizedField(scalar, ScalarField(scalar.grid, zero), wavelength)


def heralded_input(source: ModeSpec, grid: TransverseGrid) -> PolarizedField:
    """Heralded photon state: the unit-power ell = 0 profile, horizontally
    polarized."""
    from diagnostics import unfold  # diagnostics imports this module

    profile = unit_power(unfold(grid, heralded_profile(source, grid)), grid)
    return horizontally_polarized(ScalarField(grid, profile), source.wavelength)


def inner_product(a: PolarizedField, b: PolarizedField) -> complex:
    """Polarization-summed overlap <a|b>; rejects grid or wavelength mismatch."""
    if a.grid != b.grid:
        raise GridMismatchError(
            f"fields on different grids: n={a.grid.n}, extent={a.grid.extent} vs "
            f"n={b.grid.n}, extent={b.grid.extent}"
        )
    if a.wavelength != b.wavelength:
        raise GridMismatchError(
            f"fields at different wavelengths: {a.wavelength} vs {b.wavelength}"
        )
    acc = np.sum(np.conj(a.h.samples) * b.h.samples)
    acc += np.sum(np.conj(a.v.samples) * b.v.samples)
    return complex(acc * a.grid.pixel_area)


def state_rows(fields) -> np.ndarray:
    """One row per field: its flattened (H, V) samples times sqrt(pixel area),
    so that conj(A) @ B.T holds the inner products (the form check_mub takes)."""
    return np.stack([np.concatenate([f.h.samples.ravel(), f.v.samples.ravel()])
                     * np.sqrt(f.grid.pixel_area) for f in fields])


def boundary_power_fraction(f: PolarizedField | ScalarField, margin: float = 0.05) -> float:
    """Power fraction within `margin` of the grid edge (wrap-around monitor)."""
    intensity = f.intensity()
    interior = intensity[interior_window(f.grid.n, margin)].sum()
    total = intensity.sum()
    return float(1.0 - interior / total) if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Jones elements and preparation trains

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


def preparation_train(label: str, ell: int = 1) -> OpticalTrain:
    """Polarizer + wave-plate + q-plate train generating the labelled state,
    with the package's wave-plate settings (`wave_plates`).

    The q-plate charge is q = ell / 2 so the output carries OAM +-ell.
    """
    kind, before, after = wave_plates(label)
    plate = HalfWavePlate if kind == "HWP" else QuarterWavePlate
    elements = [HorizontalPolarizer(), plate(before), QPlate(q=ell / 2.0)]
    if after is not None:
        elements.append(plate(after))
    return OpticalTrain(tuple(elements))


def vpoint_conditioned(f: PolarizedField) -> PolarizedField:
    """Zero the on-axis sample, where the q-plate orientation is singular.

    The physical spin-orbit states carry a polarization singularity on the
    axis, so the sampled field there must not contribute; leaving it breaks
    the exact grid orthogonality of opposite-OAM states (the cos(2 phi)
    moment of the centre pixel survives the lattice symmetry cancellation).
    """
    grid = f.grid
    on_axis = pixel_radius(grid) == 0.0
    if not np.any(on_axis):
        return f
    h = np.where(on_axis, 0.0, f.h.samples)
    v = np.where(on_axis, 0.0, f.v.samples)
    return polarized_from_arrays(grid, h, v, f.wavelength)


def prepare_state(label: str, input_field: PolarizedField, ell: int = 1) -> PolarizedField:
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
# polarized transport

def transmit_to_station(f: PolarizedField, channel: ChannelSpec,
                        check_band_limit: bool = True) -> PolarizedField:
    """Propagate through all obstacles up to the demodulation station plane,
    component by component; the band-limit guard watches the H component
    and, when check_band_limit is set, warns with BandLimitWarning."""
    hv, grams, z = np.stack([f.h.samples, f.v.samples]), [], 0.0
    for obs in channel.obstacles + (None,):
        stop = channel.station_z if obs is None else obs.z
        if stop > z:
            hv = propagate_samples(hv, f.grid, f.wavelength, stop - z, grams)
            z = stop
        if obs is not None:
            hv = hv * obstacle_mask(f.grid, obs)
    h, v = hv
    for g in grams if check_band_limit else ():
        if msg := band_limit_message(band_tail_fraction(g, (1.0, 0.0))):
            warnings.warn(msg, BandLimitWarning, stacklevel=2)
    return polarized_from_arrays(f.grid, h, v, f.wavelength)


def propagate(f: PolarizedField, dz: float) -> PolarizedField:
    """Advance both components by dz >= 0 metres of free space: the transport
    to the station of an obstacle-free channel of length dz.

    Power is preserved to 1e-9 for band-limited fields (evanescent truncation
    only removes power that cannot propagate).
    """
    if dz == 0.0:
        return f
    return transmit_to_station(f, ChannelSpec(length=dz, station_z=dz))


def conjugate_back_propagate(u: np.ndarray, grid: TransverseGrid, wavelength: float,
                             dz: float) -> np.ndarray:
    """Carry the stack u back by dz >= 0 metres the conjugation route,
    conj(P(dz) conj(u)), with only forward transport: the kernel is even in
    k, so this is the adjoint of P(dz), as propagate_samples(u, -dz) is."""
    return np.conj(propagate_samples(np.conj(u), grid, wavelength, dz))


def back_propagate(f: PolarizedField, dz: float) -> PolarizedField:
    h, v = conjugate_back_propagate(np.stack([f.h.samples, f.v.samples]), f.grid,
                                    f.wavelength, dz)
    return polarized_from_arrays(f.grid, h, v, f.wavelength)


def apply_obstacle(f: PolarizedField, obs: ObstacleSpec) -> PolarizedField:
    """Hard-edge binary mask: zero inside the disk, unchanged outside."""
    mask = obstacle_mask(f.grid, obs)
    return polarized_from_arrays(f.grid, f.h.samples * mask, f.v.samples * mask, f.wavelength)
