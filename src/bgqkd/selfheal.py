"""Self-healing diagnostics: detected-signal recovery behind an obstruction.

The fidelity reported here is the matched detection probability of the
labelled state with the obstacle in place, normalized by the same quantity
with the obstacle removed (the count-rate recovery a receiver at z_eval
actually observes). It is 1 without an obstacle by construction, rises with
the decoding distance as the mode self-reconstructs, and directly mirrors
the normalized-counts comparison between mode families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    DetectionModel,
    detection_states,
    source_pair,
    spin_orbit_amplitudes,
    state_powers,
)
from .fields import ScalarField, TransverseGrid
from .jones import ALL_LABELS, MubLabel
from .modes import ModeSpec
from .propagation import ObstacleSpec, back_propagate_scalar, obstacle_mask, propagate_scalar


@dataclass(frozen=True)
class SelfHealingResult:
    fidelity: float
    transmitted_power: float


def self_healing_fidelity(source: ModeSpec, label: MubLabel, obs: ObstacleSpec | None,
                          z_eval: float, grid: TransverseGrid,
                          detection: DetectionModel) -> SelfHealingResult:
    """Detected-signal recovery at z_eval behind the obstruction.

    fidelity = P_det(obstructed) / P_det(free) for the matched projection of
    `label` at distance z_eval; transmitted_power is the field power
    surviving the obstruction (unit input). The detection noise floor is not
    applied here (pure signal ratio).
    """
    (_, fidelity, power, _), = selfheal_scan(source, label, obs, [z_eval], grid, detection)
    return SelfHealingResult(fidelity=fidelity, transmitted_power=power)


def selfheal_scan(source: ModeSpec, label: MubLabel, obs: ObstacleSpec | None,
                  z_stations: list[float], grid: TransverseGrid,
                  detection: DetectionModel):
    """Per-distance healing table: (z, fidelity, transmitted_power, on-axis ratio).

    The receiver station sits at the obstacle plane and each z sets the
    decoding leg behind it. The source pair is carried to that plane once and
    the obstacle mask applies after the shared propagation. The on-axis
    column compares the demodulated matched field's axial intensity with and
    without the obstacle, the classic reconstruction curve for the ell = 0
    profile.
    """
    ell = abs(source.ell) or 1
    j = ALL_LABELS.index(label)
    station = obs.z if obs is not None else 0.0
    free = tuple(propagate_scalar(u, source.wavelength, station, check_band_limit=False)
                 for u in source_pair(source, grid))
    blocked = free
    if obs is not None:
        mask = obstacle_mask(grid, obs)
        blocked = tuple(ScalarField(grid, u.samples * mask) for u in free)
    power = float(state_powers(blocked)[j])
    axis = np.zeros((grid.n, grid.n))
    axis[grid.n // 2, grid.n // 2] = 1.0
    turn = np.exp(1j * ell * grid.phi)
    rows = []
    for z in z_stations:
        if z < station:
            raise ValueError(f"z_eval = {z} lies before the obstacle at z = {station}")
        leg = z - station
        # The adjoint train ends on the H polarizer, and back-propagation is
        # the adjoint of propagation, so the demodulated axial amplitude after
        # the leg is the projection on state j built from the back-propagated
        # axial sample (no vpoint null: every pixel is demodulated).
        w = back_propagate_scalar(ScalarField(grid, axis), source.wavelength, leg).samples
        demod = (ScalarField(grid, w * turn), ScalarField(grid, w * turn.conj()))
        dets = detection_states(source, grid, ell, leg, detection)
        (p_obs, a_obs), (p_free, a_free) = (
            [abs(spin_orbit_amplitudes(d, pair)[j, j]) ** 2 for d in (dets, demod)]
            for pair in (blocked, free))
        if p_free <= 0:
            raise ValueError("free-space detection probability vanished; check the geometry")
        rows.append((z, p_obs / p_free, power, a_obs / a_free if a_free > 0 else 0.0))
    return rows
