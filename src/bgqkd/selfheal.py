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
from scipy import fft as spfft

from .channel import (
    DetectionKind,
    DetectionModel,
    cascade_detection_scalar,
    gram_amplitudes,
    source_pair,
    state_powers,
)
from .fields import TransverseGrid
from .jones import ALL_LABELS, MubLabel, vortex_turn
from .modes import ModeSpec
from .propagation import (
    FFT_WORKERS,
    ObstacleSpec,
    obstacle_mask,
    propagate_samples,
    transfer_function,
)


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
    profile; it is NaN at a station with no leg (z at the obstacle) and
    wherever the free axial intensity is 0.

    The stations differ only in the leg L. Back-propagation is the adjoint of
    propagation, so the overlap of a detection-plane scalar a, carried back
    over L, with a station-plane field b is the spectral sum
    <BP_L a|b> = dA / N^2 sum_k conj(a^) K_L b^, K_L = transfer_function(L).
    The spectra are taken once per scan; a station costs one K_L and a few
    such sums.
    """
    ell = abs(source.ell) or 1
    j = ALL_LABELS.index(label)
    station = obs.z if obs is not None else 0.0
    for z in z_stations:
        if z < station:
            raise ValueError(f"z_eval = {z} lies before the obstacle at z = {station}")
    cascade = detection.kind is DetectionKind.CASCADE
    n, area = grid.n, grid.pixel_area
    pair = source_pair(source, grid)
    # conj spectra of the detection-plane scalars; the ideal projector is the source pair
    probes = cascade_detection_scalar(source, grid, detection)[None] if cascade else pair.copy()
    probes = spfft.fft2(probes, overwrite_x=True, workers=FFT_WORKERS).reshape(len(probes), -1)
    np.conj(probes, out=probes)
    free = propagate_samples(pair, grid, source.wavelength, station)
    del pair
    mask = None if obs is None else obstacle_mask(grid, obs)
    power = float(state_powers(free if mask is None else free * mask, grid)[j])

    # Station-plane spectra, rows [b, s, s'] for b in (blocked, free):
    # conj(t_s) u_s' with t_+- = exp(+-i ell phi), on which the turned cascade
    # scalar and the demodulated axial sample project; ideal detection
    # projects the pair u_s' itself, rows 8 + [b, s']. The pair is gone; the
    # free rows come first, then the blocked field is masked in place of free.
    scale = area / n ** 2  # <a|b> = scale * sum_k conj(a^) b^
    turn = vortex_turn(grid, ell)
    targets = np.empty((8 if cascade else 12, n, n), dtype=complex)
    for b in (1, 0):
        if b == 0 and mask is not None:
            np.multiply(free, mask, out=free)
        block = targets[4 * b:4 * b + 4]
        np.multiply(np.conj(turn, out=block[1]), free[0], out=block[0])
        np.multiply(block[1], free[1], out=block[1])
        np.multiply(turn, free, out=block[2:])
        if not cascade:
            targets[8 + 2 * b:10 + 2 * b] = free
    del free, mask, turn
    centres = targets[:8, n // 2, n // 2].copy()  # before the transform overwrites them
    targets = spfft.fft2(targets, overwrite_x=True, workers=FFT_WORKERS).reshape(len(targets), -1)
    # The adjoint train ends on the H polarizer, so the demodulated axial
    # amplitude after the leg is the projection on state j built from the
    # back-propagated axial sample (no vpoint null: every pixel is
    # demodulated). That sample's spectrum is the checkerboard (-1)^(kx + ky).
    sign = (-1.0) ** np.arange(n)
    axis = np.outer(sign, sign).ravel()

    rows = []
    for z in z_stations:
        leg = z - station
        kernel = transfer_function(grid, source.wavelength, leg).ravel()
        axial = (axis * kernel) @ targets[:8].T * scale
        dets = probes * kernel  # conj spectra of the detection scalars carried back over L
        del kernel  # and dets below: one station's planes at a time
        overlaps = dets @ targets.T * scale
        if cascade:
            # spin_orbit_pair drops the centre sample d(0) of the back-propagated
            # scalar d (<d|delta_0> = conj(d(0)) dA); the unit power it then
            # scales d to cancels in the fidelity ratio
            centre = dets[0] @ axis * scale
            grams = (overlaps[0] - centre * centres).reshape(2, 2, 2)
        else:
            grams = overlaps[:, 8:].reshape(2, 2, 2).transpose(1, 0, 2)
        (p_obs, a_obs), (p_free, a_free) = (
            [abs(gram_amplitudes(g)[j, j]) ** 2 for g in (det, ax)]
            for det, ax in zip(grams, axial.reshape(2, 2, 2)))
        if p_free <= 0:
            raise ValueError("free-space detection probability vanished; check the geometry")
        # with no leg the axial amplitudes are the pair's centre samples,
        # vortex nulls that hold only rounding, so their ratio is undefined
        rows.append((z, p_obs / p_free, power,
                     a_obs / a_free if leg > 0 and a_free > 0 else np.nan))
        del dets
    return rows
