"""Self-healing diagnostics: detected-signal recovery behind an obstruction.

The fidelity reported here is the matched detection probability of the
labelled state through the hologram and fiber receiver with the obstacle in
place, normalized by the same quantity with the obstacle removed (the
count-rate recovery a receiver at each station actually observes). It is 1
without an obstacle by construction, rises with the decoding distance as the
mode self-reconstructs, and directly mirrors the normalized-counts comparison
between mode families. The receiver is even in x and in y, so the scan
projects on its parity quadrant for any obstacle, with no n x n transform
and no n x n turn plane.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as spfft

from .channel import DetectionModel, detection_scalar, source_leg
from .fields import _GRAM_BLOCK, TransverseGrid, gram
from .jones import _turned_rows, mub_state_vector, quadrant_turn
from .modes import ModeSpec
from .propagation import ObstacleSpec, covered_samples, free_space_kernel


def selfheal_scan(source: ModeSpec, label: str, obs: ObstacleSpec | None,
                  z_stations: list[float], grid: TransverseGrid,
                  detection: DetectionModel):
    """Per-distance healing table: (z, fidelity, transmitted_power, on-axis ratio).

    The receiver station sits at the obstacle plane and each z sets the
    decoding leg behind it. The source pair is carried to that plane once and
    the obstacle applies after the shared propagation. The on-axis
    column compares the demodulated matched field's axial intensity with and
    without the obstacle, the classic reconstruction curve for the ell = 0
    profile; it is NaN at a station with no leg (z at the obstacle) and
    wherever the free axial intensity is 0.

    The stations differ only in the leg L. Back-propagation is the adjoint of
    propagation, so the overlap of a detection-plane scalar a, carried back
    over L, with a station-plane field b is the spectral sum
    <BP_L a|b> = dA / N^2 sum_k conj(a^) K_L b^, K_L = transfer_function(L).
    The matched amplitude is linear in the station pair, so the labelled
    state j's weights are contracted first, to one station-plane field X,
    free and blocked, demodulated in blocks of rows. The receiver's scalar
    and the axial sample are even in x and in y, so they see only X's even
    part (TransverseGrid.even_part), whose DFT is the DCT-I of its quadrant,
    as the receiver's is. K_L depends on k only through |k_t|^2: each sum
    the scan reads, sum_k A(k) K_L(|k_t|^2), is summed over each distinct
    |k_t|^2 once (TransverseGrid.spectral_sums), and a station costs the
    kernel on those values (free_space_kernel) and three short dot products.
    """
    ell = abs(source.ell) or 1
    a = mub_state_vector(label).reshape(2, 2)  # a[p, s]: polarization p, OAM sign s
    station = obs.z if obs is not None else 0.0
    for z in z_stations:
        if z < station:
            raise ValueError(f"z_eval = {z} lies before the obstacle at z = {station}")
    n, area = grid.n, grid.pixel_area
    free = source_leg(source, grid, station)
    covered_rows, covered_cols = covered_samples(grid, () if obs is None else (obs,))

    # <d_j|f_j> = sum_{s,s'} M[s, s'] <g_s|u_s'> with M = a^H a and g_s = t_s d,
    # t_+- = exp(+-i ell phi), so the matched amplitude and the demodulated
    # axial sample project on X = sum_s conj(t_s) Y_s, Y_s = sum_s' M[s, s'] u_s'.
    # Rows: X of the free field, then of the blocked one (free with the covered
    # samples zeroed), built from Y_+ and Y_- in the two rows.
    # M is diagonal for every state of the recipe (each column of a is one OAM
    # sign's polarization, and the two are orthogonal), so Y_s = M[s, s] u_s,
    # formed elementwise, off BLAS.
    m = a.conj().T @ a
    targets = np.empty((2, n, n), dtype=complex)
    np.multiply(free, np.diagonal(m)[:, None, None], out=targets)
    free[:, covered_rows, covered_cols] = 0.0  # <f_j|f_j> = sum_s <u_s|Y_s>, zeroed in one factor
    power = float(np.trace(gram(free.reshape(2, -1), targets.reshape(2, -1))).real * area)
    del free
    # X in blocks of rows that never straddle the centre row, with the
    # block's turns t_+- = conj(t_-+) written from the quadrant turn
    h = n // 2
    step = max(1, min(_GRAM_BLOCK // n, h))
    turn, ones = quadrant_turn(grid, ell), np.broadcast_to(1.0, (h + 1, h + 1))
    turns = np.empty((2, step, n), complex)
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        t_plus, t_minus = _turned_rows(ones, turn, ell, rows, turns)
        y = targets[:, rows]
        y[1] *= t_plus
        y[0] *= t_minus
        y[0] += y[1]
    del turn, turns
    targets[1] = targets[0]
    targets[1, covered_rows, covered_cols] = 0.0
    x = grid.even_part(targets)
    del targets
    centres = x[:, 0, 0].copy()  # before the transform overwrites them
    probe = detection_scalar(source, grid, detection)
    for axis in (-2, -1):  # on the quadrant, an even field's DFT is its DCT-I
        x, probe = (spfft.dct(q, type=1, axis=axis, overwrite_x=True) for q in (x, probe))
    # The adjoint train ends on the H polarizer, so the demodulated axial
    # amplitude after the leg is the projection on state j built from the
    # back-propagated axial sample, whose spectrum is 1. Every station reads
    # s @ K_L for these sums over the distinct |k_t|^2: the axial samples',
    # the centre correction and the matched amplitudes d^ X^ (d^ is real),
    # whose products are formed in place in the station spectra.
    k2 = grid.distinct_k_squared
    s_ax = grid.spectral_sums(x)
    s_c = grid.spectral_sums(probe)
    x *= probe
    s_amp = grid.spectral_sums(x)
    scale = area / n ** 2  # <a|b> = scale * sum_k conj(a^) b^

    rows = []
    for z in z_stations:
        leg = z - station
        kernel = free_space_kernel(k2, source.wavelength, leg)
        amps, axial = s_amp @ kernel * scale, s_ax @ kernel * scale
        # spin_orbit_pair drops the centre sample d(0) of the back-propagated
        # scalar d (<d|delta_0> = conj(d(0)) dA); the unit power it then
        # scales d to cancels in the fidelity ratio
        amps -= s_c @ kernel * scale * centres
        (p_free, p_obs), (a_free, a_obs) = np.abs(amps) ** 2, np.abs(axial) ** 2
        if p_free <= 0:
            raise ValueError("free-space detection probability vanished; check the geometry")
        # with no leg the axial amplitudes are the pair's centre samples,
        # vortex nulls that hold only rounding, so their ratio is undefined
        rows.append((z, p_obs / p_free, power,
                     a_obs / a_free if leg > 0 and a_free > 0 else np.nan))
    return rows
