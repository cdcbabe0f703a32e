"""End-to-end prepare / transmit / measure pipeline.

A heralded, horizontally polarized photon with the post-selected radial
profile enters the preparation train, crosses the obstructed channel, is
demodulated by the receiver's wave-plate station (placed right after the
obstacle), travels the decoding leg L, and is detected as in the paper: a
binary-Bessel hologram (BG sources) followed by a single-mode fiber of
acceptance waist smf_waist. The fiber acceptance is narrower than the source
envelope, which is what resolves self-healing. The receiver reduces to a
single projection at the station plane against an effective detection state.
Every prepared and detection state is a spin-orbit superposition of two
scalar OAM fields, so only those are transported, as one (2, n, n) array.
For odd ell, as in every preset, the source pair is carried up to the first
obstacle plane or station on the real parity quadrants of its part
R(r) cos(ell phi) (source_leg, jones.spin_orbit_leg) and written once at the
end. For even ell, and past an obstacle, it is carried as the (2, n, n) array
(propagation.propagate_samples). The receiver's scalar, a function of r, is
carried back on its quadrant: a scenario projects the cached station pair
on it in one pass over blocks of rows (station_grams), each block's turned
receiver rows written from the quadrant (jones._turned_rows), zeroing only
the samples an obstacle on the station plane covers. Beside the leg it holds
those samples' indices, quadrants and one block of rows: no n x n array.

The scenarios of a run share the source, and often the whole free-space leg
to their station: the paper's three links differ only by the obstacle on
the station plane. The source pair's transport is therefore a walk over
prefixes of the channel, each kept once per process (the last three; a
(2, n, n) entry holds 8.4 MB at n = 512 and 33.6 MB at n = 1024), and each
scenario or snapshot zeroes only what its own plane's obstacles cover.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .analysis import interior_window
from .fields import _GRAM_BLOCK, TransverseGrid, gram
from .jones import (LABELS, SPIN_ORBIT, _to_unit_power, _turned_rows, quadrant_turn,
                    spin_orbit_leg, spin_orbit_pair, unit_quadrant)
from .modes import ModeFamily, ModeSpec, binary_bessel_hologram, radial_factor
from .propagation import (
    ChannelSpec,
    ObstacleSpec,
    band_limit_message,
    band_tail_fraction,
    covered_samples,
    propagate_quadrant,
    propagate_samples,
)

BOUNDARY_POWER_TOL = 1e-6


@dataclass(frozen=True)
class DetectionModel:
    """Receiver: binary-Bessel hologram and single-mode fiber of waist smf_waist."""

    smf_waist: float = 0.45e-3
    noise_floor: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.smf_waist) and self.smf_waist > 0):
            raise ValueError(f"smf_waist must be positive and finite, got {self.smf_waist}")
        if not (np.isfinite(self.noise_floor) and self.noise_floor >= 0):
            raise ValueError(f"noise_floor must be finite and >= 0, got {self.noise_floor}")


def heralded_profile(source: ModeSpec, grid: TransverseGrid) -> np.ndarray:
    """The ell = 0 radial profile of the given mode family on the grid's
    quadrant (TransverseGrid.radial_quadrant), unnormalised: spin_orbit_pair
    scales it to unit power."""
    spec = ModeSpec(
        family=source.family,
        ell=0,
        w0=source.w0,
        wavelength=source.wavelength,
        k_r=source.k_r if source.family is ModeFamily.BG else 0.0,
    )
    return grid.radial_quadrant(functools.partial(radial_factor, spec))


# An SPDC scan sweeps its idler modes cyclically (21 in the acceptance scan),
# so a cache smaller than one sweep and the pump would never hit.
@functools.lru_cache(maxsize=32)
def _mode_quadrant(spec: ModeSpec, grid: TransverseGrid) -> np.ndarray:
    """The unit-power radial factor of `spec` on the grid's quadrant
    (TransverseGrid.radial_quadrant), read-only."""
    out = _to_unit_power(grid.radial_quadrant(functools.partial(radial_factor, spec)), grid)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _azimuth_weights(grid: TransverseGrid, m: int) -> np.ndarray:
    """The sum of exp(-i m phi) over the pixels each quadrant cell stands for
    (read-only). For m != 0 it sums t = quadrant_turn(grid, |m|) over the
    mirror images t(x, -y) = conj t, t(-x, y) = (-1)^m conj t that exist:
    offsets 0..n/2-1 on an axis's positive side (p = 1) and 1..n/2 on its
    negative (q = 1), which gives outer(p + q, p + (-1)^m q) Re t
    + i outer(p - q, p - (-1)^m q) Im t, conjugated for m > 0."""
    if m == 0:
        counts = grid.fold_counts
        out = np.outer(counts, counts)
    else:
        offsets = np.arange(grid.n // 2 + 1)
        p, q, sign = (offsets < grid.n // 2) * 1.0, (offsets > 0) * 1.0, (-1) ** m
        turn = quadrant_turn(grid, abs(m))
        out = np.empty_like(turn)
        np.multiply(np.outer(p + q, p + sign * q), turn.real, out=out.real)
        np.multiply(np.outer(p - q, p - sign * q), turn.imag, out=out.imag)
        if m > 0:  # exp(-i m phi) = conj(t)
            np.negative(out.imag, out=out.imag)
    out.setflags(write=False)
    return out


def spdc_overlap(signal: ModeSpec, idler: ModeSpec, pump_waist: float,
                 grid: TransverseGrid) -> complex:
    """Two-photon detection amplitude c = Int m_s* m_i* m_p d2x.

    Mode functions are the unit-normalized z = 0 transverse modes (radial
    profile times exp(i ell phi)); the pump is a unit-power Gaussian of the
    given waist, the LG ell = 0 mode of that waist. A Gaussian pump enforces
    the azimuthal selection rule ell_s + ell_i = 0.

    Each factor is a real function of r times exp(i ell phi), so the grid sum
    is taken over the grid's (n/2+1)^2 quadrant of radial factors, each cell
    weighted by its pixels' sum of exp(-i (ell_s + ell_i) phi) (its pixel
    count when ell_s + ell_i = 0). The quadrant sum equals the grid sum up to
    rounding. Each distinct mode, the pump among them, is evaluated once per
    grid and kept (the last 32), as are the weights.
    """
    if not (np.isfinite(pump_waist) and pump_waist > 0):
        raise ValueError(f"pump_waist must be positive and finite, got {pump_waist}")
    m_s, m_i = _mode_quadrant(signal, grid), _mode_quadrant(idler, grid)
    pump = _mode_quadrant(ModeSpec(ModeFamily.LG, 0, pump_waist, signal.wavelength), grid)
    c = _azimuth_weights(grid, signal.ell + idler.ell) * m_s
    c *= m_i
    c *= pump
    return complex(np.sum(c) * grid.pixel_area)


# ---------------------------------------------------------------------------
# spin-orbit engine
#
# Prepared state i is sum_k SPIN_ORBIT[i, k] |p_k> (x) u_{s_k} and detection
# state j is sum_k SPIN_ORBIT[j, k] |p_k> (x) g_{s_k}, with (p_k) = (R, R, L, L)
# and (s_k) = (+, -, +, -) (see jones.spin_orbit_pair). Free space and the
# obstacles act alike on both polarizations, so a channel only needs the two
# scalars u_+- carried to the station, one (2, n, n) array beside its grid,
# and their 2 x 2 overlaps.

def source_leg(source: ModeSpec, grid: TransverseGrid, dz: float,
               grams: list | None = None) -> np.ndarray:
    """The prepared states' OAM pair u_+- carried over dz >= 0 of free
    space, (2, n, n), a new array. For odd ell and dz > 0 it is carried on
    the real parity quadrants of jones.spin_orbit_leg, with no n x n
    transform; at dz = 0 and for even ell it is the pair at the channel input
    carried by propagate_samples. With a list `grams` and dz > 0, the band
    Gram matrices of the pair entering the leg are appended to it."""
    ell = abs(source.ell) or 1
    profile = heralded_profile(source, grid)
    if dz == 0.0 or ell % 2 == 0:
        return propagate_samples(spin_orbit_pair(profile, grid, ell), grid,
                                 source.wavelength, dz, grams)
    return spin_orbit_leg(profile, grid, ell, source.wavelength, dz, grams)


def detection_scalar(source: ModeSpec, grid: TransverseGrid,
                     detection: DetectionModel) -> np.ndarray:
    """The receiver's real scalar at the detection plane on the grid's
    quadrant (TransverseGrid.radial_quadrant): the fiber Gaussian times the
    binary Bessel hologram (BG sources with k_r > 0)."""
    hologram = source.family is ModeFamily.BG and source.k_r > 0

    def receiver(r):
        fiber = np.exp(-(r / detection.smf_waist) ** 2)
        return fiber * binary_bessel_hologram(source.k_r, r) if hologram else fiber
    return grid.radial_quadrant(receiver)


def detection_states(source: ModeSpec, grid: TransverseGrid, decoding_distance: float,
                     detection: DetectionModel) -> np.ndarray:
    """The receiver's unit-power scalar at the station plane on the grid's
    quadrant (TransverseGrid.radial_quadrant), its r = 0 cell zeroed: the
    effective detection states' OAM pair g_+- is this scalar times
    exp(+-i ell phi), as spin_orbit_pair turns it.

    Projecting the station-plane field on detection state j (built from the
    pair like the prepared states, with the source's |ell|) equals running
    the physical receiver: adjoint train, decoding propagation, hologram and
    fiber, so g_+- = exp(+-i ell phi) P(-L)(hologram * fiber), where P(-L) is
    transport back over the decoding leg L. The scalar is a function of r,
    so it is carried back on the grid's quadrant (propagate_quadrant).
    """
    g = propagate_quadrant(detection_scalar(source, grid, detection), grid,
                           source.wavelength, -decoding_distance)
    return unit_quadrant(g, grid)


def station_grams(pair: np.ndarray, covered: tuple[np.ndarray, np.ndarray],
                  receiver: np.ndarray, grid: TransverseGrid, ell: int) -> tuple[np.ndarray, ...]:
    """The three 2 x 2 Gram matrices (times the pixel area) that a scenario's
    8 x 8 table needs, for the station pair u_+- (`pair` with the samples
    `covered`, as covered_samples gives them, zeroed) and the detection pair
    g_+- = spin_orbit_pair(receiver, grid, ell): <g_s|u_s'>, <u_s|u_s'>, and
    <u_s|u_s'> over interior_window(n).

    One pass reads the pair in blocks of rows that never straddle the centre
    row, each as many samples as a block of `gram`. A block holding a covered
    sample is zeroed in one block-sized copy, and the detection pair is
    written block by block (jones._turned_rows): no n x n array is made here.
    """
    n, h = grid.n, grid.n // 2
    step = max(1, min(_GRAM_BLOCK // n, h))
    window = interior_window(n)
    top, bottom, _ = window[0].indices(n)
    turn = quadrant_turn(grid, ell)
    covered_rows, covered_cols = covered
    dets = np.empty((2, step, n), complex)
    masked = np.empty_like(dets)
    grams = np.zeros((3, 2, 2), complex)
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        u = pair[:, rows]
        lo, hi = np.searchsorted(covered_rows, (r0, r0 + step))
        if hi > lo:
            masked[...] = u
            masked[:, covered_rows[lo:hi] - r0, covered_cols[lo:hi]] = 0.0
            u = masked
        x = u.reshape(2, -1)
        grams[0] += gram(_turned_rows(receiver, turn, ell, rows, dets).reshape(2, -1), x)
        grams[1] += gram(x, x)
        inner = u[:, max(top - r0, 0):max(bottom - r0, 0), window[1]].reshape(2, -1)
        if inner.size:
            grams[2] += gram(inner, inner)
    return tuple(grams * grid.pixel_area)


def state_intensity(i: int, pair: np.ndarray) -> np.ndarray:
    """Intensity map of state i carried by `pair` (sum over R and L)."""
    a = SPIN_ORBIT[i]
    up, um = pair
    return np.abs(a[0] * up + a[1] * um) ** 2 + np.abs(a[2] * up + a[3] * um) ** 2


# ---------------------------------------------------------------------------
# shared transport

_ARRIVAL_LOCK = threading.Lock()  # pool threads that miss together carry a leg once


# Three entries keep a shared leg alive while snapshots, taken in order of z,
# step on from it for any number of scenarios; each entry is one (2, n, n) pair.
@functools.lru_cache(maxsize=3)
def _arrival(source: ModeSpec, grid: TransverseGrid, passed: tuple[ObstacleSpec, ...],
             z: float):
    """The source pair arriving at z through `passed` (sorted by z, all before
    z), before the obstacles on the plane z, and the band Gram matrices of the
    fields entering each free-space segment so far (see propagate_samples);
    all read-only. It steps on from the last plane passed, so a leg shared by
    several channels or snapshot stations is carried once; the first segment
    is the source's own leg (source_leg)."""
    segment = []
    if passed:
        plane = passed[-1].z
        before = tuple(o for o in passed if o.z < plane)
        pair, grams = _arrival(source, grid, before, plane)
        pair = propagate_samples(_blocked(pair, grid, passed, plane), grid, source.wavelength,
                                 z - plane, segment)
    else:
        grams = ()
        pair = source_leg(source, grid, z, segment)
    if segment:
        for g in segment[0]:
            g.setflags(write=False)
        grams += tuple(segment)
    pair.setflags(write=False)
    return pair, grams


def _leg(source: ModeSpec, grid: TransverseGrid, obstacles: tuple[ObstacleSpec, ...],
         z: float):
    """_arrival of the source pair at z through the obstacles (sorted by z)
    before it, under the lock: the pair before the obstacles on the plane z."""
    passed = tuple(o for o in obstacles if o.z < z)
    with _ARRIVAL_LOCK:
        return _arrival(source, grid, passed, z)


def _blocked(pair: np.ndarray, grid: TransverseGrid, obstacles, z: float) -> np.ndarray:
    """pair with the samples that the obstacles on the plane z cover zeroed,
    in a copy; pair itself where they cover none."""
    rows, cols = covered_samples(grid, (o for o in obstacles if o.z == z))
    if rows.size:
        pair = pair.copy()
        pair[:, rows, cols] = 0.0
    return pair


def station_pair(source: ModeSpec, grid: TransverseGrid,
                 obstacles: tuple[ObstacleSpec, ...], z: float):
    """The source pair carried to z through the obstacles (sorted by z) at or
    before it, those on the plane z included, with the band Gram matrices of
    the fields entering each free-space segment. Both may be shared with
    other calls: do not write into them."""
    pair, grams = _leg(source, grid, obstacles, z)
    return _blocked(pair, grid, obstacles, z), grams


# ---------------------------------------------------------------------------
# scattering matrix

# H-component weights of each state on the pair: <H|R> = <H|L> = 1/sqrt(2)
_H_WEIGHTS = (SPIN_ORBIT[:, :2] + SPIN_ORBIT[:, 2:]) / np.sqrt(2.0)


def _amplitudes(g: np.ndarray) -> np.ndarray:
    """8 x 8 amplitudes <d_j|f_i> at [i, j] of states built alike (SPIN_ORBIT)
    on two OAM pairs, from the pairs' 2 x 2 overlaps G[s, s'] = <g_s|u_s'>."""
    return SPIN_ORBIT @ np.kron(np.eye(2), g).T @ SPIN_ORBIT.conj().T


def matched_sums(table: np.ndarray) -> np.ndarray:
    """Each row's sum over the columns of its own basis in an 8 x 8 table
    over LABELS: psi rows over columns 0-3, phi rows over columns 4-7."""
    return np.concatenate([table[:4, :4].sum(axis=1), table[4:, 4:].sum(axis=1)])


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _matrix_csv(rows, spec: str) -> str:
    lines = ["prepared\\measured," + ",".join(LABELS)]
    lines += [label + "," + ",".join(format(v, spec) for v in row)
              for label, row in zip(LABELS, rows)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScatteringMatrix:
    """8x8 detection probabilities, rows and columns in the order of LABELS.

    raw[i, j] is the probability of detecting prepared state i in projection
    j (noise floor included); transmission[i] is the power reaching the
    detection plane for prepared state i (unit input).
    """

    raw: np.ndarray
    transmission: np.ndarray
    noise_floor: float = 0.0
    family: str = ""
    scenario: str = ""
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "raw", _read_only(self.raw, float))
        object.__setattr__(self, "transmission", _read_only(self.transmission, float))

    def row_normalized(self) -> np.ndarray:
        """Rows scaled by the matched-basis sum (detection-conditional); a row
        whose sum vanishes is zero."""
        sums = matched_sums(self.raw)[:, None]
        return np.divide(self.raw, sums, out=np.zeros_like(self.raw), where=sums > 0)

    def matched_diagonal(self) -> np.ndarray:
        return np.diag(self.row_normalized())

    def to_json_dict(self) -> dict:
        return {
            "labels": list(LABELS),
            "raw": self.raw.tolist(),
            "row_normalized": self.row_normalized().tolist(),
            "transmission": self.transmission.tolist(),
            "noise_floor": self.noise_floor,
            "family": self.family,
            "scenario": self.scenario,
            "warnings": list(self.warnings),
        }

    def to_csv(self) -> str:
        return _matrix_csv(self.raw, ".10g")

    def normalized_csv(self) -> str:
        return _matrix_csv(self.row_normalized(), ".10g")


def scattering_matrix(channel: ChannelSpec, source: ModeSpec,
                      detection: DetectionModel, grid: TransverseGrid,
                      scenario: str = "") -> ScatteringMatrix:
    """Simulate all 8 prepared states through the channel and project them.

    Preparation and projection both use the source's |ell|; the obstacles and
    decoding leg are taken from the channel. Band-limit and grid-boundary
    guard violations are attached as warnings on the result: the H-component
    band tail of each state before every free-space segment, and its power
    fraction near the grid edge at the station.
    """
    # the leg first, so that no receiver is alive while a leg is carried
    pair, band = _leg(source, grid, channel.obstacles, channel.station_z)
    receiver = detection_states(source, grid, channel.decoding_distance, detection)
    covered = covered_samples(grid, (o for o in channel.obstacles if o.z == channel.station_z))
    g_det, g_pair, g_inner = station_grams(pair, covered, receiver, grid, abs(source.ell) or 1)
    raw = np.abs(_amplitudes(g_det)) ** 2 + detection.noise_floor
    power, interior = (np.real(np.diag(_amplitudes(g))) for g in (g_pair, g_inner))
    notes: list[str] = []
    for i, label in enumerate(LABELS):
        for g in band:
            if msg := band_limit_message(band_tail_fraction(g, _H_WEIGHTS[i])):
                notes.append(f"{label}: {msg}")
        edge = 1.0 - interior[i] / power[i] if power[i] > 0 else 0.0
        if edge > BOUNDARY_POWER_TOL:
            notes.append(f"{label}: boundary power fraction {edge:.2e}")
    return ScatteringMatrix(
        raw=raw,
        transmission=power,
        noise_floor=detection.noise_floor,
        family=source.family.value,
        scenario=scenario,
        warnings=tuple(notes),
    )


# ---------------------------------------------------------------------------
# finite statistics

@dataclass(frozen=True)
class CountsTable:
    """Poisson-sampled event counts per (prepared, measured) cell, rows and
    columns in the order of LABELS."""

    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _read_only(self.counts, np.int64))

    def empirical_qber(self) -> tuple[float, float]:
        """Sifted-error estimate and its standard error from the matched rows
        that drew a count."""
        totals = matched_sums(self.counts)
        drew = totals > 0
        if not drew.any():
            raise ValueError("no sifted events in any matched row")
        totals = totals[drew]
        fracs = np.diag(self.counts)[drew] / totals
        variances = np.maximum(fracs * (1.0 - fracs), 1.0 / totals) / totals
        e = 1.0 - float(np.mean(fracs))
        sigma = float(np.sqrt(np.sum(variances)) / len(fracs))
        return e, sigma

    def to_csv(self) -> str:
        return _matrix_csv(self.counts, "d")


def simulate_counts(matrix: ScatteringMatrix, events: float, seed: int) -> CountsTable:
    """Draw independent Poisson counts for each of the 64 cells.

    Cell (i, j) has mean events * P(prepare i) * P(project j) * raw[i, j]
    = events / 64 * raw[i, j]: each side picks one of the two bases and one
    of its four states uniformly. Per-cell generators are spawned from one
    seed, so results are identical regardless of evaluation order.
    """
    if not (np.isfinite(events) and events >= 0):
        raise ValueError(f"events must be finite and >= 0, got {events}")
    mean = events / 64 * matrix.raw
    streams = np.random.SeedSequence(seed).spawn(64)
    counts = np.zeros((8, 8), dtype=np.int64)
    for idx, ss in enumerate(streams):
        i, j = divmod(idx, 8)
        counts[i, j] = np.random.default_rng(ss).poisson(mean[i, j])
    return CountsTable(counts)
