"""Output checks for each workload, computed apart from the program.

Every check returns a Check: whether it held, the worst deviation seen and
the tolerance it was held to (both 0 for orderings and exact equalities).
The file parsers also count how many operations each output delivered.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

# Tolerances; README.md lists the margins measured against them.
RTOL_SECURITY = 1e-12       # I_AB and both key rates, recomputed from e
RTOL_DELTA = 1e-8           # Delta: 1 - p0 - p1 cancels to ~5e-7, so ~1e-10 is rounding
RTOL_NOISE_FLOOR = 1e-9     # e_k against the noise-floor identity
COUNT_SIGMAS = 5.0          # counts QBER against the reported QBER
RTOL_POWER = 2e-3           # transmitted power: a 30-pixel disk's edge is pixelated
RTOL_WEBER = 1e-10          # |c| against Weber's integral ...
ATOL_WEBER = 1e-12          # ... plus this share of the largest |c| (rounding floor)
SELECTION_RULE_MAX = 1e-6


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    worst: float = 0.0
    tol: float = 0.0

    def line(self) -> str:
        verdict = "ok  " if self.ok else "FAIL"
        if self.tol:
            return f"{verdict} {self.name}: worst {self.worst:.3e} vs tol {self.tol:.1e}"
        return f"{verdict} {self.name}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _within(name: str, errors, tol: float) -> Check:
    worst = max(errors, default=0.0)
    return Check(name, worst <= tol, worst, tol)


def _strictly(values, increasing: bool) -> bool:
    pairs = list(zip(values, values[1:]))
    return all(b > a for a, b in pairs) if increasing else all(b < a for a, b in pairs)


# ---------------------------------------------------------------------------
# security

def read_security(out: Path) -> list[dict]:
    path = out / "security_reports.json"
    return json.loads(path.read_text()) if path.is_file() else []


def read_counts(path: Path) -> np.ndarray:
    rows = list(csv.reader(path.read_text().splitlines()))
    return np.array([[int(v) for v in row[1:]] for row in rows[1:]], dtype=np.int64)


def check_security(out: Path, cfg: dict) -> list[Check]:
    reports = read_security(out)
    d = cfg["security"]["dimension"]
    f_ec = cfg["security"]["f_ec"]
    mu, q_mu = cfg["spdc"]["mu"], cfg["spdc"]["q_mu"]
    variant = cfg["security"]["variant"]
    floor = cfg["detection"]["noise_floor"]
    delta = oracles.multiphoton_fraction(mu, q_mu)

    info_err, rate_err, delta_err, sigma_ratio = [], [], [], []
    for r in reports:
        e = r["qber"]
        info_err.append(_rel(r["mutual_information_bits"], oracles.mutual_information(e, d)))
        printed, consistent = oracles.key_rates(e, r["delta"], d, f_ec)
        kr = r["key_rate"]
        selected = consistent if variant == "table_consistent" else printed
        rate_err += [_rel(kr["per_signal_as_printed"], printed),
                     _rel(kr["per_signal_table_consistent"], consistent),
                     _rel(kr["per_signal"], selected),
                     _rel(kr["r_delta"], q_mu * selected)]
        delta_err.append(_rel(r["delta"], delta))
        counts = read_counts(out / f"{r['scenario']}_{r['family'].lower()}_counts.csv")
        e_hat, sigma = oracles.counts_qber(counts)
        sigma_ratio.append(abs(e_hat - e) / sigma)

    # the free-space channel is listed first in both paper presets, then the
    # 600 um and 800 um obstructions
    qbers = [r["qber"] for r in reports]
    ncs = [r["normalized_counts"] for r in reports]
    predicted = oracles.noise_floor_qbers(qbers[0], ncs[1:], floor) if reports else []
    return [
        Check("security: one report per scenario", len(reports) == len(cfg["scenarios"])),
        _within("security: I_AB = log2 d - H_d(e)", info_err, RTOL_SECURITY),
        _within("security: GLLP rates, both variants", rate_err, RTOL_SECURITY),
        _within("security: Delta from mu and q_mu", delta_err, RTOL_DELTA),
        _within("security: e_k = 3f/(s_k + 4f) (noise-floor identity)",
                [_rel(e, p) for e, p in zip(qbers[1:], predicted)], RTOL_NOISE_FLOOR),
        Check("security: e_free < e_600 < e_800", _strictly(qbers, True)),
        Check("security: 1 = NC_free > NC_600 > NC_800 > 0",
              bool(ncs) and ncs[0] == 1.0 and _strictly(ncs, False) and ncs[-1] > 0),
        _within("security: counts QBER within sigmas of reported QBER",
                sigma_ratio, COUNT_SIGMAS),
    ]


# ---------------------------------------------------------------------------
# self-healing scan

def read_selfheal(out: Path) -> list[dict]:
    path = out / "selfheal_scan.csv"
    return list(csv.DictReader(path.read_text().splitlines())) if path.is_file() else []


def check_selfheal(out: Path, cfg: dict, geometry: dict) -> list[Check]:
    rows = read_selfheal(out)
    families = {fam: [r for r in rows if r["family"] == fam] for fam in ("BG", "LG")}
    pixel_area = (geometry["extent"] / geometry["n"]) ** 2
    radius, w0 = geometry["radius"], geometry["w0"]
    power_err = []
    for fam, k_r in (("BG", geometry["k_r"]), ("LG", 0.0)):
        expected = oracles.transmitted_power(radius, k_r, w0, pixel_area)
        power_err += [_rel(float(r["transmitted_power"]), expected) for r in families[fam]]
    bg = [float(r["fidelity"]) for r in families["BG"]]
    lg = [float(r["fidelity"]) for r in families["LG"]]
    z = [float(r["z"]) for r in families["BG"]]
    shadow = oracles.shadow_length(radius, geometry["k_r"], geometry["wavelength"])
    beyond = [i for i, zi in enumerate(z) if zi >= shadow]
    stations = len(cfg["selfheal"]["z_stations"])
    return [
        Check("selfheal: one row per family and station",
              len(families["BG"]) == len(families["LG"]) == stations == len(rows) // 2),
        _within("selfheal: transmitted power = 1 - blocked heralded power",
                power_err, RTOL_POWER),
        Check("selfheal: transmitted power equal at every station",
              all(len({r["transmitted_power"] for r in fam}) == 1
                  for fam in families.values())),
        Check("selfheal: BG fidelity rises strictly with z", _strictly(bg, True)),
        Check("selfheal: BG fidelity > LG from the shadow length on",
              bool(beyond) and len(lg) == len(bg) and all(bg[i] > lg[i] for i in beyond)),
    ]


# ---------------------------------------------------------------------------
# SPDC overlap scan

def read_spdc(out: Path) -> dict | None:
    path = out / "spdc_scan.json"
    return json.loads(path.read_text()) if path.is_file() else None


def spdc_operations(result: dict | None) -> int:
    if result is None:
        return 0
    upper = sum(v is not None for row in result["magnitudes"] for v in row)
    return upper + len(result["rule_pairs"])


def check_spdc(out: Path, scan: dict) -> list[Check]:
    result = read_spdc(out)
    if result is None:
        return [Check("spdc: scan written", False)]
    ks = result["k_r"]
    mags = np.array([[v if v is not None else math.nan for v in row]
                     for row in result["magnitudes"]])
    mags = np.where(np.isnan(mags), mags.T, mags)  # exchange symmetry fills the rest
    ref = np.array([[oracles.spdc_amplitude(a, b, scan["w0"], scan["pump_waist"])
                     for b in ks] for a in ks])
    floor = ATOL_WEBER * ref.max()
    # share of the allowance used: 1 means the deviation sits on the tolerance
    used = np.abs(mags - ref) / (RTOL_WEBER * ref + floor)
    rules = [abs(c) for _, _, c in result["rule_pairs"]]
    return [
        Check("spdc: full scan and selection-rule pairs",
              mags.shape == (len(scan["k_r"]),) * 2 and len(rules) == len(scan["rule_pairs"])),
        _within("spdc: |c| against Weber's integral (share of rtol*|c| + atol)",
                used.ravel().tolist(), 1.0),
        _within("spdc: selection-rule pairs |c|", rules, SELECTION_RULE_MAX),
        Check("spdc: each row's maximum on the diagonal",
              all(int(np.argmax(row)) == i for i, row in enumerate(mags))),
    ]
