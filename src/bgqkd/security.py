"""Security figures of merit: QBER, high-dimensional entropy, mutual
information, multi-photon fraction, and the GLLP secret key rate.

Two key-rate variants are provided. The published formula multiplies the
privacy term by 1 (binary normalization); only the variant that uses
log2(d) instead reproduces the reference summary-table rates in d = 4, so
that variant is the default and both are always reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .channel import CountsTable, ScatteringMatrix, matched_sums
from .jones import LABELS


def multiphoton_fraction(mu: float, q_mu: float) -> float:
    """Delta = (1 - p0 - p1) / q_mu for a Poissonian source of mean photon
    number mu per pulse (p0 = exp(-mu), p1 = mu exp(-mu)) and yield q_mu per
    signal state, clamped to [0, 1]."""
    if not 0 < q_mu <= 1:
        raise ValueError(f"q_mu must be in (0, 1], got {q_mu}")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    delta = (1.0 - math.exp(-mu) - mu * math.exp(-mu)) / q_mu
    return min(max(delta, 0.0), 1.0)


def hd_entropy(e: float, d: int) -> float:
    """High-dimensional Shannon entropy of the error distribution.

    H_d(e) = -(1 - e) log2(1 - e) - e log2(e / (d - 1)); H_d(0) = 0 and the
    maximum log2(d) sits at e = (d - 1)/d. Endpoint limits are continuous.
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {e}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    out = 0.0
    if e < 1.0:
        out -= (1.0 - e) * math.log2(1.0 - e)
    if e > 0.0:
        out -= e * math.log2(e / (d - 1))
    return out


def mutual_information(e: float, d: int) -> float:
    """I_AB = log2(d) - H_d(e), bits per photon."""
    return math.log2(d) - hd_entropy(e, d)


@dataclass(frozen=True)
class KeyRateResult:
    """GLLP key rate in both variants; negative rates are kept, flagged."""

    variant: str
    r_delta: float
    per_signal: float
    per_signal_as_printed: float
    per_signal_table_consistent: float
    secure: bool


def key_rate(e: float, delta: float, d: int = 4, f_ec: float = 1.2,
             q_mu: float = 1.0, variant: str = "table_consistent") -> KeyRateResult:
    """Practical secret key rate after multi-photon (GLLP) correction.

    as_printed:        R = Q_mu [ (1-D)(1 - H_d(e/(1-D))) - f_EC H_d(e) ]
    table_consistent:  R = Q_mu [ (1-D)(log2 d - H_d(e/(1-D))) - f_EC H_d(e) ]

    Both are computed; `variant` selects which one populates r_delta and
    per_signal. A negative selected rate sets secure=False (never clamped).
    """
    if variant not in ("as_printed", "table_consistent"):
        raise ValueError(f"unknown key-rate variant {variant!r}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    e_eff = e / (1.0 - delta)
    if e_eff > 1.0:
        raise ValueError(f"e/(1-delta) = {e_eff:.4g} exceeds 1; no meaningful bound")
    h_eff = hd_entropy(e_eff, d)
    h_e = hd_entropy(e, d)
    printed = (1.0 - delta) * (1.0 - h_eff) - f_ec * h_e
    consistent = (1.0 - delta) * (math.log2(d) - h_eff) - f_ec * h_e
    per_signal = consistent if variant == "table_consistent" else printed
    return KeyRateResult(
        variant=variant,
        r_delta=q_mu * per_signal,
        per_signal=per_signal,
        per_signal_as_printed=printed,
        per_signal_table_consistent=consistent,
        secure=per_signal > 0.0,
    )


@dataclass(frozen=True)
class QberResult:
    """Sifted error rate with optional count-propagated uncertainty."""

    e: float
    sigma: Optional[float]
    excluded_rows: tuple[str, ...] = ()


def qber_from_matrix(m: ScatteringMatrix, counts: Optional[CountsTable] = None) -> QberResult:
    """QBER = 1 - mean of row-normalized matched-basis diagonals.

    Rows whose matched-basis sum vanishes are excluded with a warning (a
    fully blocked channel contributes no sifted events); the remaining rows,
    of both bases, count equally. When a counts table is supplied the
    statistical uncertainty is propagated from it; it stays None when no
    matched row drew a count.
    """
    sums = matched_sums(m.raw)
    kept = sums > 0
    excluded = [label for label, k in zip(LABELS, kept) if not k]
    if excluded:
        warnings.warn(
            f"rows with no matched-basis signal excluded from QBER: {excluded}",
            stacklevel=2,
        )
    if not kept.any():
        raise ValueError("no sifted signal in any row; QBER undefined")
    e = 1.0 - float(np.average(np.diag(m.raw)[kept] / sums[kept]))
    sigma = None
    if counts is not None:
        try:
            _, sigma = counts.empirical_qber()
        except ValueError:  # no sifted counts: the uncertainty is unknown
            pass
    return QberResult(e=e, sigma=sigma, excluded_rows=tuple(excluded))


PSI00 = 0  # index of the radially structured reference state


@dataclass(frozen=True)
class SecurityReport:
    """Bundle of security figures for one scenario."""

    scenario: str
    family: str
    dimension: int
    qber: float
    qber_sigma: Optional[float]
    mutual_information_bits: float
    delta: float
    key_rate: Optional[KeyRateResult]
    normalized_counts: Optional[float]
    f_ec: float
    mu: Optional[float]
    q_mu: Optional[float]
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """The report as plain data: nested results become dicts, tuples stay
        tuples (json writes them as lists)."""
        return asdict(self)


def security_report(matrix: ScatteringMatrix, *,
                    delta: float,
                    q_mu: float = 1.0,
                    mu: Optional[float] = None,
                    reference: Optional[ScatteringMatrix] = None,
                    counts: Optional[CountsTable] = None,
                    d: int = 4, f_ec: float = 1.2,
                    variant: str = "table_consistent") -> SecurityReport:
    """Assemble QBER, I_AB, Delta, key rate and normalized counts.

    Delta is the multi-photon fraction (see multiphoton_fraction); mu, the
    mean photon number it came from, is only reported. Normalized counts
    compare the psi00 -> psi00 raw detection probability against the
    free-space reference matrix; without a reference the field is absent.
    Where e / (1 - Delta) exceeds 1 the GLLP rate bounds nothing: the key
    rate is absent and a note gives that ratio.
    """
    qber = qber_from_matrix(matrix, counts)
    i_ab = mutual_information(qber.e, d)
    notes = list(matrix.warnings)
    rate = None
    if 0.0 <= delta < 1.0 and qber.e / (1.0 - delta) > 1.0:
        notes.append(f"e/(1-delta) = {qber.e / (1.0 - delta):.4g} exceeds 1; "
                     "key rate unavailable")
    else:
        rate = key_rate(qber.e, delta, d=d, f_ec=f_ec, q_mu=q_mu, variant=variant)
    if qber.excluded_rows:
        notes.append("rows with no matched-basis signal excluded from QBER: "
                     + ", ".join(qber.excluded_rows))
    if counts is not None and qber.sigma is None:
        notes.append("no sifted counts; QBER uncertainty unavailable")
    nc = None
    if reference is not None:
        ref_val = reference.raw[PSI00, PSI00]
        if ref_val > 0:
            nc = float(matrix.raw[PSI00, PSI00] / ref_val)
        else:
            notes.append("reference psi00 probability is zero; NC unavailable")
    else:
        notes.append("no free-space reference supplied; NC not computed")
    return SecurityReport(
        scenario=matrix.scenario,
        family=matrix.family,
        dimension=d,
        qber=qber.e,
        qber_sigma=qber.sigma,
        mutual_information_bits=i_ab,
        delta=delta,
        key_rate=rate,
        normalized_counts=nc,
        f_ec=f_ec,
        mu=mu,
        q_mu=q_mu,
        notes=tuple(notes),
    )
