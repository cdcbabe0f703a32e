import math

import numpy as np
import pytest

from bgqkd import (
    KeyRateResult,
    ScatteringMatrix,
    hd_entropy,
    key_rate,
    multiphoton_fraction,
    mutual_information,
    qber_from_matrix,
    security_report,
)


def synthetic_matrix(raw, noise=0.0, scenario="synthetic"):
    raw = np.asarray(raw, dtype=float)
    return ScatteringMatrix(
        raw=raw,
        transmission=np.ones(8),
        noise_floor=noise,
        family="BG",
        scenario=scenario,
    )


def ideal_raw(diag=1.0, cross=0.25):
    raw = np.zeros((8, 8))
    raw[:4, :4] = np.eye(4) * diag
    raw[4:, 4:] = np.eye(4) * diag
    raw[:4, 4:] = cross * diag
    raw[4:, :4] = cross * diag
    return raw


class TestEntropy:
    def test_zero_error(self):
        assert hd_entropy(0.0, 4) == 0.0

    def test_maximum_at_uniform(self):
        assert hd_entropy(0.75, 4) == pytest.approx(2.0, abs=1e-12)

    def test_reference_value(self):
        assert hd_entropy(0.04, 4) == pytest.approx(0.3057, abs=1e-3)

    def test_endpoint_one(self):
        assert hd_entropy(1.0, 4) == pytest.approx(math.log2(3), abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hd_entropy(-0.1, 4)
        with pytest.raises(ValueError):
            hd_entropy(0.5, 1)

    def test_concave_on_domain(self):
        for d in (2, 4, 8):
            e = np.linspace(1e-6, (d - 1) / d, 400)
            h = np.array([hd_entropy(x, d) for x in e])
            second = np.diff(h, 2)
            assert np.all(second <= 1e-10)


class TestMutualInformation:
    @pytest.mark.parametrize("e,expected", [
        (0.04, 1.69), (0.05, 1.63), (0.15, 1.15), (0.51, 0.19),
    ])
    def test_reference_values(self, e, expected):
        assert mutual_information(e, 4) == pytest.approx(expected, abs=0.01)

    def test_error_free_is_log2d(self):
        assert mutual_information(0.0, 4) == 2.0

    def test_identity_with_entropy(self):
        for d in (2, 4, 8):
            for e in [*np.linspace(0.0, 0.99, 97), 1.0]:
                # I_AB = log2 d + (1-e) log2(1-e) + e log2(e/(d-1)), written out
                rhs = math.log2(d)
                if e < 1.0:
                    rhs += (1.0 - e) * math.log2(1.0 - e)
                if e > 0.0:
                    rhs += e * math.log2(e / (d - 1))
                assert abs(mutual_information(e, d) - rhs) < 1e-12


class TestMultiphotonFraction:
    def test_zero_for_sub_two_photon_source(self):
        assert multiphoton_fraction(0.0, 1e-4) == 0.0

    def test_poissonian_reference(self):
        assert multiphoton_fraction(1e-3, 1e-4) == pytest.approx(5.0e-3, rel=1e-3)

    def test_small_mu_asymptotics(self):
        # 1 - exp(-mu)(1+mu) = (mu^2/2)(1 - 2 mu/3 + ...): the quadratic
        # approximation has leading relative error 2 mu / 3
        for mu in (1e-4, 1e-3, 1e-2):
            exact = multiphoton_fraction(mu, 1.0)
            approx = mu ** 2 / 2
            rel = abs(exact - approx) / exact
            assert rel < 0.7 * mu + 1e-6
            if mu <= 1e-3:
                assert rel < 1e-3

    def test_rejects_bad_yield(self):
        for q_mu in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="q_mu"):
                multiphoton_fraction(1e-3, q_mu)
        with pytest.raises(ValueError, match="mu must be non-negative"):
            multiphoton_fraction(-1e-3, 1e-4)


class TestKeyRate:
    PAPER_CASES = [
        # (e, delta, expected R/Q_mu in the table-consistent variant)
        (0.04, 2.0e-3, 1.32),
        (0.05, 2.0e-3, 1.19),
        (0.15, 1.4e-3, 0.13),
    ]

    @pytest.mark.parametrize("e,delta,expected", PAPER_CASES)
    def test_table_consistent_reference(self, e, delta, expected):
        res = key_rate(e, delta, d=4, f_ec=1.2, q_mu=1e-4)
        assert res.per_signal == pytest.approx(expected, abs=0.02)
        assert res.r_delta == pytest.approx(1e-4 * res.per_signal)
        assert res.secure

    @pytest.mark.parametrize("e,delta,expected", PAPER_CASES)
    def test_printed_variant_does_not_reproduce_table(self, e, delta, expected):
        res = key_rate(e, delta, d=4, f_ec=1.2, variant="as_printed")
        assert abs(res.per_signal - expected) > 0.5

    def test_printed_error_free_limit(self):
        assert key_rate(0.0, 0.0, variant="as_printed").per_signal == pytest.approx(1.0)

    def test_table_error_free_limit(self):
        assert key_rate(0.0, 0.0).per_signal == pytest.approx(2.0)

    def test_negative_rate_flagged_not_clamped(self):
        res = key_rate(0.51, 0.0, d=4, f_ec=1.2)
        assert res.per_signal < 0
        assert not res.secure

    def test_monotone_decreasing_in_error(self):
        for variant in ("table_consistent", "as_printed"):
            vals = [key_rate(e, 2e-3, variant=variant).per_signal
                    for e in np.linspace(0.0, 0.5, 26)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_precondition_checks(self):
        with pytest.raises(ValueError):
            key_rate(0.1, 1.0)
        with pytest.raises(ValueError):
            key_rate(0.999, 0.5)
        with pytest.raises(ValueError):
            key_rate(0.1, 0.0, variant="bogus")


class TestQberFromMatrix:
    def test_identity_blocks_zero_error(self):
        res = qber_from_matrix(synthetic_matrix(ideal_raw()))
        assert res.e == pytest.approx(0.0, abs=1e-12)

    def test_uniform_blocks_random_channel(self):
        raw = np.full((8, 8), 0.25)
        res = qber_from_matrix(synthetic_matrix(raw))
        assert res.e == pytest.approx(0.75, abs=1e-12)

    def test_blocked_row_excluded_with_warning(self):
        raw = ideal_raw()
        raw[2, :] = 0.0
        with pytest.warns(UserWarning, match="excluded"):
            res = qber_from_matrix(synthetic_matrix(raw))
        assert res.excluded_rows == ("psi10",)
        assert res.e == pytest.approx(0.0, abs=1e-12)

    def test_empty_matched_row_dropped(self):
        # psi10 (row 2) holds cross-basis signal only: no sifted events
        raw = np.arange(1.0, 65.0).reshape(8, 8)
        raw[2, :4] = 0.0
        with pytest.warns(UserWarning, match="psi10"):
            res = qber_from_matrix(synthetic_matrix(raw))
        assert res.excluded_rows == ("psi10",)
        fracs = [raw[i, i] / raw[i, :4].sum() for i in (0, 1, 3)]
        fracs += [raw[i, i] / raw[i, 4:].sum() for i in range(4, 8)]
        assert res.e == pytest.approx(1 - sum(fracs) / 7, rel=1e-14)

    def test_all_blocked_raises(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                qber_from_matrix(synthetic_matrix(np.zeros((8, 8))))


class TestSecurityReport:
    def test_reference_gives_unit_nc(self):
        m = synthetic_matrix(ideal_raw(diag=0.9), scenario="free")
        rep = security_report(m, delta=2e-3, reference=m)
        assert rep.normalized_counts == pytest.approx(1.0)
        assert rep.qber == pytest.approx(0.0, abs=1e-12)
        assert rep.mutual_information_bits == pytest.approx(2.0)

    def test_missing_reference_noted(self):
        m = synthetic_matrix(ideal_raw())
        rep = security_report(m, delta=2e-3)
        assert rep.normalized_counts is None
        assert any("reference" in n for n in rep.notes)

    def test_excluded_rows_noted(self):
        raw = ideal_raw()
        raw[2, :] = 0.0
        raw[5, :] = 0.0
        with pytest.warns(UserWarning, match="excluded"):
            rep = security_report(synthetic_matrix(raw), delta=2e-3)
        assert ("rows with no matched-basis signal excluded from QBER: psi10, phi01"
                in rep.notes)

    def test_no_excluded_rows_no_note(self):
        rep = security_report(synthetic_matrix(ideal_raw()), delta=2e-3)
        assert not any("excluded" in n for n in rep.notes)

    def test_nc_ratio(self):
        free = synthetic_matrix(ideal_raw(diag=0.8))
        obstructed = synthetic_matrix(ideal_raw(diag=0.2))
        rep = security_report(obstructed, delta=2e-3, reference=free)
        assert rep.normalized_counts == pytest.approx(0.25)

    def test_unbounded_key_rate_is_absent_and_noted(self):
        # e = 0.05 against 1 - delta = 0.01: the GLLP bound has no meaning
        raw = ideal_raw(diag=0.95)
        raw[np.arange(8), np.arange(8) ^ 1] = 0.05
        rep = security_report(synthetic_matrix(raw), delta=0.99)
        assert rep.qber == pytest.approx(0.05)
        assert rep.key_rate is None
        assert "e/(1-delta) = 5 exceeds 1; key rate unavailable" in rep.notes
        assert rep.to_json_dict()["key_rate"] is None

    def test_stats_and_delta_exclusive(self):
        # delta is the one multi-photon input; there is no statistics route
        m = synthetic_matrix(ideal_raw())
        with pytest.raises(TypeError, match="delta"):
            security_report(m)
        with pytest.raises(TypeError, match="stats"):
            security_report(m, delta=1e-3, stats=None)

    def test_json_round_trip_fields(self):
        m = synthetic_matrix(ideal_raw(), scenario="x")
        rep = security_report(m, delta=multiphoton_fraction(1e-3, 1e-4), q_mu=1e-4,
                              mu=1e-3)
        d = rep.to_json_dict()
        for key in ("qber", "mutual_information_bits", "delta", "key_rate",
                    "normalized_counts", "f_ec", "mu", "q_mu", "dimension"):
            assert key in d
        assert (d["mu"], d["q_mu"]) == (1e-3, 1e-4)
        assert d["key_rate"]["variant"] == "table_consistent"
        assert d["scenario"] == "x"
        assert isinstance(rep.key_rate, KeyRateResult)
