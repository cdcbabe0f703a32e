"""End-to-end runs of every committed paper-* preset through the CLI.

These exercise the full default-grid pipeline and the reference claims tied
to each preset's output files, and check every run's figures against the
digits ledger (tests/ledger.json, written by tests/write_ledger.py). Each run
of PRESET_RUNS is made once for the module, however many tests read it.
"""

import json
import math

import numpy as np
import pytest

import write_ledger
from bgqkd.cli import main
from bgqkd.config import preset_names
from write_ledger import LEDGER, LEDGER_RTOL, PRESET_RUNS, ledger_entry, ledger_key


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(preset, command): the output directory of that CLI run, made on
    first use and checked against the ledger."""
    made = {}

    def output(preset, command):
        key = ledger_key(preset, command)
        if key not in made:
            out = tmp_path_factory.mktemp(f"{preset}-{command}")
            assert main([command, "--preset", preset, "--out-dir", str(out)]) == 0
            assert_matches_ledger(ledger_entry(out), json.loads(LEDGER.read_text())[key], key)
            made[key] = out
        return made[key]
    return output


def assert_matches_ledger(actual, expected, where):
    """Floats agree to LEDGER_RTOL (NaN matches NaN), everything else exactly."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert (math.isclose(actual, expected, rel_tol=LEDGER_RTOL, abs_tol=0.0)
                or math.isnan(actual) and math.isnan(expected)), \
            f"{where}: {actual!r} against the ledger's {expected!r}"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ from the ledger's"
        for key in expected:
            assert_matches_ledger(actual[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(actual) == len(expected), f"{where}: length differs from the ledger's"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches_ledger(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{where}: {actual!r} against the ledger's {expected!r}"


def test_every_paper_preset_is_exercised():
    # keep this list in sync: every committed preset appears in a test below
    covered = {"paper-bg", "paper-lg", "paper-selfheal-bg", "paper-table3"}
    assert set(preset_names()) == {preset for preset, _ in PRESET_RUNS} == covered
    assert set(json.loads(LEDGER.read_text())) == {ledger_key(*r) for r in PRESET_RUNS}


@pytest.mark.parametrize("value,code", [
    (0.25, 0), (0.25 * (1 + 1e-12), 0), (0.25 * (1 + 1e-9), 1), (math.nan, 1), ("0.25", 1),
], ids=["equal", "rounding", "drift", "nan", "type"])
def test_drift_check_fails_past_the_ledger_tolerance(monkeypatch, tmp_path, capsys,
                                                     value, code):
    # the --drift run exits 1 where any preset drifts beyond LEDGER_RTOL, and
    # leaves the ledger as it is; no preset is run
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"a": {"qber": [0.5, math.nan]}, "b": {"qber": [0.25]}}))
    before = ledger.read_text()
    monkeypatch.setattr(write_ledger, "LEDGER", ledger)
    monkeypatch.setattr(write_ledger, "run_presets",
                        lambda: {"a": {"qber": [0.5, math.nan]}, "b": {"qber": [value]}})
    assert write_ledger.main(["--drift"]) == code
    assert capsys.readouterr().out.startswith("a: 0\n")
    assert ledger.read_text() == before


def test_drift_check_fails_on_a_preset_missing_from_the_ledger(monkeypatch, tmp_path):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"a": {"qber": [0.5]}}))
    monkeypatch.setattr(write_ledger, "LEDGER", ledger)
    monkeypatch.setattr(write_ledger, "run_presets",
                        lambda: {"a": {"qber": [0.5]}, "b": {"qber": [0.25]}})
    assert write_ledger.main(["--drift"]) == 1


def load_matrix(out_dir, scenario, fam):
    return json.loads((out_dir / f"{scenario}_{fam}_matrix.json").read_text())


def test_free_space_presets(run):
    for preset, fam in (("paper-bg", "bg"), ("paper-lg", "lg")):
        data = load_matrix(run(preset, "scattering"), "free-space", fam)
        rn = np.array(data["row_normalized"])
        # matched blocks ~ identity, cross blocks ~ 0.25 (noise floor shifts
        # the conditional probabilities by ~ the accidental fraction)
        assert np.max(np.abs(np.diag(rn) - 1.0)) < 1e-2
        assert np.max(np.abs(rn[:4, 4:] - 0.25)) < 1e-2


def test_r1_presets(run):
    for preset, fam in (("paper-bg", "bg"), ("paper-lg", "lg")):
        data = load_matrix(run(preset, "scattering"), "r1-600um", fam)
        diag = np.diag(np.array(data["row_normalized"]))
        assert diag.mean() > 0.9  # both families retain information at R1


def test_r2_presets(run):
    diags = {}
    for preset, fam in (("paper-bg", "bg"), ("paper-lg", "lg")):
        data = load_matrix(run(preset, "scattering"), "r2-800um", fam)
        diags[fam] = float(np.mean(np.diag(np.array(data["row_normalized"]))))
    assert diags["lg"] < 0.5  # severe crosstalk for the Gaussian family
    assert diags["bg"] > diags["lg"]


def test_family_security_presets(run):
    reports = {}
    for preset in ("paper-bg", "paper-lg"):
        for rep in json.loads((run(preset, "security") / "security_reports.json").read_text()):
            reports[(rep["family"], rep["scenario"])] = rep
    # normalized-counts ordering: free >= R1 >= R2 for the BG family
    nc_bg = [reports[("BG", s)]["normalized_counts"]
             for s in ("free-space", "r1-600um", "r2-800um")]
    assert nc_bg[0] >= nc_bg[1] >= nc_bg[2]
    # LG at R2 loses essentially all signal and both key-rate variants go
    # negative (the flagged no-secure-key regime)
    lg_r2 = reports[("LG", "r2-800um")]
    assert lg_r2["normalized_counts"] < 0.01
    assert lg_r2["key_rate"]["per_signal"] < 0
    assert not lg_r2["key_rate"]["secure"]
    bg_r2 = reports[("BG", "r2-800um")]
    assert bg_r2["key_rate"]["secure"]


def test_selfheal_presets(run):
    out = run("paper-selfheal-bg", "selfheal-scan")
    lines = (out / "selfheal_scan.csv").read_text().strip().splitlines()[1:]
    rows = [ln.split(",") for ln in lines]
    bg = [(float(r[1]), float(r[2]), float(r[3]), float(r[4]))
          for r in rows if r[0] == "BG"]
    lg = [(float(r[1]), float(r[2]), float(r[3]), float(r[4]))
          for r in rows if r[0] == "LG"]
    # the LG mode is scanned at the BG stations beside it
    assert [r[0] for r in lg] == [r[0] for r in bg] and len(bg) == 5
    # fidelity at 2 z_min beats 0.2 z_min; LG never catches up
    assert bg[-1][1] > bg[0][1]
    assert bg[-1][1] > 1.5 * lg[-1][1]
    # on-axis reconstruction monotone over the five stations for BG
    axial = [r[3] for r in bg]
    assert all(b > a for a, b in zip(axial, axial[1:]))
    assert axial[-1] >= 0.5


def test_table3_preset(run):
    reports = json.loads((run("paper-table3", "security") / "security_reports.json").read_text())
    by_key = {(r["family"], r["scenario"]): r for r in reports}
    expected_info = {
        ("BG", "free-space"): 1.69, ("BG", "r1-600um"): 1.63,
        ("BG", "r2-800um"): 1.15, ("LG", "r2-800um"): 0.19,
    }
    for key, target in expected_info.items():
        assert by_key[key]["mutual_information_bits"] == pytest.approx(target, abs=0.01)
    expected_rate = {
        ("BG", "free-space"): 1.32, ("BG", "r1-600um"): 1.19,
        ("BG", "r2-800um"): 0.13,
    }
    for key, target in expected_rate.items():
        assert by_key[key]["key_rate"]["per_signal"] == pytest.approx(target, abs=0.02)
