"""The digits ledger: the figures of every preset run that
tests/test_presets_e2e.py makes, stored in tests/ledger.json under
"<preset> <command>".

    PYTHONPATH=src python tests/write_ledger.py [--drift]

makes each run of PRESET_RUNS once through the CLI into a temporary
directory and writes the ledger; with --drift it leaves the ledger as it is
and prints, per run, the largest relative difference of any float from the
ledger's (the e2e tests' measure, |a - b| / max(|a|, |b|); inf where a value
that is not a float differs, or the structure does), and exits 1 if any
exceeds LEDGER_RTOL. The e2e tests compare each of their runs against it
(floats to a relative LEDGER_RTOL, integers, strings and None exactly), so a
change that moves a preset's output beyond rounding fails them. Regenerate the ledger
only for a change that is meant to move the presets' digits, and say so
where it lands.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).with_name("ledger.json")
LEDGER_RTOL = 1e-10

# (preset, CLI command): each distinct paper computation, run once
PRESET_RUNS = [
    ("paper-bg", "scattering"),
    ("paper-bg", "security"),
    ("paper-lg", "scattering"),
    ("paper-lg", "security"),
    ("paper-selfheal-bg", "selfheal-scan"),
    ("paper-table3", "security"),
]


def ledger_key(preset: str, command: str) -> str:
    return f"{preset} {command}"


def ledger_entry(out_dir: Path) -> dict:
    """The ledger's figures from one preset run's output directory: per
    scenario, the matrix's transmission vector, matched diagonal and guard
    notes, or the report's QBER, NC, both key rates, I_AB and notes with the
    simulated counts; and every column of the self-heal scan."""
    entry = {}
    for path in sorted(out_dir.glob("*_matrix.json")):
        m = json.loads(path.read_text())
        entry[path.name.removesuffix("_matrix.json")] = {
            "transmission": m["transmission"],
            "matched_diagonal": [row[i] for i, row in enumerate(m["row_normalized"])],
            "notes": m["warnings"],
        }
    reports = out_dir / "security_reports.json"
    if reports.is_file():
        for r in json.loads(reports.read_text()):
            key = f"{r['scenario']}_{r['family'].lower()}"
            entry[key] = {
                "qber": r["qber"],
                "normalized_counts": r["normalized_counts"],
                "key_rate_as_printed": r["key_rate"]["per_signal_as_printed"],
                "key_rate_table_consistent": r["key_rate"]["per_signal_table_consistent"],
                "mutual_information_bits": r["mutual_information_bits"],
                "notes": r["notes"],
            }
            counts = out_dir / f"{key}_counts.csv"
            if counts.is_file():  # direct entries simulate none
                entry[key]["counts"] = [[int(v) for v in line.split(",")[1:]]
                                        for line in counts.read_text().splitlines()[1:]]
    scan = out_dir / "selfheal_scan.csv"
    if scan.is_file():
        header, *lines = scan.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        entry["selfheal_scan"] = {
            name: [row[j] if name == "family" else float(row[j]) for row in rows]
            for j, name in enumerate(header.split(","))
        }
    return entry


def drift(actual, expected) -> float:
    """The largest relative difference of the floats of `actual` from those
    of `expected`, two ledger entries (inf where anything else differs)."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(actual) and math.isnan(expected) or actual == expected:
            return 0.0
        return abs(actual - expected) / max(abs(actual), abs(expected))
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(actual) != sorted(expected):
            return math.inf
        return max((drift(actual[k], expected[k]) for k in expected), default=0.0)
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return math.inf
        return max((drift(a, e) for a, e in zip(actual, expected)), default=0.0)
    return 0.0 if type(actual) is type(expected) and actual == expected else math.inf


def run_presets() -> dict | None:
    """Each run's ledger entry from one CLI run, or None if a run failed."""
    from bgqkd.cli import main as cli

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset, command in PRESET_RUNS:
            key = ledger_key(preset, command)
            out = Path(tmp) / key
            with contextlib.redirect_stdout(io.StringIO()):  # the runs' own tables
                rc = cli([command, "--preset", preset, "--out-dir", str(out)])
            if rc != 0:
                print(f"{key}: the run failed", file=sys.stderr)
                return None
            entries[key] = ledger_entry(out)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write or compare the digits ledger")
    parser.add_argument("--drift", action="store_true",
                        help="print each run's largest relative drift from the "
                             "ledger instead of rewriting it")
    args = parser.parse_args(argv)
    entries = run_presets()
    if entries is None:
        return 1
    if args.drift:
        ledger = json.loads(LEDGER.read_text())
        failed = False
        for key, entry in entries.items():
            d = drift(entry, ledger.get(key))
            print(f"{key}: {d:.3g}")
            failed |= not d <= LEDGER_RTOL  # inf and NaN fail too
        return int(failed)
    LEDGER.write_text(json.dumps(entries, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
