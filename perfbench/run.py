"""bgqkd benchmark: the paper's security, self-healing and SPDC runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bgqkd source tree. Each round of a workload is one
fresh child interpreter (perfbench/child.py) started from this single
parent process; whole rounds repeat while the next one should end within S
seconds (at least MIN_ROUNDS, and none after a round that failed). Outputs
are checked against closed-form references (checks.py, oracles.py) and every
round against the first byte for byte. The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures (medians over the
rounds; setup_s over every launch, one extra set-up-only launch before each
round); with --trace 1, untraced and traced
rounds alternate and the metrics are the per-layer figures of the traced
rounds plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import checks

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench")           # output and trace directory, under the checkout root
MIN_ROUNDS = 2                     # so that rounds (traced against untraced) compare byte for byte
CHILD_TIMEOUT_S = 150.0

# The presets' 1024 grid is replaced by `n` (README.md: one round of the
# preset runs takes 20-60 s, too long to repeat within a run).
WORKLOADS = {
    "security-bg": {"command": "security", "preset": "paper-bg", "threads": 1, "n": 512},
    "security-lg-t2": {"command": "security", "preset": "paper-lg", "threads": 2, "n": 512},
    "selfheal": {"command": "selfheal-scan", "preset": "paper-selfheal-bg", "threads": 1,
                 "n": 512},
    "spdc-scan": {},
}

# Acceptance-criterion-6 scan: BG ell = 0 over 21 k_r values, plus the
# selection-rule pairs at the source's 18 rad/mm; the grid, waist, wavelength
# and pump waist come from a bgqkd config. n = 128 keeps one round near 5 s;
# the overlaps' spectra (to 2 x 26 rad/mm) stay below the grid's
# 2 pi/dx = 80 rad/mm, so the Weber check holds as at n = 512.
SPDC_CONFIG = {
    "schema_version": 1,
    "grid": {"n": 128, "extent": "10mm"},
    "source": {"family": "BG", "ell": 1, "k_r": "18 rad/mm", "w0": "1.253mm",
               "wavelength": "810nm"},
    "spdc": {"pump_waist": "1.0mm"},
}
SPDC_SCAN = {
    "k_r": [10e3 + 800.0 * i for i in range(21)],
    "rule_pairs": [[1, 1], [0, 1], [2, -1], [-1, -1], [1, -2]],
}

_UNITS = (("rad/mm", 1e3), ("rad/m", 1.0), ("nm", 1e-9), ("um", 1e-6), ("µm", 1e-6),
          ("mm", 1e-3), ("cm", 1e-2), ("m", 1.0))

# metric name -> unit, as BENCHMARK.json (next to this directory) declares them
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def si(value) -> float:
    """A preset quantity in SI units: a number, or a string with a unit suffix."""
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).replace(" ", "")
    for unit, scale in _UNITS:
        if text.endswith(unit):
            return float(text[: -len(unit)]) * scale
    raise ValueError(f"no unit in {value!r}")


class Workload:
    """Inputs, child spec, operation count and checks of one workload."""

    def __init__(self, name: str, root: Path, out: Path, seed: int):
        self.name, self.root, self.out, self.seed = name, root, out, seed
        self.spec = WORKLOADS[name]
        self.config_path = out / "input.yaml"
        if name == "spdc-scan":
            self.cfg = SPDC_CONFIG
            ks = SPDC_SCAN["k_r"]
            self.operations = len(SPDC_SCAN["rule_pairs"]) + len(ks) * (len(ks) + 1) // 2
        else:
            preset = root / "src" / "bgqkd" / "presets" / f"{self.spec['preset']}.yaml"
            self.cfg = yaml.safe_load(preset.read_text())
            self.cfg["grid"]["n"] = self.spec["n"]
            if self.spec["command"] == "security":
                self.operations = len(self.cfg["scenarios"])
            else:
                families = 2 if str(self.cfg["source"]["family"]).upper() == "BG" else 1
                self.operations = families * len(self.cfg["selfheal"]["z_stations"])
        self.config_path.write_text(yaml.safe_dump(self.cfg, sort_keys=False))

    def child_spec(self, round_dir: Path, tag: str, trace: bool, setup_only: bool) -> dict:
        spec = {"kind": "spdc-scan" if self.name == "spdc-scan" else "cli",
                "config": str(self.config_path), "out_dir": str(round_dir),
                "timing": str(self.out / f"{tag}.timing.json"),
                "trace": trace, "setup_only": setup_only}
        if spec["kind"] == "spdc-scan":
            spec.update(SPDC_SCAN)
        else:
            spec["argv"] = [self.spec["command"], "--config", str(self.config_path),
                            "--out-dir", str(round_dir), "--seed", str(self.seed),
                            "--threads", str(self.spec["threads"])]
        return spec

    def delivered(self, round_dir: Path) -> int:
        """Operations whose output the round wrote."""
        if self.name == "spdc-scan":
            return checks.spdc_operations(checks.read_spdc(round_dir))
        if self.spec["command"] == "security":
            return len(checks.read_security(round_dir))
        return len(checks.read_selfheal(round_dir))

    def check(self, round_dir: Path) -> list[checks.Check]:
        if self.name == "spdc-scan":
            scan = dict(SPDC_SCAN, w0=si(self.cfg["source"]["w0"]),
                        pump_waist=si(self.cfg["spdc"]["pump_waist"]))
            return checks.check_spdc(round_dir, scan)
        if self.spec["command"] == "security":
            return checks.check_security(round_dir, self.cfg)
        src, obstacle = self.cfg["source"], self.cfg["selfheal"]["obstacle"]
        geometry = {"n": self.cfg["grid"]["n"], "extent": si(self.cfg["grid"]["extent"]),
                    "w0": si(src["w0"]), "k_r": si(src["k_r"]),
                    "wavelength": si(src["wavelength"]), "radius": si(obstacle["radius"])}
        return checks.check_selfheal(round_dir, self.cfg, geometry)


def launch(root: Path, spec: dict, spec_path: Path) -> dict:
    """Run one child to its end; return its marks and rusage figures."""
    spec_path.write_text(json.dumps(spec) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(spec_path.with_suffix(".log"), "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log)
        deadline = t_launch + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    rc = os.waitstatus_to_exitcode(status)
    timing = Path(spec["timing"])
    marks = json.loads(timing.read_text()) if timing.is_file() else {}
    ok = rc == 0 and {"setup_end", "end"} <= marks.keys()
    if not ok:
        print(f"child failed (exit {rc}); see {spec_path.with_suffix('.log')}",
              file=sys.stderr)
    return {
        "ok": ok,
        "setup_s": marks["setup_end"] - t_launch if ok else None,
        "run_s": marks["end"] - marks["setup_end"] if ok else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "layers": marks.get("layers"),
        "self_s": marks.get("self_s"),
    }


def read_tree(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4f} (q1 {q1:.4f}, q3 {q3:.4f})"


def end_to_end(setups: list[float], done: list[dict]) -> dict:
    """Medians of the end-to-end figures; prints every sample."""
    samples = {"setup_s": setups}
    for key in ("run_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for r in done]
    metrics = {}
    for key, unit in END_TO_END_UNITS.items():
        values = samples[key]
        if values:
            metrics[key] = {"value": statistics.median(values), "unit": unit}
            print(f"{key} [{unit}]: {quartiles(values)} over {len(values)} samples: "
                  + " ".join(f"{v:.4g}" for v in values))
    return metrics


def per_layer(done: list[dict]) -> dict:
    """Medians of the traced rounds' layer figures, and the tracing overhead."""
    plain = [r["run_s"] for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not (traced and plain):
        return {}
    overhead = statistics.median(r["run_s"] for r in traced) - statistics.median(plain)
    metrics = {key: {"value": (overhead if key == "trace.overhead_s" else
                               statistics.median(r["layers"][key] for r in traced)),
                     "unit": unit} for key, unit in LAYER_UNITS.items()}
    for key, m in metrics.items():
        print(f"{key} [{m['unit']}]: {m['value']:.6g}")
    modules: dict[str, float] = {}
    for name, t in traced[-1]["self_s"].items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + t
    print("self time by module [s]: " + ", ".join(
        f"{m} {t:.3f}" for m, t in sorted(modules.items(), key=lambda kv: -kv[1])))
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bgqkd" / "cli.py").is_file():
        print("run from the root of a bgqkd source tree (src/bgqkd not found)", file=sys.stderr)
        return 2
    out = root / OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = Workload(args.workload, root, out, args.seed)
    trace = bool(args.trace)

    setups: list[float] = []
    setup_launches_ok = True
    rounds: list[dict] = []
    attempted = failed = 0
    reference: dict[str, bytes] | None = None
    identical = True
    verdicts: list[checks.Check] = []
    t0 = time.monotonic()
    # whole rounds only: start another while it should end within --seconds
    while (len(rounds) < MIN_ROUNDS or time.monotonic() - t0
           + statistics.median(r["step_s"] for r in rounds) <= args.seconds):
        k = len(rounds)
        t_step = time.monotonic()
        if not trace:
            # a set-up-only launch next to every round samples set-up in the
            # same stretch of the run as the rounds
            s = launch(root, wl.child_spec(out / "setup", f"setup-{k}", False, True),
                       out / f"setup-{k}.spec.json")
            setup_launches_ok &= s["ok"]
            if s["ok"]:
                setups.append(s["setup_s"])
        traced = trace and k % 2 == 1
        round_dir = out / f"round-{k}"
        r = launch(root, wl.child_spec(round_dir, f"round-{k}", traced, False),
                   out / f"round-{k}.spec.json")
        r["traced"] = traced
        r["step_s"] = time.monotonic() - t_step
        rounds.append(r)
        attempted += wl.operations
        failed += wl.operations - (wl.delivered(round_dir) if r["ok"] else 0)
        files = read_tree(round_dir)
        if reference is None:
            reference = files
            verdicts = wl.check(round_dir)
        else:
            identical &= files == reference
            shutil.rmtree(round_dir)
        if not r["ok"]:
            break
        setups.append(r["setup_s"])

    done = [r for r in rounds if r["ok"]]
    if not trace:
        verdicts.append(checks.Check("every set-up-only launch ended", setup_launches_ok))
    verdicts.append(checks.Check(
        "every round wrote byte-identical result files"
        + (" (traced and untraced)" if trace else ""), identical))
    for v in verdicts:
        print(v.line())
    correct = all(v.ok for v in verdicts) and bool(done)

    metrics = per_layer(done) if trace else end_to_end(setups, done)
    print(f"rounds: {len(rounds)}, operations per round: {wl.operations}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
