"""One workload run in a fresh interpreter, launched by run.py.

    python3 perfbench/child.py SPEC.json

SPEC names the workload kind (`cli` or `spdc-scan`), its bgqkd config and
the files to write. The child marks, on the system-wide monotonic clock, the
moment the config is parsed and validated (bgqkd's `load_config` returns)
and the moment its last output file is written, and writes both to
SPEC["timing"]. With SPEC["trace"] the public functions of bgqkd run under
the span tracer, and the per-layer figures and self times are written with
the timing. With SPEC["setup_only"] the child stops once the
config is loaded.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _run_cli(spec: dict) -> int:
    from bgqkd import cli

    return cli.main(spec["argv"])


def _run_spdc_scan(spec: dict, cfg) -> int:
    from bgqkd.channel import spdc_overlap
    from bgqkd.modes import ModeFamily, ModeSpec

    def mode(ell, k_r):
        return ModeSpec(family=ModeFamily.BG, ell=ell, w0=cfg.source.w0,
                        wavelength=cfg.source.wavelength, k_r=k_r)

    ks, pump, grid = spec["k_r"], cfg.spdc.pump_waist, cfg.grid
    rules = [[ls, li, abs(spdc_overlap(mode(ls, cfg.source.k_r), mode(li, cfg.source.k_r),
                                       pump, grid))]
             for ls, li in spec["rule_pairs"]]
    # upper triangle only, as the acceptance scan does (exchange symmetry)
    mags = [[abs(spdc_overlap(mode(0, ks[i]), mode(0, ks[j]), pump, grid)) if j >= i else None
             for j in range(len(ks))] for i in range(len(ks))]
    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "spdc_scan.json").write_text(json.dumps(
        {"k_r": ks, "magnitudes": mags, "rule_pairs": rules}, indent=1) + "\n")
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    marks: dict = {}
    import bgqkd.cli  # the package import belongs to set-up

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    load = bgqkd.cli.load_config

    def load_and_mark(path):
        cfg = load(path)
        marks["setup_end"] = time.monotonic()
        return cfg

    bgqkd.cli.load_config = load_and_mark
    if spec["setup_only"]:
        load_and_mark(spec["config"])
        rc = 0
    elif spec["kind"] == "spdc-scan":
        rc = _run_spdc_scan(spec, load_and_mark(spec["config"]))
    else:
        rc = _run_cli(spec)
    marks["end"] = time.monotonic()
    if tracer is not None:
        from tracer import layer_metrics

        tracer.restore()
        marks["layers"] = layer_metrics(tracer.spans)
        marks["self_s"] = tracer.self_times()
    Path(spec["timing"]).write_text(json.dumps(marks) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
