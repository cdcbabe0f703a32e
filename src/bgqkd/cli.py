"""Command-line front end.

Subcommands:
    scattering     simulate the 8x8 detection-probability matrices
    security       QBER / mutual information / key-rate reports
    selfheal-scan  detected-signal recovery versus distance behind an obstacle
    info           print derived distances, sampling figures and the
                   wave-plate settings of each state for a config

Exit codes: 0 success, 2 configuration error, 3 numerical-guard violation
(band-limit or grid-boundary warnings under run.guard = strict).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .channel import (
    ScatteringMatrix,
    scattering_matrix,
    simulate_counts,
    state_intensity,
    station_pair,
)
from .config import RunConfig, load_config, load_preset, preset_names
from .errors import ConfigError
from .io import write_pgm
from .jones import LABELS, wave_plates
from .modes import (ModeFamily, ModeSpec, full_reconstruction_distance,
                    nondiffracting_distance, shadow_length)
from .propagation import ChannelSpec
from .security import (
    SecurityReport,
    key_rate,
    multiphoton_fraction,
    mutual_information,
    security_report,
)
from .selfheal import selfheal_scan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load(args) -> RunConfig:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("cli", "provide exactly one of --config or --preset")
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = load_preset(args.preset)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=args.seed))
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_scenarios(cfg: RunConfig, threads: int) -> list[ScatteringMatrix]:
    def one(scenario):
        return scattering_matrix(scenario.channel, cfg.source, cfg.detection,
                                 cfg.grid, scenario=scenario.name)

    if threads > 1 and len(cfg.scenarios) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, cfg.scenarios))
    return [one(s) for s in cfg.scenarios]


def _guard_exit(cfg: RunConfig, matrices) -> int:
    """Print the matrices' guard notes to stderr; EXIT_GUARD if there are
    any and run.guard is strict, else EXIT_OK."""
    violations = [w for m in matrices for w in m.warnings]
    for w in violations:
        print(f"guard: {w}", file=sys.stderr)
    return EXIT_GUARD if violations and cfg.run.guard == "strict" else EXIT_OK


def cmd_scattering(args) -> int:
    cfg = _load(args)
    if not cfg.scenarios:
        raise ConfigError("scenarios", "scattering needs at least one scenario")
    out = _out_dir(args)
    matrices = _run_scenarios(cfg, args.threads)
    fam = cfg.source.family.value.lower()
    for m in matrices:
        stem = f"{m.scenario}_{fam}"
        if "json" in cfg.run.outputs:
            _write_json(out / f"{stem}_matrix.json", m.to_json_dict())
        if "csv" in cfg.run.outputs:
            (out / f"{stem}_matrix.csv").write_text(m.to_csv())
            (out / f"{stem}_matrix_normalized.csv").write_text(m.normalized_csv())
        print(f"{m.scenario} [{m.family}]: mean matched diagonal = "
              f"{m.matched_diagonal().mean():.4f}")
    if "pgm" in cfg.run.outputs:
        _write_snapshots(cfg, out, [
            (s.channel, cfg.run.pgm_stations or (s.channel.length,),
             {i: f"{s.name}_{fam}_{label}" for i, label in enumerate(LABELS)})
            for s in cfg.scenarios])
    return _guard_exit(cfg, matrices)


def _write_snapshots(cfg: RunConfig, out: Path, runs) -> None:
    """PGM intensity maps of the source's states. Each run is (channel,
    stations, stems): at each station z, capped at the channel's length, the
    source pair is carried through the channel's obstacles up to z, and the
    map of state i is written to f"{stems[i]}_z{z:.4f}.pgm". The snapshots
    are taken in order of z, so the leg cache keeps a leg that several runs
    share while they step on from it."""
    shots = sorted(((min(z, channel.length), z, channel, stems)
                    for channel, stations, stems in runs for z in stations),
                   key=lambda shot: shot[0])
    for z_stop, z, channel, stems in shots:
        at_z, _ = station_pair(cfg.source, cfg.grid, channel.obstacles, z_stop)
        for i, stem in stems.items():
            write_pgm(out / f"{stem}_z{z:.4f}.pgm", state_intensity(i, at_z))


def cmd_security(args) -> int:
    cfg = _load(args)
    if cfg.security_direct and cfg.scenarios:
        raise ConfigError("security.direct", "security runs either the scenarios or "
                          "the direct entries; this config has both")
    if not cfg.security_direct and not cfg.scenarios:
        raise ConfigError("scenarios", "security needs scenarios or direct entries")
    reports = []
    status = EXIT_OK
    if cfg.security_direct:
        d = cfg.security.dimension
        for i, entry in enumerate(cfg.security_direct):
            try:
                rate = key_rate(entry.qber, entry.delta, d=d, f_ec=cfg.security.f_ec,
                                q_mu=entry.q_mu, variant=cfg.security.variant)
            except ValueError as exc:  # qber / (1 - delta) above 1
                raise ConfigError(f"security.direct[{i}]", str(exc)) from None
            reports.append(SecurityReport(
                scenario=entry.name, family=entry.family, dimension=d, qber=entry.qber,
                qber_sigma=None, mutual_information_bits=mutual_information(entry.qber, d),
                delta=entry.delta, key_rate=rate, normalized_counts=None,
                f_ec=cfg.security.f_ec, mu=entry.mu, q_mu=entry.q_mu,
                notes=("direct entry (no field simulation)",),
            ).to_json_dict())
        out = _out_dir(args)
    else:
        spdc = cfg.spdc
        if spdc.delta is not None:
            delta, mu = spdc.delta, None
        else:
            delta, mu = multiphoton_fraction(spdc.mu, spdc.q_mu), spdc.mu
            if delta >= 1.0:  # clamped: no single-photon signal is left to bound
                raise ConfigError("spdc.mu", f"mu = {spdc.mu:g} takes the multi-photon fraction "
                                  f"(1 - p0 - p1) / q_mu to 1 at q_mu = {spdc.q_mu:g}")
        out = _out_dir(args)
        matrices = _run_scenarios(cfg, args.threads)
        reference = next(
            (m for s, m in zip(cfg.scenarios, matrices) if not s.channel.obstacles), None)
        for idx, m in enumerate(matrices):
            counts = simulate_counts(m, cfg.run.events, seed=cfg.run.seed + idx)
            rep = security_report(m, delta=delta, q_mu=spdc.q_mu, mu=mu, reference=reference,
                                  counts=counts, d=cfg.security.dimension,
                                  f_ec=cfg.security.f_ec, variant=cfg.security.variant)
            reports.append(rep.to_json_dict())
            if "csv" in cfg.run.outputs:
                (out / f"{m.scenario}_{m.family.lower()}_counts.csv").write_text(counts.to_csv())
        status = _guard_exit(cfg, matrices)
    _write_json(out / "security_reports.json", reports)
    (out / "security_summary.txt").write_text(_summary_table(reports))
    print(_summary_table(reports))
    return status


def _summary_table(reports: list[dict]) -> str:
    families = sorted({r["family"] for r in reports})
    lines = []
    for fam in families:
        rows = [r for r in reports if r["family"] == fam]
        names = [r["scenario"] for r in rows]
        lines.append(f"family {fam}")
        lines.append("  " + "".join(f"{n:>16s}" for n in ["metric"] + names))
        def fmt(key, getter, digits=4):
            vals = []
            for r in rows:
                v = getter(r)
                vals.append("-" if v is None else f"{v:.{digits}f}")
            lines.append("  " + f"{key:>16s}" + "".join(f"{v:>16s}" for v in vals))
        fmt("QBER", lambda r: r["qber"])
        fmt("I_AB [bits]", lambda r: r["mutual_information_bits"])
        fmt("delta", lambda r: r["delta"], 6)
        fmt("R/Q_mu", lambda r: r["key_rate"]["per_signal"])
        fmt("R/Q_mu printed", lambda r: r["key_rate"]["per_signal_as_printed"])
        fmt("NC", lambda r: r["normalized_counts"])
        lines.append("")
    return "\n".join(lines)


def scan_sources(source: ModeSpec) -> list[ModeSpec]:
    """The sources selfheal-scan runs: the config's, and after a BG source the
    LG mode of the same charge, waist and wavelength for comparison."""
    if source.family is ModeFamily.LG:
        return [source]
    return [source, ModeSpec(family=ModeFamily.LG, ell=source.ell, w0=source.w0,
                             wavelength=source.wavelength)]


def cmd_selfheal_scan(args) -> int:
    cfg = _load(args)
    if cfg.selfheal is None:
        raise ConfigError("selfheal", "selfheal-scan needs a selfheal section")
    out = _out_dir(args)
    lines = ["family,z,fidelity,transmitted_power,on_axis_intensity_ratio"]
    for src in scan_sources(cfg.source):
        rows = selfheal_scan(src, cfg.selfheal.label, cfg.selfheal.obstacle,
                             list(cfg.selfheal.z_stations), cfg.grid, cfg.detection)
        for z, fid, power, axial in rows:
            lines.append(f"{src.family.value},{z:.6g},{fid:.8g},{power:.8g},{axial:.8g}")
    csv_path = out / "selfheal_scan.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if "pgm" in cfg.run.outputs:
        sh, fam = cfg.selfheal, cfg.source.family.value.lower()
        channel = ChannelSpec(length=max(sh.z_stations), obstacles=(sh.obstacle,),
                              station_z=max(sh.z_stations))
        _write_snapshots(cfg, out, [(channel, sh.z_stations,
                                     {LABELS.index(sh.label): f"selfheal_{fam}"})])
    return EXIT_OK


def cmd_info(args) -> int:
    cfg = _load(args)
    src = cfg.source
    print(f"grid: n={cfg.grid.n}, extent={cfg.grid.extent * 1e3:.3f} mm, "
          f"spacing={cfg.grid.spacing * 1e6:.3f} um")
    print(f"source: {src.family.value}, ell={src.ell}, w0={src.w0 * 1e3:.4f} mm, "
          f"wavelength={src.wavelength * 1e9:.1f} nm, k_r={src.k_r:.1f} rad/m")
    if src.family is ModeFamily.BG and src.k_r > 0:
        z_max = nondiffracting_distance(src)
        print(f"z_max (non-diffracting range): {z_max:.4f} m")
    radii = sorted({o.radius for s in cfg.scenarios for o in s.channel.obstacles})
    if cfg.selfheal is not None:
        radii = sorted(set(radii) | {cfg.selfheal.obstacle.radius})
    for r in radii:
        if src.family is ModeFamily.BG and src.k_r > 0:
            print(f"obstacle R={r * 1e6:.0f} um: z_min={shadow_length(r, src):.4f} m, "
                  f"full reconstruction at {full_reconstruction_distance(r, src):.4f} m")
        else:
            print(f"obstacle R={r * 1e6:.0f} um: no shadow-length formula for LG (k_r=0)")
    # the angular-spectrum kernel is adequately sampled over legs up to
    # N dx^2 / lambda, and an obstacle's edge is resolved at a distance z
    # behind it while its Fresnel phase across one pixel, k R dx / z, is small
    grid = cfg.grid
    z_sampled = grid.n * grid.spacing ** 2 / src.wavelength
    print(f"kernel sampling limit N dx^2/lambda: {z_sampled:.4f} m")
    print(f"field pair (2, n, n) complex: {32 * grid.n ** 2:,} bytes; kernel evaluated on "
          f"{grid.distinct_k_squared.size:,} distinct |k_t|^2 of {grid.n ** 2:,}")
    for s in cfg.scenarios:
        print(f"scenario {s.name}: length={s.channel.length} m, "
              f"station_z={s.channel.station_z} m, L={s.channel.decoding_distance} m, "
              f"obstacles={[(o.radius, o.z) for o in s.channel.obstacles]}")
        print(f"  sampling: station leg {s.channel.station_z / z_sampled:.3f}, "
              f"decoding leg {s.channel.decoding_distance / z_sampled:.3f} x N dx^2/lambda")
    if cfg.selfheal is not None:
        obs, k = cfg.selfheal.obstacle, 2 * math.pi / src.wavelength
        for z in cfg.selfheal.z_stations:
            leg = z - obs.z
            phase = k * obs.radius * grid.spacing / leg if leg > 0 else math.inf
            print(f"selfheal station z={z:.4f} m: edge phase per pixel "
                  f"k R dx / z = {phase:.3f} rad")
    q = (abs(src.ell) or 1) / 2
    for label in LABELS:
        kind, before, after = wave_plates(label)
        plates = [f"{kind} {math.degrees(before):.1f} deg", f"q-plate q={q:g}"]
        if after is not None:
            plates.append(f"{kind} {math.degrees(after):.1f} deg")
        print(f"state {label}: H polarizer, " + ", ".join(plates))
    return EXIT_OK


def _at_least(low: int):
    """An argparse type: an integer >= low, checked before any work."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgqkd",
        description="Self-healing structured-light QKD simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("scattering", cmd_scattering), ("security", cmd_security),
                     ("selfheal-scan", cmd_selfheal_scan), ("info", cmd_info)]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a scenario YAML file")
        p.add_argument("--preset", help=f"built-in preset name ({', '.join(preset_names())})")
        p.add_argument("--seed", type=_at_least(0), default=None, help="override run.seed")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--threads", type=_at_least(1), default=1,
                       help="parallel scenarios (scenario threads only; OpenBLAS stays on one)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc.path}: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
