"""Scenario configuration: a versioned YAML document with strict validation.

All physical quantities are SI in parsed form; values in files may be plain
numbers (SI units) or strings with an explicit unit suffix (m, cm, mm, um,
nm for lengths; "rad/m" or "rad/mm" for radial wave numbers). Unknown keys
are rejected with the offending field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import yaml

from .channel import DetectionKind, DetectionModel
from .errors import ConfigError
from .fields import TransverseGrid
from .jones import MubLabel
from .modes import ModeFamily, ModeSpec
from .propagation import ChannelSpec, ObstacleSpec

SCHEMA_VERSION = 1

_LENGTH_UNITS = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,  # µm
    "nm": 1e-9,
}
_WAVENUMBER_UNITS = {"rad/m": 1.0, "rad/mm": 1e3}


def _parse_quantity(value: Any, path: str, what: str, units: dict[str, float]) -> float:
    """A finite plain number (SI) or a string ending in one of `units`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(path, f"expected a {what}, got {type(value).__name__}")
    number, scale = value, 1.0
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        unit = next((u for u in sorted(units, key=len, reverse=True) if text.endswith(u)), None)
        if unit is None:
            raise ConfigError(path, f"unknown {what} unit in {value!r} (use {', '.join(units)})")
        number, scale = text[: -len(unit)], units[unit]
    try:
        number = float(number) * scale
    except (ValueError, OverflowError):
        raise ConfigError(path, f"cannot parse {what} {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(path, f"{what} must be finite, got {value!r}")
    return number


def parse_length(value: Any, path: str) -> float:
    """A length in metres: plain number (SI) or string with a unit suffix."""
    return _parse_quantity(value, path, "length", _LENGTH_UNITS)


def parse_wavenumber(value: Any, path: str) -> float:
    """A radial wave number in rad/m: plain number or 'N rad/m' / 'N rad/mm'."""
    return _parse_quantity(value, path, "wave number", _WAVENUMBER_UNITS)


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(path, f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _get_name(mapping: dict, path: str) -> str:
    if not isinstance(mapping["name"], str):
        raise ConfigError(f"{path}.name", f"expected a string, got {mapping['name']!r}; "
                          "quote it (YAML reads bare off/no/yes/on as booleans)")
    return mapping["name"]


def _get_number(mapping: dict, key: str, path: str, default=None, minimum=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return float(v)


@dataclass(frozen=True)
class SecuritySettings:
    dimension: int = 4
    f_ec: float = 1.2
    variant: str = "table_consistent"


@dataclass(frozen=True)
class RunSettings:
    seed: int = 20180810
    events: float = 1e6
    outputs: tuple[str, ...] = ("json", "csv")
    pgm_stations: tuple[float, ...] = ()
    guard: str = "warn"  # warn | strict (strict turns guard warnings into exit 3)


@dataclass(frozen=True)
class SpdcSettings:
    pump_waist: float
    mu: float = 1e-3
    q_mu: float = 1e-4
    delta: Optional[float] = None  # direct multi-photon fraction entry


@dataclass(frozen=True)
class ScenarioDef:
    name: str
    channel: ChannelSpec


@dataclass(frozen=True)
class SelfhealSettings:
    label: MubLabel
    obstacle: ObstacleSpec
    z_stations: tuple[float, ...]


@dataclass(frozen=True)
class DirectSecurityEntry:
    name: str
    family: str
    qber: float
    delta: float
    q_mu: float
    mu: Optional[float] = None


@dataclass(frozen=True)
class RunConfig:
    grid: TransverseGrid
    source: ModeSpec
    spdc: SpdcSettings
    detection: DetectionModel
    security: SecuritySettings
    run: RunSettings
    scenarios: tuple[ScenarioDef, ...] = ()
    selfheal: Optional[SelfhealSettings] = None
    security_direct: tuple[DirectSecurityEntry, ...] = ()


_TOP_KEYS = {"schema_version", "grid", "source", "spdc", "channel", "detection",
             "security", "run", "scenarios", "selfheal"}


def _parse_grid(doc: dict) -> TransverseGrid:
    g = _require_mapping(doc.get("grid", {}), "grid")
    _check_keys(g, {"n", "extent"}, "grid")
    n = g.get("n", 1024)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError("grid.n", f"expected an integer, got {n!r}")
    extent = parse_length(g.get("extent", 10e-3), "grid.extent")
    try:
        return TransverseGrid(n=n, extent=extent)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None


def _parse_source(doc: dict) -> ModeSpec:
    s = _require_mapping(doc.get("source", {}), "source")
    _check_keys(s, {"family", "ell", "k_r", "w0", "wavelength"}, "source")
    fam_text = str(s.get("family", "BG")).upper()
    try:
        family = ModeFamily(fam_text)
    except ValueError:
        raise ConfigError("source.family", f"must be BG or LG, got {fam_text!r}") from None
    ell = s.get("ell", 1)
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise ConfigError("source.ell", f"expected an integer, got {ell!r}")
    k_r = parse_wavenumber(s.get("k_r", 18e3 if family is ModeFamily.BG else 0.0), "source.k_r")
    w0 = parse_length(s.get("w0", 1.253e-3), "source.w0")
    wavelength = parse_length(s.get("wavelength", 810e-9), "source.wavelength")
    if family is ModeFamily.LG and k_r != 0.0:
        raise ConfigError("source.k_r", "LG sources take k_r = 0")
    try:
        return ModeSpec(family=family, ell=ell, k_r=k_r, w0=w0, wavelength=wavelength)
    except ValueError as exc:
        raise ConfigError("source", str(exc)) from None


def _parse_obstacle(entry: Any, path: str) -> ObstacleSpec:
    o = _require_mapping(entry, path)
    _check_keys(o, {"radius", "center", "z"}, path)
    if "radius" not in o:
        raise ConfigError(f"{path}.radius", "required field is missing")
    radius = parse_length(o["radius"], f"{path}.radius")
    z = parse_length(o.get("z", 0.0), f"{path}.z")
    center_raw = o.get("center", [0.0, 0.0])
    if not isinstance(center_raw, (list, tuple)) or len(center_raw) != 2:
        raise ConfigError(f"{path}.center", "expected a [dx, dy] pair")
    center = (parse_length(center_raw[0], f"{path}.center[0]"),
              parse_length(center_raw[1], f"{path}.center[1]"))
    try:
        return ObstacleSpec(radius=radius, center=center, z=z)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_channel(entry: Any, path: str) -> ChannelSpec:
    c = _require_mapping(entry, path)
    _check_keys(c, {"length", "station_z", "obstacles"}, path)
    if "length" not in c:
        raise ConfigError(f"{path}.length", "required field is missing")
    length = parse_length(c["length"], f"{path}.length")
    station_z = parse_length(c.get("station_z", 0.0), f"{path}.station_z")
    obstacles = []
    raw_obs = c.get("obstacles", [])
    if not isinstance(raw_obs, list):
        raise ConfigError(f"{path}.obstacles", "expected a list")
    for i, entry_i in enumerate(raw_obs):
        obstacles.append(_parse_obstacle(entry_i, f"{path}.obstacles[{i}]"))
    try:
        return ChannelSpec(length=length, obstacles=tuple(obstacles), station_z=station_z)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_detection(doc: dict) -> DetectionModel:
    d = _require_mapping(doc.get("detection", {}), "detection")
    _check_keys(d, {"mode", "smf_waist", "noise_floor"}, "detection")
    mode_text = str(d.get("mode", "ideal")).lower()
    try:
        kind = DetectionKind(mode_text)
    except ValueError:
        raise ConfigError("detection.mode", f"must be ideal or cascade, got {mode_text!r}") from None
    smf = d.get("smf_waist")
    smf_waist = parse_length(smf, "detection.smf_waist") if smf is not None else None
    noise = _get_number(d, "noise_floor", "detection", default=0.0, minimum=0.0)
    try:
        return DetectionModel(kind=kind, smf_waist=smf_waist, noise_floor=noise)
    except ValueError as exc:
        raise ConfigError("detection", str(exc)) from None


def _parse_spdc(doc: dict, source: ModeSpec) -> SpdcSettings:
    s = _require_mapping(doc.get("spdc", {}), "spdc")
    _check_keys(s, {"pump_waist", "mu", "q_mu", "delta"}, "spdc")
    pump = parse_length(s.get("pump_waist", source.w0), "spdc.pump_waist")
    mu = _get_number(s, "mu", "spdc", default=1e-3, minimum=0.0)
    q_mu = _get_number(s, "q_mu", "spdc", default=1e-4)
    if not 0 < q_mu <= 1:
        raise ConfigError("spdc.q_mu", f"must be in (0, 1], got {q_mu}")
    delta = None
    if "delta" in s:
        delta = _get_number(s, "delta", "spdc", minimum=0.0)
        if delta >= 1:
            raise ConfigError("spdc.delta", f"must be < 1, got {delta}")
    return SpdcSettings(pump_waist=pump, mu=mu, q_mu=q_mu, delta=delta)


def _parse_security(doc: dict) -> tuple[SecuritySettings, tuple[DirectSecurityEntry, ...]]:
    s = _require_mapping(doc.get("security", {}), "security")
    _check_keys(s, {"dimension", "f_ec", "variant", "direct"}, "security")
    dim = s.get("dimension", 4)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise ConfigError("security.dimension", f"expected an integer >= 2, got {dim!r}")
    f_ec = _get_number(s, "f_ec", "security", default=1.2, minimum=1.0)
    variant = str(s.get("variant", "table_consistent"))
    if variant not in ("table_consistent", "as_printed"):
        raise ConfigError("security.variant",
                          f"must be table_consistent or as_printed, got {variant!r}")
    direct = []
    for i, entry in enumerate(s.get("direct", []) or []):
        path = f"security.direct[{i}]"
        e = _require_mapping(entry, path)
        _check_keys(e, {"name", "family", "qber", "delta", "q_mu", "mu"}, path)
        if "name" not in e or "qber" not in e:
            raise ConfigError(path, "direct entries need at least name and qber")
        qber = _get_number(e, "qber", path, minimum=0.0)
        if qber > 1:
            raise ConfigError(f"{path}.qber", "must be <= 1")
        direct.append(DirectSecurityEntry(
            name=_get_name(e, path),
            family=str(e.get("family", "BG")).upper(),
            qber=qber,
            delta=_get_number(e, "delta", path, default=0.0, minimum=0.0),
            q_mu=_get_number(e, "q_mu", path, default=1e-4),
            mu=(_get_number(e, "mu", path, minimum=0.0) if "mu" in e else None),
        ))
    return SecuritySettings(dimension=dim, f_ec=f_ec, variant=variant), tuple(direct)


def _parse_run(doc: dict) -> RunSettings:
    r = _require_mapping(doc.get("run", {}), "run")
    _check_keys(r, {"seed", "events", "outputs", "pgm_stations", "guard"}, "run")
    seed = r.get("seed", 20180810)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("run.seed", f"expected a non-negative integer, got {seed!r}")
    events = _get_number(r, "events", "run", default=1e6, minimum=0.0)
    outputs_raw = r.get("outputs", ["json", "csv"])
    if not isinstance(outputs_raw, list):
        raise ConfigError("run.outputs", "expected a list")
    outputs = []
    for o in outputs_raw:
        if o not in ("json", "csv", "pgm"):
            raise ConfigError("run.outputs", f"unknown output format {o!r}")
        outputs.append(o)
    stations = tuple(parse_length(z, f"run.pgm_stations[{i}]")
                     for i, z in enumerate(r.get("pgm_stations", [])))
    guard = str(r.get("guard", "warn"))
    if guard not in ("warn", "strict"):
        raise ConfigError("run.guard", f"must be warn or strict, got {guard!r}")
    return RunSettings(seed=seed, events=events, outputs=tuple(outputs),
                       pgm_stations=stations, guard=guard)


def _parse_selfheal(doc: dict) -> Optional[SelfhealSettings]:
    if "selfheal" not in doc:
        return None
    s = _require_mapping(doc["selfheal"], "selfheal")
    _check_keys(s, {"label", "obstacle", "z_stations"}, "selfheal")
    try:
        label = MubLabel.from_string(str(s.get("label", "psi00")))
    except ValueError as exc:
        raise ConfigError("selfheal.label", str(exc)) from None
    if "obstacle" not in s:
        raise ConfigError("selfheal.obstacle", "required field is missing")
    obstacle = _parse_obstacle(s["obstacle"], "selfheal.obstacle")
    stations_raw = s.get("z_stations", [])
    if not isinstance(stations_raw, list) or not stations_raw:
        raise ConfigError("selfheal.z_stations", "expected a non-empty list of distances")
    stations = tuple(parse_length(z, f"selfheal.z_stations[{i}]")
                     for i, z in enumerate(stations_raw))
    for i, z in enumerate(stations):
        if z < obstacle.z:
            raise ConfigError(f"selfheal.z_stations[{i}]",
                              f"station {z} lies before the obstacle at {obstacle.z}")
    return SelfhealSettings(label=label, obstacle=obstacle, z_stations=stations)


def parse_config(doc: Any, *, source_name: str = "config") -> RunConfig:
    doc = _require_mapping(doc, source_name)
    _check_keys(doc, _TOP_KEYS, source_name)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {version!r}")
    grid = _parse_grid(doc)
    source = _parse_source(doc)
    spdc = _parse_spdc(doc, source)
    detection = _parse_detection(doc)
    security, direct = _parse_security(doc)
    run = _parse_run(doc)

    scenarios: list[ScenarioDef] = []
    if "channel" in doc:
        scenarios.append(ScenarioDef("channel", _parse_channel(doc["channel"], "channel")))
    raw_scenarios = doc.get("scenarios", [])
    if not isinstance(raw_scenarios, list):
        raise ConfigError("scenarios", "expected a list")
    for i, entry in enumerate(raw_scenarios):
        path = f"scenarios[{i}]"
        e = _require_mapping(entry, path)
        _check_keys(e, {"name", "channel"}, path)
        if "name" not in e or "channel" not in e:
            raise ConfigError(path, "scenario entries need name and channel")
        name = _get_name(e, path)
        if any(s.name == name for s in scenarios):
            raise ConfigError(f"{path}.name", f"duplicate scenario name {name!r}")
        scenarios.append(ScenarioDef(name, _parse_channel(e["channel"], f"{path}.channel")))

    # obstacles must fit well inside the grid
    for s in scenarios:
        for o in s.channel.obstacles:
            if o.radius + math.hypot(*o.center) >= grid.extent / 2.0:
                raise ConfigError(
                    f"scenario {s.name!r}",
                    f"obstacle (R={o.radius}) does not fit inside the grid half-extent",
                )

    selfheal = _parse_selfheal(doc)
    return RunConfig(
        grid=grid, source=source, spdc=spdc, detection=detection,
        security=security, run=run, scenarios=tuple(scenarios),
        selfheal=selfheal, security_direct=direct,
    )


def load_config(path) -> RunConfig:
    text = Path(path).read_text()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}") from None
    return parse_config(doc, source_name=str(path))


def preset_names() -> list[str]:
    root = resources.files("bgqkd") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> RunConfig:
    normalized = name.strip().lower()
    root = resources.files("bgqkd") / "presets"
    target = root / f"{normalized}.yaml"
    if not target.is_file():
        raise ConfigError("preset", f"unknown preset {name!r}; available: {preset_names()}")
    doc = yaml.safe_load(target.read_text())
    return parse_config(doc, source_name=f"preset:{normalized}")
