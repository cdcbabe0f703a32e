"""Scenario configuration: a versioned YAML document with strict validation.

All physical quantities are SI in parsed form; values in files may be plain
numbers (SI units) or strings with an explicit unit suffix (m, cm, mm, um,
nm for lengths; "rad/m" or "rad/mm" for radial wave numbers). Each key is
described once, in `SCHEMA`; a key that is unknown, missing, of the wrong
kind, not finite or out of bounds is rejected with its field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import yaml

from .channel import DetectionModel
from .errors import ConfigError
from .fields import TransverseGrid
from .jones import LABELS
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


_UNITS = {"length": _LENGTH_UNITS, "wave number": _WAVENUMBER_UNITS}
_TYPES = {"number": (int, float), "length": (int, float, str), "wave number": (int, float, str),
          "integer": int, "text": str}
_REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """How one config key is read.

    kind    : number, integer, length, wave number, text, list or mapping
    default : the value of an absent key (none: required; None: unset, null accepted)
    bounds  : interval such as "[0, 1)" holding a numeric value, or a
              list's number of entries
    choices : the texts a text key accepts, matched case-insensitively
    item    : a list's entry Key, or a mapping's table of Keys
    """

    kind: str
    default: Any = _REQUIRED
    bounds: str = "(-inf, inf)"
    choices: tuple[str, ...] = ()
    item: Any = None


def _within(value: float, bounds: str) -> bool:
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    above = lo <= value if bounds[0] == "[" else lo < value
    return above and (value <= hi if bounds[-1] == "]" else value < hi)


def _finite(value: Any, path: str, kind: str) -> float:
    """A finite float (SI) from a plain number or a string ending in a unit of `kind`."""
    number, scale, units = value, 1.0, _UNITS.get(kind, {})
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        unit = next((u for u in sorted(units, key=len, reverse=True) if text.endswith(u)), None)
        if unit is None:
            raise ConfigError(path, f"unknown {kind} unit in {value!r} (use {', '.join(units)})")
        number, scale = text[: -len(unit)], units[unit]
    try:
        number = float(number) * scale
    except (ValueError, OverflowError):
        raise ConfigError(path, f"cannot parse {kind} {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(path, f"{kind} must be finite, got {value!r}")
    return number


def _value(value: Any, path: str, key: Key) -> Any:
    """`value` read as `key` describes it; a ConfigError names `path` otherwise."""
    if value is _REQUIRED:
        raise ConfigError(path, "required field is missing")
    if value is None and key.default is None:
        return None
    if key.kind == "mapping":
        return _read(value, path, key.item, f"{path}.")
    if key.kind == "list":
        if not isinstance(value, list | tuple):
            raise ConfigError(path, f"expected a list, got {type(value).__name__}")
        if not _within(len(value), key.bounds):
            raise ConfigError(path, f"number of entries must lie in {key.bounds}, got {len(value)}")
        return tuple(_value(v, f"{path}[{i}]", key.item) for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, _TYPES[key.kind]):
        hint = "; quote it (YAML reads bare off/no/yes/on as booleans)" if key.kind == "text" else ""
        raise ConfigError(path, f"expected {key.kind}, got {value!r}{hint}")
    if key.kind == "text":
        choice = next((c for c in key.choices if c.lower() == value.strip().lower()), None)
        if key.choices and choice is None:
            raise ConfigError(path, f"must be one of {' | '.join(key.choices)}, got {value!r}")
        return choice or value
    if key.kind != "integer":
        value = _finite(value, path, key.kind)
    if not _within(value, key.bounds):
        raise ConfigError(path, f"must lie in {key.bounds}, got {value!r}")
    return value


def _read(raw: Any, path: str, table: dict[str, Key], prefix: str) -> dict:
    """Each key of `table` (path `prefix` + key) read from the mapping `raw` at `path`."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(path, f"unknown key(s) {sorted(map(str, unknown))}; "
                          f"allowed: {sorted(table)}")
    return {name: _value(raw.get(name, key.default), prefix + name, key)
            for name, key in table.items()}


# Keys that mean the same thing in several sections share one entry.
_Z = Key("length", 0.0, "[0, inf)")  # an axial position along the link
_FAMILY = Key("text", "BG", choices=("BG", "LG"))
_MU = Key("number", 1e-3, "[0, inf)")
_Q_MU = Key("number", 1e-4, "(0, 1]")
_DELTA = Key("number", None, "[0, 1)")

_OBSTACLE = {
    "radius": Key("length", bounds="(0, inf)"),
    "center": Key("list", (0.0, 0.0), "[2, 2]", item=Key("length")),
    "z": _Z,
}
_DIRECT = {
    "name": Key("text"),
    "family": _FAMILY,
    "qber": Key("number", bounds="[0, 1]"),
    "delta": replace(_DELTA, default=0.0),
    "q_mu": _Q_MU,
    "mu": replace(_MU, default=None),
}
SCHEMA = {
    "schema_version": Key("integer", bounds=f"[{SCHEMA_VERSION}, {SCHEMA_VERSION}]"),
    "grid": Key("mapping", {}, item={
        "n": Key("integer", 1024, "[64, 4096]"),
        "extent": Key("length", 10e-3, "(0, inf)"),
    }),
    "source": Key("mapping", {}, item={
        "family": _FAMILY,
        "ell": Key("integer", 1),
        "k_r": Key("wave number", None, "[0, inf)"),  # unset: 18 rad/mm for BG, 0 for LG
        "w0": Key("length", 1.253e-3, "(0, inf)"),
        "wavelength": Key("length", 810e-9, "(0, inf)"),
    }),
    "spdc": Key("mapping", {}, item={
        "pump_waist": Key("length", None, "(0, inf)"),  # unset: the source w0
        "mu": _MU,
        "q_mu": _Q_MU,
        "delta": _DELTA,
    }),
    "scenarios": Key("list", (), item=Key("mapping", item={
        "name": Key("text"),
        "channel": Key("mapping", item={
            "length": Key("length", bounds="[0, inf)"),
            "station_z": _Z,
            "obstacles": Key("list", (), item=Key("mapping", item=_OBSTACLE)),
        }),
    })),
    "detection": Key("mapping", {}, item={
        "smf_waist": Key("length", 0.45e-3, "(0, inf)"),
        "noise_floor": Key("number", 0.0, "[0, 1]"),
    }),
    "security": Key("mapping", {}, item={
        "dimension": Key("integer", 4, "[2, inf)"),
        "f_ec": Key("number", 1.2, "[1, inf)"),
        "variant": Key("text", "table_consistent", choices=("table_consistent", "as_printed")),
        "direct": Key("list", (), item=Key("mapping", item=_DIRECT)),
    }),
    "run": Key("mapping", {}, item={
        "seed": Key("integer", 20180810, "[0, inf)"),
        "events": Key("number", 1e6, "[0, inf)"),
        "outputs": Key("list", ("json", "csv"), item=Key("text", choices=("json", "csv", "pgm"))),
        "pgm_stations": Key("list", (), item=_Z),
        "guard": Key("text", "warn", choices=("warn", "strict")),
    }),
    "selfheal": Key("mapping", None, item={
        "label": Key("text", "psi00", choices=LABELS),
        "obstacle": Key("mapping", item=_OBSTACLE),
        "z_stations": Key("list", bounds="[1, inf)", item=_Z),
    }),
}


@dataclass(frozen=True)
class SecuritySettings:
    dimension: int
    f_ec: float
    variant: str


@dataclass(frozen=True)
class RunSettings:
    seed: int
    events: float
    outputs: tuple[str, ...]
    pgm_stations: tuple[float, ...]
    guard: str  # strict turns guard warnings into exit 3


@dataclass(frozen=True)
class SpdcSettings:
    pump_waist: float
    mu: float
    q_mu: float
    delta: Optional[float]  # direct multi-photon fraction entry


@dataclass(frozen=True)
class ScenarioDef:
    name: str
    channel: ChannelSpec


@dataclass(frozen=True)
class SelfhealSettings:
    label: str
    obstacle: ObstacleSpec
    z_stations: tuple[float, ...]


@dataclass(frozen=True)
class DirectSecurityEntry:
    name: str
    family: str
    qber: float
    delta: float
    q_mu: float
    mu: Optional[float]


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


def _build(cls, path: str, **fields):
    """`cls(**fields)`, its ValueError reported as a ConfigError at `path`."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _obstacle(fields: dict, path: str, grid: TransverseGrid) -> ObstacleSpec:
    obstacle = _build(ObstacleSpec, path, **fields)
    if obstacle.radius + math.hypot(*obstacle.center) >= grid.extent / 2.0:
        raise ConfigError(path, f"obstacle (R={obstacle.radius}) does not fit inside "
                          "the grid half-extent")
    return obstacle


def _channel(fields: dict, path: str, grid: TransverseGrid) -> ChannelSpec:
    obstacles = tuple(_obstacle(o, f"{path}.obstacles[{i}]", grid)
                      for i, o in enumerate(fields.pop("obstacles")))
    return _build(ChannelSpec, path, obstacles=obstacles, **fields)


def parse_config(doc: Any, *, source_name: str = "config") -> RunConfig:
    d = _read(doc, source_name, SCHEMA, "")
    grid = _build(TransverseGrid, "grid", **d["grid"])

    source = d["source"]
    if source["k_r"] is None:
        source["k_r"] = 18e3 if source["family"] == "BG" else 0.0
    if source["family"] == "LG" and source["k_r"] != 0.0:
        raise ConfigError("source.k_r", "LG sources take k_r = 0")
    source = _build(ModeSpec, "source", **dict(source, family=ModeFamily(source["family"])))
    spdc = d["spdc"]
    if spdc["pump_waist"] is None:
        spdc["pump_waist"] = source.w0
    detection = _build(DetectionModel, "detection", **d["detection"])
    direct = tuple(DirectSecurityEntry(**e) for e in d["security"].pop("direct"))

    scenarios: list[ScenarioDef] = []
    for i, entry in enumerate(d["scenarios"]):
        name = entry["name"]
        if any(s.name == name for s in scenarios):
            raise ConfigError(f"scenarios[{i}].name", f"duplicate scenario name {name!r}")
        scenarios.append(ScenarioDef(name, _channel(entry["channel"], f"scenarios[{i}].channel",
                                                    grid)))

    selfheal = d["selfheal"]
    if selfheal is not None:
        obstacle = _obstacle(selfheal["obstacle"], "selfheal.obstacle", grid)
        for i, z in enumerate(selfheal["z_stations"]):
            if z < obstacle.z:
                raise ConfigError(f"selfheal.z_stations[{i}]",
                                  f"station {z} lies before the obstacle at {obstacle.z}")
        selfheal = SelfhealSettings(label=selfheal["label"],
                                    obstacle=obstacle, z_stations=selfheal["z_stations"])
    return RunConfig(
        grid=grid, source=source, spdc=SpdcSettings(**spdc), detection=detection,
        security=SecuritySettings(**d["security"]), run=RunSettings(**d["run"]),
        scenarios=tuple(scenarios), selfheal=selfheal, security_direct=direct,
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
    """The built-in preset `name`, one of preset_names(); paths are refused."""
    normalized, names = name.strip().lower(), preset_names()
    if normalized not in names:
        raise ConfigError("preset", f"unknown preset {name!r}; available: {names}")
    target = resources.files("bgqkd") / "presets" / f"{normalized}.yaml"
    doc = yaml.safe_load(target.read_text())
    return parse_config(doc, source_name=f"preset:{normalized}")
