import copy

import pytest
import yaml

from bgqkd import ConfigError
from bgqkd.config import load_preset, parse_config, preset_names
from conftest import field_path, schema_leaves


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "grid": {"n": 64, "extent": "10mm"},
        "source": {"family": "LG", "ell": 1, "w0": "1mm", "wavelength": "810nm"},
        "channel": {"length": "0.05m", "station_z": "0.01m", "obstacles": []},
    }
    doc.update(overrides)
    return doc


# a non-finite length or wave number, by the field path it is reported at
NON_FINITE = [
    ("grid.extent", "grid: {extent: .nan}"),
    ("channel.length", "channel: {length: nan cm}"),
    ("channel.station_z", "channel: {length: 0.05, station_z: inf mm}"),
    ("source.k_r", "source: {family: BG, k_r: -inf rad/mm}"),
    ("run.pgm_stations[0]", "run: {outputs: [pgm], pgm_stations: [.nan]}"),
    ("selfheal.z_stations[1]",
     "selfheal: {obstacle: {radius: 0.5mm}, z_stations: [0.1, .nan]}"),
    ("channel.obstacles[0].z",
     "channel: {length: 0.05, station_z: 0.01, obstacles: [{radius: 0.5mm, z: .nan}]}"),
    ("channel.obstacles[0].center[0]",
     "channel: {length: 0.05, obstacles: [{radius: 0.5mm, center: [.inf, 0]}]}"),
]


# a valid document with every section and one entry in every list, so that
# each key of the schema has a place to be set
FULL = yaml.safe_load("""
schema_version: 1
grid: {n: 64, extent: 10mm}
source: {family: BG, ell: 1, k_r: 18 rad/mm, w0: 1mm, wavelength: 810nm}
spdc: {pump_waist: 1mm, mu: 1.0e-3, q_mu: 1.0e-4, delta: 1.0e-3}
channel: {length: 0.05, station_z: 0.01, obstacles: [{radius: 0.5mm, center: [0, 0], z: 0.01}]}
scenarios:
  - {name: a, channel: {length: 0.05, station_z: 0.01,
                        obstacles: [{radius: 0.5mm, center: [0, 0], z: 0.01}]}}
detection: {smf_waist: 0.45mm, noise_floor: 1.0e-4}
security:
  dimension: 4
  f_ec: 1.2
  direct: [{name: a, family: BG, qber: 0.05, delta: 1.0e-3, q_mu: 1.0e-4, mu: 1.0e-3}]
run: {seed: 1, events: 1.0e+6, outputs: [json], pgm_stations: [0.02]}
selfheal: {obstacle: {radius: 0.5mm, center: [0, 0], z: 0.0}, z_stations: [0.1]}
""")
NUMERIC = [path for path, key in schema_leaves() if key.kind != "text"]


def parsed(section, key, value, **source):
    """`section.key` of the minimal document parsed with `key` set to value
    (and the `source` entries given)."""
    doc = minimal_doc()
    doc["source"].update(source)
    doc.setdefault(section, {})[key] = value
    return getattr(getattr(parse_config(doc), section), key)


class TestUnitParsing:
    @pytest.mark.parametrize("text,expected", [
        ("600um", 600e-6), ("600 um", 600e-6), ("0.3m", 0.3), ("810nm", 810e-9),
        ("1cm", 1e-2), ("1.253mm", 1.253e-3), ("2µm", 2e-6),
    ])
    def test_length_suffixes(self, text, expected):
        assert parsed("spdc", "pump_waist", text) == pytest.approx(expected, rel=1e-12)

    def test_plain_numbers_are_si(self):
        assert parsed("spdc", "pump_waist", 0.02) == 0.02
        assert parsed("spdc", "pump_waist", 3) == 3.0

    def test_bad_unit_names_field(self):
        with pytest.raises(ConfigError) as err:
            parsed("source", "wavelength", "810qm")
        assert err.value.path == "source.wavelength"

    def test_booleans_rejected(self):
        with pytest.raises(ConfigError) as err:
            parsed("spdc", "pump_waist", True)
        assert err.value.path == "spdc.pump_waist"

    def test_wavenumber(self):
        for value in ("18 rad/mm", "18000 rad/m"):
            assert parsed("source", "k_r", value, family="BG") == pytest.approx(18e3)
        assert parsed("source", "k_r", 18e3, family="BG") == 18e3
        with pytest.raises(ConfigError) as err:
            parsed("source", "k_r", "18 deg/mm", family="BG")
        assert err.value.path == "source.k_r"


class TestSchema:
    def test_minimal_document(self):
        cfg = parse_config(minimal_doc())
        assert cfg.grid.n == 64
        assert len(cfg.scenarios) == 1
        assert cfg.scenarios[0].channel.decoding_distance == pytest.approx(0.04)

    def test_version_required(self):
        doc = minimal_doc()
        del doc["schema_version"]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "schema_version" in err.value.path

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(surprise=1))
        assert "surprise" in err.value.message

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc()
        doc["grid"]["pitch"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == "grid"

    def test_lg_with_kr_rejected(self):
        doc = minimal_doc()
        doc["source"]["k_r"] = "18 rad/mm"
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == "source.k_r"

    def test_duplicate_scenario_names(self):
        doc = minimal_doc()
        doc["scenarios"] = [
            {"name": "a", "channel": {"length": 0.05}},
            {"name": "a", "channel": {"length": 0.05}},
        ]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "duplicate" in err.value.message

    @pytest.mark.parametrize("section", ["scenarios", "security"])
    def test_unquoted_boolean_name_rejected(self, section):
        doc = minimal_doc()
        entry = yaml.safe_load("name: off")  # YAML 1.1 reads a bare off as False
        if section == "scenarios":
            doc["scenarios"] = [dict(entry, channel={"length": 0.05})]
            path = "scenarios[0].name"
        else:
            doc["security"] = {"direct": [dict(entry, qber=0.05)]}
            path = "security.direct[0].name"
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == path
        assert "quote" in err.value.message

    def test_oversized_obstacle_rejected(self):
        doc = minimal_doc()
        doc["channel"]["obstacles"] = [{"radius": "6mm", "z": "0.01m"}]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_obstacle_past_station_rejected(self):
        doc = minimal_doc()
        doc["channel"]["obstacles"] = [{"radius": "0.5mm", "z": "0.02m"}]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_spdc_delta_bounds(self):
        doc = minimal_doc(spdc={"pump_waist": "1mm", "delta": 1.5})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == "spdc.delta"

    def test_selfheal_station_before_obstacle(self):
        doc = minimal_doc(selfheal={
            "label": "psi00",
            "obstacle": {"radius": "0.5mm", "z": "0.02m"},
            "z_stations": ["0.01m"],
        })
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize("label", ["psi02", "xyz00"])
    def test_selfheal_unknown_label_rejected(self, label):
        doc = minimal_doc(selfheal={
            "label": label,
            "obstacle": {"radius": "0.5mm", "z": "0.02m"},
            "z_stations": ["0.05m"],
        })
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == "selfheal.label"
        assert label in err.value.message

    def test_selfheal_label_case_made_canonical(self):
        doc = minimal_doc(selfheal={
            "label": " PHI11 ",
            "obstacle": {"radius": "0.5mm", "z": "0.02m"},
            "z_stations": ["0.05m"],
        })
        assert parse_config(doc).selfheal.label == "phi11"

    @pytest.mark.parametrize("path,patch", NON_FINITE, ids=[p for p, _ in NON_FINITE])
    def test_non_finite_values_rejected(self, path, patch):
        doc = minimal_doc(**yaml.safe_load(patch))
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == path
        assert "finite" in err.value.message

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("path", NUMERIC, ids=[field_path(p) for p in NUMERIC])
    def test_every_numeric_key_rejects_non_finite(self, path, value):
        parse_config(FULL)  # the document is valid before the change
        doc = copy.deepcopy(FULL)
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == field_path(path)

    def test_defaults_applied(self):
        cfg = parse_config(minimal_doc())
        assert cfg.security.dimension == 4
        assert cfg.security.f_ec == 1.2
        assert cfg.run.seed == 20180810
        assert cfg.detection.noise_floor == 0.0
        assert cfg.detection.smf_waist == 0.45e-3


class TestPresets:
    def test_all_presets_parse(self):
        names = preset_names()
        assert len(names) >= 10
        for name in names:
            cfg = load_preset(name)
            assert cfg.grid.n >= 64

    @pytest.mark.parametrize("name", preset_names())
    def test_pump_waist_is_the_source_waist(self, name):
        # the presets leave spdc.pump_waist to its default, the source w0
        cfg = load_preset(name)
        assert cfg.spdc.pump_waist == cfg.source.w0

    def test_lookup_case_insensitive(self):
        cfg = load_preset("Paper-R2-LG")
        assert cfg.source.family.value == "LG"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("paper-does-not-exist")

    def test_paper_geometry_inequalities(self):
        # the reproduction geometry must satisfy z_min(600um) < L < z_min(800um)
        from bgqkd import shadow_length
        cfg = load_preset("paper-bg")
        z1 = shadow_length(600e-6, cfg.source)
        z2 = shadow_length(800e-6, cfg.source)
        for s in cfg.scenarios:
            L = s.channel.decoding_distance
            assert z1 < L < z2
            assert s.channel.length < 0.54  # inside the non-diffracting range
