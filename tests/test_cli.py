import json
from pathlib import Path

import pytest
import yaml

import bgqkd
from bgqkd.cli import main

TINY = {
    "schema_version": 1,
    "grid": {"n": 128, "extent": "8mm"},
    "source": {"family": "LG", "ell": 1, "w0": "0.8mm", "wavelength": "810nm"},
    "detection": {"smf_waist": "0.5mm", "noise_floor": 1.0e-4},
    "run": {"seed": 11, "events": 1.0e5, "outputs": ["json", "csv"]},
    "scenarios": [
        {"name": "free-space",
         "channel": {"length": "0.05m", "station_z": "0.01m", "obstacles": []}},
        {"name": "blocked",
         "channel": {"length": "0.05m", "station_z": "0.01m",
                     "obstacles": [{"radius": "0.5mm", "z": "0.01m"}]}},
    ],
}

# a coarse grid makes the ringy BG states trip the band-limit guard
STRICT_COARSE = {
    "schema_version": 1,
    "grid": {"n": 128, "extent": "10mm"},
    "source": {"family": "BG", "ell": 1, "k_r": "18 rad/mm",
               "w0": "1.253mm", "wavelength": "810nm"},
    "detection": {"smf_waist": "0.45mm"},
    "run": {"seed": 3, "guard": "strict"},
    "scenarios": [
        {"name": "free-space",
         "channel": {"length": "0.05m", "station_z": "0.01m"}},
    ],
}

# values that reached a traceback or ran on instead of ending in exit 2, each
# refused before the output directory is made:
# (command, section patched into TINY, field path the error must name)
REJECTED = [
    pytest.param("security", "security: {direct: [{name: a, qber: 0.05, delta: 2}]}",
                 "security.direct[0].delta", id="direct-delta-above-1"),
    pytest.param("security", "security: {direct: [{name: a, qber: 0.05, q_mu: 5}]}",
                 "security.direct[0].q_mu", id="direct-q_mu-above-1"),
    pytest.param("security", "security: {direct: [{name: a, qber: 0.05, family: XX}]}",
                 "security.direct[0].family", id="direct-family-unknown"),
    pytest.param("security", "security: {direct: 5}", "security.direct", id="direct-not-a-list"),
    pytest.param("security", "security: {direct: [{name: a, qber: 0.05}]}", "security.direct",
                 id="direct-beside-scenarios"),
    pytest.param("security", "scenarios: []", "scenarios", id="neither-scenarios-nor-direct"),
    # qber / (1 - delta) = 1.125 leaves the key rate no bound
    pytest.param("security", "{scenarios: [], security: {direct: [{name: a, qber: 0.05}, "
                             "{name: b, qber: 0.9, delta: 0.2}]}}",
                 "security.direct[1]", id="direct-qber-over-1-minus-delta"),
    # at q_mu = 1e-4, mu = 0.02 makes (1 - p0 - p1) / q_mu about 2: Delta clamps to 1
    pytest.param("security", "spdc: {mu: 0.02}", "spdc.mu", id="mu-multiphoton-fraction-1"),
    pytest.param("scattering", "run: {pgm_stations: 0.3}", "run.pgm_stations",
                 id="pgm-stations-not-a-list"),
    pytest.param("scattering", "run: {outputs: [pgm], pgm_stations: [-0.1]}",
                 "run.pgm_stations[0]", id="pgm-station-negative"),
    pytest.param("security", "spdc: {pump_waist: 0}", "spdc.pump_waist", id="pump-waist-zero"),
    pytest.param("security", "spdc: {pump_waist: -1mm}", "spdc.pump_waist",
                 id="pump-waist-negative"),
    pytest.param("scattering", "detection: {smf_waist: 0}", "detection.smf_waist",
                 id="smf-waist-zero"),
    pytest.param("selfheal-scan", "selfheal: {obstacle: {radius: 6mm}, z_stations: [0.1]}",
                 "selfheal.obstacle", id="selfheal-obstacle-outside-grid"),
    pytest.param("scattering", f"grid: {{n: {2 ** 24}}}", "grid.n", id="grid-n-too-large"),
    pytest.param("scattering", "detection: {noise_floor: 2.0}",
                 "detection.noise_floor", id="noise-floor-above-1"),
    # the receiver is the hologram and fiber cascade, with no mode to choose
    pytest.param("scattering", "detection: {mode: ideal}", "detection", id="mode-ideal"),
    pytest.param("scattering", "detection: {mode: cascade}", "detection", id="mode-cascade"),
    # 2 pi / 810 nm is 7757 rad/mm: a BG cone at or beyond it does not propagate
    *(pytest.param(command, "source: {family: BG, ell: 1, k_r: 8000 rad/mm, w0: 1mm, "
                            "wavelength: 810nm}", "source", id=f"{command}-k_r-above-wave-number")
      for command in ("security", "info")),
]


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestInfo:
    def test_preset_info(self, capsys):
        assert main(["info", "--preset", "paper-bg"]) == 0
        out = capsys.readouterr().out
        assert "z_max" in out
        assert "z_min" in out
        # each state's wave plates around the q = ell/2 plate, first applied first
        assert [line for line in out.splitlines() if line.startswith("state ")] == [
            "state psi00: H polarizer, HWP 0.0 deg, q-plate q=0.5",
            "state psi01: H polarizer, HWP 45.0 deg, q-plate q=0.5",
            "state psi10: H polarizer, HWP 0.0 deg, q-plate q=0.5, HWP 0.0 deg",
            "state psi11: H polarizer, HWP 45.0 deg, q-plate q=0.5, HWP 0.0 deg",
            "state phi00: H polarizer, QWP 45.0 deg, q-plate q=0.5, QWP 90.0 deg",
            "state phi01: H polarizer, QWP -45.0 deg, q-plate q=0.5, QWP 0.0 deg",
            "state phi10: H polarizer, QWP 45.0 deg, q-plate q=0.5, QWP 0.0 deg",
            "state phi11: H polarizer, QWP -45.0 deg, q-plate q=0.5, QWP 90.0 deg",
        ]

    def test_sampling_figures(self, capsys):
        # N dx^2 / lambda = 1024 (10 mm / 1024)^2 / 810 nm = 0.1206 m against
        # the 0.02 m station leg and the 0.30 m decoding leg
        assert main(["info", "--preset", "paper-bg"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "kernel sampling limit N dx^2/lambda: 0.1206 m" in lines
        # one (2, 1024, 1024) complex128 pair; the kernel is evaluated once
        # per distinct |k_t|^2, about n^2/10 values at n = 1024
        assert ("field pair (2, n, n) complex: 33,554,432 bytes; kernel evaluated on "
                "106,395 distinct |k_t|^2 of 1,048,576") in lines
        sampling = [line for line in lines if line.startswith("  sampling: ")]
        assert sampling == ["  sampling: station leg 0.166, decoding leg 2.488 x N dx^2/lambda"] * 3
        # k R dx / z for the 600 um disk at z = 0: 0.88 rad at the first station
        assert main(["info", "--preset", "paper-selfheal-bg"]) == 0
        lines = capsys.readouterr().out.splitlines()
        stations = [line for line in lines if line.startswith("selfheal station ")]
        assert len(stations) == 5
        assert stations[0] == ("selfheal station z=0.0517 m: edge phase per pixel "
                               "k R dx / z = 0.879 rad")
        assert not any(line.startswith("  sampling: ") for line in lines)

    def test_requires_exactly_one_source(self, capsys):
        assert main(["info"]) == 2
        assert main(["info", "--preset", "paper-bg", "--config", "x.yaml"]) == 2


class TestConfigErrors:
    def test_malformed_value_names_field(self, tmp_path, capsys):
        doc = dict(TINY)
        doc["source"] = dict(TINY["source"], wavelength="810qm")
        rc = main(["scattering", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "source.wavelength" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = dict(TINY)
        doc["speling"] = {}
        rc = main(["scattering", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_empty_scenarios_exit_2(self, tmp_path, capsys):
        doc = dict(TINY)
        doc = {k: v for k, v in doc.items() if k != "scenarios"}
        rc = main(["scattering", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        rc = main(["security", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("command,patch,path", REJECTED)
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, command, patch, path):
        doc = dict(TINY, **yaml.safe_load(patch))
        rc = main([command, "--config", write_config(tmp_path, doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"config error at {path}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--preset", "paper-bg", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command,preset", [
        ("security", "paper-bg"), ("security", "paper-table3"),
        ("selfheal-scan", "paper-selfheal-bg"), ("scattering", "paper-bg")])
    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, command, preset):
        # run.seed lies in [0, inf); the flag that overrides it is held to the same bound
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", preset, "--seed", "-1", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_preset_path_refused_before_any_work(self, tmp_path, capsys):
        # --preset takes a name that preset_names() lists, not a path to a file
        rc = main(["security", "--preset", "../presets/paper-bg",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error at preset: unknown preset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_channel_shorthand_is_an_unknown_key(self, tmp_path, capsys):
        # a link is written as a scenarios entry; there is no second spelling
        doc = dict(TINY, channel={"length": "0.05m", "station_z": "0.01m"})
        rc = main(["scattering", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown key(s) ['channel']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_selfheal_without_section(self, tmp_path):
        rc = main(["selfheal-scan", "--config", write_config(tmp_path, TINY),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2


class TestScattering:
    def test_runs_beside_direct_security_entries(self, tmp_path):
        # the matrices read neither the direct entries nor Delta, which mu =
        # 0.02 takes to 1 and security refuses
        doc = dict(TINY, security={"direct": [{"name": "a", "qber": 0.05}]}, spdc={"mu": 0.02})
        out = tmp_path / "out"
        rc = main(["scattering", "--config", write_config(tmp_path, doc), "--out-dir", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("*_matrix.json")) == [
            "blocked_lg_matrix.json", "free-space_lg_matrix.json"]

    def test_writes_matrices(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["scattering", "--config", write_config(tmp_path, TINY),
                   "--out-dir", str(out)])
        assert rc == 0
        for scenario in ("free-space", "blocked"):
            assert (out / f"{scenario}_lg_matrix.json").is_file()
            assert (out / f"{scenario}_lg_matrix.csv").is_file()
            assert (out / f"{scenario}_lg_matrix_normalized.csv").is_file()
        data = json.loads((out / "free-space_lg_matrix.json").read_text())
        assert data["labels"][0] == "psi00"
        diag = [data["row_normalized"][i][i] for i in range(8)]
        assert min(diag) > 0.9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scattering", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["scattering", "--config", cfg, "--out-dir", str(out2)]) == 0
        for name in ("free-space_lg_matrix.json", "blocked_lg_matrix.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_pgm_snapshots(self, tmp_path):
        doc = dict(TINY)
        doc["run"] = dict(TINY["run"], outputs=["json", "pgm"],
                          pgm_stations=["0.005m", "0.03m"])  # one pre-station
        doc["scenarios"] = [TINY["scenarios"][0]]
        out = tmp_path / "out"
        rc = main(["scattering", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(out)])
        assert rc == 0
        pgms = sorted(out.glob("*.pgm"))
        assert len(pgms) == 16  # 8 states x 2 stations
        assert pgms[0].read_bytes().startswith(b"P5\n")

    def test_snapshots_share_legs(self, tmp_path, fft_planes, cold_caches):
        # paper-bg's three scenarios at four stations: the snapshots reuse the
        # matrices' leg to the 0.02 m obstacle plane and take 7 more segments
        # (0.01, 0.1 and 0.32 m free; 0.1 and 0.32 m behind each disk), where
        # carrying the pair afresh to every station took 16 (32 forward planes).
        # The free legs from the source, 0.02 m included, run on its parity
        # quadrants (six DCT-Is and two DST-Is each) with no n x n transform
        doc = yaml.safe_load((Path(bgqkd.__file__).parent / "presets/paper-bg.yaml").read_text())
        doc["grid"]["n"] = 128
        doc["run"].update(outputs=["json", "pgm"], pgm_stations=["0.01m", "0.02m", "0.1m", "0.32m"])
        out = tmp_path / "out"
        assert main(["scattering", "--config", write_config(tmp_path, doc),
                     "--out-dir", str(out)]) == 0
        assert len(list(out.glob("*.pgm"))) == 3 * 4 * 8
        # two planes per segment behind a disk, and the detection scalar's
        # quadrant carried back by two DCT-Is each way per scenario
        assert fft_planes == {"fft2": 2 * 4, "ifft2": 2 * 4, "dct": 4 * 6 + 3 * 4, "dst": 4 * 2}

    def test_strict_guard_exit_3(self, tmp_path, capsys):
        rc = main(["scattering", "--config", write_config(tmp_path, STRICT_COARSE),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "guard: " in capsys.readouterr().err

    def test_guard_notes_equal_for_any_thread_count(self, tmp_path):
        # the guard notes are computed, not captured from the process-wide
        # warnings machinery, so pool threads cannot lose or swap them
        doc = {
            "schema_version": 1,
            "grid": {"n": 128, "extent": "10mm"},
            "source": {"family": "BG", "ell": 1, "k_r": "18 rad/mm",
                       "w0": "1.253mm", "wavelength": "810nm"},
            "detection": {"smf_waist": "0.45mm"},
            "scenarios": [dict(TINY["scenarios"][i]) for i in range(2)],
        }
        cfg = write_config(tmp_path, doc)
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"t{threads}")
            assert main(["scattering", "--config", cfg, "--threads", threads,
                         "--out-dir", str(outs[-1])]) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        notes = json.loads((outs[0] / "free-space_bg_matrix.json").read_text())["warnings"]
        assert notes


class TestSecurity:
    def test_strict_guard_exit_3_names_the_violations(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["security", "--config", write_config(tmp_path, STRICT_COARSE),
                   "--out-dir", str(out)])
        assert rc == 3
        guard = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("guard: ")]
        notes = json.loads((out / "security_reports.json").read_text())[0]["notes"]
        assert guard and guard == [f"guard: {n}" for n in notes]

    def test_simulated_reports(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["security", "--config", write_config(tmp_path, TINY),
                   "--out-dir", str(out)])
        assert rc == 0
        reports = json.loads((out / "security_reports.json").read_text())
        assert len(reports) == 2
        by_name = {r["scenario"]: r for r in reports}
        assert by_name["free-space"]["normalized_counts"] == pytest.approx(1.0)
        assert by_name["blocked"]["normalized_counts"] < 0.9
        assert (out / "security_summary.txt").is_file()
        assert (out / "free-space_lg_counts.csv").is_file()

    def test_unbounded_key_rate_reported_without_rate(self, tmp_path, capsys):
        # delta = 0.999 takes e / (1 - delta) of the blocked link above 1; that
        # scenario gets a report without a key rate, and the run still writes
        # every file and exits 0
        out = tmp_path / "out"
        doc = dict(TINY, spdc={"delta": 0.999})
        rc = main(["security", "--config", write_config(tmp_path, doc), "--out-dir", str(out)])
        assert rc == 0
        by_name = {r["scenario"]: r
                   for r in json.loads((out / "security_reports.json").read_text())}
        assert by_name["free-space"]["key_rate"] is not None
        blocked = by_name["blocked"]
        assert blocked["key_rate"] is None
        assert any(n.startswith("e/(1-delta) = ") and n.endswith("exceeds 1; key rate unavailable")
                   for n in blocked["notes"])
        assert sorted(p.name for p in out.iterdir()) == [
            "blocked_lg_counts.csv", "free-space_lg_counts.csv", "security_reports.json",
            "security_summary.txt"]
        summary = (out / "security_summary.txt").read_text()
        assert summary in capsys.readouterr().out
        # the R/Q_mu rows, columns free-space then blocked
        rates = [line.split()[-2:] for line in summary.splitlines()
                 if line.split()[:1] == ["R/Q_mu"]]
        assert len(rates) == 2 and all(r[0] != "-" and r[1] == "-" for r in rates)

    @pytest.mark.parametrize("events", [0, 1.0e-3])
    def test_no_sifted_counts_leaves_sigma_unset(self, tmp_path, events):
        doc = dict(TINY, grid=dict(TINY["grid"], n=64), run=dict(TINY["run"], events=events))
        out = tmp_path / "out"
        rc = main(["security", "--config", write_config(tmp_path, doc), "--out-dir", str(out)])
        assert rc == 0
        reports = json.loads((out / "security_reports.json").read_text())
        assert len(reports) == 2
        for r in reports:
            assert r["qber_sigma"] is None
            assert "no sifted counts; QBER uncertainty unavailable" in r["notes"]

    def test_seed_override_changes_counts(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["security", "--config", cfg, "--out-dir", str(out1)])
        main(["security", "--config", cfg, "--out-dir", str(out2), "--seed", "99"])
        a = (out1 / "free-space_lg_counts.csv").read_text()
        b = (out2 / "free-space_lg_counts.csv").read_text()
        assert a != b

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["security", "--config", cfg, "--out-dir", str(out1)])
        main(["security", "--config", cfg, "--out-dir", str(out2)])
        assert ((out1 / "security_reports.json").read_bytes()
                == (out2 / "security_reports.json").read_bytes())

    def test_direct_preset(self, tmp_path, capsys):
        out = tmp_path / "t3"
        rc = main(["security", "--preset", "paper-table3", "--out-dir", str(out)])
        assert rc == 0
        reports = json.loads((out / "security_reports.json").read_text())
        assert len(reports) == 6
        bg_free = next(r for r in reports
                       if r["family"] == "BG" and r["scenario"] == "free-space")
        assert bg_free["mutual_information_bits"] == pytest.approx(1.69, abs=0.01)
        assert bg_free["key_rate"]["per_signal"] == pytest.approx(1.32, abs=0.02)

    def test_direct_and_simulated_reports_share_schema(self, tmp_path):
        sim, direct = tmp_path / "sim", tmp_path / "direct"
        assert main(["security", "--config", write_config(tmp_path, TINY),
                     "--out-dir", str(sim)]) == 0
        assert main(["security", "--preset", "paper-table3", "--out-dir", str(direct)]) == 0
        keys = {frozenset(r) for out in (sim, direct)
                for r in json.loads((out / "security_reports.json").read_text())}
        assert len(keys) == 1


class TestSelfhealScan:
    def test_scan_outputs_both_families(self, tmp_path):
        doc = {
            "schema_version": 1,
            "grid": {"n": 128, "extent": "8mm"},
            "source": {"family": "BG", "ell": 1, "k_r": "18 rad/mm",
                       "w0": "0.8mm", "wavelength": "810nm"},
            "detection": {"smf_waist": "0.5mm"},
            "selfheal": {
                "label": "psi00",
                "obstacle": {"radius": "0.4mm", "z": "0m"},
                "z_stations": ["0.05m", "0.15m"],
            },
        }
        out = tmp_path / "out"
        rc = main(["selfheal-scan", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "selfheal_scan.csv").read_text().strip().splitlines()
        assert lines[0].startswith("family,z,fidelity")
        families = {ln.split(",")[0] for ln in lines[1:]}
        assert families == {"BG", "LG"}
        assert len(lines) == 1 + 2 * 2

    def test_zero_leg_on_axis_ratio_is_nan(self, tmp_path):
        doc = {
            "schema_version": 1,
            "grid": {"n": 128, "extent": "8mm"},
            "source": {"family": "LG", "ell": 2, "w0": "0.8mm", "wavelength": "810nm"},
            "selfheal": {
                "label": "psi00",
                "obstacle": {"radius": "0.4mm", "z": "0m"},
                "z_stations": ["0m", "0.15m"],
            },
        }
        out = tmp_path / "out"
        rc = main(["selfheal-scan", "--config", write_config(tmp_path, doc),
                   "--out-dir", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in
                (out / "selfheal_scan.csv").read_text().strip().splitlines()[1:]]
        assert rows[0][4] == "nan" and rows[1][4] != "nan"
