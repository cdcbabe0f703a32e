"""Tests of the benchmark's own parts: the oracles, the tracer, and the
thread-count invariance the security-lg-t2 workload relies on.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from tracer import MODULES, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
W0, WP = 1.253e-3, 1.0e-3


# ---------------------------------------------------------------------------
# oracles

@pytest.mark.parametrize("a, b, p", [
    (1e3, 2e3, 1e7),                          # barely oscillating
    (10e3, 12e3, 2 / W0 ** 2 + 1 / WP ** 2),  # as in the SPDC scan
])
def test_weber_matches_quadrature(a, b, p):
    assert oracles.weber(a, b, p) == pytest.approx(oracles.weber_by_quadrature(a, b, p),
                                                   rel=1e-8)


def test_spdc_amplitude_peaks_at_equal_k():
    ks = [10e3 + 800.0 * i for i in range(21)]
    for i, a in enumerate(ks):
        row = [oracles.spdc_amplitude(a, b, W0, WP) for b in ks]
        assert int(np.argmax(row)) == i
        assert row[i] == pytest.approx(oracles.spdc_amplitude(ks[i], a, W0, WP), rel=1e-15)


def test_lg_blocked_power_matches_closed_form():
    r = 600e-6
    inside, total = oracles.heralded_power_inside(r, 0.0, W0)
    assert inside / total == pytest.approx(1 - math.exp(-2 * r ** 2 / W0 ** 2), rel=1e-10)
    assert total == pytest.approx(math.pi * W0 ** 2 / 2, rel=1e-10)


def test_bg_total_power_matches_weber():
    _, total = oracles.heralded_power_inside(600e-6, 18e3, W0)
    assert total == pytest.approx(2 * math.pi * oracles.weber(18e3, 18e3, 2 / W0 ** 2),
                                  rel=1e-9)


def test_mutual_information_reference_values():
    # I_AB at the reference error rates, d = 4, to the two printed digits
    for e, bits in [(0.04, 1.69), (0.05, 1.63), (0.15, 1.15), (0.51, 0.19)]:
        assert round(oracles.mutual_information(e, 4), 2) == bits
    assert oracles.hd_entropy(0.75, 4) == pytest.approx(2.0, abs=1e-15)
    assert oracles.hd_entropy(0.0, 4) == 0.0


def test_key_rates_without_multiphoton_or_errors():
    printed, consistent = oracles.key_rates(0.0, 0.0, 4, 1.2)
    assert (printed, consistent) == (1.0, 2.0)


def test_multiphoton_fraction_series():
    mu = 1e-3
    series = mu ** 2 / 2 - mu ** 3 / 3 + mu ** 4 / 8
    assert oracles.multiphoton_fraction(mu, 1.0) == pytest.approx(series, rel=1e-9)
    direct = 1 - math.exp(-0.5) - 0.5 * math.exp(-0.5)
    assert oracles.multiphoton_fraction(0.5, 0.25) == pytest.approx(direct / 0.25, rel=1e-14)


def test_noise_floor_identity_round_trip():
    f, signals = 4e-4, [0.1, 0.02, 0.005]
    e = [3 * f / (s + 4 * f) for s in signals]
    nc = [(s + f) / (signals[0] + f) for s in signals]
    assert oracles.noise_floor_qbers(e[0], nc[1:], f) == pytest.approx(e[1:], rel=1e-12)


def test_counts_qber():
    counts = np.full((8, 8), 10, dtype=np.int64)
    np.fill_diagonal(counts, 970)
    e, sigma = oracles.counts_qber(counts)
    assert e == pytest.approx(0.03)
    assert sigma == pytest.approx(math.sqrt(8 * 0.97 * 0.03 / 1000) / 8)


# ---------------------------------------------------------------------------
# tracer and thread-count invariance

def _small_config(tmp_path, preset, n=128):
    cfg = yaml.safe_load((ROOT / "src/bgqkd/presets" / f"{preset}.yaml").read_text())
    cfg["grid"]["n"] = n
    path = tmp_path / f"{preset}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _run(tmp_path, tag, argv):
    from bgqkd import cli

    out = tmp_path / tag
    assert cli.main(argv + ["--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _bindings(originals):
    import sys

    return [(ns, attr) for name, ns in sys.modules.items()
            if name == "bgqkd" or name.startswith("bgqkd.")
            for attr, value in vars(ns).items() if any(value is o for o in originals)]


def test_tracer_patches_every_binding_and_restores():
    import inspect
    import sys

    import bgqkd.cli  # noqa: F401
    from bgqkd.fields import ScalarField

    originals = [obj for short in MODULES
                 for name, obj in vars(sys.modules[f"bgqkd.{short}"]).items()
                 if inspect.isfunction(obj) and not name.startswith("_")
                 and obj.__module__ == f"bgqkd.{short}"]
    bindings = _bindings(originals)
    before = {(id(ns), attr): vars(ns)[attr] for ns, attr in bindings}
    hook = ScalarField.__post_init__
    assert len(bindings) > len(originals)  # re-exports and cross-module imports

    tracer = Tracer()
    tracer.install()
    try:
        for ns, attr in bindings:
            value = vars(ns)[attr]
            assert value is not before[(id(ns), attr)]
            assert value.__wrapped_by_tracer__ is before[(id(ns), attr)]
        assert ScalarField.__post_init__.__wrapped_by_tracer__ is hook
    finally:
        tracer.restore()
    assert all(vars(ns)[attr] is before[(id(ns), attr)] for ns, attr in bindings)
    assert ScalarField.__post_init__ is hook


def test_traced_outputs_equal_untraced(tmp_path):
    config = _small_config(tmp_path, "paper-bg")
    argv = ["security", "--config", str(config), "--seed", "5"]
    plain = _run(tmp_path, "plain", argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(tmp_path, "traced", argv)
    finally:
        tracer.restore()
    assert traced == plain
    m = layer_metrics(tracer.spans)
    assert m["channel.scattering_calls"] == 3
    assert m["modes.hologram_calls"] == 3
    assert m["channel.detection_builds"] == 3
    assert all(s.end >= s.start for s in tracer.spans)
    self_s = tracer.self_times()
    assert 0 < self_s["channel.scattering_matrix"] < m["channel.scattering_s"]


def test_layer_metrics_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == [*layer_metrics([]), "trace.overhead_s"]


def test_lg_two_threads_equal_one_thread(tmp_path):
    config = _small_config(tmp_path, "paper-lg")
    argv = ["security", "--config", str(config), "--seed", "7"]
    serial = _run(tmp_path, "t1", argv + ["--threads", "1"])
    tracer = Tracer()
    tracer.install()
    try:
        threaded = _run(tmp_path, "t2", argv + ["--threads", "2"])
    finally:
        tracer.restore()
    assert threaded == serial
    workers = {s.thread for s in tracer.spans if s.name == "channel.scattering_matrix"}
    assert threading.get_ident() not in workers  # spans came from the pool threads
