"""In-memory span tracer that wraps bgqkd's public functions from outside.

The program carries no instrumentation: `Tracer.install` replaces every
public function of the traced modules (and the ScalarField constructor
hook) with a timing wrapper, in every bgqkd module namespace that bound the
original by name, and `restore` puts the originals back. Spans stay in
memory; `layer_metrics` reduces them to the benchmark's per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass, field

MODULES = ("config", "modes", "jones", "propagation", "fields", "channel",
           "analysis", "security", "selfheal", "io", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    thread: int = 0
    parent: int | None = None
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mode_key(args, kwargs):
    spec, grid = args[0], args[1]
    return (spec, grid, args[2] if len(args) > 2 else kwargs.get("z", 0.0))


def _transport_note(args, kwargs):
    f, dz = args[0], args[2] if len(args) > 2 else kwargs["dz"]
    return f.grid.n if dz > 0 else 0


# Extra data recorded with a span, by span name.
NOTES = {
    "modes.evaluate_bg": _mode_key,
    "modes.evaluate_lg": _mode_key,
    "propagation.propagate_scalar": _transport_note,
    "fields.ScalarField": lambda args, kwargs: args[0].grid.n,
}


@dataclass
class Tracer:
    """Collects spans from every thread; safe to use from a thread pool."""

    spans: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, 0.0, thread=threading.get_ident(),
                        parent=stack[-1] if stack else None,
                        note=note(args, kwargs) if note else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped_by_tracer__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES and rebind them everywhere."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "bgqkd" or n.startswith("bgqkd."))]
        for short in MODULES:
            module = sys.modules[f"bgqkd.{short}"]
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapper)
        fields = sys.modules["bgqkd.fields"]
        hook = fields.ScalarField.__post_init__
        self._patch(fields.ScalarField, "__post_init__", self.wrap("fields.ScalarField", hook))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.duration - c
        return out


def _fft_gflop(n: int) -> float:
    # one transport is a forward and an inverse 2-D FFT of n^2 points,
    # 5 N log2 N flops each (the usual radix-2 count)
    points = n * n
    return 2 * 5 * points * math.log2(points) / 1e9


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The benchmark's per-layer figures from one traced workload run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return math.fsum(s.duration for n in names for s in by_name.get(n, ()))

    evaluations = by_name.get("modes.evaluate_bg", []) + by_name.get("modes.evaluate_lg", [])
    transports = [s.note for s in by_name.get("propagation.propagate_scalar", []) if s.note]
    scalar_fields = [s.note for s in by_name.get("fields.ScalarField", [])]
    scattering = by_name.get("channel.scattering_matrix", [])
    wall = (max(s.end for s in scattering) - min(s.start for s in scattering)
            if scattering else 0.0)
    return {
        "config.load_s": total("config.load_config"),
        "modes.evaluate_calls": len(evaluations),
        "modes.evaluate_distinct": len({s.note for s in evaluations}),
        "modes.evaluate_s": total("modes.evaluate_bg", "modes.evaluate_lg"),
        "modes.hologram_calls": calls("modes.binary_bessel_hologram"),
        "modes.hologram_s": total("modes.binary_bessel_hologram"),
        "jones.prepare_calls": calls("jones.prepare_state"),
        "jones.prepare_s": total("jones.prepare_state"),
        "propagation.scalar_transports": len(transports),
        "propagation.transport_s": total("propagation.propagate_scalar"),
        "propagation.fft_gflop": math.fsum(_fft_gflop(n) for n in transports),
        "propagation.station_transports": calls("propagation.transmit_to_station"),
        "propagation.obstacle_s": total("propagation.apply_obstacle"),
        "fields.scalar_fields": len(scalar_fields),
        "fields.copied_mb": math.fsum(n * n * 16 for n in scalar_fields) / 1e6,
        "fields.inner_product_calls": calls("fields.inner_product"),
        "fields.inner_product_s": total("fields.inner_product"),
        "channel.detection_builds": calls("channel.detection_states"),
        "channel.detection_s": total("channel.detection_states"),
        "channel.scattering_calls": len(scattering),
        "channel.scattering_s": total("channel.scattering_matrix"),
        "channel.scattering_concurrency": (total("channel.scattering_matrix") / wall
                                           if wall > 0 else 0.0),
        "channel.spdc_overlap_calls": calls("channel.spdc_overlap"),
        "channel.spdc_overlap_s": total("channel.spdc_overlap"),
        "channel.counts_s": total("channel.simulate_counts"),
        "analysis.guard_s": total("analysis.boundary_power_fraction"),
        "security.report_s": total("security.security_report"),
        "selfheal.fidelity_calls": calls("selfheal.self_healing_fidelity"),
        "selfheal.scan_s": total("selfheal.selfheal_scan"),
    }
