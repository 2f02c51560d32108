"""Tracing for the benchmark's traced run, applied from outside the program.

`patched` wraps the public csiwatch functions listed in TARGETS. It replaces the
module attribute and every `from ... import` alias of it in the loaded
csiwatch modules (so calls made inside `harness` and `cli` are seen too) and
restores all of them on exit. While a `Tracer` records, each wrapped call
adds a span (name, start, end, parent) and a few wrappers add work counters.
Counting runs in a span of its own, `tracing.count`, so it never inflates a
layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "csiwatch"

# Functions wrapped per module. Helpers that a layer calls in its inner loop
# (compute_stream_snr) stay unwrapped so their time is the layer's self time.
TARGETS = {
    "csi_sim": ("build_night_scenario", "generate_trace"),
    "traceio": (
        "write_trace", "read_trace", "write_labels", "read_labels",
        "write_events_csv", "write_report", "file_sha256",
    ),
    "preprocess": (
        "derive_streams", "resample_uniform", "hampel_filter", "select_streams",
        "pca_first_component", "calibrate", "extract_pipeline_stream",
    ),
    "detector": (
        "sliding_out_of_band_energy", "detect_event_intervals",
        "window_percentile_bandwidth", "build_event_profile", "classify_event",
        "run_detection",
    ),
    "metrics": ("compute_report",),
    "harness": (
        "simulate_from_config", "run_pipeline", "analyze_trace",
        "classify_analysis", "report_for",
    ),
    "cli": ("main", "cmd_simulate", "cmd_detect"),
}


def _count_hampel(counts, a, out):
    x = np.asarray(a["stream"], dtype=np.float64)
    counts["preprocess.hampel_filter.samples_in"] += x.size
    counts["preprocess.hampel_filter.replaced"] += int(np.count_nonzero(out != x))


def _count_derive(counts, a, out):
    counts["preprocess.derive_streams.out_mb"] += out.data.nbytes / 1e6


def _count_intervals(counts, a, out):
    counts["detector.detect_event_intervals.intervals"] += len(out)


def _count_write_trace(counts, a, out):
    counts["traceio.write_trace.bytes"] += os.path.getsize(a["path"])
    counts["traceio.write_trace.trace_s"] += a["trace"].duration_s


COUNTERS = {
    "preprocess.hampel_filter": _count_hampel,
    "preprocess.derive_streams": _count_derive,
    "detector.detect_event_intervals": _count_intervals,
    "traceio.write_trace": _count_write_trace,
}


class Tracer:
    """In-memory spans and counters of the calls made while recording."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def record(self, root: str):
        """Record every wrapped call made in the block under one root span."""
        self.active = True
        self.open(root)
        try:
            yield
        finally:
            self.close()
            self.active = False

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        taken = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return taken


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if counter is not None:
            tracer.open("tracing.count")
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer.counts, bound.arguments, out)
            finally:
                tracer.close()
        return out

    return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every TARGETS function, under all its names, through `tracer`."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]
    saved = []
    try:
        for mod_name, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapper = _wrap(tracer, span, orig, COUNTERS.get(span))
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        yield tracer
    finally:
        for m, attr, orig in reversed(saved):
            setattr(m, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, summed duration (total_s) and summed self time."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def roots_total(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def uncovered_share(spans: list[list], root: str) -> float:
    """Share of the `root` span's time spent outside every wrapped call in
    it: its self time over its duration (the first span of that name)."""
    i = next(i for i, span in enumerate(spans) if span[0] == root)
    duration = spans[i][2] - spans[i][1]
    return self_times(spans)[i] / duration


SELF_LAYERS = (
    "csi_sim.generate_trace", "traceio.write_trace", "traceio.read_trace",
    "preprocess.hampel_filter", "preprocess.resample_uniform",
    "preprocess.derive_streams", "preprocess.pca_first_component",
    "preprocess.calibrate", "preprocess.select_streams",
    "detector.sliding_out_of_band_energy", "detector.detect_event_intervals",
    "detector.build_event_profile", "detector.classify_event",
    "metrics.compute_report",
)
TOTAL_LAYERS = (
    "preprocess.calibrate", "harness.run_pipeline", "harness.analyze_trace",
    "cli.cmd_simulate", "cli.cmd_detect",
)
CALL_LAYERS = (
    "preprocess.hampel_filter", "preprocess.resample_uniform",
    "detector.window_percentile_bandwidth",
)
PER_OP_COUNTERS = (
    "preprocess.derive_streams.out_mb", "detector.detect_event_intervals.intervals",
)


def layer_metrics(records: list[tuple[list, Counter]], overhead_pct: list[float]) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    `records` holds one (spans, counts) pair per traced op. Times, calls and
    per-op counters are medians over the ops; shares and rates pool all ops.
    """
    tables = [summarize(spans) for spans, _ in records]

    def median_of(layer: str, key: str) -> float:
        return statistics.median(t.get(layer, {}).get(key, 0) for t in tables)

    m = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (median_of(layer, "self_s"), "s")
    for layer in TOTAL_LAYERS:
        m[f"{layer}.total_s"] = (median_of(layer, "total_s"), "s")
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = (median_of(layer, "calls"), "count")
    for name in PER_OP_COUNTERS:
        unit = "MB" if name.endswith("_mb") else "count"
        m[name] = (statistics.median(c[name] for _, c in records), unit)

    pooled = sum((c for _, c in records), Counter())
    samples = pooled["preprocess.hampel_filter.samples_in"]
    m["preprocess.hampel_filter.replaced_share"] = (
        pooled["preprocess.hampel_filter.replaced"] / samples if samples else 0.0, "share")
    written_s = pooled["traceio.write_trace.trace_s"]
    m["traceio.bytes_per_trace_s"] = (
        pooled["traceio.write_trace.bytes"] / written_s if written_s else 0.0, "B/s")
    m["tracing.overhead_pct"] = (statistics.median(overhead_pct), "%")
    return m
