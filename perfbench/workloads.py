"""The benchmark's workloads: seeded inputs, one op each, and the op's outcome.

A workload turns an op seed into an input (`prepare`, untimed set-up), runs
one op on it (`run`, timed) and reads the op's result back (`outcome`): the
detected events as (start_s, end_s, class, decision_time_s), the RunReport
against the ground-truth labels, and how many times the traced run must see
each layer called. `kernel` names the hostspeed kernel whose work is most
like the op's. Every call into csiwatch goes through a module attribute
so that the traced run's patches see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from csiwatch import cli, csi_sim, harness, metrics, traceio
from csiwatch.config import PipelineConfig
from csiwatch.signal_model import SceneGeometry

# The acceptance suite's CORPUS_NOISE (tests/test_acceptance.py).
NOISE = csi_sim.NoiseSpec(
    awgn_sigma=0.02, outlier_rate_per_s=0.02, outlier_magnitude=8.0,
    jitter_std_s=0.0005,
)
GEOMETRY = SceneGeometry()
CONFIG = PipelineConfig()
N_RX, N_SC = 3, 30  # simulator defaults: N_D = (2*N_RX - 1)*N_SC derived streams


class OpFailed(Exception):
    """An op ran but its result is unusable (e.g. a non-zero CLI exit code)."""


@dataclass
class Outcome:
    events: list[list]
    report: metrics.RunReport
    expected_calls: dict[str, int]
    trace_bytes: int = 0


def event_row(ev) -> list:
    return [ev.start_s, ev.end_s, ev.event_class.value, ev.decision_time_s]


def _night(duration_s: float, n_seizures: int, n_normal: int, seed: int):
    scenario = csi_sim.build_night_scenario(duration_s, n_seizures, n_normal, seed=seed)
    return csi_sim.generate_trace(scenario, GEOMETRY, NOISE, seed=seed, dtype=np.complex64)


def _pipeline_calls(n_profiles: int) -> dict[str, int]:
    """Layer calls of one calibrate -> extract -> detect -> classify pass."""
    return {
        "csi_sim.generate_trace": 1,
        "preprocess.calibrate": 1,
        "preprocess.select_streams": 1,
        "preprocess.hampel_filter": (2 * N_RX - 1) * N_SC + CONFIG.k_streams,
        "preprocess.derive_streams": 2,
        "preprocess.pca_first_component": 2,
        "detector.sliding_out_of_band_energy": 2,
        "detector.detect_event_intervals": 1,
        "detector.build_event_profile": n_profiles,
        "detector.classify_event": n_profiles,
    }


def _profiled(events: list[list]) -> int:
    """Events run_detection builds a bandwidth profile for (not T_min-gated)."""
    return sum(1 for s, e, cls, _ in events if e - s >= CONFIG.t_min_s or cls == "ongoing")


@dataclass
class NightHour:
    """One seeded night generated in set-up; the op is harness.run_pipeline."""

    duration_s: float = 3600.0
    n_seizures: int = 2
    n_normal: int = 6
    name: str = field(default="night_hour", init=False)
    kernel: str = field(default="numpy", init=False)

    def prepare(self, seed: int, workdir: Path):
        return _night(self.duration_s, self.n_seizures, self.n_normal, seed)

    def run(self, trace):
        return harness.run_pipeline(trace, CONFIG)

    def outcome(self, trace, result) -> Outcome:
        events = [event_row(e) for e in result.events]
        report = metrics.compute_report(result.events, list(trace.events))
        calls = _pipeline_calls(_profiled(events))
        calls.update({"harness.run_pipeline": 1, "detector.run_detection": 1})
        return Outcome(events, report, calls)

    def release(self, trace) -> None:
        pass


@dataclass
class CorpusDense:
    """Each op builds and generates one seeded night, then runs the sweep
    path: harness.analyze_trace and report_for at the derived f_th."""

    duration_s: float = 600.0
    n_seizures: int = 4
    n_normal: int = 24
    name: str = field(default="corpus_dense", init=False)
    kernel: str = field(default="numpy", init=False)

    def prepare(self, seed: int, workdir: Path):
        return seed

    def run(self, seed: int):
        trace = _night(self.duration_s, self.n_seizures, self.n_normal, seed)
        analysis = harness.analyze_trace(trace, CONFIG)
        f_th = CONFIG.resolve_f_th(trace.geometry)
        return harness.report_for(analysis, f_th, CONFIG.t_min_s)

    def outcome(self, seed: int, report) -> Outcome:
        events = [
            [r["start_s"], r["end_s"], r["class"], r["decision_time_s"]]
            for r in report.events
        ]
        calls = _pipeline_calls(len(events))
        calls.update({
            "csi_sim.build_night_scenario": 1,
            "harness.analyze_trace": 1,
            "harness.report_for": 1,
            "metrics.compute_report": 1,
        })
        return Outcome(events, report, calls)

    def release(self, seed: int) -> None:
        pass


@dataclass
class CliFiles:
    """Each op runs `csiwatch simulate` on a scenario config, writing a text
    trace, then `csiwatch detect` on that file, writing events and report.
    Inputs and outputs live in a per-op directory under the run's temp dir.

    The scenario places its events by hand, because one minute is too short
    for build_night_scenario's random placement; the seed draws the
    seizure's speed, rate and phase, the normal events' motion and the noise.
    """

    duration_s: float = 60.0
    events: tuple = (
        ("posture_shift", 14.0, 6.0),
        ("seizure", 24.0, 22.0),
        ("scratch", 50.0, 4.0),
        ("cough", 56.5, 1.5),
    )
    name: str = field(default="cli_files", init=False)
    kernel: str = field(default="text", init=False)

    def prepare(self, seed: int, workdir: Path) -> Path:
        rng = random.Random(seed)
        events = []
        for kind, start, dur in self.events:
            ev = {"kind": kind, "start_s": start, "duration_s": dur}
            if kind == "seizure":
                ev.update(v_max_mps=rng.uniform(0.7, 0.8), f_o_hz=rng.uniform(2.0, 3.5),
                          phase_rad=rng.uniform(0.0, 2.0 * math.pi))
            events.append(ev)
        scenario = {
            "duration_s": self.duration_s,
            "seed": seed,
            "dtype": "complex64",
            "noise": {
                "awgn_sigma": NOISE.awgn_sigma,
                "outlier_rate_per_s": NOISE.outlier_rate_per_s,
                "outlier_magnitude": NOISE.outlier_magnitude,
                "jitter_std_s": NOISE.jitter_std_s,
            },
            "events": events,
        }
        d = workdir / f"op-{seed}"
        d.mkdir()
        (d / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
        return d

    def run(self, d: Path) -> tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(["simulate", "--config", str(d / "scenario.json"),
                           "--out", str(d / "night.csitrace")])
            if rc == 0:
                rc = cli.main(["detect", "--trace", str(d / "night.csitrace"),
                               "--report-out", str(d / "report.json")])
        return rc, captured.getvalue()

    def outcome(self, d: Path, ran: tuple[int, str]) -> Outcome:
        rc, output = ran
        if rc != 0:
            raise OpFailed(f"csiwatch exited with code {rc}: {output.strip()[-500:]}")
        events = [event_row(e) for e in traceio.read_events_csv(d / "night.events.csv")]
        report = metrics.RunReport(**json.loads((d / "report.json").read_text(encoding="utf-8")))
        calls = _pipeline_calls(_profiled(events))
        calls.update({
            "cli.cmd_simulate": 1, "cli.cmd_detect": 1,
            "traceio.write_trace": 1, "traceio.read_trace": 1,
            "harness.run_pipeline": 1, "metrics.compute_report": 1,
        })
        return Outcome(events, report, calls, (d / "night.csitrace").stat().st_size)

    def release(self, d: Path) -> None:
        shutil.rmtree(d)


WORKLOADS = {w.name: w for w in (NightHour(), CorpusDense(), CliFiles())}
