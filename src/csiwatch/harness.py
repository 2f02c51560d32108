"""Pipeline orchestration, parameter sweeps, and scenario-config parsing.

`run_pipeline` is the production path: calibrate, denoise, detect, classify.
`analyze_trace` additionally keeps every event's bandwidth trajectory so that
sweeps over f_th or T_min re-classify without recomputing spectra, which
makes the sweep curves exact functions of the fixed underlying data.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .csi_sim import (
    CsiTrace,
    LabelInterval,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    EventKind,
    breathing_profile,
    build_night_scenario,
    event_motion,
    generate_trace,
    superpose_person,
)
from .detector import (
    DetectedEvent,
    EventBandwidthProfile,
    EventClass,
    build_event_profile,
    classify_event,
    detect_event_intervals,
    run_detection,
)
from .metrics import RunReport, combine_reports, compute_report
from .preprocess import (
    CalibrationState,
    calibrate,
    compute_stream_snr,
    derive_streams,
    extract_pipeline_stream,
)
from .signal_model import SceneGeometry

__all__ = [
    "PipelineResult",
    "TraceAnalysis",
    "run_pipeline",
    "analyze_trace",
    "classify_analysis",
    "report_for",
    "sweep_parameter",
    "selected_stream_event_snr",
    "parse_scenario_config",
    "simulate_from_config",
]


@dataclass
class PipelineResult:
    """Everything a detection run produces, plus its processing cost."""

    events: list[DetectedEvent]
    profiles: list[EventBandwidthProfile | None]
    p: np.ndarray
    calibration: CalibrationState
    f_th_hz: float
    processing_s: float
    trace_duration_s: float

    @property
    def processing_per_trace_second(self) -> float:
        return self.processing_s / self.trace_duration_s


def run_pipeline(
    trace: CsiTrace, config: PipelineConfig, cal_start_s: float = 0.0
) -> PipelineResult:
    """Preprocess and detect on one trace; timed end to end."""
    t0 = time.perf_counter()
    f_th = config.resolve_f_th(trace.geometry)
    calibration = calibrate(trace, config, cal_start_s)
    p = extract_pipeline_stream(trace, calibration)
    events, profiles = run_detection(
        p, trace.sample_rate_hz, calibration, config, f_th
    )
    elapsed = time.perf_counter() - t0
    return PipelineResult(
        events=events,
        profiles=profiles,
        p=p,
        calibration=calibration,
        f_th_hz=f_th,
        processing_s=elapsed,
        trace_duration_s=trace.duration_s,
    )


@dataclass
class TraceAnalysis:
    """Detection intervals with full bandwidth trajectories, for sweeps."""

    profiles: list[EventBandwidthProfile]
    labels: list[LabelInterval]
    geometry: SceneGeometry
    calibration: CalibrationState | None = None


def analyze_trace(
    trace: CsiTrace, config: PipelineConfig, cal_start_s: float = 0.0
) -> TraceAnalysis:
    """Run detection once, keeping every event's bandwidth trajectory."""
    calibration = calibrate(trace, config, cal_start_s)
    p = extract_pipeline_stream(trace, calibration)
    intervals = detect_event_intervals(p, trace.sample_rate_hz, calibration)
    profiles = [build_event_profile(p, trace.sample_rate_hz, iv) for iv in intervals]
    return TraceAnalysis(
        profiles=profiles,
        labels=list(trace.events),
        geometry=trace.geometry,
        calibration=calibration,
    )


def classify_analysis(
    analysis: TraceAnalysis, f_th_hz: float, t_min_s: float
) -> list[DetectedEvent]:
    return [classify_event(pr, f_th_hz, t_min_s) for pr in analysis.profiles]


def report_for(
    analysis: TraceAnalysis, f_th_hz: float, t_min_s: float
) -> RunReport:
    events = classify_analysis(analysis, f_th_hz, t_min_s)
    return compute_report(events, analysis.labels)


def sweep_parameter(
    analyses: list[TraceAnalysis],
    param: str,
    values,
    config: PipelineConfig,
) -> list[dict]:
    """Metric rows (param value, SDR, P_FA, MRT) over a fixed trace corpus.

    param "f_th" varies the classification threshold at the configured
    T_min; "t_min" varies the duration gate at each trace's derived (or
    configured) f_th.
    """
    if param not in ("f_th", "t_min"):
        raise ValueError(f"sweep parameter must be f_th or t_min, got {param!r}")
    rows = []
    for value in values:
        reports = []
        for analysis in analyses:
            if param == "f_th":
                f_th, t_min = float(value), config.t_min_s
            else:
                f_th = config.resolve_f_th(analysis.geometry)
                t_min = float(value)
            reports.append(report_for(analysis, f_th, t_min))
        combined = combine_reports(reports)
        rows.append(
            {
                "param": param,
                "value": float(value),
                "sdr_pct": combined.sdr_pct,
                "p_fa": combined.p_fa,
                "mrt_s": combined.mrt_s,
            }
        )
    return rows


def selected_stream_event_snr(
    trace: CsiTrace,
    calibration: CalibrationState,
    label: LabelInterval,
    signal_band_hz: float = 20.0,
) -> float:
    """Median in-band/out-of-band power ratio of the selected streams during
    an event window; the premise check for "moderate noise" corpora."""
    streams = derive_streams(
        trace, ids=list(calibration.selected_ids),
        start_s=label.start_s, end_s=label.end_s,
    )
    return float(np.median([
        compute_stream_snr(row, streams.sample_rate_hz, signal_band_hz) for row in streams.data
    ]))


# ---------------------------------------------------------------------------
# Scenario configuration (JSON-friendly dicts)
# ---------------------------------------------------------------------------

def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    """Reject a key nothing reads, so a typo fails instead of being ignored."""
    unknown = sorted(section.keys() - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r} (allowed: {', '.join(allowed)})")


def _geometry_from(cfg: dict) -> SceneGeometry:
    g = cfg.get("geometry", {})
    _check_keys(g, ("wavelength_m", "psi", "phi_rad"), "geometry")
    wavelength = g.get("wavelength_m", SceneGeometry().wavelength_m)
    if "phi_rad" in g and "psi" not in g:
        return SceneGeometry.from_phi(g["phi_rad"], wavelength_m=wavelength)
    return SceneGeometry(wavelength_m=wavelength, psi=g.get("psi", 1.0))


def _event_from(spec: dict, index: int, base_seed: int, rate_hz: float) -> ScenarioEvent:
    kind = EventKind(spec["kind"])
    dur = float(spec["duration_s"])
    rng = np.random.default_rng(base_seed + 7919 * (index + 1))
    params = {k: v for k, v in spec.items() if k not in ("kind", "start_s", "duration_s")}
    motion = event_motion(kind, dur, rng, rate_hz, **params)
    return ScenarioEvent(kind, float(spec["start_s"]), dur, motion)


def _scenario_from(cfg: dict, duration_s: float, seed: int, rate_hz: float) -> Scenario:
    br = cfg.get("breathing", {})
    _check_keys(br, ("f_o_hz", "displacement_m", "phase_rad"), "breathing")
    breathing = breathing_profile(
        duration_s,
        f_o_hz=float(br.get("f_o_hz", 0.25)),
        displacement_m=float(br.get("displacement_m", 0.005)),
        phase_rad=float(br.get("phase_rad", 0.0)),
    )
    if "auto_events" in cfg:
        auto = cfg["auto_events"]
        _check_keys(auto, ("n_seizures", "n_normal_events", "normal_events_per_hour"),
                    "auto_events")
        if "normal_events_per_hour" in auto:
            n_normal = int(round(auto["normal_events_per_hour"] * duration_s / 3600.0))
        else:
            n_normal = int(auto.get("n_normal_events", 0))
        return build_night_scenario(
            duration_s,
            n_seizures=int(auto.get("n_seizures", 0)),
            n_normal_events=n_normal,
            seed=seed,
            breathing_f_o_hz=float(br.get("f_o_hz", 0.25)),
            breathing_displacement_m=float(br.get("displacement_m", 0.005)),
            rate_hz=rate_hz,
        )
    events = tuple(
        _event_from(spec, i, seed, rate_hz) for i, spec in enumerate(cfg.get("events", []))
    )
    return Scenario(duration_s=duration_s, breathing=breathing, events=events)


def parse_scenario_config(cfg: dict):
    """Decode a scenario config dict.

    Returns (scenario, geometry, noise, sim_kwargs, second_person_cfg).
    """
    if "duration_s" not in cfg:
        raise ValueError("scenario config needs duration_s")
    # "pipeline" holds the settings `csiwatch detect --config` reads
    _check_keys(cfg, ("duration_s", "seed", "sample_rate_hz", "n_rx", "n_sc", "dtype",
                      "ratio_range", "noise", "geometry", "breathing", "events",
                      "auto_events", "second_person", "pipeline"), "scenario config")
    second = cfg.get("second_person")
    if second is not None:
        _check_keys(second, ("seed", "breathing", "events", "auto_events"), "second_person")
    duration = float(cfg["duration_s"])
    seed = int(cfg.get("seed", 0))
    rate = float(cfg.get("sample_rate_hz", 200.0))
    scenario = _scenario_from(cfg, duration, seed, rate)
    geometry = _geometry_from(cfg)
    nz = cfg.get("noise", {})
    _check_keys(nz, ("awgn_sigma", "outlier_rate_per_s", "outlier_magnitude", "jitter_std_s"),
                "noise")
    noise = NoiseSpec(
        awgn_sigma=nz.get("awgn_sigma", 0.0),
        outlier_rate_per_s=nz.get("outlier_rate_per_s", 0.0),
        outlier_magnitude=nz.get("outlier_magnitude", 8.0),
        jitter_std_s=nz.get("jitter_std_s", 0.0),
    )
    sim_kwargs = {
        "seed": seed,
        "n_rx": int(cfg.get("n_rx", 3)),
        "n_sc": int(cfg.get("n_sc", 30)),
        "sample_rate_hz": rate,
        "dtype": np.dtype(cfg.get("dtype", "complex128")).type,
    }
    if "ratio_range" in cfg:
        sim_kwargs["ratio_range"] = tuple(cfg["ratio_range"])
    return scenario, geometry, noise, sim_kwargs, second


def simulate_from_config(cfg: dict) -> CsiTrace:
    """Generate the trace a scenario config describes (plus second person)."""
    scenario, geometry, noise, sim_kwargs, second = parse_scenario_config(cfg)
    trace = generate_trace(scenario, geometry, noise, **sim_kwargs)
    if second is not None:
        seed2 = int(second.get("seed", sim_kwargs["seed"] + 1))
        scenario2 = _scenario_from(second, scenario.duration_s, seed2,
                                   sim_kwargs["sample_rate_hz"])
        trace = superpose_person(trace, scenario2, seed=seed2)
    return trace


def config_snapshot(config: PipelineConfig, f_th_hz: float) -> dict:
    snap = dataclasses.asdict(config)
    snap["f_th_hz_resolved"] = f_th_hz
    return snap
