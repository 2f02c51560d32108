"""Pipeline orchestration, parameter sweeps, and scenario- and pipeline-config parsing.

`run_pipeline` is the production path: calibrate, denoise, detect, classify.
`analyze_trace` additionally keeps every event's bandwidth trajectory so that
sweeps re-classify without recomputing spectra, which makes the sweep curves
exact functions of the fixed underlying data. `sweep_parameter` builds all
three sweeps: over f_th, over T_min, and per (psi, wavelength) group at each
group's f_th. Its rows are keyed by the CSV columns `csiwatch sweep` writes.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, whole_number
from .csi_sim import (
    CsiTrace,
    LabelInterval,
    NoiseSpec,
    SAMPLE_RATE_HZ,
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
    build_event_profile,
    check_sample_rate,
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
    calibration: CalibrationState
    f_th_hz: float
    processing_s: float
    trace_duration_s: float

    @property
    def processing_per_trace_second(self) -> float:
        return self.processing_s / self.trace_duration_s


def _check_f_th(f_th_hz: float, fs: float) -> None:
    """Refuse a trace sampled at fs Hz that event detection cannot work on
    (check_sample_rate), then an f_th at or above its Nyquist frequency,
    which no bandwidth measured on it can exceed."""
    check_sample_rate(fs)
    if f_th_hz >= fs / 2:
        raise ValueError(f"f_th = {f_th_hz:.2f} Hz is at or above the Nyquist frequency "
                         f"{fs / 2:g} Hz of a trace sampled at {fs:g} Hz")


def run_pipeline(trace: CsiTrace, config: PipelineConfig) -> PipelineResult:
    """Preprocess and detect on one trace; timed end to end. The calibration
    window is config's [cal_start_s, cal_start_s + t_cal_s]. An f_th the
    trace cannot reach is refused (_check_f_th) before calibration."""
    t0 = time.perf_counter()
    f_th = config.resolve_f_th(trace.geometry)
    fs = trace.sample_rate_hz
    _check_f_th(f_th, fs)
    calibration = calibrate(trace, config)
    p = extract_pipeline_stream(trace, calibration)
    events = run_detection(p, fs, calibration, config, f_th)
    elapsed = time.perf_counter() - t0
    return PipelineResult(
        events=events,
        calibration=calibration,
        f_th_hz=f_th,
        processing_s=elapsed,
        trace_duration_s=trace.duration_s,
    )


@dataclass(frozen=True)
class TraceAnalysis:
    """Detection intervals with full bandwidth trajectories, for sweeps."""

    profiles: list[EventBandwidthProfile]
    labels: list[LabelInterval]
    geometry: SceneGeometry
    calibration: CalibrationState
    sample_rate_hz: float


def analyze_trace(trace: CsiTrace, config: PipelineConfig) -> TraceAnalysis:
    """Run detection once, keeping every event's bandwidth trajectory. The
    calibration window is config's [cal_start_s, cal_start_s + t_cal_s]."""
    calibration = calibrate(trace, config)
    p = extract_pipeline_stream(trace, calibration)
    intervals = detect_event_intervals(p, trace.sample_rate_hz, calibration)
    profiles = [build_event_profile(p, trace.sample_rate_hz, iv) for iv in intervals]
    return TraceAnalysis(
        profiles=profiles,
        labels=list(trace.events),
        geometry=trace.geometry,
        calibration=calibration,
        sample_rate_hz=trace.sample_rate_hz,
    )


def classify_analysis(
    analysis: TraceAnalysis, f_th_hz: float, t_min_s: float
) -> list[DetectedEvent]:
    return [classify_event(pr, f_th_hz, t_min_s) for pr in analysis.profiles]


def report_for(
    analysis: TraceAnalysis, f_th_hz: float, t_min_s: float
) -> RunReport:
    """The trace's report at f_th_hz and t_min_s; refuses an f_th it cannot reach."""
    _check_f_th(f_th_hz, analysis.sample_rate_hz)
    events = classify_analysis(analysis, f_th_hz, t_min_s)
    return compute_report(events, analysis.labels)


def sweep_parameter(
    analyses: list[TraceAnalysis],
    param: str,
    values,
    config: PipelineConfig,
) -> list[dict]:
    """Metric rows over a fixed trace corpus, keyed by their CSV columns.

    param "f_th" varies the classification threshold at the configured
    T_min; each row is {"f_th", "sdr_pct", "p_fa", "mrt_s"}. "t_min" varies
    the duration gate at each trace's resolved f_th; each row is {"t_min",
    "sdr_pct", "p_fa", "mrt_s"}. "psi" ignores values and gives one row per
    (psi, wavelength) group of traces, at the group's resolved f_th and the
    configured T_min, sorted by psi then wavelength; each row is {"psi",
    "wavelength_m", "f_th_hz", "sdr_pct", "p_fa", "mrt_s"}. A metric whose
    denominator is empty is None. report_for refuses an unreachable f_th.
    """
    # (row keys, (trace, f_th) pairs, T_min) per row
    if param == "f_th":
        cells = [({"f_th": float(v)}, [(a, float(v)) for a in analyses], config.t_min_s)
                 for v in values]
    elif param == "t_min":
        own = [(a, config.resolve_f_th(a.geometry)) for a in analyses]
        cells = [({"t_min": float(v)}, own, float(v)) for v in values]
    elif param == "psi":
        groups: dict[tuple[float, float], list[TraceAnalysis]] = {}
        for analysis in analyses:
            g = analysis.geometry
            groups.setdefault((g.psi, g.wavelength_m), []).append(analysis)
        cells = []
        for psi, wavelength in sorted(groups):
            group = groups[psi, wavelength]
            f_th = config.resolve_f_th(group[0].geometry)
            keys = {"psi": psi, "wavelength_m": wavelength, "f_th_hz": f_th}
            cells.append((keys, [(a, f_th) for a in group], config.t_min_s))
    else:
        raise ValueError(f"sweep parameter must be f_th, t_min or psi, got {param!r}")
    rows = []
    for keys, runs, t_min in cells:
        combined = combine_reports([report_for(a, f_th, t_min) for a, f_th in runs])
        rows.append({**keys, "sdr_pct": combined.sdr_pct, "p_fa": combined.p_fa,
                     "mrt_s": combined.mrt_s})
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
    """Reject a section that is not an object, or a key nothing reads (a typo)."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be an object, got {section!r}")
    unknown = sorted(section.keys() - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r} (allowed: {', '.join(allowed)})")


def _given(section: dict, where: str, **settings) -> dict:
    """Each setting section gives, converted; an omitted one keeps the callee's default."""
    given = {}
    for key, convert in settings.items():
        if key in section:
            try:
                given[key] = convert(section[key])
            except (TypeError, ValueError) as e:
                raise ValueError(f"{where} key {key!r}: {e}") from e
    return given


def _section(cfg: dict, name: str, **settings) -> dict:
    section = cfg.get(name, {})
    _check_keys(section, tuple(settings), name)
    return _given(section, name, **settings)


def _geometry_from(cfg: dict) -> SceneGeometry:
    g = _section(cfg, "geometry", wavelength_m=float, psi=float, phi_rad=float)
    if "phi_rad" not in g:
        return SceneGeometry(**g)
    if "psi" in g:
        raise ValueError("geometry gives both psi and phi_rad; give one of them")
    return SceneGeometry.from_phi(**g)


def _non_negative(value) -> float:
    if not (math.isfinite(value := float(value)) and value >= 0):
        raise ValueError(f"must be finite and non-negative, got {value!r}")
    return value


def _finite(value) -> float:
    if not math.isfinite(value := float(value)):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _seed(value) -> int:
    if (seed := whole_number(value)) < 0:
        raise ValueError(f"must be non-negative, got {seed!r}")
    return seed


def _number(value):
    """A JSON number, unconverted so that an integer stays one in the
    report; PipelineConfig checks its range."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"must be a number, got {value!r}")
    return value


def _event_from(spec: dict, index: int, base_seed: int, rate_hz: float) -> ScenarioEvent:
    if not isinstance(spec, dict):
        raise ValueError(f"event {index} must be an object, got {spec!r}")
    params = _given(spec, f"event {index}", **dict.fromkeys(spec, _finite)
                    | {"kind": EventKind, "start_s": float, "duration_s": float})
    try:  # what is left are the motion's parameters
        kind, start, dur = params.pop("kind"), params.pop("start_s"), params.pop("duration_s")
    except KeyError as e:
        raise ValueError(f"event {index} has no {e} key") from None
    rng = np.random.default_rng(base_seed + 7919 * (index + 1))
    try:
        motion = event_motion(kind, dur, rng, rate_hz, **params)
    except ValueError as e:
        raise ValueError(f"event {index}: {e}") from e
    return ScenarioEvent(kind, start, dur, motion)


def _scenario_from(cfg: dict, duration_s: float, seed: int, rate_hz: float) -> Scenario:
    breathing = breathing_profile(duration_s, **_section(
        cfg, "breathing", f_o_hz=_finite, displacement_m=_finite, phase_rad=_finite))
    if "auto_events" in cfg:
        # build_night_scenario draws the events
        if "events" in cfg:
            raise ValueError("events cannot be combined with auto_events")
        auto = _section(cfg, "auto_events", n_seizures=whole_number,
                        n_normal_events=whole_number, normal_events_per_hour=_non_negative)
        if "normal_events_per_hour" in auto:
            if "n_normal_events" in auto:
                raise ValueError("n_normal_events cannot be combined with normal_events_per_hour")
            n_normal = int(round(auto["normal_events_per_hour"] * duration_s / 3600.0))
        else:
            n_normal = auto.get("n_normal_events", 0)
        return build_night_scenario(duration_s, auto.get("n_seizures", 0), n_normal,
                                    seed, breathing, rate_hz=rate_hz)
    specs = cfg.get("events", [])
    if not isinstance(specs, list):
        raise ValueError(f"events must be a list, got {specs!r}")
    events = tuple(_event_from(spec, i, seed, rate_hz) for i, spec in enumerate(specs))
    return Scenario(duration_s=duration_s, breathing=breathing, events=events)


def parse_scenario_config(cfg: dict):
    """Decode a scenario config dict.

    Returns (scenario, geometry, noise, sim_kwargs, second_person).
    sim_kwargs holds the seed and only the generate_trace settings the
    config gives; generate_trace's defaults hold for the others.
    second_person is None, or the (scenario, seed) of the second person
    the config describes. Every value is checked here, before anything is
    generated, the "pipeline" section's too: that section holds the settings
    `csiwatch detect --config` reads from this file (see pipeline_config),
    and the detect flags --cal-len, --t-min and --f-th override them.
    """
    if "duration_s" not in cfg:
        raise ValueError("scenario config needs duration_s")
    _check_scenario_keys(cfg)
    if "pipeline" in cfg:
        pipeline_config(cfg)
    second = cfg.get("second_person")
    if second is not None:
        _check_keys(second, ("seed", "breathing", "events", "auto_events"), "second_person")
    given = _given(cfg, "scenario config", duration_s=float, seed=_seed,
                   sample_rate_hz=float, n_rx=whole_number, n_sc=whole_number,
                   dtype=lambda v: np.dtype(v).type, ratio_range=tuple)
    duration = given.pop("duration_s")
    sim_kwargs = {"seed": 0, **given}
    rate_hz = sim_kwargs.get("sample_rate_hz", SAMPLE_RATE_HZ)
    # the events are sampled at this rate, so it is checked before them
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        raise ValueError(f"sample_rate_hz must be finite and positive, got {rate_hz!r}")
    scenario = _scenario_from(cfg, duration, sim_kwargs["seed"], rate_hz)
    geometry = _geometry_from(cfg)
    noise = NoiseSpec(**_section(
        cfg, "noise", awgn_sigma=lambda v: v,  # a number, or nested lists per stream
        outlier_rate_per_s=float, outlier_magnitude=float, jitter_std_s=float))
    if second is not None:
        seed2 = _given(second, "second_person", seed=_seed).get("seed", sim_kwargs["seed"] + 1)
        second = (_scenario_from(second, scenario.duration_s, seed2, rate_hz), seed2)
    return scenario, geometry, noise, sim_kwargs, second


def _check_scenario_keys(cfg: dict) -> None:
    _check_keys(cfg, ("duration_s", "seed", "sample_rate_hz", "n_rx", "n_sc", "dtype",
                      "ratio_range", "noise", "geometry", "breathing", "events",
                      "auto_events", "second_person", "pipeline"), "scenario config")


def pipeline_config(cfg: dict, **overrides) -> PipelineConfig:
    """The PipelineConfig a config file gives, with overrides set over it.

    A file with a "pipeline" section is a scenario config: the section holds
    the pipeline settings, and every other key must be a scenario config key
    (parse_scenario_config reads them; this reads none). A file without one
    holds only pipeline settings. The settings are t_cal_s, k_streams,
    t_min_s and f_th_hz; an omitted one keeps PipelineConfig's default, and
    an override (the CLI's --cal-len, --t-min, --f-th) replaces the file's.
    cal_start_s is set only by an override (the CLI's --cal-start).
    """
    if "pipeline" in cfg:
        _check_scenario_keys(cfg)
    else:
        cfg = {"pipeline": cfg}
    settings = _section(cfg, "pipeline", t_cal_s=_number, k_streams=_number, t_min_s=_number,
                        f_th_hz=lambda v: None if v is None else _number(v))
    return PipelineConfig(**settings | overrides)


def simulate_from_config(cfg: dict) -> CsiTrace:
    """Generate the trace a scenario config describes (plus second person)."""
    scenario, geometry, noise, sim_kwargs, second = parse_scenario_config(cfg)
    trace = generate_trace(scenario, geometry, noise, **sim_kwargs)
    if second is not None:
        scenario2, seed2 = second
        # the first person's path-ratio range, where the config sets one
        shared = {k: v for k, v in sim_kwargs.items() if k == "ratio_range"}
        trace = superpose_person(trace, scenario2, seed=seed2, **shared)
    return trace


def config_snapshot(config: PipelineConfig, f_th_hz: float) -> dict:
    snap = dataclasses.asdict(config)
    snap["f_th_hz_resolved"] = f_th_hz
    return snap


def calibration_health(calibration: CalibrationState) -> dict:
    """The report's calibration block: sigma_c^2 and the selected streams,
    best first, each with its calibration SNR (+inf for a stream with no
    out-of-band power)."""
    return {
        "sigma_c_sq": calibration.sigma_c_sq,
        "streams": [{"id": str(sid), "snr": calibration.snr_by_id[sid]}
                    for sid in calibration.selected_ids],
    }
