"""Command-line entry points: simulate, detect, sweep, oracle.

detect and sweep read pipeline settings from a --config file of one of two
shapes. A scenario config (the file simulate reads) gives them in its
"pipeline" section; every other key must still be a scenario config key. Any
other file holds only the settings t_cal_s, k_streams, t_min_s and f_th_hz.
detect's --cal-len, --t-min and --f-th override the file. harness.pipeline_config
reads both shapes; a key nothing reads is an input error. The calibration
window, from --cal-start (default 0 s) for t_cal_s, must hold breathing
only: a labeled event in it is an input error.

Exit codes: 0 on success, 2 on input errors (any ValueError or OSError: bad
config, missing or malformed files, invalid calibration placement), 3 on
internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, traceio
from .config import PipelineConfig
from .detector import EventClass, detection_threshold
from .metrics import compute_report
from .signal_model import SceneGeometry
from .spectral_oracle import (
    MotionClass,
    bessel_line_spectrum,
    carson_bandwidth,
    class_bandwidth_bound,
    derive_f_th,
)


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the config must be a JSON object, not {_JSON_TYPES[type(cfg)]}")
    return cfg


_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", type(None): "null"}


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    trace = harness.simulate_from_config(cfg)
    out = Path(args.out)
    traceio.write_trace(trace, out)
    f_th = derive_f_th(trace.geometry)
    n_sz = sum(1 for ev in trace.events if ev.is_seizure)
    print(f"trace written to {out} ({trace.duration_s:.1f} s at "
          f"{trace.sample_rate_hz:g} Hz, {trace.n_rx}x{trace.n_sc} streams)")
    print(f"labels written to {traceio.sidecar_path(out, 'labels')} "
          f"({len(trace.events)} events: {n_sz} seizure, {len(trace.events) - n_sz} normal)")
    print(f"psi = {trace.geometry.psi:g}, derived f_th = {f_th:.2f} Hz")
    return 0


def _pipeline_config(args) -> PipelineConfig:
    cfg = _load_json(args.config) if args.config else {}
    flags = {key: value for flag, key in (("f_th", "f_th_hz"), ("t_min", "t_min_s"),
                                          ("cal_len", "t_cal_s"), ("cal_start", "cal_start_s"))
             if (value := getattr(args, flag, None)) is not None}
    try:
        return harness.pipeline_config(cfg, **flags)
    except ValueError as e:
        source = f"{args.config}: " if args.config else ""
        raise ValueError(f"{source}bad pipeline config: {e}") from e


def _check_calibration_clear(trace_path, trace, config: PipelineConfig):
    cal_start = config.cal_start_s
    cal_end = cal_start + config.t_cal_s
    for label in trace.events:
        if min(label.end_s, cal_end) - max(label.start_s, cal_start) > 0:
            raise ValueError(
                f"{trace_path}: calibration window [{cal_start:.1f}, {cal_end:.1f}] s overlaps a "
                f"labeled {label.kind.value} event at {label.start_s:.1f} s; "
                "calibration must contain breathing only"
            )


def cmd_detect(args) -> int:
    trace_path = Path(args.trace)
    trace = traceio.read_trace(trace_path)
    config = _pipeline_config(args)
    _check_calibration_clear(trace_path, trace, config)

    result = harness.run_pipeline(trace, config)
    report = compute_report(
        result.events,
        list(trace.events),
        config_snapshot=harness.config_snapshot(config, result.f_th_hz),
        trace_checksum=traceio.file_sha256(trace_path),
        calibration=harness.calibration_health(result.calibration),
    )
    events_out = args.events_out or traceio.sidecar_path(trace_path, "events")
    traceio.write_events_csv(result.events, events_out)
    if args.report_out:
        traceio.write_report(report, args.report_out)

    n_sz = sum(1 for e in result.events if e.event_class is EventClass.SEIZURE)
    print(f"f_th = {result.f_th_hz:.2f} Hz, gamma_th = "
          f"{detection_threshold(result.calibration):.3e}")
    print(f"{len(result.events)} events detected ({n_sz} classified seizure); "
          f"events written to {events_out}")
    if report.sdr_pct is not None:
        print(f"SDR = {report.sdr_pct:.2f}%  ({report.n_seizures_detected}/"
              f"{report.n_seizures} seizures)")
    if report.p_fa is not None:
        print(f"P_FA = {report.p_fa:.4f}  ({report.n_false_alarms}/"
              f"{report.n_normals_detected} detected normal events)")
    if report.mrt_s is not None:
        print(f"MRT = {report.mrt_s:.2f} s")
    if report.n_unmatched_seizure_verdicts:
        print(f"{report.n_unmatched_seizure_verdicts} seizure verdicts matched no label")
    print(f"processing: {result.processing_per_trace_second * 1e3:.1f} ms "
          f"per trace-second")
    return 0


# the most values a sweep --grid may give; each is one sweep row over every trace
MAX_GRID_VALUES = 10_000


def _find_traces(trace_dir: Path):
    files = sorted(
        p for p in trace_dir.iterdir()
        if p.name.endswith(traceio.TRACE_SUFFIXES)
    )
    if not files:
        raise ValueError(f"no *{traceio.TRACE_SUFFIXES[0]} files in {trace_dir}")
    return files


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as e:
        raise ValueError(f"bad --grid {text!r}; expected start:stop:step") from e
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"bad --grid {text!r}; start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise ValueError(f"bad --grid {text!r}")
    # np.arange's own count, taken before it allocates
    if not (stop + step / 2 - start) / step <= MAX_GRID_VALUES:
        raise ValueError(f"bad --grid {text!r}; more than {MAX_GRID_VALUES} values")
    return np.arange(start, stop + step / 2, step)


def cmd_sweep(args) -> int:
    config = _pipeline_config(args)
    values = ()
    if args.param != "psi":
        if not args.grid:
            raise ValueError(f"--grid is required for a {args.param} sweep")
        values = _parse_grid(args.grid)

    analyses = []
    for path in _find_traces(Path(args.trace_dir)):
        if not traceio.sidecar_path(path, "labels").exists():
            raise ValueError(f"missing labels sidecar for {path}")
        trace = traceio.read_trace(path)
        # the f_th values the sweep reports this trace at, before it is analysed
        for f_th in values if args.param == "f_th" else [config.resolve_f_th(trace.geometry)]:
            harness._check_f_th(f_th, trace.sample_rate_hz)
        _check_calibration_clear(path, trace, config)
        analyses.append(harness.analyze_trace(trace, config))

    rows = harness.sweep_parameter(analyses, args.param, values, config)
    lines = [",".join(rows[0])] + [
        ",".join(f"{v:.4f}" if k == "f_th_hz" else _fmt(v) for k, v in row.items())
        for row in rows
    ]
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"sweep written to {out} ({len(rows)} rows)")
    return 0


def _fmt(v) -> str:
    return "" if v is None else f"{v:.6g}"


def cmd_oracle(args) -> int:
    # every input is checked before the first line is printed
    spectrum = bessel_line_spectrum(
        args.beta_prime, args.f_o, args.delta_mu,
        amplitude=args.amplitude, n_max=args.n_max,
    )
    bw = carson_bandwidth(args.beta_prime, args.f_o)
    if args.psi is not None:
        geometry = SceneGeometry(wavelength_m=args.wavelength, psi=args.psi)
    print(f"beta' = {args.beta_prime:g}, f_o = {args.f_o:g} Hz, "
          f"delta_mu = {args.delta_mu:g} rad")
    print(f"{'n':>4} {'f (Hz)':>10} {'|amp|':>12} {'re':>12} {'im':>12}")
    for n, (f, a) in enumerate(zip(spectrum.frequencies_hz, spectrum.amplitudes)):
        if abs(a) < 1e-12 * abs(args.amplitude) and n > 0:
            continue
        print(f"{n:>4} {f:>10.4f} {abs(a):>12.5g} {a.real:>12.5g} {a.imag:>12.5g}")
    print(f"bandwidth: {bw:.4f} Hz "
          f"({'(beta+1)*f_o' if args.beta_prime >= 1 else '2*f_o'})")
    if args.psi is not None:
        bw_sz = class_bandwidth_bound(MotionClass.SEIZURE, geometry)
        bw_nm = class_bandwidth_bound(MotionClass.NORMAL_EVENT, geometry)
        print(f"geometry psi = {args.psi:g}: BW_sz >= {bw_sz:.2f} Hz, "
              f"BW_nm <= {bw_nm:.2f} Hz, f_th = {derive_f_th(geometry):.2f} Hz")
    return 0


PIPELINE_CONFIG_HELP = (
    "pipeline config JSON: t_cal_s, k_streams, t_min_s and f_th_hz, either at "
    'the top level and alone, or in the "pipeline" section of a scenario config; '
    "detect's --cal-len, --t-min and --f-th override the file; --cal-start sets "
    "the calibration window's start, which the file does not hold"
)
CAL_START_HELP = "calibration window start (s, default 0); the window must hold breathing only"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csiwatch",
        description="WiFi-CSI nocturnal seizure detection: simulator, "
                    "spectral oracle, and detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled CSI trace")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output trace path (.csitrace[.gz])")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run the detection pipeline on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", help=PIPELINE_CONFIG_HELP)
    p.add_argument("--cal-start", type=float, help=CAL_START_HELP)
    p.add_argument("--cal-len", type=float, help="calibration length (default t_cal)")
    p.add_argument("--f-th", type=float, help="override f_th (Hz)")
    p.add_argument("--t-min", type=float, help="override T_min (s)")
    p.add_argument("--events-out", help="events CSV path")
    p.add_argument("--report-out", help="report JSON path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="metric curves over f_th, t_min, or psi")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--param", required=True, choices=["f_th", "t_min", "psi"])
    p.add_argument("--grid", help="start:stop:step, required for f_th and t_min sweeps; "
                   "a psi sweep ignores it and gives one row per (psi, wavelength)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help=PIPELINE_CONFIG_HELP)
    p.add_argument("--cal-start", type=float, help=CAL_START_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="print the analytic line spectrum and bandwidth")
    p.add_argument("--beta-prime", type=float, required=True)
    p.add_argument("--f-o", type=float, required=True)
    p.add_argument("--delta-mu", type=float, default=0.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--psi", type=float, help="also print class bounds and f_th")
    p.add_argument("--wavelength", type=float, default=SceneGeometry().wavelength_m)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal invariant violation
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
