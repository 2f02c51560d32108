"""WiFi-CSI nocturnal seizure detection at desk scale.

Physics-based CSI synthesis, an analytic Fourier-Bessel spectral oracle, and
the full preprocessing/detection/classification pipeline with an evaluation
harness.
"""

from .config import PipelineConfig
from .csi_sim import (
    CsiTrace,
    EventKind,
    LabelInterval,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    build_night_scenario,
    generate_trace,
    seizure_profile,
    superpose_person,
)
from .detector import DetectedEvent, EventClass, run_detection
from .harness import PipelineResult, analyze_trace, run_pipeline, sweep_parameter
from .metrics import RunReport, combine_reports, compute_report
from .preprocess import CalibrationState, calibrate, extract_pipeline_stream, hampel_filter
from .signal_model import (
    PathParams,
    SampledProfile,
    SceneGeometry,
    SinusoidProfile,
    integrate_velocity,
    modulation_index,
    phase_difference,
    squared_magnitude,
    synth_baseband,
)
from .spectral_oracle import (
    LineSpectrum,
    MotionClass,
    bessel_line_spectrum,
    carson_bandwidth,
    class_bandwidth_bound,
    derive_f_th,
)

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "CsiTrace",
    "EventKind",
    "LabelInterval",
    "NoiseSpec",
    "Scenario",
    "ScenarioEvent",
    "breathing_profile",
    "build_night_scenario",
    "generate_trace",
    "seizure_profile",
    "superpose_person",
    "DetectedEvent",
    "EventClass",
    "run_detection",
    "PipelineResult",
    "analyze_trace",
    "run_pipeline",
    "sweep_parameter",
    "RunReport",
    "combine_reports",
    "compute_report",
    "CalibrationState",
    "calibrate",
    "extract_pipeline_stream",
    "hampel_filter",
    "PathParams",
    "SampledProfile",
    "SceneGeometry",
    "SinusoidProfile",
    "integrate_velocity",
    "modulation_index",
    "phase_difference",
    "squared_magnitude",
    "synth_baseband",
    "LineSpectrum",
    "MotionClass",
    "bessel_line_spectrum",
    "carson_bandwidth",
    "class_bandwidth_bound",
    "derive_f_th",
]
