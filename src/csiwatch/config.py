"""The pipeline values a caller may set."""

from __future__ import annotations

from dataclasses import dataclass

from .detector import ED_BAND_HZ
from .signal_model import SceneGeometry
from .spectral_oracle import derive_f_th

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline values a caller may set.

    f_th_hz = None means "derive from the scene geometry" via the
    seizure/normal bandwidth midpoint; call resolve_f_th() with the trace
    geometry to obtain the operating value. Every other tunable is a named
    constant of the stage that reads it.
    """

    t_cal_s: float = 13.0
    k_streams: int = 15
    t_min_s: float = 5.0  # shortest duration worth classifying
    f_th_hz: float | None = None

    def __post_init__(self):
        for name in ("t_cal_s", "t_min_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.k_streams < 2:
            raise ValueError("k_streams must be at least 2 (PCA needs >= 2 streams)")
        if self.f_th_hz is not None and self.f_th_hz <= ED_BAND_HZ:
            raise ValueError(
                f"f_th_hz = {self.f_th_hz} must exceed the adjusted breathing "
                f"bandwidth {ED_BAND_HZ}"
            )

    def resolve_f_th(self, geometry: SceneGeometry) -> float:
        if self.f_th_hz is not None:
            return self.f_th_hz
        return derive_f_th(geometry)
