"""Pipeline tunables shared by the preprocessing and detection stages."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .signal_model import SceneGeometry
from .spectral_oracle import derive_f_th

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline tunables in one place.

    f_th_hz = None means "derive from the scene geometry" via the
    seizure/normal bandwidth midpoint; call resolve_f_th() with the trace
    geometry to obtain the operating value.
    """

    t_cal_s: float = 13.0
    k_streams: int = 15
    f_o_br_max_hz: float = 0.3          # adult maximum breathing rate
    t_win_ed_s: float = 2.0             # event-detection window
    t_win_ec_s: float = 4.0             # event-classification window
    t_min_s: float = 5.0                # shortest duration worth classifying
    q: float = 2.0                      # detection threshold factor
    f_th_hz: float | None = None
    ed_hop_s: float = 0.05
    ec_overlap: float = 0.5
    event_close_hysteresis_s: float = 1.0
    hampel_window_s: float = 0.5
    hampel_n_sigmas: float = 3.0
    pca_block_s: float = 4.0
    pca_overlap: float = 0.5

    def __post_init__(self):
        for name in (
            "t_cal_s", "f_o_br_max_hz", "t_win_ed_s", "t_win_ec_s",
            "t_min_s", "q", "ed_hop_s",
            "event_close_hysteresis_s", "hampel_window_s", "hampel_n_sigmas",
            "pca_block_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.k_streams < 2:
            raise ValueError("k_streams must be at least 2 (PCA needs >= 2 streams)")
        if not (0.0 <= self.ec_overlap < 1.0) or not (0.0 <= self.pca_overlap < 1.0):
            raise ValueError("window overlaps must be in [0, 1)")
        if self.f_th_hz is not None and self.f_th_hz <= self.bw_br_adj_hz:
            raise ValueError(
                f"f_th_hz = {self.f_th_hz} must exceed the adjusted breathing "
                f"bandwidth {self.bw_br_adj_hz}"
            )

    @property
    def bw_br_hz(self) -> float:
        """Breathing bandwidth 2*f_o_br used for SNR ranking and detection."""
        return 2.0 * self.f_o_br_max_hz

    @property
    def bw_br_adj_hz(self) -> float:
        """Breathing bandwidth widened by the 1/T_win smearing of the ED window."""
        return self.bw_br_hz + 1.0 / self.t_win_ed_s

    def resolve_f_th(self, geometry: SceneGeometry) -> float:
        if self.f_th_hz is not None:
            return self.f_th_hz
        return derive_f_th(geometry)

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)
