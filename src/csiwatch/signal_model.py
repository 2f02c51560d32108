"""Closed-form synthesis of the baseband WiFi channel response to body motion.

A moving body part reflects the transmitted signal. The receiver sees the sum
of a static direct path and a reflected path whose phase advances with the
body displacement d(t), scaled by beta = 2*pi*psi/lambda:

    c(t) = alpha_d * exp(j*mu_d) + alpha_r * exp(j*(mu_r + beta*d(t)))

Two derived real streams carry the motion information:

    squared magnitude : |c(t)|^2 - DC  =  A_m * cos(beta*d(t) + dmu_m)
    phase difference  : theta_i - theta_j ~= A_p * cos(beta*d(t) + dmu_p)

with A_m = 2*alpha_d*alpha_r, dmu_m = mu_r - mu_d, and, for small
alpha_r/alpha_d, A_p = 2*(alpha_r/alpha_d)*sin(0.5*(dmu_mi - dmu_mj)),
dmu_p = 0.5*(dmu_mi + dmu_mj).

Everything here is a pure function of value inputs; safe to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SceneGeometry",
    "PathParams",
    "SinusoidProfile",
    "SampledProfile",
    "MotionProfile",
    "DEFAULT_WAVELENGTH_M",
    "DEFAULT_MAX_PATH_RATIO",
    "modulation_index",
    "integrate_velocity",
    "synth_baseband",
    "squared_magnitude",
    "phase_difference",
    "phase_difference_params",
    "squared_magnitude_closed_form",
    "phase_difference_closed_form",
]

# WiFi channel 48 (5.24 GHz carrier). The quoted wavelength for this channel
# is 5.72 cm; c/5.24 GHz evaluates to 5.7212 cm. Both are accepted; 5.7225 cm
# is the reference value used for the bandwidth tables in this package.
DEFAULT_WAVELENGTH_M = 0.057225

# The small-ratio phase expansion needs alpha_r/alpha_d << 1.
DEFAULT_MAX_PATH_RATIO = 0.2


@dataclass(frozen=True)
class SceneGeometry:
    """Deployment geometry: wavelength, ellipse scale psi, derived beta.

    psi = 2*cos(phi) where phi is the angle between the person-to-transceiver
    line and the normal of the reflection ellipse through the body. It is set
    once by the transmitter/receiver/bed placement and does not depend on the
    sleeper's pose.
    """

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    psi: float = 1.0
    beta_rad_per_m: float = field(init=False)

    def __post_init__(self):
        if not (self.wavelength_m > 0 and math.isfinite(self.wavelength_m)):
            raise ValueError(f"wavelength_m must be positive, got {self.wavelength_m}")
        if not (0.0 <= self.psi <= 2.0):
            raise ValueError(f"psi must be in [0, 2], got {self.psi}")
        object.__setattr__(
            self, "beta_rad_per_m", 2.0 * math.pi * self.psi / self.wavelength_m
        )


@dataclass(frozen=True)
class PathParams:
    """Direct- and reflected-path amplitudes and initial phases for one stream.

    alpha_r/alpha_d is capped (default 0.2) because the phase-difference
    approximation is a first-order expansion in that ratio; pass a larger
    ``max_ratio`` to override deliberately.
    """

    alpha_d: float
    mu_d: float
    alpha_r: float
    mu_r: float
    max_ratio: float = DEFAULT_MAX_PATH_RATIO

    def __post_init__(self):
        if not (self.alpha_d > 0 and math.isfinite(self.alpha_d)):
            raise ValueError(f"alpha_d must be positive, got {self.alpha_d}")
        if not (self.alpha_r >= 0 and math.isfinite(self.alpha_r)):
            raise ValueError(f"alpha_r must be non-negative, got {self.alpha_r}")
        ratio = self.alpha_r / self.alpha_d
        if ratio > self.max_ratio:
            raise ValueError(
                f"alpha_r/alpha_d = {ratio:.3f} exceeds max_ratio = {self.max_ratio}; "
                "the phase approximation needs a small ratio (raise max_ratio to override)"
            )

    @property
    def ratio(self) -> float:
        return self.alpha_r / self.alpha_d

    @property
    def delta_mu_m(self) -> float:
        """Initial phase offset of the reflected path relative to the direct path."""
        return self.mu_r - self.mu_d

    @property
    def a_m(self) -> float:
        """Amplitude of the squared-magnitude stream, 2*alpha_d*alpha_r."""
        return 2.0 * self.alpha_d * self.alpha_r


@dataclass(frozen=True)
class SinusoidProfile:
    """Sinusoidal body-part velocity v(t) = v_max*cos(2*pi*f_o*t + phase)."""

    v_max_mps: float
    f_o_hz: float
    duration_s: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not 0 <= self.v_max_mps < math.inf:
            raise ValueError(f"v_max_mps must be finite and non-negative, got {self.v_max_mps!r}")
        for name in ("f_o_hz", "duration_s"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.phase_rad):
            raise ValueError(f"phase_rad must be finite, got {self.phase_rad!r}")

    def velocity_at(self, t: np.ndarray) -> np.ndarray:
        w = 2.0 * math.pi * self.f_o_hz
        return self.v_max_mps * np.cos(w * np.asarray(t, dtype=float) + self.phase_rad)

    def displacement_at(self, t: np.ndarray) -> np.ndarray:
        """Exact integral of the velocity with d(0) = 0."""
        if self.v_max_mps == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        w = 2.0 * math.pi * self.f_o_hz
        t = np.asarray(t, dtype=float)
        return (self.v_max_mps / w) * (np.sin(w * t + self.phase_rad) - math.sin(self.phase_rad))


@dataclass(frozen=True)
class SampledProfile:
    """Velocity waveform sampled at a uniform rate."""

    samples_mps: np.ndarray
    rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples_mps, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples_mps must be a 1-D array with at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples_mps contains non-finite values")
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        object.__setattr__(self, "samples_mps", samples)

    @property
    def duration_s(self) -> float:
        return (self.samples_mps.size - 1) / self.rate_hz

    def velocity_at(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation of the sampled waveform; zero outside its span."""
        t = np.asarray(t, dtype=float)
        own_t = np.arange(self.samples_mps.size) / self.rate_hz
        return np.interp(t, own_t, self.samples_mps, left=0.0, right=0.0)


MotionProfile = SinusoidProfile | SampledProfile


def modulation_index(geometry: SceneGeometry, v_max_mps: float, f_o_hz: float) -> float:
    """Modulation index beta' = psi*v_max/(lambda*f_o) = beta*v_max/omega_o."""
    if f_o_hz <= 0:
        raise ValueError(f"f_o_hz must be > 0, got {f_o_hz}")
    return geometry.psi * v_max_mps / (geometry.wavelength_m * f_o_hz)


def _time_grid(duration_s: float, sample_rate_hz: float) -> np.ndarray:
    n = int(round(duration_s * sample_rate_hz))
    if n < 1:
        raise ValueError("profile duration must cover at least one sample")
    return np.arange(n + 1) / sample_rate_hz


def cumulative_trapezoid(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of v over t, starting at 0: the
    expression of scipy.integrate.cumulative_trapezoid(v, t, initial=0),
    so equal to it bit for bit, without importing scipy.integrate."""
    steps = np.diff(t) * (v[1:] + v[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))[: v.size]


def integrate_velocity(profile: MotionProfile, sample_rate_hz: float) -> np.ndarray:
    """Displacement series d(t) = integral of v(t), sampled at sample_rate_hz.

    The grid spans [0, duration] inclusive of both endpoints. Sinusoid
    profiles integrate analytically; sampled profiles use the cumulative
    trapezoid rule after interpolation onto the output grid. d[0] is
    always 0.
    """
    if sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be > 0, got {sample_rate_hz}")
    t = _time_grid(profile.duration_s, sample_rate_hz)
    if isinstance(profile, SinusoidProfile):
        return profile.displacement_at(t)
    v = profile.velocity_at(t)
    return cumulative_trapezoid(v, t)


def synth_baseband(
    geometry: SceneGeometry,
    paths: PathParams,
    profile: MotionProfile,
    sample_rate_hz: float,
) -> np.ndarray:
    """Complex baseband series c(t) for one (antenna, subcarrier) stream."""
    d = integrate_velocity(profile, sample_rate_hz)
    direct = paths.alpha_d * np.exp(1j * paths.mu_d)
    reflected = paths.alpha_r * np.exp(1j * (paths.mu_r + geometry.beta_rad_per_m * d))
    return direct + reflected


def squared_magnitude(baseband: np.ndarray) -> np.ndarray:
    """Squared magnitude of the baseband series with its mean removed."""
    baseband = np.asarray(baseband)
    if baseband.size == 0:
        raise ValueError("baseband series is empty")
    s = np.abs(baseband) ** 2
    return s - s.mean()


def phase_difference(
    baseband_i: np.ndarray,
    baseband_j: np.ndarray,
    paths_i: PathParams | None = None,
    paths_j: PathParams | None = None,
) -> np.ndarray:
    """Unwrapped phase difference between two antennas' baseband series.

    The difference is formed per sample via angle(c_i * conj(c_j)), then
    unwrapped over time, which applies the standard +/-pi jump correction.
    When path parameters are supplied and the two streams share the same
    dmu_m, a warning is emitted: such a stream carries no motion (A_p = 0).
    """
    ci = np.asarray(baseband_i)
    cj = np.asarray(baseband_j)
    if ci.shape != cj.shape:
        raise ValueError("baseband series must share the sample grid")
    if paths_i is not None and paths_j is not None:
        if paths_i.delta_mu_m == paths_j.delta_mu_m:
            warnings.warn(
                "identical dmu_m on both antennas: phase-difference stream carries "
                "no motion information (A_p = 0)",
                stacklevel=2,
            )
    # one operand order at every length: as an operator, a product of 16 384
    # or more samples would be computed in place as conj(cj) *= ci, which
    # rounds differently
    return np.unwrap(np.angle(np.multiply(ci, np.conj(cj))))


def phase_difference_params(paths_i: PathParams, paths_j: PathParams) -> tuple[float, float]:
    """(A_p, dmu_p) of the small-ratio phase-difference closed form.

    Assumes both antennas share the same alpha_r/alpha_d ratio; uses
    paths_i's ratio.
    """
    ratio = paths_i.ratio
    a_p = 2.0 * ratio * math.sin(0.5 * (paths_i.delta_mu_m - paths_j.delta_mu_m))
    dmu_p = 0.5 * (paths_i.delta_mu_m + paths_j.delta_mu_m)
    return a_p, dmu_p


def squared_magnitude_closed_form(
    geometry: SceneGeometry, paths: PathParams, displacement: np.ndarray
) -> np.ndarray:
    """A_m*cos(beta*d + dmu_m): the squared-magnitude stream up to its DC."""
    arg = geometry.beta_rad_per_m * np.asarray(displacement, dtype=float) + paths.delta_mu_m
    return paths.a_m * np.cos(arg)


def phase_difference_closed_form(
    geometry: SceneGeometry,
    paths_i: PathParams,
    paths_j: PathParams,
    displacement: np.ndarray,
) -> np.ndarray:
    """A_p*cos(beta*d + dmu_p): first-order phase-difference approximation."""
    a_p, dmu_p = phase_difference_params(paths_i, paths_j)
    arg = geometry.beta_rad_per_m * np.asarray(displacement, dtype=float) + dmu_p
    return a_p * np.cos(arg)
