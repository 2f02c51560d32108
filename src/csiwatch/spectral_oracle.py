"""Analytic line spectrum and bandwidth rules for the motion-modulated signal.

For a sinusoidal velocity v(t) = v_max*cos(omega_o*t), the generic stream
y(t) = A*cos(beta'*sin(omega_o*t) + dmu) expands into a Bessel line series:
the n-th harmonic of f_o carries A*cos(dmu)*J_n(beta') for even n and
j*A*sin(dmu)*J_n(beta') for odd n (positive-frequency delta weights; the
n = 0 line equals the signal mean).

The bandwidth of that series follows a Carson-style rule,

    BW = (beta' + 1) * f_o     for beta' >= 1
    BW = 2 * f_o               for beta' <  1,

which feeds the per-motion-class bounds (breathing / seizure / normal sleep
event) and the classification threshold f_th that separates seizures from
normal movements.

Pure and stateless throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signal_model import SceneGeometry

__all__ = [
    "LineSpectrum",
    "MotionClass",
    "CLASS_EXTREMA",
    "BREATHING_BAND_HZ",
    "default_n_max",
    "line_mass",
    "bessel_line_spectrum",
    "carson_bandwidth",
    "grid_resolved_bandwidth",
    "captured_power_fraction",
    "class_bandwidth_bound",
    "derive_f_th",
]

# Two-sided line-mass completeness demanded of a truncated spectrum.
MIN_LINE_MASS = 0.999
# The highest truncation order n_max a spectrum may have, so that an input
# is refused before an array is made; default_n_max stays within it up to
# beta' = 9914.
MAX_N_MAX = 10_000


@dataclass(frozen=True)
class LineSpectrum:
    """Truncated one-sided line spectrum of a sinusoidally modulated stream.

    amplitudes[n] is the complex weight of the positive-frequency delta at
    n*f_o. Even-n weights are real (scaled by cos(dmu)); odd-n weights are
    imaginary (scaled by sin(dmu)). amplitudes[0] equals the signal mean.
    """

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray
    fundamental_hz: float
    modulation_index: float

    @property
    def n_lines(self) -> int:
        return self.frequencies_hz.size

    def power(self) -> np.ndarray:
        """Per-line power of the non-DC lines, counting both frequency signs;
        the DC entry is 0."""
        p = 2.0 * np.abs(self.amplitudes) ** 2
        p[0] = 0.0
        return p


class MotionClass(Enum):
    BREATHING = "breathing"
    SEIZURE = "seizure"
    NORMAL_EVENT = "normal_event"


# Bound-forming motion extrema per class, (f_o in Hz, v_max in m/s): the
# seizure bound takes the class minima (slowest credible seizure), the
# normal-event bound the class maxima (fastest credible normal movement).
# Breathing rate 0.2-0.3 Hz with chest speed <= 0.01 m/s; clonic jerking
# 1.5-5 Hz with peak speed >= 0.48 m/s (a_max >= 15 m/s^2 at 5 Hz); normal
# sleep movements bandlimited to 2 Hz with 99th-percentile speed 0.33 m/s.
CLASS_EXTREMA = {
    MotionClass.BREATHING: (0.3, 0.01),
    MotionClass.SEIZURE: (1.5, 0.48),
    MotionClass.NORMAL_EVENT: (2.0, 0.33),
}

# B_br = 2 * f_o,br: the band that event detection treats as stillness and
# that calibration SNR counts as in-band
BREATHING_BAND_HZ = 2.0 * CLASS_EXTREMA[MotionClass.BREATHING][0]


def default_n_max(beta_prime: float) -> int:
    """Truncation order guaranteeing >= 99.9% of the two-sided line mass."""
    return math.ceil(beta_prime) + max(8, math.ceil(4.0 * beta_prime ** (1.0 / 3.0)))


def line_mass(beta_prime: float, n_max: int) -> float:
    """Two-sided Bessel mass J_0^2 + 2*sum_{n=1..n_max} J_n^2 (total is 1)."""
    from scipy.special import jv  # here, so that `import csiwatch` loads no scipy

    return _mass(jv(np.arange(n_max + 1), beta_prime))


def _mass(j: np.ndarray) -> float:
    """line_mass from the Bessel values J_0..J_n_max."""
    return float(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2))


def bessel_line_spectrum(
    beta_prime: float,
    f_o_hz: float,
    delta_mu_rad: float,
    amplitude: float = 1.0,
    n_max: int | None = None,
) -> LineSpectrum:
    """Line spectrum of A*cos(beta'*sin(2*pi*f_o*t) + dmu), truncated at n_max.

    Raises ValueError, naming the input, for a non-finite input, a negative
    beta' or n_max, an f_o that is not positive, an n_max (given, or
    default_n_max's) above MAX_N_MAX, or an n_max that leaves more than 0.1%
    of the line mass uncaptured.
    """
    _check_modulation(beta_prime, f_o_hz)
    for name, value in (("delta_mu_rad", delta_mu_rad), ("amplitude", amplitude)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if n_max is None:
        n_max = default_n_max(beta_prime)
        if n_max > MAX_N_MAX:
            raise ValueError(f"beta_prime = {beta_prime:g} needs n_max = {n_max:g}, "
                             f"more than {MAX_N_MAX}")
    elif not 0 <= n_max <= MAX_N_MAX:
        raise ValueError(f"n_max must be in [0, {MAX_N_MAX}], got {n_max}")
    from scipy.special import jv

    n = np.arange(n_max + 1)
    j = jv(n, beta_prime)
    if _mass(j) < MIN_LINE_MASS:
        raise ValueError(
            f"n_max = {n_max} captures less than {MIN_LINE_MASS:.1%} of the line "
            f"mass for beta' = {beta_prime}; need n_max >= {default_n_max(beta_prime)}"
        )
    amps = np.where(
        n % 2 == 0,
        amplitude * math.cos(delta_mu_rad) * j,
        1j * amplitude * math.sin(delta_mu_rad) * j,
    ).astype(complex)
    return LineSpectrum(
        frequencies_hz=n * f_o_hz,
        amplitudes=amps,
        fundamental_hz=f_o_hz,
        modulation_index=beta_prime,
    )


def carson_bandwidth(beta_prime: float, f_o_hz: float) -> float:
    """Carson-style bandwidth: (beta'+1)*f_o for beta' >= 1, else 2*f_o."""
    _check_modulation(beta_prime, f_o_hz)
    if beta_prime >= 1.0:
        return (beta_prime + 1.0) * f_o_hz
    return 2.0 * f_o_hz


def _check_modulation(beta_prime: float, f_o_hz: float) -> None:
    if not (math.isfinite(beta_prime) and beta_prime >= 0):
        raise ValueError(f"beta_prime must be finite and >= 0, got {beta_prime}")
    if not (math.isfinite(f_o_hz) and f_o_hz > 0):
        raise ValueError(f"f_o_hz must be finite and > 0, got {f_o_hz}")


def grid_resolved_bandwidth(bandwidth_hz: float, f_o_hz: float) -> float:
    """Bandwidth rounded up to the harmonic grid n*f_o.

    The spectrum is a line series with spacing f_o, so a bandwidth edge
    falling between harmonics resolves to the next line: the harmonic it
    cuts through is counted as inside. Without this, an edge sitting just
    below an integer harmonic would exclude a line that still carries
    non-negligible mass.
    """
    n_edge = math.ceil(bandwidth_hz / f_o_hz - 1e-9)
    return n_edge * f_o_hz


def captured_power_fraction(spectrum: LineSpectrum, bandwidth_hz: float) -> float:
    """Fraction of non-DC line power at |f| <= the grid-resolved bandwidth."""
    p = spectrum.power()
    total = p.sum()
    if total == 0.0:
        return 1.0
    edge = grid_resolved_bandwidth(bandwidth_hz, spectrum.fundamental_hz)
    in_band = spectrum.frequencies_hz <= edge + 1e-9 * spectrum.fundamental_hz
    return float(p[in_band].sum() / total)


def class_bandwidth_bound(motion_class: MotionClass, geometry: SceneGeometry) -> float:
    """Bandwidth bound for a motion class at the given geometry, from its
    CLASS_EXTREMA.

    Breathing: 2*f_o (its modulation index stays below 1 for any pose).
    Seizure / normal event: psi*v_max/lambda + f_o, a lower bound at the
    seizure minima and an upper bound at the normal-event maxima.
    """
    if motion_class is MotionClass.BREATHING:
        return BREATHING_BAND_HZ
    f_o, v_max = CLASS_EXTREMA[motion_class]
    return geometry.psi * v_max / geometry.wavelength_m + f_o


def derive_f_th(geometry: SceneGeometry) -> float:
    """Classification threshold: midpoint of the seizure and normal bounds."""
    bw_sz = class_bandwidth_bound(MotionClass.SEIZURE, geometry)
    bw_nm = class_bandwidth_bound(MotionClass.NORMAL_EVENT, geometry)
    return 0.5 * (bw_sz + bw_nm)
