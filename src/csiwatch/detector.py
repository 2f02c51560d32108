"""Stages 2-3 of the pipeline: event detection and bandwidth classification.

Event detection slides a short rectangular window over the denoised stream
p(t) and flags positions whose spectral energy above the (window-widened)
breathing band exceeds gamma_th = q * sigma_c^2, the scaled noise floor
measured during calibration. Flagged positions merge into events, closing
only after a hysteresis gap of stillness. Windows start on whole hops, so
each window is a whole number of blocks of gcd(window, hop) samples, and
the window sums come from running sums over blocks, not samples.

Event classification gates out events shorter than T_min, then estimates the
event bandwidth as the running median of per-window 90th-percentile
bandwidths, declaring a seizure the moment that median exceeds f_th.

A detector run is a single-consumer pass over one trace; runs over different
traces are independent.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .spectral_oracle import BREATHING_BAND_HZ

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .preprocess import CalibrationState

__all__ = [
    "EventClass",
    "DetectedInterval",
    "DetectedEvent",
    "EventBandwidthProfile",
    "sliding_out_of_band_energy",
    "check_sample_rate",
    "detection_threshold",
    "detect_event_intervals",
    "window_percentile_bandwidth",
    "build_event_profile",
    "classify_event",
    "run_detection",
]

logger = logging.getLogger(__name__)

ED_WINDOW_S = 2.0  # event-detection window T_win
ED_HOP_S = 0.05
# the breathing band widened by the 1/T_win smearing of the ED window
ED_BAND_HZ = BREATHING_BAND_HZ + 1.0 / ED_WINDOW_S
ED_THRESHOLD_Q = 2.0  # gamma_th = q * sigma_c^2
EVENT_CLOSE_HYSTERESIS_S = 1.0
EC_WINDOW_S = 4.0  # event-classification window
EC_OVERLAP = 0.5
EC_TAIL_FRACTION = 0.1  # B_pe leaves this share of a window's power above it


class EventClass(Enum):
    NORMAL = "normal"
    SEIZURE = "seizure"
    ONGOING = "ongoing"


@dataclass(frozen=True)
class DetectedInterval:
    """A detected non-breathing motion interval, before classification.

    start_s is the end time of the first triggered detection window, so it
    never precedes the physical motion onset. end_s compensates the window
    tail: the last triggered window still contains trailing event energy.
    """

    start_s: float
    end_s: float
    open_at_end: bool = False

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class DetectedEvent:
    """A classified event. decision_time_s records when a seizure verdict
    fired (trace time), never earlier than start_s + T_min."""

    start_s: float
    end_s: float
    event_class: EventClass
    b_pe_hz: float | None = None
    decision_time_s: float | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def sliding_out_of_band_energy(
    p: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral energy above ED_BAND_HZ for every ED_WINDOW_S rectangular
    window, at ED_HOP_S hops.

    Returns (end_indices, energies): end_indices[i] is the index of the last
    sample in window i. The energy is the two-sided DFT power of the
    windowed segment minus its bins at f <= ED_BAND_HZ, computed exactly via
    Parseval from running sums of p(t)^2 and of p(t)*exp(-j*2*pi*k*t/L) for
    the few low bins k, which is O(N) instead of one FFT per window position.

    Windows start on whole hops, so with blocks of g = gcd(L, hop) samples
    (10 at 200 Hz, 2 at 110 Hz) every window is L/g whole blocks, and the
    running sums need only one row per block: one (n/g x g) @ (g x bins)
    product gives each block's bin sums, which are then turned to the
    phase of the block's first sample, t mod L. On a one-hour 200 Hz p(t)
    (2 vCPUs) a call takes 17-23 ms, and its tracemalloc peak is 16.7 MB,
    2.9 times p's 5.8 MB.
    """
    p = np.asarray(p, dtype=np.float64)
    fs = sample_rate_hz
    L = int(round(ED_WINDOW_S * fs))
    hop = max(int(round(ED_HOP_S * fs)), 1)
    n = p.size
    if n < L:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ends = np.arange(L - 1, n, hop)

    g = math.gcd(L, hop)
    blocks = p[: ends[-1] + 1].reshape(-1, g)
    k_lo = int(math.floor(ED_BAND_HZ * L / fs + 1e-9))
    k = np.arange(k_lo + 1)
    # a real product with the basis's interleaved (re, im) columns, read
    # back as complex: the blocks are not cast to complex
    basis = np.exp(-2j * math.pi * np.outer(np.arange(g), k) / L)
    sums = (blocks @ basis.view(np.float64)).view(np.complex128)
    # each block's sums turned to the phase of its first sample, t mod L
    sums *= np.exp(-2j * math.pi * np.outer(np.arange(0, ends[-1] + 1, g) % L, k) / L)
    running = np.zeros((blocks.shape[0] + 1, k.size), dtype=np.complex128)
    np.cumsum(sums, axis=0, out=running[1:])
    running_sq = np.zeros(blocks.shape[0] + 1)
    np.cumsum(np.einsum("ij,ij->i", blocks, blocks), out=running_sq[1:])

    hi = (ends + 1) // g
    lo = hi - L // g
    total = L * (running_sq[hi] - running_sq[lo])
    power = np.abs(running[hi] - running[lo]) ** 2
    low = power[:, 0] + 2.0 * power[:, 1:].sum(axis=1)
    return ends, np.maximum(total - low, 0.0)


def check_sample_rate(sample_rate_hz: float) -> None:
    """Refuse a sample rate whose Nyquist frequency is at or below ED_BAND_HZ:
    no band is left above it, so no event could be detected."""
    fs = sample_rate_hz
    if fs / 2 <= ED_BAND_HZ:
        raise ValueError(
            f"a trace sampled at {fs:g} Hz has its Nyquist frequency {fs / 2:g} Hz at or "
            f"below the {ED_BAND_HZ:g} Hz band event detection leaves out"
        )


def detection_threshold(calibration: CalibrationState) -> float:
    """gamma_th = q * sigma_c^2, the out-of-band energy above which a window
    position holds H1."""
    return ED_THRESHOLD_Q * calibration.sigma_c_sq


def detect_event_intervals(
    p: np.ndarray,
    sample_rate_hz: float,
    calibration: CalibrationState,
) -> list[DetectedInterval]:
    """Threshold the sliding out-of-band energy and merge triggers into events.

    H1 holds at a window position when its out-of-band energy exceeds
    gamma_th = q * sigma_c^2 (detection_threshold). The H1 positions split
    into runs wherever more than the hysteresis of H0 positions lies between
    two of them, so brief amplitude nulls inside one movement do not split
    it. Each run is one event: it starts where its first window ends and
    ends ED_WINDOW_S before its last window ends, and it is open at the end
    when its last window is the trace's last.
    """
    if calibration is None:
        raise ValueError("event detection requires a calibration state")
    ends, energies = sliding_out_of_band_energy(p, sample_rate_hz)
    h1 = np.flatnonzero(energies > detection_threshold(calibration))
    if h1.size == 0:
        return []

    hop = max(int(round(ED_HOP_S * sample_rate_hz)), 1)
    max_gap_positions = int(round(EVENT_CLOSE_HYSTERESIS_S * sample_rate_hz / hop))
    cut = np.flatnonzero(np.diff(h1) > max_gap_positions + 1)
    first = h1[np.r_[0, cut + 1]]
    last = h1[np.r_[cut, h1.size - 1]]

    fs = sample_rate_hz
    start_s = (ends[first] + 1) / fs
    end_s = np.maximum(start_s, (ends[last] + 1) / fs - ED_WINDOW_S)
    open_at_end = last == ends.size - 1
    return [DetectedInterval(*row)
            for row in zip(start_s.tolist(), end_s.tolist(), open_at_end.tolist())]


def window_percentile_bandwidth(x: np.ndarray, sample_rate_hz: float) -> float | None:
    """90th-percentile bandwidth: the smallest frequency above which only
    EC_TAIL_FRACTION of the window's non-DC spectral power remains.

    The DC bin is excluded: it is an artifact of windowing a nonzero-mean
    segment. Returns None for a zero-power window.
    """
    x = np.asarray(x, dtype=np.float64)
    power = np.abs(np.fft.rfft(x)) ** 2
    dc = power[0]
    power[0] = 0.0
    total = power.sum()
    if total <= 1e-12 * (total + dc):  # constant window: FFT rounding only
        return None
    frac_above = 1.0 - np.cumsum(power) / total
    k = int(np.argmax(frac_above <= EC_TAIL_FRACTION))
    return k * sample_rate_hz / x.size


@dataclass(frozen=True)
class EventBandwidthProfile:
    """Per-window bandwidths of one event, with their completion times.

    The trajectory is a pure function of (p, interval, window scheme): the
    running median over it drives the classification verdict, so sweeps over
    f_th or T_min can re-classify without recomputing any FFT.
    """

    interval: DetectedInterval
    window_bs: tuple[float, ...]
    completion_times_s: tuple[float, ...]


def build_event_profile(
    p: np.ndarray,
    sample_rate_hz: float,
    interval: DetectedInterval,
) -> EventBandwidthProfile:
    """Per-window 90th-percentile bandwidths over the event's extent.

    Consecutive windows of EC_WINDOW_S seconds overlap by EC_OVERLAP; an event
    too short for one full window contributes a single truncated window.
    """
    fs = sample_rate_hz
    s = int(round(interval.start_s * fs))
    e = min(int(round(interval.end_s * fs)), p.size)
    L = int(round(EC_WINDOW_S * fs))
    hop = max(int(round(L * (1.0 - EC_OVERLAP))), 1)

    offsets = list(range(s, e - L + 1, hop))
    window_bs = []
    completions = []
    if offsets:
        for off in offsets:
            b = window_percentile_bandwidth(p[off : off + L], fs)
            if b is None:
                logger.warning(
                    "zero-power classification window at %.2f s skipped", off / fs
                )
                continue
            window_bs.append(b)
            completions.append((off + L) / fs)
    elif e - s >= 2:
        b = window_percentile_bandwidth(p[s:e], fs)
        if b is not None:
            window_bs.append(b)
            completions.append(e / fs)
    return EventBandwidthProfile(interval, tuple(window_bs), tuple(completions))


def classify_event(
    profile: EventBandwidthProfile,
    f_th_hz: float,
    t_min_s: float,
) -> DetectedEvent:
    """Classify one event from its bandwidth trajectory.

    Events shorter than T_min are normal by definition. Otherwise the
    verdict check runs at start + T_min with every window completed by then,
    and again at each later window completion: the first check where the
    running median exceeds f_th declares a seizure. An event that ends
    without crossing is normal; an event still running at the end of the
    trace without a verdict stays ongoing.
    """
    interval = profile.interval
    bs: list[float] = []
    if interval.duration_s >= t_min_s:
        gate = interval.start_s + t_min_s
        pending = sorted(zip(profile.completion_times_s, profile.window_bs))
        for k, (t, b) in enumerate(pending):
            bs.append(b)
            if k + 1 < len(pending) and pending[k + 1][0] <= gate:
                continue
            med = float(statistics.median(bs))
            if med > f_th_hz:
                return DetectedEvent(
                    interval.start_s, interval.end_s, EventClass.SEIZURE,
                    b_pe_hz=med, decision_time_s=max(t, gate),
                )

    b_pe = float(statistics.median(bs)) if bs else None
    cls = EventClass.ONGOING if interval.open_at_end else EventClass.NORMAL
    return DetectedEvent(interval.start_s, interval.end_s, cls, b_pe_hz=b_pe)


def run_detection(
    p: np.ndarray,
    sample_rate_hz: float,
    calibration: CalibrationState,
    config: PipelineConfig,
    f_th_hz: float,
) -> list[DetectedEvent]:
    """Detect and classify every event in p(t).

    A closed event shorter than T_min is normal without a bandwidth profile.
    """
    intervals = detect_event_intervals(p, sample_rate_hz, calibration)
    events: list[DetectedEvent] = []
    for interval in intervals:
        if interval.duration_s < config.t_min_s and not interval.open_at_end:
            events.append(
                DetectedEvent(interval.start_s, interval.end_s, EventClass.NORMAL)
            )
            continue
        profile = build_event_profile(p, sample_rate_hz, interval)
        events.append(classify_event(profile, f_th_hz, config.t_min_s))
    return events
