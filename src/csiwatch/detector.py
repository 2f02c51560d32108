"""Stages 2-3 of the pipeline: event detection and bandwidth classification.

Event detection slides a short rectangular window over the denoised stream
p(t) and flags positions whose spectral energy above the (window-widened)
breathing band exceeds gamma_th = q * sigma_c^2, the scaled noise floor
measured during calibration. Flagged positions merge into events, closing
only after a hysteresis gap of stillness.

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

import numpy as np

from .config import PipelineConfig
from .preprocess import BREATHING_BAND_HZ, CalibrationState

__all__ = [
    "EventClass",
    "DetectedInterval",
    "DetectedEvent",
    "EventBandwidthProfile",
    "sliding_out_of_band_energy",
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
    p: np.ndarray,
    sample_rate_hz: float,
    win_s: float = ED_WINDOW_S,
    hop_s: float = ED_HOP_S,
    f_lo_hz: float = ED_BAND_HZ,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral energy above f_lo for every sliding rectangular window.

    Returns (end_indices, energies): end_indices[i] is the index of the last
    sample in window i. The energy is the two-sided DFT power of the
    windowed segment minus its bins at f <= f_lo, computed exactly via
    Parseval and rolling complex sums of p(t)*exp(-j*2*pi*k*t/L) for the few
    low bins, which is O(N) instead of one FFT per window position.
    """
    p = np.asarray(p, dtype=np.float64)
    fs = sample_rate_hz
    L = int(round(win_s * fs))
    hop = max(int(round(hop_s * fs)), 1)
    n = p.size
    if n < L:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ends = np.arange(L - 1, n, hop)

    csq = np.concatenate([[0.0], np.cumsum(p * p)])
    total = L * (csq[ends + 1] - csq[ends + 1 - L])

    k_lo = int(math.floor(f_lo_hz * L / fs + 1e-9))
    t_idx = np.arange(n)
    low = np.zeros(ends.size)
    for k in range(0, k_lo + 1):
        if k == 0:
            cq = np.concatenate([[0.0], np.cumsum(p)])
            mag_sq = (cq[ends + 1] - cq[ends + 1 - L]) ** 2
        else:
            q = p * np.exp(-2j * math.pi * k * t_idx / L)
            cq = np.concatenate([[0.0 + 0.0j], np.cumsum(q)])
            mag_sq = np.abs(cq[ends + 1] - cq[ends + 1 - L]) ** 2
        low += mag_sq if k == 0 else 2.0 * mag_sq
    return ends, np.maximum(total - low, 0.0)


def detect_event_intervals(
    p: np.ndarray,
    sample_rate_hz: float,
    calibration: CalibrationState,
) -> list[DetectedInterval]:
    """Threshold the sliding out-of-band energy and merge triggers into events.

    H1 holds at a window position when its out-of-band energy exceeds
    gamma_th = q * sigma_c^2. Consecutive H1 positions belong to one event;
    the event closes once H0 persists longer than the hysteresis, so brief
    amplitude nulls inside one movement do not split it.
    """
    if calibration is None:
        raise ValueError("event detection requires a calibration state")
    ends, energies = sliding_out_of_band_energy(p, sample_rate_hz)
    if ends.size == 0:
        return []
    gamma_th = ED_THRESHOLD_Q * calibration.sigma_c_sq
    h1 = energies > gamma_th
    idx = np.flatnonzero(h1)
    if idx.size == 0:
        return []

    hop = max(int(round(ED_HOP_S * sample_rate_hz)), 1)
    max_gap_positions = int(round(EVENT_CLOSE_HYSTERESIS_S * sample_rate_hz / hop))

    runs: list[tuple[int, int]] = []
    run_start = idx[0]
    prev = idx[0]
    for i in idx[1:]:
        if i - prev > max_gap_positions + 1:
            runs.append((run_start, prev))
            run_start = i
        prev = i
    runs.append((run_start, prev))

    fs = sample_rate_hz
    intervals = []
    for first, last in runs:
        start_s = float(ends[first] + 1) / fs
        raw_end_s = float(ends[last] + 1) / fs
        end_s = max(start_s, raw_end_s - ED_WINDOW_S)
        open_at_end = bool(last == ends.size - 1)
        intervals.append(DetectedInterval(start_s, end_s, open_at_end))
    return intervals


def window_percentile_bandwidth(
    x: np.ndarray, sample_rate_hz: float, tail_fraction: float = 0.1
) -> float | None:
    """90th-percentile bandwidth: the smallest frequency above which only
    tail_fraction of the window's non-DC spectral power remains.

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
    k = int(np.argmax(frac_above <= tail_fraction))
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

    def final_median(self) -> float | None:
        if not self.window_bs:
            return None
        return float(statistics.median(self.window_bs))


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
    if interval.duration_s < t_min_s:
        if interval.open_at_end:
            return DetectedEvent(
                interval.start_s, interval.end_s, EventClass.ONGOING
            )
        return DetectedEvent(interval.start_s, interval.end_s, EventClass.NORMAL)

    gate = interval.start_s + t_min_s
    bs: list[float] = []
    pending = sorted(zip(profile.completion_times_s, profile.window_bs))
    i = 0
    while i < len(pending) and pending[i][0] <= gate:
        bs.append(pending[i][1])
        i += 1
    if bs:
        med = float(statistics.median(bs))
        if med > f_th_hz:
            return DetectedEvent(
                interval.start_s, interval.end_s, EventClass.SEIZURE,
                b_pe_hz=med, decision_time_s=gate,
            )
    while i < len(pending):
        t, b = pending[i]
        bs.append(b)
        med = float(statistics.median(bs))
        if med > f_th_hz:
            return DetectedEvent(
                interval.start_s, interval.end_s, EventClass.SEIZURE,
                b_pe_hz=med, decision_time_s=max(t, gate),
            )
        i += 1

    b_pe = float(statistics.median(bs)) if bs else None
    cls = EventClass.ONGOING if interval.open_at_end else EventClass.NORMAL
    return DetectedEvent(interval.start_s, interval.end_s, cls, b_pe_hz=b_pe)


def run_detection(
    p: np.ndarray,
    sample_rate_hz: float,
    calibration: CalibrationState,
    config: PipelineConfig,
    f_th_hz: float,
) -> tuple[list[DetectedEvent], list[EventBandwidthProfile | None]]:
    """Detect and classify every event in p(t).

    Returns the classified events plus, for each, its bandwidth profile
    (None when the duration gate made bandwidth analysis unnecessary).
    """
    intervals = detect_event_intervals(p, sample_rate_hz, calibration)
    events: list[DetectedEvent] = []
    profiles: list[EventBandwidthProfile | None] = []
    for interval in intervals:
        if interval.duration_s < config.t_min_s and not interval.open_at_end:
            events.append(
                DetectedEvent(interval.start_s, interval.end_s, EventClass.NORMAL)
            )
            profiles.append(None)
            continue
        profile = build_event_profile(p, sample_rate_hz, interval)
        events.append(classify_event(profile, f_th_hz, config.t_min_s))
        profiles.append(profile)
    return events, profiles
