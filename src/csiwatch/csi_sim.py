"""Labeled multi-antenna, multi-subcarrier CSI trace generation.

Builds overnight-style scenarios: continuous chest breathing plus scheduled
motion events (seizures, posture shifts, scratches, coughs, limb jerks), each
a velocity profile superposed on the breathing velocity. Every (antenna,
subcarrier) stream gets independently drawn path parameters; receiver noise,
impulsive magnitude outliers, and packet-timing jitter are applied on top.

Trace generation is deterministic in (scenario, geometry, noise, seed). It
builds each stream by whole-row operations; when a trace has
receiver noise, the csiwatch-noise lane's one worker thread draws each noisy
stream's normals from the trace's generator, in stream order and at most one
stream ahead, so the same draws land on the same samples as in a serial run
and the output does not depend on the thread. A CsiTrace checks its CSI
once, when built, and is read-only from then on.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._lanes import lane_pool
from .signal_model import (
    MotionProfile,
    PathParams,
    SampledProfile,
    SceneGeometry,
    SinusoidProfile,
    cumulative_trapezoid,
)

__all__ = [
    "EventKind",
    "ScenarioEvent",
    "Scenario",
    "NoiseSpec",
    "LabelInterval",
    "CsiTrace",
    "breathing_profile",
    "seizure_profile",
    "posture_shift_profile",
    "scratch_profile",
    "cough_profile",
    "limb_jerk_profile",
    "event_motion",
    "build_night_scenario",
    "generate_trace",
    "superpose_person",
]

# the packet rate of a trace, and of the sampled motion profiles, unless set
SAMPLE_RATE_HZ = 200.0
# reflected-to-direct path amplitude ratio, drawn per stream and per person
PATH_RATIO_RANGE = (0.05, 0.15)
# build_night_scenario: an event-free lead-in for calibration, and the
# stillness kept between consecutive events
NIGHT_START_CLEAR_S = 20.0
NIGHT_MIN_GAP_S = 8.0


class EventKind(Enum):
    SEIZURE = "seizure"
    POSTURE_SHIFT = "posture_shift"
    LIMB_JERK = "limb_jerk"
    SCRATCH = "scratch"
    COUGH = "cough"


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled motion event of a person's night."""

    kind: EventKind
    start_s: float
    duration_s: float
    motion: MotionProfile

    def __post_init__(self):
        if not (0 <= self.start_s < math.inf and 0 < self.duration_s < math.inf):
            raise ValueError("event must have finite start_s >= 0 and duration_s > 0")
        _check_duration(self.kind, self.duration_s)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class Scenario:
    """A person's full night: continuous breathing plus scheduled events."""

    duration_s: float
    breathing: SinusoidProfile
    events: tuple[ScenarioEvent, ...] = ()

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s!r}")
        events = tuple(sorted(self.events, key=lambda e: e.start_s))
        for ev in events:
            if ev.end_s > self.duration_s:
                raise ValueError(f"event at {ev.start_s} s extends past the scenario end")
        for a, b in zip(events, events[1:]):
            if b.start_s < a.end_s:
                raise ValueError(
                    f"overlapping events at {a.start_s} s and {b.start_s} s "
                    "(same-person events must not overlap)"
                )
        object.__setattr__(self, "events", events)


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver impairments applied to the clean trace.

    awgn_sigma is the per-sample complex noise standard deviation in
    channel-gain units; a scalar applies to every stream, an (n_rx, n_sc)
    array sets it per stream. Outliers are isolated magnitude spikes of
    outlier_magnitude stream standard deviations, arriving at
    outlier_rate_per_s per stream. jitter_std_s perturbs packet timestamps.
    """

    awgn_sigma: float | np.ndarray = 0.0
    outlier_rate_per_s: float = 0.0
    outlier_magnitude: float = 8.0
    jitter_std_s: float = 0.0

    def __post_init__(self):
        for name in ("awgn_sigma", "outlier_rate_per_s", "outlier_magnitude", "jitter_std_s"):
            value = np.asarray(getattr(self, name), dtype=float)
            bad = value[~(np.isfinite(value) & (value >= 0))]
            if bad.size:
                raise ValueError(f"{name} must be finite and non-negative, got {float(bad[0])!r}")


@dataclass(frozen=True)
class LabelInterval:
    """Ground-truth label interval, per person."""

    start_s: float
    end_s: float
    kind: EventKind
    person_id: int = 1

    @property
    def is_seizure(self) -> bool:
        return self.kind is EventKind.SEIZURE


@dataclass(frozen=True)
class CsiTrace:
    """Uniform-rate multi-stream CSI record with ground truth.

    csi is stream-major, shape (n_rx, n_sc, n_samples), float or complex,
    and finite; timestamps_s holds the actual (possibly jittered) packet
    arrival times, one per sample, finite and strictly increasing, the first
    within half a sample period of 0 s. Packets may be missing: the trace
    spans the uniform grid through its last packet. events are the
    ground-truth intervals. The alpha/mu arrays hold the per-stream path
    parameters of person 1 where the trace was simulated, and are None where
    they are unknown (a trace read from a file).

    Building a trace, dataclasses.replace too, checks all this, so no later
    stage checks CSI; the first non-finite sample, in antenna then
    subcarrier order, is named. A built trace is frozen, and the csi and
    timestamps_s given to it are made read-only.
    """

    sample_rate_hz: float
    csi: np.ndarray
    timestamps_s: np.ndarray
    events: tuple[LabelInterval, ...]
    geometry: SceneGeometry
    alpha_d: np.ndarray | None = None
    mu_d: np.ndarray | None = None
    alpha_r: np.ndarray | None = None
    mu_r: np.ndarray | None = None
    outlier_log: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        # every span and grid below divides by the rate
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(
                f"sample_rate_hz must be finite and positive, got {self.sample_rate_hz!r}"
            )
        if self.timestamps_s.shape != (self.n_samples,):
            raise ValueError(
                f"timestamps_s has shape {self.timestamps_s.shape}, "
                f"expected one entry per sample ({self.n_samples},)"
            )
        if self.n_samples == 0:
            raise ValueError("a trace holds at least one sample")
        bad = ~np.isfinite(self.timestamps_s)
        if bad.any():
            raise ValueError(f"non-finite timestamp at record {int(np.argmax(bad))}")
        not_increasing = np.diff(self.timestamps_s) <= 0
        if not_increasing.any():
            k = int(np.argmax(not_increasing)) + 1
            raise ValueError(f"timestamps do not strictly increase at record {k}")
        # the span is read off the last timestamp, so the clock must start at 0
        if not abs(self.timestamps_s[0]) <= 0.5 / self.sample_rate_hz:
            raise ValueError(
                f"first packet at {self.timestamps_s[0]!r} s; a trace starts within "
                "half a sample period of 0 s"
            )
        if self.csi.dtype.kind not in "fc":
            raise ValueError(f"CSI must be float or complex, got dtype {self.csi.dtype}")
        # one stream row at a time, as its real and imaginary parts: NaN
        # propagates through min and max, and an Inf is one of them
        real = np.finfo(self.csi.dtype).dtype
        for rx, sc in np.ndindex(self.csi.shape[:2]):
            parts = np.ascontiguousarray(self.csi[rx, sc]).view(real)
            if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
                t = self.timestamps_s[np.argmin(np.isfinite(self.csi[rx, sc]))]
                raise ValueError(
                    f"non-finite CSI sample on antenna {rx}, subcarrier {sc} at {t:.3f} s"
                )
        self.csi.flags.writeable = False
        self.timestamps_s.flags.writeable = False

    @property
    def n_rx(self) -> int:
        return self.csi.shape[0]

    @property
    def n_sc(self) -> int:
        return self.csi.shape[1]

    @property
    def n_samples(self) -> int:
        return self.csi.shape[2]

    @property
    def duration_s(self) -> float:
        """Span of the uniform grid through the last packet's sample."""
        fs = self.sample_rate_hz
        return (round(self.timestamps_s[-1] * fs) + 1) / fs

    @property
    def n_streams(self) -> int:
        """Derived data streams available: (2*n_rx - 1) * n_sc."""
        return (2 * self.n_rx - 1) * self.n_sc

    def path_params(self, rx: int, sc: int) -> PathParams:
        if self.alpha_d is None:
            raise ValueError("this trace carries no path parameters")
        return PathParams(
            alpha_d=float(self.alpha_d[rx, sc]),
            mu_d=float(self.mu_d[rx, sc]),
            alpha_r=float(self.alpha_r[rx, sc]),
            mu_r=float(self.mu_r[rx, sc]),
            max_ratio=np.inf,
        )

    def content_hash(self) -> str:
        """SHA-256 over the trace content; stable for identical traces."""
        h = hashlib.sha256()
        h.update(
            f"{self.sample_rate_hz!r},{self.n_rx},{self.n_sc},{self.csi.dtype}".encode()
        )
        h.update(self.csi.tobytes())
        h.update(self.timestamps_s.tobytes())
        for ev in self.events:
            h.update(f"{ev.start_s!r},{ev.end_s!r},{ev.kind.value},{ev.person_id}".encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Motion profile library
# ---------------------------------------------------------------------------

def breathing_profile(
    duration_s: float,
    f_o_hz: float = 0.25,
    displacement_m: float = 0.005,
    phase_rad: float = 0.0,
) -> SinusoidProfile:
    """Chest breathing: sinusoid with the given peak chest displacement.

    v_max = 2*pi*f_o*displacement, so the integral swings +/-displacement.
    """
    return SinusoidProfile(
        v_max_mps=2.0 * math.pi * f_o_hz * displacement_m,
        f_o_hz=f_o_hz,
        duration_s=duration_s,
        phase_rad=phase_rad,
    )


def seizure_profile(
    duration_s: float,
    v_max_mps: float,
    f_o_hz: float,
    phase_rad: float = 0.0,
    tonic_s: float = 0.0,
    rate_hz: float = SAMPLE_RATE_HZ,
) -> MotionProfile:
    """Clonic-phase jerking: sinusoid at 1.5-5 Hz, optionally preceded by a
    tonic stiffening segment of tonic_s in [0, duration_s) in which the
    body holds still (zero velocity)."""
    if not 0.0 <= tonic_s < duration_s:
        raise ValueError(f"tonic_s must lie in [0, {duration_s!r}) s, got {tonic_s!r}")
    if tonic_s == 0.0:
        return SinusoidProfile(v_max_mps, f_o_hz, duration_s, phase_rad)
    n_tonic = int(round(tonic_s * rate_hz))
    t_clonic = np.arange(int(round((duration_s - tonic_s) * rate_hz)) + 1) / rate_hz
    clonic = v_max_mps * np.cos(2.0 * math.pi * f_o_hz * t_clonic + phase_rad)
    return SampledProfile(np.concatenate([np.zeros(n_tonic), clonic]), rate_hz)


def _smooth_lobe(duration_s: float, v_peak: float, rate_hz: float) -> np.ndarray:
    """sin^2 velocity lobe: C1-smooth, spectral content ~2/duration wide."""
    n = max(int(round(duration_s * rate_hz)), 4)
    tau = np.arange(n) / (n - 1)
    return v_peak * np.sin(math.pi * tau) ** 2


def posture_shift_profile(
    duration_s: float,
    v_max_mps: float = 0.3,
    rng: np.random.Generator | None = None,
    rate_hz: float = SAMPLE_RATE_HZ,
) -> SampledProfile:
    """Posture adjustment: a few smooth pushes separated by short pauses."""
    rng = rng or np.random.default_rng(0)
    n = int(round(duration_s * rate_hz))
    v = np.zeros(n)
    t = 0.0
    sign = 1.0 if rng.random() < 0.5 else -1.0
    while t < duration_s - 1.0:
        lobe_s = min(float(rng.uniform(1.0, 2.0)), duration_s - t)
        peak = v_max_mps * float(rng.uniform(0.6, 1.0))
        lobe = _smooth_lobe(lobe_s, sign * peak, rate_hz)
        i0 = int(round(t * rate_hz))
        i1 = min(i0 + lobe.size, n)
        v[i0:i1] += lobe[: i1 - i0]
        sign = -sign
        t += lobe_s + float(rng.uniform(0.2, 0.6))
    if not np.any(v):
        lobe = _smooth_lobe(min(1.0, duration_s), v_max_mps, rate_hz)[:n]
        v[: lobe.size] = lobe
    return SampledProfile(v, rate_hz)


def scratch_profile(
    duration_s: float,
    rng: np.random.Generator | None = None,
    rate_hz: float = SAMPLE_RATE_HZ,
) -> SampledProfile:
    """Scratching: slow arm repositioning with a faint 3-6 Hz tremor on top.

    The tremor amplitude is kept small so its sidebands carry a negligible
    share of the stream power; the bulk of the motion energy stays below
    ~1 Hz, as accelerometry of normal sleep movements shows.
    """
    rng = rng or np.random.default_rng(0)
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    envelope = np.sin(math.pi * np.minimum(t / duration_s, 1.0)) ** 2
    slow = float(rng.uniform(0.12, 0.2)) * envelope * np.cos(
        2.0 * math.pi * float(rng.uniform(0.3, 0.6)) * t
    )
    tremor_f = float(rng.uniform(3.0, 6.0))
    tremor = float(rng.uniform(0.01, 0.03)) * envelope * np.sin(
        2.0 * math.pi * tremor_f * t
    )
    return SampledProfile(slow + tremor, rate_hz)


def cough_profile(
    duration_s: float,
    rng: np.random.Generator | None = None,
    rate_hz: float = SAMPLE_RATE_HZ,
) -> SampledProfile:
    """Coughing: two to four short chest heaves."""
    rng = rng or np.random.default_rng(0)
    n = int(round(duration_s * rate_hz))
    v = np.zeros(n)
    n_bursts = int(rng.integers(2, 5))
    t = 0.05 * duration_s
    for _ in range(n_bursts):
        burst_s = float(rng.uniform(0.35, 0.5))
        if t + burst_s >= duration_s:
            break
        lobe = _smooth_lobe(burst_s, float(rng.uniform(0.12, 0.22)), rate_hz)
        i0 = int(round(t * rate_hz))
        i1 = min(i0 + lobe.size, n)
        v[i0:i1] += lobe[: i1 - i0]
        t += burst_s + float(rng.uniform(0.15, 0.4))
    return SampledProfile(v, rate_hz)


def limb_jerk_profile(
    duration_s: float = 0.3,
    v_max_mps: float = 0.5,
    rate_hz: float = SAMPLE_RATE_HZ,
) -> SampledProfile:
    """Quick limb jerk: a single fast lobe, within its kind's duration_range_s.
    Jerks may exceed the normal-event speed bound; the duration gate handles them."""
    _check_duration(EventKind.LIMB_JERK, duration_s)
    return SampledProfile(_smooth_lobe(duration_s, v_max_mps, rate_hz), rate_hz)


class _MotionKind(NamedTuple):
    """How one event kind becomes a motion profile."""

    factory: Callable[..., MotionProfile]
    defaults: dict[str, float]  # the parameters a scenario may set
    night_duration_s: tuple[float, float]  # build_night_scenario's duration draw
    takes_rng: bool = False
    duration_range_s: tuple[float, float] = (0.0, math.inf)  # what any event may last


# build_night_scenario cycles through the normal kinds in this order
_MOTION_KINDS = {
    EventKind.SEIZURE: _MotionKind(
        seizure_profile, {"v_max_mps": 0.75, "f_o_hz": 3.0, "phase_rad": 0.0, "tonic_s": 0.0},
        (20.0, 26.0), duration_range_s=(20.0, math.inf),
    ),
    EventKind.POSTURE_SHIFT: _MotionKind(
        posture_shift_profile, {"v_max_mps": 0.3}, (6.0, 10.0), takes_rng=True
    ),
    EventKind.SCRATCH: _MotionKind(scratch_profile, {}, (3.0, 6.0), takes_rng=True),
    EventKind.COUGH: _MotionKind(cough_profile, {}, (1.2, 2.0), takes_rng=True),
    EventKind.LIMB_JERK: _MotionKind(
        limb_jerk_profile, {"v_max_mps": 0.5}, (0.2, 0.35), duration_range_s=(0.0, 0.4)
    ),
}


def _check_duration(kind: EventKind, duration_s: float) -> None:
    """Refuse a duration outside the kind's duration_range_s."""
    lo, hi = _MOTION_KINDS[kind].duration_range_s
    if duration_s < lo:
        raise ValueError(f"{kind.value} events last at least {lo} s, got {duration_s}")
    if duration_s > hi:
        raise ValueError(f"{kind.value} events last at most {hi} s, got {duration_s}")


def event_motion(
    kind: EventKind, duration_s: float, rng: np.random.Generator, rate_hz: float, /, **params
) -> MotionProfile:
    """The motion profile of one event of the given kind.

    params override the kind's parameter defaults; any other key raises
    ValueError. Only posture shifts, scratches and coughs draw from rng.
    """
    motion = _MOTION_KINDS[kind]
    unknown = sorted(params.keys() - motion.defaults.keys())
    if unknown:
        allowed = ", ".join(motion.defaults) or "none"
        raise ValueError(
            f"unknown {kind.value} event parameter {unknown[0]!r} (allowed: {allowed})"
        )
    kwargs = {name: float(params.get(name, value)) for name, value in motion.defaults.items()}
    if motion.takes_rng:
        kwargs["rng"] = rng
    return motion.factory(duration_s, rate_hz=rate_hz, **kwargs)


def build_night_scenario(
    duration_s: float,
    n_seizures: int,
    n_normal_events: int,
    seed: int,
    breathing: SinusoidProfile | None = None,
    seizure_v_range: tuple[float, float] = (0.7, 0.8),
    seizure_f_range: tuple[float, float] = (2.0, 3.5),
    rate_hz: float = SAMPLE_RATE_HZ,
) -> Scenario:
    """Compose a night: breathing throughout, randomized non-overlapping events.

    The leading NIGHT_START_CLEAR_S seconds stay event-free for calibration,
    each event ends at least 1 s before the night does, and consecutive
    events are at least NIGHT_MIN_GAP_S apart; a night too short for an
    event's drawn duration is refused before any start is drawn. The
    default seizure draw ranges sit inside the clonic-phase parameter ranges
    but away from the detectability boundary, so every generated seizure's
    spectral signature clears the classification threshold regardless of the
    per-deployment phase offsets. The night breathes with `breathing`, or
    with breathing_profile(duration_s) when it is None; no event draw reads it.
    """
    for name, count in (("n_seizures", n_seizures), ("n_normal_events", n_normal_events)):
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")
    if breathing is None:
        breathing = breathing_profile(duration_s)
    rng = np.random.default_rng(seed)
    normal_kinds = [kind for kind in _MOTION_KINDS if kind is not EventKind.SEIZURE]
    kinds = [EventKind.SEIZURE] * n_seizures + [
        normal_kinds[i % len(normal_kinds)] for i in range(n_normal_events)
    ]
    durations = [float(rng.uniform(*_MOTION_KINDS[kind].night_duration_s)) for kind in kinds]
    # each event starts after the lead-in and ends 1 s before the night does
    for kind, dur in zip(kinds, durations):
        if duration_s - dur - 1.0 < NIGHT_START_CLEAR_S:
            raise ValueError(
                f"{kind.value} event of {dur:.1f} s does not fit a {duration_s:g} s night: "
                f"after the {NIGHT_START_CLEAR_S:g} s event-free lead-in it needs "
                f"{NIGHT_START_CLEAR_S + dur + 1.0:.1f} s"
            )

    # Rejection-sample non-overlapping start times with the required gaps.
    placed: list[tuple[float, float]] = []
    starts = []
    for dur in durations:
        for _attempt in range(10000):
            s = float(rng.uniform(NIGHT_START_CLEAR_S, duration_s - dur - 1.0))
            if all(s + dur + NIGHT_MIN_GAP_S <= a or b + NIGHT_MIN_GAP_S <= s
                   for a, b in placed):
                placed.append((s, s + dur))
                starts.append(s)
                break
        else:
            raise ValueError("could not place all events; scenario too crowded")

    # Parameters drawn per event, in this order, before its motion is built.
    drawn = {
        EventKind.SEIZURE: {"v_max_mps": seizure_v_range, "f_o_hz": seizure_f_range,
                            "phase_rad": (0.0, 2.0 * math.pi)},
        EventKind.LIMB_JERK: {"v_max_mps": (0.3, 0.6)},
    }
    events = []
    for kind, dur, start in zip(kinds, durations, starts):
        params = {name: float(rng.uniform(*r)) for name, r in drawn.get(kind, {}).items()}
        motion = event_motion(kind, dur, rng, rate_hz, **params)
        events.append(ScenarioEvent(kind, start, dur, motion))

    return Scenario(duration_s=duration_s, breathing=breathing, events=tuple(events))


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

def scenario_displacement(scenario: Scenario, t: np.ndarray) -> np.ndarray:
    """Total body displacement along the ellipse normal at times t.

    Event velocities superpose on the breathing velocity, so displacements
    add. Each event adds its own displacement over the times [lo, hi) it
    spans, and after them the net displacement it leaves (the body part
    stays where the movement left it); it adds nothing before it starts.
    """
    t = np.asarray(t, dtype=float)
    d = scenario.breathing.displacement_at(t)
    for ev in scenario.events:
        lo = np.searchsorted(t, ev.start_s, side="left")
        hi = np.searchsorted(t, ev.end_s, side="right")
        local = np.clip(t[lo:hi] - ev.start_s, 0.0, ev.duration_s)
        if isinstance(ev.motion, SinusoidProfile):
            seg = ev.motion.displacement_at(local)
            final = float(ev.motion.displacement_at(np.array([ev.duration_s]))[0])
        else:
            seg = cumulative_trapezoid(ev.motion.velocity_at(local), t[lo:hi])
            final = float(seg[-1]) if seg.size else 0.0
        d[lo:hi] += seg
        d[hi:] += final
    return d


def _label_intervals(scenario: Scenario, person_id: int) -> tuple[LabelInterval, ...]:
    return tuple(
        LabelInterval(ev.start_s, ev.end_s, ev.kind, person_id) for ev in scenario.events
    )


def _stream_magnitude_std(stream: np.ndarray) -> float:
    mag = stream.real.astype(np.float64) ** 2 + stream.imag.astype(np.float64) ** 2
    np.sqrt(mag, out=mag)
    return float(mag.std())


def _check_ratio_range(ratio_range) -> None:
    try:
        lo, hi = (float(v) for v in ratio_range)
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not 0 <= lo <= hi < math.inf:
        raise ValueError(
            f"ratio_range must be two finite values lo, hi with 0 <= lo <= hi, "
            f"got {ratio_range!r}"
        )


def generate_trace(
    scenario: Scenario,
    geometry: SceneGeometry,
    noise: NoiseSpec | None = None,
    seed: int = 0,
    n_rx: int = 3,
    n_sc: int = 30,
    sample_rate_hz: float = SAMPLE_RATE_HZ,
    ratio_range: tuple[float, float] = PATH_RATIO_RANGE,
    dtype=np.complex128,
) -> CsiTrace:
    """Generate a labeled CSI trace for one person.

    Each (antenna, subcarrier) stream draws an independent direct-path phase,
    reflected-path phase offset (uniform on [0, 2pi)) and amplitude ratio
    (uniform on ratio_range). The complex channel of every stream shares the
    same body displacement; only the per-stream constants differ, so the
    synthesis multiplies a single motion phasor by per-stream coefficients.

    Each stream is built by whole-row operations: the motion phasor times
    the reflected-path coefficient, plus the direct-path one, plus on a
    noisy stream sigma / sqrt(2) times its normals in float64, so that each
    noisy sample is rounded to the CSI dtype once; where outliers are on,
    its magnitude spread is taken right after. With receiver noise on, the
    csiwatch-noise lane's worker draws the noise one stream ahead of that
    pass, into two buffers of one stream's draws that take turns: noisy
    stream k + 1 is drawn into stream k - 1's buffer once the pass takes
    stream k. The draws, their order and every sample are those of a serial
    run, so the trace does not depend on the thread. No thread outlives the
    call. Against the same draws made on the caller (3x30 complex64 streams,
    2 vCPUs, interleaved pairs, medians) the lane won 5/5 pairs on an hour
    (1.53 against 2.43 s) and 5/11 on 600 s (409 against 401 ms), and lost
    20/21 on 60 s (46.9 against 44.5 ms): 2.4 ms, too little for a size rule.

    dtype complex64 halves memory; on a one-hour 3x30 night with noise it is
    only ~10 % faster than complex128, as drawing the noise sets the pace
    of both. complex128 keeps the noiseless closed-form agreement at the
    1e-9 level.
    """
    noise = noise or NoiseSpec()
    if n_rx < 1 or n_sc < 1:
        raise ValueError("n_rx and n_sc must be >= 1")
    if np.dtype(dtype) not in (np.complex64, np.complex128):
        raise ValueError(f"dtype must be complex64 or complex128, got {np.dtype(dtype)}")
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(f"sample_rate_hz must be finite and positive, got {sample_rate_hz!r}")
    _check_ratio_range(ratio_range)
    rng = np.random.default_rng(seed)
    n = int(round(scenario.duration_s * sample_rate_hz))
    if n < 2:
        raise ValueError("scenario too short for the sample rate")
    # before any draw or other array of trace length: a trace too large to
    # hold is an input error
    try:
        csi = np.empty((n_rx, n_sc, n), dtype=dtype)
    except (ValueError, MemoryError):
        raise ValueError(f"a trace of duration_s={scenario.duration_s!r} at sample_rate_hz="
                         f"{sample_rate_hz!r} with n_rx={n_rx} and n_sc={n_sc} does not fit "
                         "in memory") from None
    real_dtype = np.float32 if dtype == np.complex64 else np.float64

    # Per-stream path parameters come first in the draw order so that
    # turning jitter or noise on or off never changes them.
    mu_d = rng.uniform(0.0, 2.0 * math.pi, (n_rx, n_sc))
    delta_mu = rng.uniform(0.0, 2.0 * math.pi, (n_rx, n_sc))
    ratio = rng.uniform(ratio_range[0], ratio_range[1], (n_rx, n_sc))
    alpha_d = np.ones((n_rx, n_sc))
    alpha_r = ratio * alpha_d
    mu_r = mu_d + delta_mu

    # Packet arrival times. Jitter is clipped to +/-0.4 sample periods to
    # keep timestamps strictly monotone.
    timestamps = np.arange(n) / sample_rate_hz
    if noise.jitter_std_s > 0:
        jitter = rng.normal(0.0, noise.jitter_std_s, n)
        np.clip(jitter, -0.4 / sample_rate_hz, 0.4 / sample_rate_hz, out=jitter)
        timestamps += jitter

    # Receiver noise comes next in the draw order, stream by stream; the
    # worker starts drawing it while the motion phasor is computed.
    sigma = np.broadcast_to(np.asarray(noise.awgn_sigma, dtype=float), (n_rx, n_sc))
    n_noisy = int(np.count_nonzero(sigma))

    # the (real, imag) standard normals of the noisy stream in use and of
    # the next one; noisy stream k is drawn into buffers[k % 2]
    buffers = np.empty((2, 2, n if n_noisy else 0), dtype=real_dtype)
    with lane_pool("csiwatch-noise") as pool:
        drawn = [pool.submit(rng.standard_normal, dtype=real_dtype, out=buffer)
                 for buffer in buffers[:n_noisy]]
        # Shared motion phasor, then per-stream complex coefficients.
        d = scenario_displacement(scenario, timestamps)
        base = np.exp(1j * (geometry.beta_rad_per_m * d)).astype(dtype)
        coef_d = (alpha_d * np.exp(1j * mu_d)).astype(dtype)
        coef_r = (alpha_r * np.exp(1j * mu_r)).astype(dtype)

        # Outliers scale with the final stream's magnitude spread: a float,
        # so a complex64 outlier stays a complex64 product.
        with_outliers = noise.outlier_rate_per_s > 0 and noise.outlier_magnitude > 0
        stream_std: list[float] = []
        k = 0  # the noisy streams taken
        for i, j in np.ndindex(n_rx, n_sc):
            z = None
            if sigma[i, j]:
                if 0 < k < n_noisy - 1:  # stream k - 1's buffer is free
                    drawn[(k + 1) % 2] = pool.submit(rng.standard_normal, dtype=real_dtype,
                                                     out=buffers[(k + 1) % 2])
                drawn[k % 2].result()
                z = buffers[k % 2]
                k += 1
            row = csi[i, j]
            np.multiply(base, coef_r[i, j], out=row)
            row += coef_d[i, j]
            if z is not None:
                s = sigma[i, j] / math.sqrt(2.0)
                row.real += np.multiply(s, z[0], dtype=np.float64)
                row.imag += np.multiply(s, z[1], dtype=np.float64)
            if with_outliers:
                stream_std.append(_stream_magnitude_std(row))

    # Impulsive magnitude outliers (isolated spikes, as hardware glitches).
    outlier_log: list[tuple[int, int, int]] = []
    if with_outliers:
        expected = noise.outlier_rate_per_s * scenario.duration_s
        for (i, j), std in zip(np.ndindex(n_rx, n_sc), stream_std):
            count = min(int(rng.poisson(expected)), n)
            if count == 0:
                continue
            idx = rng.choice(n, size=count, replace=False)
            vals = csi[i, j, idx]
            mags = np.abs(vals)
            mags[mags == 0] = 1.0
            csi[i, j, idx] = vals * (1.0 + noise.outlier_magnitude * std / mags)
            outlier_log.extend((i, j, int(k)) for k in idx)

    return CsiTrace(
        sample_rate_hz=sample_rate_hz,
        csi=csi,
        timestamps_s=timestamps,
        events=_label_intervals(scenario, person_id=1),
        geometry=geometry,
        alpha_d=alpha_d,
        mu_d=mu_d,
        alpha_r=alpha_r,
        mu_r=mu_r,
        outlier_log=tuple(outlier_log),
    )


def superpose_person(trace: CsiTrace, scenario2: Scenario, seed: int = 1,
                     ratio_range: tuple[float, float] = PATH_RATIO_RANGE) -> CsiTrace:
    """Add a second person's reflected path to every stream of a trace.

    The second body, in the trace's geometry, contributes an independent
    additive reflection per stream (amplitude ratio drawn on ratio_range),
    evaluated on the trace's own (jittered) timestamps; its events join the
    trace's with person_id 2.
    """
    if abs(scenario2.duration_s - trace.duration_s) > 1.0 / trace.sample_rate_hz:
        raise ValueError("second scenario must cover the same time span as the trace")
    _check_ratio_range(ratio_range)
    rng = np.random.default_rng(seed)
    mu_r2 = rng.uniform(0.0, 2.0 * math.pi, (trace.n_rx, trace.n_sc))
    ratio2 = rng.uniform(*ratio_range, (trace.n_rx, trace.n_sc))

    d2 = scenario_displacement(scenario2, trace.timestamps_s)
    base2 = np.exp(1j * (trace.geometry.beta_rad_per_m * d2)).astype(trace.csi.dtype)
    coef2 = (ratio2 * np.exp(1j * mu_r2)).astype(trace.csi.dtype)

    csi = trace.csi.copy()
    for i in range(trace.n_rx):
        for j in range(trace.n_sc):
            csi[i, j] += coef2[i, j] * base2

    return replace(
        trace, csi=csi, events=trace.events + _label_intervals(scenario2, person_id=2)
    )

