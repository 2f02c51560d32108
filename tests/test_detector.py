"""Event detection, bandwidth estimation, and classification."""

import dataclasses
import logging
import math
import statistics
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csiwatch import detector
from csiwatch.config import PipelineConfig
from csiwatch.csi_sim import (
    EventKind,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    generate_trace,
    limb_jerk_profile,
    posture_shift_profile,
    seizure_profile,
)
from csiwatch.detector import (
    DetectedEvent,
    DetectedInterval,
    EventBandwidthProfile,
    EventClass,
    build_event_profile,
    classify_event,
    detect_event_intervals,
    run_detection,
    sliding_out_of_band_energy,
    window_percentile_bandwidth,
)
from csiwatch.harness import analyze_trace, classify_analysis, run_pipeline
from csiwatch.preprocess import calibrate, extract_pipeline_stream
from csiwatch.signal_model import (
    PathParams,
    SceneGeometry,
    SinusoidProfile,
    integrate_velocity,
    squared_magnitude,
    synth_baseband,
)

FS = 200.0
G = SceneGeometry()
NOISE = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.02,
                  outlier_magnitude=8.0, jitter_std_s=0.0005)


def trace_with(events, duration=120.0, noise=NOISE, seed=0, n_rx=3, n_sc=10):
    scenario = Scenario(duration, breathing_profile(duration), tuple(events))
    return generate_trace(scenario, G, noise, seed=seed, n_rx=n_rx, n_sc=n_sc)


class TestSlidingEnergy:
    def test_matches_per_window_fft_oracle(self):
        # the O(N) running-sum path must agree with a direct FFT per window
        rng = np.random.default_rng(0)
        p = rng.standard_normal(4000) + np.sin(2 * math.pi * 0.3 * np.arange(4000) / FS)
        ends, fast = sliding_out_of_band_energy(p, FS)
        L = 400
        f = np.fft.fftfreq(L, 1 / FS)
        for pos in range(0, ends.size, 37):
            e = ends[pos]
            spec = np.abs(np.fft.fft(p[e - L + 1 : e + 1])) ** 2
            expected = spec[np.abs(f) > 1.1].sum()
            assert fast[pos] == pytest.approx(expected, rel=1e-9)

    def test_too_short_input(self):
        ends, energies = sliding_out_of_band_energy(np.ones(100), FS)
        assert ends.size == 0 and energies.size == 0
        L = int(round(detector.ED_WINDOW_S * FS))
        ends, energies = sliding_out_of_band_energy(np.ones(L - 1), FS)
        assert ends.size == 0 and energies.size == 0
        ends, energies = sliding_out_of_band_energy(ed_stream(L, seed=0), FS)
        assert ends.tolist() == [L - 1] and energies.shape == (1,)

    def test_600_s_row_matches_fft_in_bounded_memory(self):
        # 600 s: the last windows end 120 000 samples into the running
        # sums, and the call's transient stays within four copies of p
        p = ed_stream(120_000, seed=4)
        tracemalloc.start()
        try:
            ends, fast = sliding_out_of_band_energy(p, FS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * p.nbytes
        L = 400
        f = np.fft.fftfreq(L, 1 / FS)
        for e, got in zip(ends[-50:], fast[-50:]):
            spec = np.abs(np.fft.fft(p[e - L + 1 : e + 1])) ** 2
            assert got == pytest.approx(spec[np.abs(f) > 1.1].sum(), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(400, 1_600), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e4]), offset=st.floats(-10.0, 10.0),
           f_hz=st.floats(0.0, 100.0), fs=st.sampled_from([25.0, 110.0, 130.0, FS]))
    def test_matches_per_window_rfft(self, n, seed, scale, offset, f_hz, fs):
        # the energy above ED_BAND_HZ of each window, from its own rfft;
        # the running sums run over the whole series, so their rounding
        # is bounded by the sums of |p| and p^2 up to the window's end.
        # At 110 and 130 Hz a block (gcd of window and hop) is shorter
        # than a hop
        rng = np.random.default_rng(seed)
        t = np.arange(n) / fs
        p = scale * (rng.standard_normal(n) + np.sin(2 * math.pi * f_hz * t) + offset)
        ends, fast = sliding_out_of_band_energy(p, fs)
        L = int(round(detector.ED_WINDOW_S * fs))
        hop = max(int(round(detector.ED_HOP_S * fs)), 1)
        assert ends.tolist() == list(range(L - 1, n, hop))
        f = np.fft.rfftfreq(L, 1 / fs)
        # one-sided bins count twice, except DC and Nyquist
        twice = np.where((f > 0) & (f < fs / 2), 2.0, 1.0)
        eps = np.finfo(float).eps
        for e, got in zip(ends, fast):
            power = np.abs(np.fft.rfft(p[e - L + 1 : e + 1])) ** 2
            expected = (twice * power)[f > detector.ED_BAND_HZ].sum()
            head = p[: e + 1]
            tol = 8 * (e + 1) * eps * (L * np.sum(head * head) + np.sum(np.abs(head)) ** 2)
            assert abs(got - expected) <= tol


def ed_stream(n, seed):
    """A breathing line, a 3 Hz burst and noise at FS."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    return (np.sin(2 * math.pi * 0.3 * t) + (t % 40 > 30) * np.sin(2 * math.pi * 3.0 * t)
            + 0.05 * rng.standard_normal(n))


class TestWindowBandwidth:
    def test_white_noise_near_90_hz(self):
        # flat spectrum: the 90th-percentile point sits at 0.9*Nyquist;
        # Monte Carlo with a +-3 Hz tolerance
        rng = np.random.default_rng(1)
        bs = [window_percentile_bandwidth(rng.standard_normal(800), FS)
              for _ in range(60)]
        assert np.mean(bs) == pytest.approx(90.0, abs=3.0)

    def test_pure_tone_at_5_hz(self):
        t = np.arange(800) / FS
        b = window_percentile_bandwidth(np.sin(2 * math.pi * 5.0 * t), FS)
        assert b == pytest.approx(5.0, abs=FS / 800)

    def test_zero_power_window_is_none(self):
        assert window_percentile_bandwidth(np.zeros(800), FS) is None
        assert window_percentile_bandwidth(np.full(800, 3.3), FS) is None

    def test_table1_corner_seizure_bandwidth_frozen(self):
        # For a pure sinusoid at the Table-1 seizure minimum (v=0.48,
        # f=1.5), the 90%-power point sits at the 5th or 6th harmonic (7.5
        # or 9.0 Hz) depending on the phase offset: BELOW the 9.9 Hz support
        # edge. That is forced by the energy-capture property itself (the
        # tail above the support edge is < 2%, so the 90% point lies below
        # it). Frozen from the Bessel line-mass oracle.
        profile = SinusoidProfile(0.48, 1.5, 20.0)
        paths = PathParams(1.0, 0.0, 0.1, math.pi / 4)
        s = squared_magnitude(synth_baseband(G, paths, profile, FS))
        b = window_percentile_bandwidth(s[:800], FS)
        assert b == pytest.approx(7.5, abs=FS / 800)

    def test_default_seizure_bandwidth_exceeds_9_9(self):
        # seizures drawn from the harness default ranges (v in [0.7, 0.8],
        # f in [2, 3.5]) clear the 9.9 Hz edge minus one bin for any parity
        bin_hz = FS / 800
        for v, f in [(0.7, 2.0), (0.7, 3.5), (0.8, 3.5), (0.75, 3.0)]:
            for dmu in (0.0, math.pi / 4, math.pi / 2):
                profile = SinusoidProfile(v, f, 20.0)
                paths = PathParams(1.0, 0.0, 0.1, dmu)
                s = squared_magnitude(synth_baseband(G, paths, profile, FS))
                bs = [window_percentile_bandwidth(s[k : k + 800], FS)
                      for k in (0, 400, 800)]
                assert min(bs) >= 9.9 - bin_hz, (v, f, dmu)


class TestDetectEvents:
    def test_pure_breathing_no_events(self):
        trace = trace_with([], duration=120.0)
        result = run_pipeline(trace, PipelineConfig())
        assert result.events == []

    def test_noiseless_breathing_no_events(self):
        trace = trace_with([], duration=60.0, noise=None)
        result = run_pipeline(trace, PipelineConfig())
        assert result.events == []

    def test_posture_shift_boundaries_within_1s(self):
        ev = ScenarioEvent(
            EventKind.POSTURE_SHIFT, 50.0, 8.0,
            posture_shift_profile(8.0, rng=np.random.default_rng(3)),
        )
        trace = trace_with([ev])
        result = run_pipeline(trace, PipelineConfig())
        assert len(result.events) == 1
        det = result.events[0]
        assert det.start_s == pytest.approx(50.0, abs=1.0)
        assert det.end_s == pytest.approx(58.0, abs=1.0)

    @staticmethod
    def _strong_lobe(duration):
        from csiwatch.csi_sim import _smooth_lobe
        from csiwatch.signal_model import SampledProfile

        return SampledProfile(_smooth_lobe(duration, 0.3, FS), FS)

    def test_movements_separated_by_half_second_merge(self):
        # the hysteresis plus the detection window bridge a 0.5 s pause
        ev1 = ScenarioEvent(EventKind.POSTURE_SHIFT, 50.0, 2.0, self._strong_lobe(2.0))
        ev2 = ScenarioEvent(EventKind.POSTURE_SHIFT, 52.5, 2.0, self._strong_lobe(2.0))
        trace = trace_with([ev1, ev2])
        result = run_pipeline(trace, PipelineConfig())
        assert len(result.events) == 1
        det = result.events[0]
        assert det.start_s < 51.0 and det.end_s > 53.5

    def test_well_separated_events_stay_distinct(self):
        ev1 = ScenarioEvent(EventKind.POSTURE_SHIFT, 50.0, 2.0, self._strong_lobe(2.0))
        ev2 = ScenarioEvent(EventKind.POSTURE_SHIFT, 60.0, 2.0, self._strong_lobe(2.0))
        trace = trace_with([ev1, ev2])
        result = run_pipeline(trace, PipelineConfig())
        assert len(result.events) == 2

    def test_missing_calibration_rejected(self):
        trace = trace_with([], duration=30.0)
        p = extract_pipeline_stream(trace, calibrate(trace, PipelineConfig()))
        with pytest.raises(ValueError, match="calibration"):
            detect_event_intervals(p, FS, None)


def reference_event_intervals(p, sample_rate_hz, calibration):
    """detect_event_intervals as a walk over every triggered position that
    closes a run at each long enough gap: the oracle."""
    if calibration is None:
        raise ValueError("event detection requires a calibration state")
    ends, energies = detector.sliding_out_of_band_energy(p, sample_rate_hz)
    if ends.size == 0:
        return []
    gamma_th = detector.ED_THRESHOLD_Q * calibration.sigma_c_sq
    h1 = energies > gamma_th
    idx = np.flatnonzero(h1)
    if idx.size == 0:
        return []

    hop = max(int(round(detector.ED_HOP_S * sample_rate_hz)), 1)
    max_gap_positions = int(round(detector.EVENT_CLOSE_HYSTERESIS_S * sample_rate_hz / hop))

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
        end_s = max(start_s, raw_end_s - detector.ED_WINDOW_S)
        open_at_end = bool(last == ends.size - 1)
        intervals.append(DetectedInterval(start_s, end_s, open_at_end))
    return intervals


@st.composite
def trigger_patterns(draw):
    """(sample rate, window ends, H1 flags): triggered positions a step of
    one, of exactly max_gap_positions + 1 or + 2, or of any length apart,
    so that runs of one window occur; the last window triggered or not, and
    at times no trigger or no window at all."""
    fs = draw(st.sampled_from([37.0, 100.0, 200.0, 1000.0]))
    hop = max(int(round(detector.ED_HOP_S * fs)), 1)
    max_gap = int(round(detector.EVENT_CLOSE_HYSTERESIS_S * fs / hop))
    step = st.one_of(st.sampled_from([1, max_gap + 1, max_gap + 2]),
                     st.integers(1, 3 * max_gap + 6))
    first = draw(st.integers(0, 5))
    h1 = first + np.cumsum([0] + draw(st.lists(step, max_size=30)))
    if draw(st.booleans()):
        h1 = h1[:0]
    # a tail of 0 puts the last run on the last window
    tail = draw(st.sampled_from([0, 1, max_gap + 1, max_gap + 2]))
    n_windows = (int(h1[-1]) + 1 if h1.size else first) + tail
    flags = np.zeros(n_windows, dtype=bool)
    flags[h1] = True
    L = int(round(detector.ED_WINDOW_S * fs))
    return fs, L - 1 + hop * np.arange(n_windows), flags


class TestDetectionRuns:
    @settings(max_examples=400, deadline=None)
    @given(pattern=trigger_patterns())
    def test_equal_to_the_loop_over_triggered_positions(self, pattern):
        fs, ends, flags = pattern
        calibration = SimpleNamespace(sigma_c_sq=0.5)
        gamma_th = detector.ED_THRESHOLD_Q * calibration.sigma_c_sq
        energies = np.where(flags, 3.0 * gamma_th, 0.5 * gamma_th)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "sliding_out_of_band_energy", lambda p, rate: (ends, energies))
            got = detect_event_intervals(None, fs, calibration)
            expected = reference_event_intervals(None, fs, calibration)
        # repr tells a numpy float or bool from a Python one
        assert [repr(iv) for iv in got] == [repr(iv) for iv in expected]


class TestClassification:
    def test_limb_jerk_normal_without_bandwidth(self):
        # a 0.3 s jerk never reaches bandwidth analysis: the duration gate
        # declares it normal outright
        interval = DetectedInterval(50.05, 50.35)
        det = classify_event(
            EventBandwidthProfile(interval, (), ()), f_th_hz=8.85, t_min_s=5.0
        )
        assert det.event_class is EventClass.NORMAL
        assert det.b_pe_hz is None and det.decision_time_s is None

    def test_short_detected_event_skips_profile(self, monkeypatch):
        # a short but strong movement: detected, gated normal, and the
        # pipeline never computes its bandwidth profile
        ev = ScenarioEvent(
            EventKind.POSTURE_SHIFT, 50.0, 1.5, TestDetectEvents._strong_lobe(1.5)
        )
        trace = trace_with([ev])
        profiled = []

        def spy(p, sample_rate_hz, interval):
            profiled.append(interval)
            return build_event_profile(p, sample_rate_hz, interval)

        monkeypatch.setattr(detector, "build_event_profile", spy)
        result = run_pipeline(trace, PipelineConfig())
        assert len(result.events) == 1
        det = result.events[0]
        assert det.event_class is EventClass.NORMAL
        assert det.b_pe_hz is None and det.decision_time_s is None
        assert profiled == []  # duration gate: bandwidth never computed

    def test_seizure_decision_between_tmin_and_tmin_plus_2(self):
        ev = ScenarioEvent(
            EventKind.SEIZURE, 50.0, 22.0, seizure_profile(22.0, 0.75, 3.0)
        )
        trace = trace_with([ev], duration=100.0)
        result = run_pipeline(trace, PipelineConfig())
        seizures = [e for e in result.events if e.event_class is EventClass.SEIZURE]
        assert len(seizures) == 1
        det = seizures[0]
        assert det.decision_time_s - det.start_s >= 5.0
        assert det.decision_time_s - 50.0 <= 7.0

    def test_posture_shift_with_low_bandwidth_is_normal(self):
        ev = ScenarioEvent(
            EventKind.POSTURE_SHIFT, 50.0, 10.0,
            posture_shift_profile(10.0, rng=np.random.default_rng(5)),
        )
        trace = trace_with([ev])
        result = run_pipeline(trace, PipelineConfig())
        assert len(result.events) == 1
        det = result.events[0]
        assert det.event_class is EventClass.NORMAL
        assert det.b_pe_hz is not None and det.b_pe_hz <= 7.9

    def test_truncated_window_for_short_event(self):
        p = np.zeros(2000)
        t = np.arange(600) / FS
        p[400:1000] = np.sin(2 * math.pi * 12.0 * t)
        interval = DetectedInterval(2.0, 5.0)
        profile = build_event_profile(p, FS, interval)
        assert len(profile.window_bs) == 1
        det = classify_event(profile, 8.85, 2.0)
        assert det.event_class is EventClass.SEIZURE

    def test_zero_power_windows_skipped_with_a_warning(self, caplog):
        # the event's first two 4 s windows end before the tone starts at 8 s
        p = np.zeros(3000)
        p[1600:] = np.sin(2 * math.pi * 12.0 * np.arange(1400) / FS)
        interval = DetectedInterval(2.0, 14.0)
        with caplog.at_level(logging.WARNING, logger=detector.logger.name):
            profile = build_event_profile(p, FS, interval)
        assert profile.completion_times_s == (10.0, 12.0, 14.0)
        assert [r.getMessage() for r in caplog.records] == [
            f"zero-power classification window at {t:.2f} s skipped" for t in (2.0, 4.0)]
        # with no window left, the profile has no final median
        silent = build_event_profile(np.zeros(3000), FS, interval)
        assert silent.window_bs == () and silent.final_median() is None

    def test_ongoing_event_at_trace_end(self):
        interval = DetectedInterval(10.0, 20.0, open_at_end=True)
        profile = EventBandwidthProfile(interval, (4.0, 4.2, 4.1), (14.0, 16.0, 18.0))
        det = classify_event(profile, 8.85, 5.0)
        assert det.event_class is EventClass.ONGOING


def _classify_by_docstring(profile, f_th_hz, t_min_s):
    """classify_event's docstring rule, written out check by check."""
    iv = profile.interval
    undecided = EventClass.ONGOING if iv.open_at_end else EventClass.NORMAL
    if iv.duration_s < t_min_s:
        return DetectedEvent(iv.start_s, iv.end_s, undecided)
    gate = iv.start_s + t_min_s
    windows = list(zip(profile.completion_times_s, profile.window_bs))
    checks = [gate] + [t for t, _ in windows if t > gate]
    for check in checks:
        done = [b for t, b in windows if t <= check]
        if done and statistics.median(done) > f_th_hz:
            return DetectedEvent(
                iv.start_s, iv.end_s, EventClass.SEIZURE,
                b_pe_hz=float(statistics.median(done)), decision_time_s=check,
            )
    b_pe = float(statistics.median(profile.window_bs)) if profile.window_bs else None
    return DetectedEvent(iv.start_s, iv.end_s, undecided, b_pe_hz=b_pe)


def seconds(lo, hi):
    """Times in [lo, hi]; quarter seconds add up exactly, so a window can
    complete right at start + T_min and a duration can equal T_min."""
    return st.one_of(
        st.integers(math.ceil(4 * lo), 4 * hi).map(lambda k: k / 4), st.floats(lo, hi)
    )


@st.composite
def bandwidth_profiles(draw):
    """An event's bandwidth profile with strictly increasing completion times."""
    start = draw(seconds(0, 100))
    duration = draw(seconds(0, 30))
    interval = DetectedInterval(start, start + duration, draw(st.booleans()))
    first = start + draw(seconds(0, 8))
    steps = draw(st.lists(seconds(0.01, 6), max_size=8))
    times = tuple(float(t) for t in first + np.cumsum([0.0] + steps))
    times = times if draw(st.booleans()) else ()
    bs = draw(st.lists(st.floats(0.0, 40.0), min_size=len(times), max_size=len(times)))
    return EventBandwidthProfile(interval, tuple(bs), times)


class TestClassifyEventRule:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        profile=bandwidth_profiles(),
        f_th=st.floats(1.2, 30.0),
        t_min=seconds(0.1, 12),
    )
    def test_equals_docstring_rule(self, profile, f_th, t_min):
        assert classify_event(profile, f_th, t_min) == _classify_by_docstring(
            profile, f_th, t_min
        )

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        profile=bandwidth_profiles(),
        f_th_pair=st.lists(st.floats(1.2, 30.0), min_size=2, max_size=2),
        t_min=seconds(0.1, 12),
    )
    def test_monotone_in_f_th(self, profile, f_th_pair, t_min):
        # a higher f_th gives no seizure the lower one missed, and no
        # earlier decision
        low, high = sorted(f_th_pair)
        at_low = classify_event(profile, low, t_min)
        at_high = classify_event(profile, high, t_min)
        if at_high.event_class is EventClass.SEIZURE:
            assert at_low.event_class is EventClass.SEIZURE
            assert at_high.decision_time_s >= at_low.decision_time_s


class TestInvariantsAndMonotonicity:
    def _seizure_and_normal_analysis(self):
        evs = [
            ScenarioEvent(EventKind.SEIZURE, 40.0, 22.0, seizure_profile(22.0, 0.75, 3.0)),
            ScenarioEvent(
                EventKind.POSTURE_SHIFT, 80.0, 8.0,
                posture_shift_profile(8.0, rng=np.random.default_rng(7)),
            ),
        ]
        trace = trace_with(evs, duration=120.0)
        return analyze_trace(trace, PipelineConfig())

    def test_f_th_monotonicity_exact(self):
        analysis = self._seizure_and_normal_analysis()
        grid = np.arange(4.0, 14.01, 0.5)
        counts = []
        for f_th in grid:
            events = classify_analysis(analysis, f_th, 5.0)
            counts.append(sum(e.event_class is EventClass.SEIZURE for e in events))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_t_min_monotonicity_exact(self):
        analysis = self._seizure_and_normal_analysis()
        f_th = 8.85
        prev_decisions = None
        prev_count = None
        for t_min in np.arange(2.0, 10.01, 1.0):
            events = classify_analysis(analysis, f_th, float(t_min))
            seizures = [e for e in events if e.event_class is EventClass.SEIZURE]
            for e in seizures:
                assert e.decision_time_s - e.start_s >= t_min
            if prev_count is not None:
                assert len(seizures) <= prev_count
            if seizures and prev_decisions:
                for e in seizures:
                    match = [d for d in prev_decisions if d[0] == e.start_s]
                    if match:
                        assert e.decision_time_s >= match[0][1]
            prev_count = len(seizures)
            prev_decisions = [(e.start_s, e.decision_time_s) for e in seizures]

    def test_median_robustness(self):
        clean = [10.0, 10.5, 11.0, 10.2, 10.8]
        interval = DetectedInterval(0.0, 20.0)
        times = tuple(4.0 + 2.0 * k for k in range(5))
        base = EventBandwidthProfile(interval, tuple(clean), times)
        # corrupting 2 of 5 windows moves the median only within the clean span
        for corrupt in ([0.1, 0.2], [500.0, 900.0]):
            vals = clean[:3] + corrupt
            prof = EventBandwidthProfile(interval, tuple(vals), times)
            med = prof.final_median()
            assert min(clean[:3]) <= med <= max(clean[:3])
        assert base.final_median() == pytest.approx(10.5)

    def test_determinism(self):
        evs = [ScenarioEvent(EventKind.SEIZURE, 40.0, 22.0,
                             seizure_profile(22.0, 0.75, 3.0))]
        trace = trace_with(evs, duration=90.0)
        r1 = run_pipeline(trace, PipelineConfig())
        r2 = run_pipeline(trace, PipelineConfig())
        assert r1.events == r2.events
        p1 = extract_pipeline_stream(trace, r1.calibration)
        p2 = extract_pipeline_stream(trace, r2.calibration)
        assert np.array_equal(p1, p2)

    def test_amplitude_scale_invariance(self):
        # scaling all path amplitudes by a constant (here: the stored CSI by
        # a power of two) leaves detections and classifications unchanged,
        # because sigma_c^2 is measured from the same scaled data
        evs = [
            ScenarioEvent(EventKind.SEIZURE, 40.0, 22.0, seizure_profile(22.0, 0.75, 3.0)),
            ScenarioEvent(
                EventKind.POSTURE_SHIFT, 80.0, 8.0,
                posture_shift_profile(8.0, rng=np.random.default_rng(9)),
            ),
        ]
        trace = trace_with(evs, duration=120.0)
        r1 = run_pipeline(trace, PipelineConfig())
        r2 = run_pipeline(dataclasses.replace(trace, csi=4.0 * trace.csi), PipelineConfig())
        assert len(r1.events) == len(r2.events)
        for a, b in zip(r1.events, r2.events):
            assert a.event_class is b.event_class
            assert a.start_s == pytest.approx(b.start_s, abs=0.2)
            assert a.end_s == pytest.approx(b.end_s, abs=0.2)
