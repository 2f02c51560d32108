"""Trace generation: determinism, labels, noise model, superposition."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import csiwatch
from csiwatch.csi_sim import (
    EventKind,
    LabelInterval,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    build_night_scenario,
    generate_trace,
    limb_jerk_profile,
    posture_shift_profile,
    scenario_displacement,
    scratch_profile,
    seizure_profile,
    superpose_person,
)
from csiwatch.detector import window_percentile_bandwidth
from csiwatch.harness import simulate_from_config
from csiwatch.signal_model import (
    SceneGeometry,
    SinusoidProfile,
    cumulative_trapezoid,
    phase_difference,
    squared_magnitude,
)

G = SceneGeometry()


def small_trace(duration=30.0, noise=None, seed=0, n_rx=3, n_sc=4, events=()):
    scenario = Scenario(
        duration_s=duration,
        breathing=breathing_profile(duration),
        events=events,
    )
    return generate_trace(
        scenario, G, noise, seed=seed, n_rx=n_rx, n_sc=n_sc
    )


class TestScenarioValidation:
    def test_overlapping_events_rejected(self):
        ev1 = ScenarioEvent(EventKind.COUGH, 10.0, 2.0, limb_jerk_profile(0.3))
        ev2 = ScenarioEvent(EventKind.COUGH, 11.0, 2.0, limb_jerk_profile(0.3))
        with pytest.raises(ValueError, match="overlapping"):
            Scenario(60.0, breathing_profile(60.0), (ev1, ev2))

    def test_seizure_minimum_duration(self):
        with pytest.raises(ValueError, match="at least"):
            ScenarioEvent(EventKind.SEIZURE, 10.0, 5.0, seizure_profile(20.0, 0.7, 3.0))

    def test_limb_jerk_maximum_duration(self):
        with pytest.raises(ValueError, match="at most"):
            ScenarioEvent(EventKind.LIMB_JERK, 10.0, 1.0, limb_jerk_profile(0.3))

    def test_event_past_scenario_end_rejected(self):
        ev = ScenarioEvent(EventKind.COUGH, 59.0, 2.0, limb_jerk_profile(0.3))
        with pytest.raises(ValueError, match="past the scenario end"):
            Scenario(60.0, breathing_profile(60.0), (ev,))


class TestNoiseSpec:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize(
        "field", ["awgn_sigma", "outlier_rate_per_s", "outlier_magnitude", "jitter_std_s"])
    def test_bad_value_named(self, field, value):
        with pytest.raises(ValueError, match=(
                rf"^{field} must be finite and non-negative, got {value!r}$")):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_bad_per_stream_sigma_named(self, value):
        sigma = np.full((2, 3), 0.01)
        sigma[1, 2] = value
        with pytest.raises(ValueError, match=rf"^awgn_sigma must be .*, got {value!r}$"):
            NoiseSpec(awgn_sigma=sigma)


class TestGenerateTrace:
    def test_trace_is_read_only(self):
        trace = small_trace(duration=5.0, n_rx=2, n_sc=2)
        for array in (trace.csi, trace.timestamps_s):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.csi = trace.csi.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.events = ()

    def test_determinism_bit_identical(self):
        noise = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.5,
                          outlier_magnitude=8.0, jitter_std_s=0.001)
        a = small_trace(noise=noise, seed=42)
        b = small_trace(noise=noise, seed=42)
        assert np.array_equal(a.csi, b.csi)
        assert np.array_equal(a.timestamps_s, b.timestamps_s)
        assert a.content_hash() == b.content_hash()
        c = small_trace(noise=noise, seed=43)
        assert a.content_hash() != c.content_hash()

    def test_stream_count(self):
        t = small_trace(n_rx=3, n_sc=4)
        assert t.n_streams == (2 * 3 - 1) * 4

    def test_label_soundness(self):
        ev = ScenarioEvent(
            EventKind.SEIZURE, 10.0, 20.0, seizure_profile(20.0, 0.7, 3.0)
        )
        trace = small_trace(duration=40.0, events=(ev,))
        assert trace.events == (LabelInterval(10.0, 30.0, EventKind.SEIZURE, 1),)
        assert trace.events[0].is_seizure

    def test_noiseless_streams_match_signal_model(self):
        # every derived stream must reduce to the signal model closed path
        ev = ScenarioEvent(
            EventKind.POSTURE_SHIFT, 12.0, 3.0,
            posture_shift_profile(3.0, rng=np.random.default_rng(1)),
        )
        trace = small_trace(duration=20.0, events=(ev,), n_rx=2, n_sc=2)
        from csiwatch.csi_sim import scenario_displacement
        from csiwatch.preprocess import all_stream_ids, derive_streams

        scenario = Scenario(20.0, breathing_profile(20.0), (ev,))
        d = scenario_displacement(scenario, trace.timestamps_s)
        streams = derive_streams(trace)
        for row, sid in enumerate(streams.ids):
            if sid.kind == "mag":
                p = trace.path_params(sid.rx, sid.sc)
                c = p.alpha_d * np.exp(1j * p.mu_d) + p.alpha_r * np.exp(
                    1j * (p.mu_r + G.beta_rad_per_m * d)
                )
                expected = np.abs(c) ** 2
            else:
                pi = trace.path_params(sid.rx, sid.sc)
                pr = trace.path_params(0, sid.sc)
                ci = pi.alpha_d * np.exp(1j * pi.mu_d) + pi.alpha_r * np.exp(
                    1j * (pi.mu_r + G.beta_rad_per_m * d)
                )
                cr = pr.alpha_d * np.exp(1j * pr.mu_d) + pr.alpha_r * np.exp(
                    1j * (pr.mu_r + G.beta_rad_per_m * d)
                )
                expected = phase_difference(ci, cr)
            assert np.max(np.abs(streams.data[row] - expected)) < 1e-9, str(sid)

    def test_breathing_only_is_pure_line_spectrum(self):
        # no noise: each squared-magnitude stream carries only breathing
        # harmonics (the simulator reduces to the signal model)
        trace = small_trace(duration=40.0, n_rx=1, n_sc=2)
        s = squared_magnitude(trace.csi[0, 0])
        n = 8000  # 40 s at 200 Hz: integer number of 4 s breathing cycles
        spec = np.abs(np.fft.rfft(s[:n])) / n
        cycles = int(round(0.25 * n / 200.0))
        mask = np.ones(spec.size, bool)
        mask[::cycles] = False
        assert spec[mask].max() < 1e-6 * spec.max()

    def test_outlier_log_matches_spikes(self):
        noise = NoiseSpec(outlier_rate_per_s=0.5, outlier_magnitude=8.0)
        clean = small_trace(duration=60.0, seed=3)
        dirty = small_trace(duration=60.0, noise=noise, seed=3)
        assert len(dirty.outlier_log) > 0
        changed = np.argwhere(clean.csi != dirty.csi)
        logged = {(i, j, k) for i, j, k in dirty.outlier_log}
        assert {tuple(x) for x in changed} == logged

    def test_per_stream_noise_sigma(self):
        sigma = np.zeros((3, 4))
        sigma[0, :] = 0.05
        noise = NoiseSpec(awgn_sigma=sigma)
        clean = small_trace(seed=9)
        noisy = small_trace(noise=noise, seed=9)
        assert not np.array_equal(noisy.csi[0], clean.csi[0])
        assert np.array_equal(noisy.csi[1:], clean.csi[1:])

    def test_jitter_band_limited_rms_under_1_percent(self):
        # jitter + uniform resampling must leave sub-20 Hz content almost
        # unchanged: compare derived streams with and without 1 ms jitter
        from scipy.signal import butter, filtfilt

        from csiwatch.preprocess import all_stream_ids, derive_streams

        ev = ScenarioEvent(
            EventKind.SEIZURE, 10.0, 20.0, seizure_profile(20.0, 0.7, 3.0)
        )
        base = small_trace(duration=40.0, events=(ev,), n_rx=1, n_sc=1, seed=5)
        jit = small_trace(
            duration=40.0, events=(ev,),
            noise=NoiseSpec(jitter_std_s=0.001), n_rx=1, n_sc=1, seed=5,
        )
        s0 = derive_streams(base).data[0]
        s1 = derive_streams(jit).data[0]
        b, a = butter(4, 20.0, btype="low", fs=200.0)
        lp0, lp1 = filtfilt(b, a, s0), filtfilt(b, a, s1)
        rms_err = np.sqrt(np.mean((lp0 - lp1) ** 2))
        rms_sig = np.sqrt(np.mean((lp0 - lp0.mean()) ** 2))
        assert rms_err < 0.01 * rms_sig

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -200.0])
    def test_bad_sample_rate_refused_by_name(self, rate):
        with pytest.raises(ValueError, match=r"^sample_rate_hz must be finite and positive"):
            generate_trace(Scenario(5.0, breathing_profile(5.0)), G, sample_rate_hz=rate)

    @pytest.mark.parametrize("ratio_range", [
        (0.1,), (0.05, 0.1, 0.15), (0.2, 0.1), (-0.1, 0.1), (0.05, math.inf),
        (math.nan, 0.1), ("low", "high"), 0.1,
    ])
    def test_bad_ratio_range_refused_by_name(self, ratio_range):
        with pytest.raises(ValueError, match=r"^ratio_range must be two finite values"):
            generate_trace(Scenario(5.0, breathing_profile(5.0)), G, ratio_range=ratio_range)
        trace = small_trace(duration=5.0, n_rx=1, n_sc=2)
        with pytest.raises(ValueError, match=r"^ratio_range must be two finite values"):
            superpose_person(trace, Scenario(5.0, breathing_profile(5.0)),
                             ratio_range=ratio_range)

    # content_hash of complex64 traces, recorded with the serial synthesis
    # that drew the noise on the calling thread: a night with AWGN, outliers
    # and jitter; per-stream sigmas with zeros; and the benchmark's one-minute
    # CLI scenario. complex64 outliers move by an ulp if their scale is
    # computed in float64.
    CLI_CONFIG = {
        "duration_s": 60.0, "seed": 1, "dtype": "complex64",
        "noise": {"awgn_sigma": 0.02, "outlier_rate_per_s": 0.02, "outlier_magnitude": 8.0,
                  "jitter_std_s": 0.0005},
        "events": [
            {"kind": "posture_shift", "start_s": 14.0, "duration_s": 6.0},
            {"kind": "seizure", "start_s": 24.0, "duration_s": 22.0, "v_max_mps": 0.75,
             "f_o_hz": 3.0, "phase_rad": 1.0},
            {"kind": "scratch", "start_s": 50.0, "duration_s": 4.0},
            {"kind": "cough", "start_s": 56.5, "duration_s": 1.5},
        ],
    }
    RECORDED_COMPLEX64 = {
        "night": ("c12f243a3a922bcbb9d10ead13b20868204fff20f58b05e98f90e700a86b8166", 121),
        "stream_sigmas": ("84fe73f54f6bd0615cf19309f6d842a4786a16745f3071a873bc40fd2e4d3722", 38),
        "cli_config": ("0a6763f308068880bc6540023e75b7989dd6921e3bd1cc451d847de6d34487df", 114),
    }

    @pytest.mark.parametrize("case", sorted(RECORDED_COMPLEX64))
    def test_complex64_content_matches_recorded(self, case):
        if case == "night":
            noise = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.02, outlier_magnitude=8.0,
                              jitter_std_s=0.0005)
            trace = generate_trace(build_night_scenario(300.0, 1, 3, seed=11), G, noise,
                                   seed=11, n_rx=3, n_sc=6, dtype=np.complex64)
        elif case == "stream_sigmas":
            sigma = np.array([[0.02, 0.0, 0.05], [0.0, 0.01, 0.0]])
            noise = NoiseSpec(awgn_sigma=sigma, outlier_rate_per_s=0.05)
            trace = generate_trace(build_night_scenario(120.0, 1, 1, seed=12), G, noise,
                                   seed=12, n_rx=2, n_sc=3, dtype=np.complex64)
        else:
            trace = simulate_from_config(self.CLI_CONFIG)
        assert trace.csi.dtype == np.complex64
        assert (trace.content_hash(), len(trace.outlier_log)) == self.RECORDED_COMPLEX64[case]


def before_each_draw(monkeypatch, hook):
    """Make every generator generate_trace seeds call hook(k) before its
    k-th standard_normal draw, k counting from 1."""
    make_rng = np.random.default_rng

    class HookedNormals:
        def __init__(self, seed):
            self._rng = make_rng(seed)
            self._draws = 0

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def standard_normal(self, *args, **kwargs):
            self._draws += 1
            hook(self._draws)
            return self._rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", HookedNormals)


def before_each_spread(monkeypatch, hook):
    """Make generate_trace call hook(k) before it takes the magnitude spread
    of its k-th stream, k counting from 1."""
    spread = csiwatch.csi_sim._stream_magnitude_std
    calls = []

    def hooked_spread(stream):
        calls.append(stream)
        hook(len(calls))
        return spread(stream)

    monkeypatch.setattr(csiwatch.csi_sim, "_stream_magnitude_std", hooked_spread)


def fail_at(k, message):
    def hook(call):
        if call == k:
            raise FloatingPointError(message)

    return hook


class TestNoiseWorker:
    """Receiver noise is drawn on one worker thread that no call outlives."""

    NOISE = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.5, jitter_std_s=0.001)

    @staticmethod
    def trace_within_60_s(**kwargs):
        """small_trace(**kwargs), made on a thread that must end within 60 s,
        so that a worker that leaves its caller waiting fails the test."""
        outcome = {}

        def call():
            try:
                outcome["trace"] = small_trace(**kwargs)
            except Exception as exc:
                outcome["error"] = exc

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "generate_trace did not return within 60 s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["trace"]

    def test_no_thread_outlives_a_trace(self):
        before = threading.active_count()
        small_trace(noise=self.NOISE)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_reaches_caller_and_no_thread_outlives_it(self, monkeypatch, failing):
        # the worker fails on its third stream, or the caller on its second
        # while the worker draws ahead
        if failing == "worker":
            before_each_draw(monkeypatch, fail_at(3, "worker failed"))
        else:
            before_each_spread(monkeypatch, fail_at(2, "caller failed"))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"^{failing} failed$"):
            self.trace_within_60_s(noise=self.NOISE)
        assert threading.active_count() == before

    def test_trace_without_awgn_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        small_trace(noise=NoiseSpec(outlier_rate_per_s=0.5, jitter_std_s=0.001))
        small_trace(noise=NoiseSpec(awgn_sigma=np.zeros((3, 4)), outlier_rate_per_s=0.5))

    def test_concurrent_traces_with_fast_thread_switching(self, fast_switching_callers):
        # every trace equals its serial one
        seeds = range(6)
        expected = [small_trace(noise=self.NOISE, seed=seed).content_hash() for seed in seeds]
        assert fast_switching_callers(
            [lambda seed=seed: small_trace(noise=self.NOISE, seed=seed).content_hash()
             for seed in seeds]) == expected

    @pytest.mark.parametrize("slow", ["worker", "caller"])
    def test_trace_does_not_depend_on_timing(self, monkeypatch, slow):
        sigma = np.array([[0.02, 0.0, 0.01, 0.03]] * 3)
        noise = NoiseSpec(awgn_sigma=sigma, outlier_rate_per_s=0.5, jitter_std_s=0.001)
        expected = small_trace(noise=noise, seed=4).content_hash()
        hooks = {"worker": before_each_draw, "caller": before_each_spread}
        hooks[slow](monkeypatch, lambda k: time.sleep(0.005))
        assert small_trace(noise=noise, seed=4).content_hash() == expected


def reference_event_displacement(event, t):
    """One event's displacement at absolute times t as a full-length array:
    zero before the event, held at its net displacement after it."""
    d = np.zeros_like(t)
    lo = np.searchsorted(t, event.start_s, side="left")
    hi = np.searchsorted(t, event.end_s, side="right")
    if lo >= t.size:
        return d
    local = np.clip(t[lo:hi] - event.start_s, 0.0, event.duration_s)
    if isinstance(event.motion, SinusoidProfile):
        seg = event.motion.displacement_at(local)
        final = float(event.motion.displacement_at(np.array([event.duration_s]))[0])
    else:
        v = event.motion.velocity_at(local)
        seg = cumulative_trapezoid(v, t[lo:hi])
        final = float(seg[-1]) if seg.size else 0.0
    d[lo:hi] = seg
    d[hi:] = final
    return d


def reference_displacement(scenario, t):
    """scenario_displacement as the breathing plus one full-length array per
    event: the oracle."""
    t = np.asarray(t, dtype=float)
    d = scenario.breathing.displacement_at(t)
    for ev in scenario.events:
        d = d + reference_event_displacement(ev, t)
    return d


def jittered_times(duration, seed, fs=200.0):
    """Packet times with generate_trace's clipped jitter."""
    n = int(round(duration * fs))
    jitter = np.random.default_rng(seed).normal(0.0, 0.001, n)
    return np.arange(n) / fs + np.clip(jitter, -0.4 / fs, 0.4 / fs)


class TestScenarioDisplacement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_night_bit_equal_to_oracle(self, seed):
        # 4 seizures and 24 normal events take every kind in turn
        scenario = build_night_scenario(600.0, 4, 24, seed=seed)
        assert {ev.kind for ev in scenario.events} == set(EventKind)
        t = jittered_times(600.0, seed)
        got = scenario_displacement(scenario, t)
        assert got.tobytes() == reference_displacement(scenario, t).tobytes()

    @pytest.mark.parametrize("case", ["at_zero", "past_the_end", "after_the_end", "tonic",
                                      "still_breathing"])
    def test_edge_bit_equal_to_oracle(self, case):
        shift = posture_shift_profile(3.0, rng=np.random.default_rng(5))
        breathing = breathing_profile(30.0)
        t = jittered_times(30.0, seed=6)
        if case == "at_zero":
            events = (ScenarioEvent(EventKind.POSTURE_SHIFT, 0.0, 3.0, shift),)
        elif case in ("past_the_end", "after_the_end"):
            # ends at 30 s, after the last packet; or starts after it
            events = (ScenarioEvent(EventKind.POSTURE_SHIFT, 27.0, 3.0, shift),)
            t = t if case == "past_the_end" else t[:5000]
        elif case == "tonic":
            events = (ScenarioEvent(EventKind.SEIZURE, 4.0, 22.0,
                                    seizure_profile(22.0, 0.75, 3.0, tonic_s=5.0)),)
        else:
            breathing = SinusoidProfile(0.0, 0.25, 30.0)
            events = (ScenarioEvent(EventKind.SEIZURE, 2.0, 21.0,
                                    seizure_profile(21.0, 0.7, 2.5, phase_rad=1.0)),
                      ScenarioEvent(EventKind.POSTURE_SHIFT, 25.0, 3.0, shift))
        scenario = Scenario(30.0, breathing, events)
        got = scenario_displacement(scenario, t)
        assert got.tobytes() == reference_displacement(scenario, t).tobytes()


class TestSuperposePerson:
    def test_static_second_person_constant_offset(self):
        trace = small_trace(duration=20.0, n_rx=2, n_sc=2)
        still = Scenario(
            20.0, SinusoidProfile(0.0, 0.25, 20.0)  # zero-speed breathing
        )
        merged = superpose_person(trace, still, seed=7)
        delta = merged.csi - trace.csi
        drift = np.abs(delta - delta[:, :, :1])
        assert drift.max() < 1e-12

    def test_labels_merged_with_person_ids(self):
        ev1 = ScenarioEvent(
            EventKind.SEIZURE, 10.0, 20.0, seizure_profile(20.0, 0.7, 3.0)
        )
        trace = small_trace(duration=60.0, events=(ev1,))
        ev2 = ScenarioEvent(
            EventKind.POSTURE_SHIFT, 40.0, 5.0,
            posture_shift_profile(5.0, rng=np.random.default_rng(2)),
        )
        second = Scenario(60.0, breathing_profile(60.0, f_o_hz=0.22), (ev2,))
        merged = superpose_person(trace, second, seed=8)
        assert merged.events == (
            LabelInterval(10.0, 30.0, EventKind.SEIZURE, 1),
            LabelInterval(40.0, 45.0, EventKind.POSTURE_SHIFT, 2),
        )

    def test_seizure_plus_normal_union_bandwidth_exceeds_f_th(self):
        # spectral support of a sum contains the seizure lines: the
        # 90th-percentile bandwidth of the union stays above f_th
        from csiwatch.spectral_oracle import derive_f_th

        ev1 = ScenarioEvent(
            EventKind.SEIZURE, 10.0, 24.0, seizure_profile(24.0, 0.75, 3.0)
        )
        trace = small_trace(duration=44.0, events=(ev1,), n_rx=1, n_sc=1)
        ev2 = ScenarioEvent(
            EventKind.POSTURE_SHIFT, 12.0, 8.0,
            posture_shift_profile(8.0, rng=np.random.default_rng(3)),
        )
        second = Scenario(44.0, breathing_profile(44.0, f_o_hz=0.21), (ev2,))
        merged = superpose_person(trace, second, seed=9)
        s = squared_magnitude(merged.csi[0, 0][2800:5200])  # 14 s..26 s window
        b = window_percentile_bandwidth(s, 200.0)
        assert b > derive_f_th(G)

    def test_config_ratio_range_reaches_second_person(self):
        from csiwatch.harness import simulate_from_config

        cfg = {"duration_s": 30, "seed": 4, "n_rx": 1, "n_sc": 4, "ratio_range": [0.01, 0.02]}
        one = simulate_from_config(cfg)
        two = simulate_from_config({**cfg, "second_person": {"seed": 9}})
        ratio2 = np.abs(two.csi - one.csi)
        assert ratio2.min() >= 0.01 - 1e-9 and ratio2.max() <= 0.02 + 1e-9

    def test_duration_mismatch_rejected(self):
        trace = small_trace(duration=20.0)
        with pytest.raises(ValueError, match="same time span"):
            superpose_person(trace, Scenario(30.0, breathing_profile(30.0)))


class TestNightScenarioBuilder:
    def test_counts_and_clear_start(self):
        scen = build_night_scenario(1800.0, n_seizures=2, n_normal_events=6, seed=1)
        seizures = [e for e in scen.events if e.kind is EventKind.SEIZURE]
        normals = [e for e in scen.events if e.kind is not EventKind.SEIZURE]
        assert len(seizures) == 2 and len(normals) == 6
        assert min(e.start_s for e in scen.events) >= 20.0

    def test_minimum_gaps(self):
        scen = build_night_scenario(3600.0, 2, 6, seed=4)
        evs = sorted(scen.events, key=lambda e: e.start_s)
        for a, b in zip(evs, evs[1:]):
            assert b.start_s - a.end_s >= 8.0

    # (kind, start_s, duration_s) of build_night_scenario(300, 2, 8, seed=s),
    # recorded before the motion kinds moved into one table
    RECORDED = {
        0: [
            ("seizure", 20.70483867829908, 21.618720282583222),
            ("limb_jerk", 57.64595684778876, 0.3402608635681652),
            ("posture_shift", 67.92519550539747, 6.163894095744778),
            ("cough", 103.06496578255869, 1.850616191360218),
            ("cough", 127.87322965676195, 1.6348999931723383),
            ("limb_jerk", 137.78732575211836, 0.33691333659165823),
            ("scratch", 169.41644956764597, 3.049582906585587),
            ("posture_shift", 201.45316616313676, 8.42654310306872),
            ("seizure", 228.18806577883407, 23.821770123928726),
            ("scratch", 293.04755862161034, 5.188489682951995),
        ],
        1: [
            ("scratch", 56.61403269425689, 5.845948341411732),
            ("limb_jerk", 76.71040190282648, 0.26349896734588635),
            ("posture_shift", 90.74307221151521, 9.310810375281767),
            ("posture_shift", 109.82662261804461, 6.576638450878535),
            ("cough", 131.88422498870204, 1.4494651616083885),
            ("seizure", 156.31020402798018, 25.702782177955612),
            ("cough", 192.93132126113983, 1.6396749501384476),
            ("seizure", 212.84590932568562, 23.07092974820154),
            ("limb_jerk", 275.73880810900505, 0.20413386698646027),
            ("scratch", 289.4795166996505, 4.227597409107483),
        ],
        2: [
            ("cough", 49.01920351172639, 1.4199754943248304),
            ("seizure", 58.59737265673813, 21.79094686048474),
            ("limb_jerk", 116.41602556868442, 0.3092840790217692),
            ("posture_shift", 136.6991693855192, 9.256902962377122),
            ("seizure", 164.7442335398003, 21.569672805495898),
            ("scratch", 204.54149713126674, 3.275747826405291),
            ("scratch", 233.92733891533678, 3.1654398819992045),
            ("limb_jerk", 251.14270096014573, 0.2986149522313389),
            ("posture_shift", 262.6303319750998, 6.751604293466414),
            ("cough", 288.2892605435997, 1.6800804207725233),
        ],
    }

    @pytest.mark.parametrize("seed", sorted(RECORDED))
    def test_events_match_recorded(self, seed):
        scen = build_night_scenario(300.0, 2, 8, seed=seed)
        got = [(e.kind.value, e.start_s, e.duration_s) for e in scen.events]
        assert got == self.RECORDED[seed]

    def test_trace_content_matches_recorded(self):
        # content_hash of a seeded night and of a second person superposed on
        # it, recorded while the gaps and the path-ratio range were still
        # keyword parameters of build_night_scenario and superpose_person
        noise = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.02, outlier_magnitude=8.0,
                          jitter_std_s=0.0005)
        night = generate_trace(build_night_scenario(300.0, 1, 3, seed=7), G, noise, seed=7,
                               n_rx=2, n_sc=4)
        assert night.content_hash() == (
            "5fb0e29868aaba48dbd12e1129e9de436d0bca22d425b2b79e61b26fefb15ee3"
        )
        merged = superpose_person(night, build_night_scenario(300.0, 0, 2, seed=8), seed=9)
        assert merged.content_hash() == (
            "a8b316d65cc3fe4db8f928ac748fa93c41c5caee80ec84dbe363e470b513a6a8"
        )

    def test_normal_profiles_respect_speed_bound(self):
        rng = np.random.default_rng(0)
        for maker in (posture_shift_profile, scratch_profile):
            for dur in (3.0, 6.0, 9.0):
                profile = maker(dur, rng=rng) if maker is scratch_profile else maker(
                    dur, rng=rng
                )
                assert np.max(np.abs(profile.samples_mps)) <= 0.33


class TestPackageImport:
    def test_import_loads_no_scipy(self):
        # in a fresh interpreter: the pipeline is numpy code, and only the
        # spectral oracle's Bessel functions need scipy.special, which it
        # imports when called; importing it up front doubled the import time
        src = str(Path(csiwatch.__file__).resolve().parents[1])
        code = "import sys, csiwatch; print([m for m in sys.modules if m.startswith('scipy')])"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_import_leaves_scipy_signal_unloaded(self):
        # in a fresh interpreter: importing scipy.signal alone costs about
        # half a second, and no csiwatch module needs it
        src = str(Path(csiwatch.__file__).resolve().parents[1])
        code = "import sys, csiwatch; print('scipy.signal' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_import_leaves_scipy_integrate_and_ndimage_unloaded(self):
        # the trapezoid integral and the Hampel median are numpy code
        src = str(Path(csiwatch.__file__).resolve().parents[1])
        code = ("import sys, csiwatch; "
                "print([m for m in ('scipy.integrate', 'scipy.ndimage') if m in sys.modules])")
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
