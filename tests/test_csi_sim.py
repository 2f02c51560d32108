"""Trace generation: determinism, labels, noise model, superposition."""

import os
import subprocess
import sys
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
    scratch_profile,
    seizure_profile,
    superpose_person,
)
from csiwatch.detector import window_percentile_bandwidth
from csiwatch.signal_model import (
    SceneGeometry,
    SinusoidProfile,
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


class TestGenerateTrace:
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
