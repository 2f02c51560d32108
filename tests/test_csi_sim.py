"""Trace generation: determinism, labels, noise model, imports, superposition."""

import math

import numpy as np
import pytest

from csiwatch.csi_sim import (
    EventKind,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    build_night_scenario,
    generate_trace,
    import_speed_csv,
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
        t = trace.timestamps_s
        inside = (t >= 10.0) & (t < 30.0)
        assert np.all(trace.labels[inside] == 2)
        assert np.all(trace.labels[~inside] == 0)
        assert len(trace.events) == 1 and trace.events[0].is_seizure

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
        persons = sorted({ev.person_id for ev in merged.events})
        assert persons == [1, 2]
        t = merged.timestamps_s
        assert np.all(merged.labels[(t >= 40.0) & (t < 45.0)] >= 1)
        assert np.all(merged.labels[(t >= 10.0) & (t < 30.0)] == 2)

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

    def test_duration_mismatch_rejected(self):
        trace = small_trace(duration=20.0)
        with pytest.raises(ValueError, match="same time span"):
            superpose_person(trace, Scenario.breathing_only(30.0))


class TestImportSpeedCsv:
    def test_zero_acceleration(self, tmp_path):
        path = tmp_path / "zero.csv"
        t = np.arange(0, 10, 0.02)
        rows = "\n".join(f"{ti},0,0,0" for ti in t)
        path.write_text("t_s,ax,ay,az\n" + rows + "\n")
        profile = import_speed_csv(path)
        assert np.max(np.abs(profile.samples_mps)) < 1e-9

    def test_sinusoidal_acceleration_peak_speed(self, tmp_path):
        # a(t) = 15*sin(2*pi*5*t): after drift removal the peak speed is
        # a_max/(2*pi*f) = 0.477 m/s. The 0.05 Hz drift filter settles over
        # tens of seconds, so use a long record and read its middle.
        path = tmp_path / "sz.csv"
        t = np.arange(0, 120, 0.005)
        a = 15.0 * np.sin(2 * math.pi * 5.0 * t)
        rows = "\n".join(f"{ti},{ai},0,0" for ti, ai in zip(t, a))
        path.write_text("t_s,ax,ay,az\n" + rows + "\n")
        profile = import_speed_csv(path)
        mid = profile.samples_mps[8000:16000]
        assert np.max(mid) == pytest.approx(15.0 / (2 * math.pi * 5.0), rel=0.02)

    def test_square_wave_gives_triangle_speed(self, tmp_path):
        path = tmp_path / "sq.csv"
        t = np.arange(0, 120, 0.01)
        a = np.where((t * 1.0) % 1.0 < 0.5, 2.0, -2.0)
        rows = "\n".join(f"{ti},{ai},0,0" for ti, ai in zip(t, a))
        path.write_text("t_s,ax,ay,az\n" + rows + "\n")
        profile = import_speed_csv(path)
        # independent oracle: integrate and mean-remove the exact square wave
        from scipy.integrate import cumulative_trapezoid

        tri = cumulative_trapezoid(a, t, initial=0.0)
        tri = np.abs(tri - tri.mean())
        measured = profile.samples_mps
        m = min(measured.size, tri.size)
        sl = slice(m // 3, 2 * m // 3)  # away from the filter's edge transients
        err = np.sqrt(np.mean((measured[sl] - tri[sl]) ** 2))
        assert err < 0.02 * np.max(tri)

    def test_speed_column_passthrough(self, tmp_path):
        path = tmp_path / "speed.csv"
        t = np.arange(0, 5, 0.01)
        rows = "\n".join(f"{ti},{0.1 * ti}" for ti in t)
        path.write_text("t_s,speed\n" + rows + "\n")
        profile = import_speed_csv(path)
        assert profile.samples_mps[-1] == pytest.approx(0.1 * t[-1], rel=1e-6)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t_s,ax,ay,az\n" + "\n".join(
                f"{ti},0,0,0" for ti in [0.0, 0.1, 0.05] + list(np.arange(0.2, 2, 0.1))
            ) + "\n"
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            import_speed_csv(path)


class TestNightScenarioBuilder:
    def test_counts_and_clear_start(self):
        scen = build_night_scenario(1800.0, n_seizures=2, n_normal_events=6, seed=1)
        seizures = [e for e in scen.events if e.kind is EventKind.SEIZURE]
        normals = [e for e in scen.events if e.kind is not EventKind.SEIZURE]
        assert len(seizures) == 2 and len(normals) == 6
        assert min(e.start_s for e in scen.events) >= 20.0

    def test_minimum_gaps(self):
        scen = build_night_scenario(3600.0, 2, 6, seed=4, min_gap_s=8.0)
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

    def test_normal_profiles_respect_speed_bound(self):
        rng = np.random.default_rng(0)
        for maker in (posture_shift_profile, scratch_profile):
            for dur in (3.0, 6.0, 9.0):
                profile = maker(dur, rng=rng) if maker is scratch_profile else maker(
                    dur, rng=rng
                )
                assert np.max(np.abs(profile.samples_mps)) <= 0.33
