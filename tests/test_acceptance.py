"""Acceptance suite: the artifact's exit criteria, one test per criterion.

Each test prints a PASS line with its headline numbers (run with -s to see
them). The simulated-night corpus is built once per session and shared by
the end-to-end, sweep-monotonicity, and performance criteria.
"""

import math
import time

import numpy as np
import pytest

from csiwatch.config import PipelineConfig
from csiwatch.csi_sim import (
    EventKind,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    build_night_scenario,
    cough_profile,
    generate_trace,
    posture_shift_profile,
    scratch_profile,
    seizure_profile,
    superpose_person,
)
from csiwatch.detector import EventClass
from csiwatch.harness import (
    analyze_trace,
    report_for,
    run_pipeline,
    selected_stream_event_snr,
    sweep_parameter,
)
from csiwatch.metrics import combine_reports
from csiwatch.preprocess import (
    StreamId,
    calibrate,
    hampel_filter,
    pca_first_component,
)
from csiwatch.signal_model import (
    PathParams,
    SceneGeometry,
    SinusoidProfile,
    squared_magnitude,
    synth_baseband,
)
from csiwatch.spectral_oracle import (
    MotionClass,
    bessel_line_spectrum,
    carson_bandwidth,
    class_bandwidth_bound,
    derive_f_th,
    grid_resolved_bandwidth,
)

GEOMETRY = SceneGeometry()  # wavelength 5.7225 cm, psi = 1
CORPUS_NOISE = NoiseSpec(
    awgn_sigma=0.02, outlier_rate_per_s=0.02, outlier_magnitude=8.0,
    jitter_std_s=0.0005,
)
FS = 200.0


# ---------------------------------------------------------------------------
# Theorem 1 / Theorem 2: 50 randomized oracle-vs-FFT cases
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def theorem_cases():
    """Synthesize 50 randomized cases and FFT them (timed).

    Sample rate is 128 samples per motion cycle over 64 cycles, so every
    spectral line lands exactly on an FFT bin and the Bessel tail beyond
    Nyquist is far below double precision.
    """
    rng = np.random.default_rng(20260809)
    cases = []
    t0 = time.perf_counter()
    for _ in range(50):
        beta_prime = rng.uniform(0.05, 10.0)
        f_o = rng.uniform(0.2, 5.0)
        dmu = rng.uniform(0.0, 2.0 * math.pi)
        cycles, per_cycle = 64, 128
        fs = per_cycle * f_o
        v_max = beta_prime * 2.0 * math.pi * f_o / GEOMETRY.beta_rad_per_m
        profile = SinusoidProfile(v_max, f_o, cycles / f_o)
        paths = PathParams(1.0, 0.0, 0.1, dmu)
        s = squared_magnitude(synth_baseband(GEOMETRY, paths, profile, fs))
        n = cycles * per_cycle
        spec = np.abs(np.fft.rfft(s[:n])) / n
        oracle = bessel_line_spectrum(beta_prime, f_o, dmu, amplitude=paths.a_m)
        cases.append(
            {
                "beta_prime": beta_prime,
                "f_o": f_o,
                "dmu": dmu,
                "cycles": cycles,
                "spec": spec,
                "oracle": oracle,
            }
        )
    elapsed = time.perf_counter() - t0
    return cases, elapsed


def test_theorem1_equivalence(theorem_cases):
    """FFT of the synthesized stream matches the Bessel line spectrum:
    every significant line within 3% relative, off-harmonic leakage below
    1% of the peak line, 50 randomized cases in under 10 s."""
    cases, elapsed = theorem_cases
    worst_line_err = 0.0
    worst_leak = 0.0
    for case in cases:
        spec, oracle, cycles = case["spec"], case["oracle"], case["cycles"]
        peak = np.abs(oracle.amplitudes).max()
        for h in range(1, oracle.n_lines):
            predicted = abs(oracle.amplitudes[h])
            measured = spec[h * cycles]
            if predicted >= 1e-6 * peak:
                err = abs(measured - predicted) / predicted
                worst_line_err = max(worst_line_err, err)
                assert err < 0.03, (case["beta_prime"], case["dmu"], h, err)
            else:
                assert measured < 2e-6 * peak
        mask = np.ones(spec.size, bool)
        mask[::cycles] = False
        leak = spec[mask].max() / peak
        worst_leak = max(worst_leak, leak)
        assert leak < 0.01, (case["beta_prime"], case["dmu"], leak)
    assert elapsed < 10.0, f"theorem-1 corpus took {elapsed:.1f} s"
    print(
        f"\nPASS theorem-1 equivalence: 50 cases, worst line error "
        f"{worst_line_err:.2e}, worst off-harmonic leakage {worst_leak:.2e}, "
        f"runtime {elapsed:.2f} s"
    )


def test_theorem2_energy_capture(theorem_cases):
    """At least 98% of the non-DC spectral power lies within the predicted
    bandwidth (resolved to the harmonic grid), on both rule branches."""
    cases, _ = theorem_cases
    worst = 1.0
    branches = {True: 0, False: 0}
    for case in cases:
        spec, cycles = case["spec"], case["cycles"]
        f_o, bp = case["f_o"], case["beta_prime"]
        bw = carson_bandwidth(bp, f_o)
        edge = grid_resolved_bandwidth(bw, f_o)
        power = spec**2
        power[0] = 0.0
        k_edge = int(round(edge / f_o)) * cycles
        captured = power[: k_edge + 1].sum() / power.sum()
        worst = min(worst, captured)
        branches[bp >= 1.0] += 1
        assert captured >= 0.98, (bp, case["dmu"], captured)
    assert branches[True] > 0 and branches[False] > 0
    print(
        f"\nPASS theorem-2 energy capture: worst captured fraction {worst:.4f} "
        f"({branches[True]} cases beta'>=1, {branches[False]} below)"
    )


def test_table1_reproduction():
    """Class bandwidth bounds and thresholds match the reference values."""
    bw_sz = class_bandwidth_bound(MotionClass.SEIZURE, GEOMETRY)
    bw_nm = class_bandwidth_bound(MotionClass.NORMAL_EVENT, GEOMETRY)
    f_th = derive_f_th(GEOMETRY)
    assert 9.8 <= bw_sz <= 10.0, bw_sz
    assert 7.7 <= bw_nm <= 7.9, bw_nm
    assert 8.75 <= f_th <= 8.95, f_th
    references = {1.4: 11.64, 0.7: 6.69, 1.44: 11.94, 1.61: 13.15}
    for psi, expected in references.items():
        got = derive_f_th(SceneGeometry(psi=psi))
        assert abs(got - expected) <= 0.15, (psi, got, expected)
    print(
        f"\nPASS table-1 reproduction: BW_sz={bw_sz:.2f} Hz, BW_nm={bw_nm:.2f} Hz, "
        f"f_th={f_th:.2f} Hz; psi variants within 0.15 Hz of "
        f"{sorted(references.values())}"
    )


# ---------------------------------------------------------------------------
# Simulated-night corpus: 20 seeded one-hour traces
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def night_corpus():
    """20 one-hour traces (2 seizures + 6 normal events each) analyzed once.

    Traces are generated and processed one at a time to bound memory; the
    kept analyses hold only bandwidth trajectories and labels.
    """
    config = PipelineConfig()
    analyses = []
    premise_snr_db = None
    perf_ms_per_s = None
    t0 = time.perf_counter()
    for i in range(20):
        seed = 1000 + i
        scenario = build_night_scenario(3600.0, n_seizures=2, n_normal_events=6,
                                        seed=seed)
        trace = generate_trace(scenario, GEOMETRY, CORPUS_NOISE, seed=seed,
                               dtype=np.complex64)
        t_analysis = time.perf_counter()
        analysis = analyze_trace(trace, config)
        analyses.append(analysis)
        if i == 0:
            perf_ms_per_s = (time.perf_counter() - t_analysis) / trace.duration_s * 1e3
            seizure = next(ev for ev in trace.events if ev.is_seizure)
            snr = selected_stream_event_snr(trace, analysis.calibration, seizure)
            premise_snr_db = 10.0 * math.log10(snr)
        del trace
    elapsed = time.perf_counter() - t0
    return {
        "analyses": analyses,
        "config": config,
        "elapsed_s": elapsed,
        "premise_snr_db": premise_snr_db,
        "perf_ms_per_s": perf_ms_per_s,
    }


def test_end_to_end_simulated_nights(night_corpus):
    """20 one-hour nights: SDR 100%, P_FA <= 0.02, every response time in
    [T_min, T_min + 3 s], corpus runtime under 5 minutes."""
    config = night_corpus["config"]
    f_th = derive_f_th(GEOMETRY)
    reports = [
        report_for(a, f_th, config.t_min_s) for a in night_corpus["analyses"]
    ]
    combined = combine_reports(reports)
    assert night_corpus["premise_snr_db"] >= 10.0, night_corpus["premise_snr_db"]
    assert combined.n_seizures == 40
    assert combined.sdr_pct == 100.0, combined.sdr_pct
    assert combined.p_fa is not None and combined.p_fa <= 0.02, combined.p_fa
    lo, hi = config.t_min_s, config.t_min_s + 3.0
    for rt in combined.rt_list_s:
        assert lo <= rt <= hi, rt
    assert night_corpus["elapsed_s"] < 300.0, night_corpus["elapsed_s"]
    print(
        f"\nPASS end-to-end nights: SDR={combined.sdr_pct:.1f}% "
        f"({combined.n_seizures_detected}/{combined.n_seizures}), "
        f"P_FA={combined.p_fa:.4f} ({combined.n_false_alarms}/"
        f"{combined.n_normals_detected}), RT in "
        f"[{min(combined.rt_list_s):.2f}, {max(combined.rt_list_s):.2f}] s, "
        f"MRT={combined.mrt_s:.2f} s, premise SNR "
        f"{night_corpus['premise_snr_db']:.1f} dB, corpus runtime "
        f"{night_corpus['elapsed_s']:.0f} s"
    )


def test_sweep_monotonicity(night_corpus):
    """On the fixed corpus: SDR and P_FA non-increasing in f_th; MRT
    non-decreasing and P_FA non-increasing in T_min."""
    analyses = night_corpus["analyses"]
    config = night_corpus["config"]

    rows = sweep_parameter(analyses, "f_th", np.arange(6.0, 12.01, 0.5), config)
    sdr = [r["sdr_pct"] for r in rows]
    pfa = [r["p_fa"] for r in rows]
    assert all(a >= b for a, b in zip(sdr, sdr[1:])), sdr
    assert all(a >= b for a, b in zip(pfa, pfa[1:])), pfa

    rows = sweep_parameter(analyses, "t_min", np.arange(2.0, 10.01, 1.0), config)
    mrt = [r["mrt_s"] for r in rows]
    pfa_t = [r["p_fa"] for r in rows]
    assert all(a <= b for a, b in zip(mrt, mrt[1:])), mrt
    assert all(a >= b for a, b in zip(pfa_t, pfa_t[1:])), pfa_t
    print(
        f"\nPASS sweep monotonicity: f_th 6->12 SDR {sdr[0]:.0f}->{sdr[-1]:.0f}%, "
        f"P_FA {pfa[0]:.3f}->{pfa[-1]:.3f}; t_min 2->10 MRT "
        f"{mrt[0]:.2f}->{mrt[-1]:.2f} s, P_FA {pfa_t[0]:.3f}->{pfa_t[-1]:.3f}"
    )


# ---------------------------------------------------------------------------
# Multi-person robustness
# ---------------------------------------------------------------------------

def _two_person_trace(seed: int):
    rng = np.random.default_rng(seed)
    person1 = Scenario(600.0, breathing_profile(600.0), (
        ScenarioEvent(EventKind.POSTURE_SHIFT, 100.0, 8.0,
                      posture_shift_profile(8.0, rng=rng)),
        ScenarioEvent(EventKind.SCRATCH, 200.0, 5.0, scratch_profile(5.0, rng=rng)),
        ScenarioEvent(EventKind.SEIZURE, 360.0, 22.0,
                      seizure_profile(22.0, float(rng.uniform(0.7, 0.8)),
                                      float(rng.uniform(2.0, 3.5)))),
        ScenarioEvent(EventKind.SEIZURE, 540.0, 22.0,
                      seizure_profile(22.0, float(rng.uniform(0.7, 0.8)),
                                      float(rng.uniform(2.0, 3.5)))),
    ))
    person2 = Scenario(600.0, breathing_profile(600.0, f_o_hz=0.22), (
        # overlaps person 1's posture shift: a both-normal segment
        ScenarioEvent(EventKind.POSTURE_SHIFT, 102.0, 8.0,
                      posture_shift_profile(8.0, rng=rng)),
        ScenarioEvent(EventKind.COUGH, 250.0, 1.8, cough_profile(1.8, rng=rng)),
        ScenarioEvent(EventKind.SCRATCH, 420.0, 4.0, scratch_profile(4.0, rng=rng)),
        # overlaps person 1's second seizure
        ScenarioEvent(EventKind.POSTURE_SHIFT, 545.0, 8.0,
                      posture_shift_profile(8.0, rng=rng)),
    ))
    trace = generate_trace(person1, GEOMETRY, CORPUS_NOISE, seed=seed,
                           dtype=np.complex64)
    return superpose_person(trace, person2, seed=seed + 500)


def test_multi_person_robustness():
    """Two people in bed: no seizure verdict during both-normal overlaps,
    both true seizures caught even while person 2 moves."""
    config = PipelineConfig()
    n_both_normal_detected = 0
    for seed in range(2000, 2005):
        trace = _two_person_trace(seed)
        result = run_pipeline(trace, config)
        seizure_labels = [l for l in trace.events if l.is_seizure]

        def overlaps(d, l):
            return min(d.end_s, l.end_s) - max(d.start_s, l.start_s) > 0

        for det in result.events:
            if det.event_class is EventClass.SEIZURE:
                assert any(overlaps(det, l) for l in seizure_labels), (
                    seed, det.start_s, det.end_s,
                )
        for label in seizure_labels:
            assert any(
                overlaps(d, label) and d.event_class is EventClass.SEIZURE
                for d in result.events
            ), (seed, label.start_s)
        both_normal = [l for l in trace.events
                       if not l.is_seizure and l.start_s == 100.0][0]
        hits = [d for d in result.events if overlaps(d, both_normal)]
        n_both_normal_detected += bool(hits)
        assert all(d.event_class is not EventClass.SEIZURE for d in hits)
    assert n_both_normal_detected == 5
    print(
        "\nPASS multi-person robustness: 5 traces, 10/10 seizures caught "
        "(one with simultaneous second-person motion), 0 seizure verdicts "
        "on both-normal overlaps"
    )


# ---------------------------------------------------------------------------
# Preprocessing unit criteria
# ---------------------------------------------------------------------------

def test_preprocessing_unit_suite():
    """Hampel >= 95% outlier removal; selection confined to the low-noise
    streams; PCA correlation >= 0.99 on a common-signal construct."""
    # Hampel removal rate on the simulator's injection log
    noise = NoiseSpec(outlier_rate_per_s=0.5, outlier_magnitude=8.0)
    trace = generate_trace(
        Scenario(60.0, breathing_profile(60.0)), GEOMETRY, noise, seed=11,
        n_rx=2, n_sc=5,
    )
    by_stream = {}
    for i, j, k in trace.outlier_log:
        by_stream.setdefault((i, j), []).append(k)
    removed = total = 0
    for (i, j), idx in by_stream.items():
        s = trace.csi[i, j].real ** 2 + trace.csi[i, j].imag ** 2
        cleaned = hampel_filter(s, 101)
        idx = np.array(idx)
        removed += int((cleaned[idx] != s[idx]).sum())
        total += idx.size
    removal_rate = removed / total
    assert removal_rate >= 0.95, removal_rate

    # selection: 20 streams with 10x lower noise own all K slots
    sigma = np.full((3, 10), 0.2)
    low = {(i, j) for i in range(2) for j in range(10)}
    for i, j in low:
        sigma[i, j] = 0.02
    ctrace = generate_trace(
        Scenario(30.0, breathing_profile(30.0)), GEOMETRY,
        NoiseSpec(awgn_sigma=sigma), seed=12, n_rx=3, n_sc=10,
    )
    cal = calibrate(ctrace, PipelineConfig(k_streams=15))
    for sid in cal.selected_ids:
        assert (sid.rx, sid.sc) in low, str(sid)
        if sid.kind == "pd":
            assert (0, sid.sc) in low

    # PCA correlation on K noisy copies of one signal
    rng = np.random.default_rng(13)
    t = np.arange(0, 30, 1 / FS)
    sig = np.sin(2 * math.pi * 0.25 * t) + 0.4 * np.sin(2 * math.pi * 2.7 * t)
    data = np.array(
        [sig * rng.uniform(0.5, 2.0) + 0.05 * rng.standard_normal(t.size)
         for _ in range(15)]
    )
    p = pca_first_component(data, FS)
    corr = abs(np.corrcoef(p, sig)[0, 1])
    assert corr >= 0.99, corr
    print(
        f"\nPASS preprocessing unit suite: Hampel removal {removal_rate:.1%}, "
        f"selection confined to low-noise streams (15/15), "
        f"PCA correlation {corr:.4f}"
    )


def test_performance_target(night_corpus):
    """Detect pipeline processes 150-stream 200 Hz data at <= 50 ms per
    trace-second on this machine, timed on night 0's analyze_trace."""
    ms = night_corpus["perf_ms_per_s"]
    assert ms <= 50.0, ms
    print(f"\nPASS performance target: {ms:.1f} ms per trace-second (ceiling 50 ms)")
