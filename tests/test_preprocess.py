"""Hampel filtering, SNR stream selection, and PCA denoising."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csiwatch import preprocess
from csiwatch.config import PipelineConfig
from csiwatch.csi_sim import (
    NoiseSpec,
    Scenario,
    breathing_profile,
    build_night_scenario,
    generate_trace,
)
from csiwatch.detector import ED_BAND_HZ
from csiwatch.preprocess import (
    StreamId,
    StreamSet,
    all_stream_ids,
    calibrate,
    compute_stream_snr,
    derive_streams,
    extract_pipeline_stream,
    hampel_filter,
    pca_first_component,
    select_streams,
)
from csiwatch.signal_model import SceneGeometry

FS = 200.0
G = SceneGeometry()
JITTER = NoiseSpec(awgn_sigma=0.01, jitter_std_s=0.0005)


def breathing_trace(duration=30.0, noise=None, seed=0, n_rx=3, n_sc=10, dtype=np.complex128):
    return generate_trace(
        Scenario(duration, breathing_profile(duration)),
        G, noise, seed=seed, n_rx=n_rx, n_sc=n_sc, dtype=dtype,
    )


class TestHampel:
    def test_spike_in_constant_stream_replaced(self):
        x = np.ones(500)
        x[250] = 11.0
        cleaned = hampel_filter(x, 101)
        assert cleaned[250] == 1.0
        assert np.array_equal(np.delete(cleaned, 250), np.delete(x, 250))

    def test_pure_sinusoid_untouched(self):
        t = np.arange(0, 10, 1 / FS)
        x = np.sin(2 * math.pi * 0.25 * t)
        assert np.array_equal(hampel_filter(x, 101, 3.0), x)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            hampel_filter(np.ones(10), 4)
        with pytest.raises(ValueError):
            hampel_filter(np.ones(10), 1)

    def _removal_stats(self, noise, seed=2):
        dirty = breathing_trace(duration=60.0, noise=noise, seed=seed, n_rx=2, n_sc=5)
        by_stream = {}
        for i, j, k in dirty.outlier_log:
            by_stream.setdefault((i, j), []).append(k)
        removed = total = altered_clean = clean_total = 0
        for (i, j), idx in by_stream.items():
            s = dirty.csi[i, j].real ** 2 + dirty.csi[i, j].imag ** 2
            cleaned = hampel_filter(s, 101, 3.0)
            idx = np.array(idx)
            removed += int((cleaned[idx] != s[idx]).sum())
            total += idx.size
            mask = np.ones(s.size, bool)
            mask[idx] = False
            altered_clean += int((cleaned[mask] != s[mask]).sum())
            clean_total += int(mask.sum())
        return removed / total, altered_clean / clean_total

    def test_removes_injected_outliers(self):
        # outliers-only corpus: >= 95% of spikes removed, < 0.1% of clean
        # samples altered (with a 3-sigma rule that bound needs the clean
        # samples' deviations to sit well under the local scale)
        noise = NoiseSpec(outlier_rate_per_s=0.5, outlier_magnitude=8.0)
        removed, altered = self._removal_stats(noise)
        assert removed >= 0.95
        assert altered < 1e-3

    def test_removal_under_gaussian_noise(self):
        # with Gaussian noise the false-replacement floor of a 3-sigma
        # Hampel rule is 2*Phi(-3) ~ 0.27%; spikes still removed
        noise = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.5,
                          outlier_magnitude=8.0)
        removed, altered = self._removal_stats(noise)
        assert removed >= 0.95
        assert altered < 6e-3

    def test_idempotent_on_corpus(self):
        noise = NoiseSpec(outlier_rate_per_s=0.5, outlier_magnitude=8.0)
        trace = breathing_trace(duration=30.0, noise=noise, seed=4, n_rx=1, n_sc=3)
        streams = derive_streams(trace)
        for row in range(streams.n_streams):
            once = hampel_filter(streams.data[row], 101, 3.0)
            twice = hampel_filter(once, 101, 3.0)
            assert np.array_equal(once, twice)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.integers(1, 300).flatmap(lambda n: st.lists(
            st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-100.0, 100.0, allow_nan=False)),
            min_size=n, max_size=n,
        )),
        st.integers(1, 40).map(lambda k: 2 * k + 1),
    )
    def test_matches_reference(self, values, window):
        # small integers give tied medians and zero MADs
        x = np.array(values)
        assert np.array_equal(hampel_filter(x, window), reference_hampel(x, window))

    def test_window_sized_from_trace_rate(self, monkeypatch):
        # 0.5 s at 100 Hz is 50 samples, rounded up to odd
        windows = []
        real = preprocess.hampel_filter

        def spy(stream, window_samples, n_sigmas=3.0):
            windows.append(window_samples)
            return real(stream, window_samples, n_sigmas)

        monkeypatch.setattr(preprocess, "hampel_filter", spy)
        trace = generate_trace(
            Scenario(20.0, breathing_profile(20.0)), G,
            NoiseSpec(awgn_sigma=0.01), seed=0, n_rx=2, n_sc=3, sample_rate_hz=100.0,
        )
        extract_pipeline_stream(trace, calibrate(trace, PipelineConfig(k_streams=3)))
        assert len(windows) == trace.n_streams + 3
        assert set(windows) == {51}


def reference_hampel(x, window, n_sigmas=3.0):
    """Hampel filter written out sample by sample: the median of each
    sample's window (edges padded with the nearest sample), replaced when the
    sample deviates by more than n_sigmas scaled MADs. The MAD comes from the
    nearest of the windows centred every half window (ties to the left)."""
    n = x.size
    w = min(window, n if n % 2 == 1 else n - 1)
    if w < 3:
        return x.copy()
    h = w // 2
    padded = np.concatenate([np.full(h, x[0]), x, np.full(h, x[-1])])
    centers = list(range(h, n - h, (w + 1) // 2))
    mads = [np.median(np.abs(x[c - h : c + h + 1] - np.median(x[c - h : c + h + 1])))
            for c in centers]
    out = x.copy()
    for i in range(n):
        med = np.median(padded[i : i + w])
        k = min(range(len(centers)), key=lambda k: abs(centers[k] - i))
        if abs(x[i] - med) > n_sigmas * 1.4826 * mads[k]:
            out[i] = med
    return out


class TestDeriveStreams:
    def test_nan_sample_named(self):
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        trace.csi[1, 0, 400] = math.nan
        with pytest.raises(ValueError, match=r"stream mag:1:0: non-finite CSI sample at 2\.000 s"):
            derive_streams(trace)

    def test_infinite_reference_sample_rejected_in_phase_stream(self):
        # the angle of an infinite phase-difference product is finite
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        trace.csi[0, 1, 400] = complex(math.inf, 0.0)
        with pytest.raises(ValueError, match=r"stream pd:1:1: non-finite CSI sample at 2\.000 s"):
            derive_streams(trace, ids=[StreamId("pd", 1, 1)])

    def test_unread_stream_not_checked(self):
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        trace.csi[1, 1, 400] = math.nan
        streams = derive_streams(trace, ids=[StreamId("mag", 0, 0), StreamId("pd", 1, 0)])
        assert np.all(np.isfinite(streams.data))


    @pytest.mark.parametrize("sid", [StreamId("mag", 1, 0), StreamId("pd", 1, 0)], ids=str)
    def test_infinite_sample_rejected_without_runtime_warning(self, sid):
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        trace.csi[:, 0, 400] = complex(math.inf, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=rf"stream {sid}: non-finite CSI sample at 2\.000 s"):
                derive_streams(trace, ids=[sid])

    @pytest.mark.parametrize("window", [(2.0012, 5.0037), (0.0, 1.0), (9.0, 10.0)])
    def test_window_equals_full_length_columns(self, window):
        # window ends between packets: only the packets around the window are
        # interpolated, and the result is bit for bit the full-length one
        trace = breathing_trace(duration=10.0, noise=JITTER, n_rx=2, n_sc=3, dtype=np.complex64)
        full = derive_streams(trace)
        part = derive_streams(trace, start_s=window[0], end_s=window[1])
        i0 = int(round(window[0] * FS))
        assert part.start_s == full.start_s + i0 / FS
        assert np.array_equal(part.data, full.data[:, i0 : i0 + part.data.shape[1]])
        assert i0 + part.data.shape[1] == int(round(window[1] * FS))

    def test_jitter_free_rows_equal_closed_form(self):
        trace = breathing_trace(duration=10.0, noise=NoiseSpec(awgn_sigma=0.01), n_rx=2, n_sc=2)
        streams = derive_streams(trace)
        csi = trace.csi
        for row, sid in enumerate(streams.ids):
            c = csi[sid.rx, sid.sc]
            if sid.kind == "mag":
                expected = c.real**2 + c.imag**2
            else:
                expected = np.unwrap(np.angle(c * np.conj(csi[0, sid.sc])))
            assert np.array_equal(streams.data[row], expected), sid

    def test_peak_memory_holds_few_raw_series(self):
        # each magnitude stream needs only its own raw series, so the peak
        # stays near the output however many streams are formed
        trace = breathing_trace(duration=60.0, noise=JITTER, dtype=np.complex64)
        ids = all_stream_ids(3, 10)[:15]
        tracemalloc.start()
        try:
            streams = derive_streams(trace, ids=ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        series_bytes = trace.n_samples * np.dtype(np.complex128).itemsize
        assert peak < streams.data.nbytes + 8 * series_bytes


class TestStreamSnr:
    def test_white_noise_matches_band_ratio(self):
        # flat spectrum: expected SNR = (# bins in (0, bw]) / (# bins above),
        # Monte Carlo averaged
        rng = np.random.default_rng(0)
        n = 2600
        freqs = np.fft.rfftfreq(n, 1 / FS)
        n_num = int(((freqs > 0) & (freqs <= 0.6)).sum())
        n_den = int((freqs > 0.6).sum())
        expected = n_num / n_den
        snrs = [
            compute_stream_snr(rng.standard_normal(n), FS, 0.6) for _ in range(300)
        ]
        assert np.mean(snrs) == pytest.approx(expected, rel=0.1)
        assert expected == pytest.approx(0.006, abs=0.001)

    def test_pure_tone_noiseless_is_infinite(self):
        # 16 s puts the 0.25 Hz tone exactly on a DFT bin: no real leakage,
        # only FFT rounding, which the sentinel floor absorbs
        t = np.arange(0, 16, 1 / FS)
        snr = compute_stream_snr(np.cos(2 * math.pi * 0.25 * t), FS, 0.6)
        assert snr == math.inf

    def test_constant_stream_ranks_last(self):
        assert compute_stream_snr(np.ones(2600), FS, 0.6) == 0.0

    def test_known_power_ratio(self):
        # tones on exact bins: 0.25 Hz in band, 5 Hz out of band, power 10:1
        n = 3200  # 16 s: both tones land on bins
        t = np.arange(n) / FS
        x = math.sqrt(10.0) * np.cos(2 * math.pi * 0.25 * t) + np.cos(
            2 * math.pi * 5.0 * t
        )
        assert compute_stream_snr(x, FS, 0.6) == pytest.approx(10.0, rel=1e-6)

    def test_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2600) + np.sin(2 * math.pi * 0.3 * np.arange(2600) / FS)
        assert compute_stream_snr(4.0 * x, FS, 0.6) == compute_stream_snr(x, FS, 0.6)


class TestSelection:
    def test_tie_break_deterministic(self):
        ids = all_stream_ids(2, 2)
        data = np.tile(np.sin(2 * math.pi * 0.25 * np.arange(2600) / FS), (len(ids), 1))
        streams = StreamSet(tuple(ids), data, FS)
        selected, _ = select_streams(streams, 3, 0.6)
        assert selected == sorted(ids)[:3]

    def test_low_noise_streams_win(self):
        # 20 streams get 10x lower noise: all K selected ids come from them
        n_rx, n_sc = 3, 10
        sigma = np.full((n_rx, n_sc), 0.2)
        low = [(i, j) for i in range(2) for j in range(10)]  # 20 low-noise
        for i, j in low:
            sigma[i, j] = 0.02
        trace = breathing_trace(duration=30.0, noise=NoiseSpec(awgn_sigma=sigma),
                                seed=5, n_rx=n_rx, n_sc=n_sc)
        config = PipelineConfig(k_streams=15)
        cal = calibrate(trace, config)
        # low-noise magnitude streams and phase pairs within the low set
        for sid in cal.selected_ids:
            if sid.kind == "mag":
                assert (sid.rx, sid.sc) in low, str(sid)
            else:
                assert (sid.rx, sid.sc) in low and (0, sid.sc) in low, str(sid)

    def test_zero_information_phase_stream_not_selected(self):
        # force antenna 1 == antenna 0 on one subcarrier: its phase
        # difference is exactly constant and carries nothing
        trace = breathing_trace(duration=30.0, seed=6, n_rx=3, n_sc=4)
        trace.csi[1, 0] = trace.csi[0, 0]
        config = PipelineConfig(k_streams=10)
        cal = calibrate(trace, config)
        assert StreamId("pd", 1, 0) not in cal.selected_ids

    def test_defaults_t_cal_13_k_15(self):
        config = PipelineConfig()
        assert config.t_cal_s == 13.0
        assert config.k_streams == 15
        assert preprocess.BREATHING_BAND_HZ == pytest.approx(0.6)
        assert ED_BAND_HZ == pytest.approx(1.1)

    def test_trace_shorter_than_calibration_rejected(self):
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=3)
        with pytest.raises(ValueError, match="shorter"):
            calibrate(trace, PipelineConfig(k_streams=5))

    def test_k_larger_than_streams_rejected(self):
        ids = all_stream_ids(1, 2)
        data = np.random.default_rng(0).standard_normal((len(ids), 2600))
        with pytest.raises(ValueError, match="exceeds"):
            select_streams(StreamSet(tuple(ids), data, FS), 5, 0.6)

    def test_selection_scale_invariant(self):
        # multiplying a stream by a positive constant (power of two: exact
        # through the FFT) leaves its SNR and the selected set unchanged
        rng = np.random.default_rng(2)
        ids = all_stream_ids(2, 4)
        t = np.arange(2600) / FS
        data = np.array([
            a * np.sin(2 * math.pi * 0.25 * t) + 0.1 * rng.standard_normal(t.size)
            for a in rng.uniform(0.2, 2.0, len(ids))
        ])
        base, _ = select_streams(StreamSet(tuple(ids), data, FS), 4, 0.6)
        scaled = data.copy()
        scaled[3] *= 4.0
        after, _ = select_streams(StreamSet(tuple(ids), scaled, FS), 4, 0.6)
        assert after == base


class TestPca:
    def test_common_signal_recovered(self):
        # K copies of one signal plus small independent noise: the first
        # component correlates with the common signal at >= 0.99
        rng = np.random.default_rng(7)
        t = np.arange(0, 30, 1 / FS)
        sig = np.sin(2 * math.pi * 0.25 * t) + 0.5 * np.sin(2 * math.pi * 3.0 * t)
        data = np.array([sig * rng.uniform(0.5, 2.0) + 0.05 * rng.standard_normal(t.size)
                         for _ in range(15)])
        p = pca_first_component(data, FS)
        corr = np.corrcoef(p, sig)[0, 1]
        assert abs(corr) >= 0.99

    def test_pure_noise_no_spectral_line(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((10, 6000))
        p = pca_first_component(data, FS)
        spec = np.abs(np.fft.rfft(p - p.mean()))
        # no bin dominates: a line would concentrate power
        assert spec.max() ** 2 < 0.05 * np.sum(spec**2)

    def test_constant_block_emits_zeros(self):
        data = np.ones((3, 1600))
        p = pca_first_component(data, FS)
        assert np.all(p == 0.0)

    def test_sign_reproducible(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((5, 4000)) + np.sin(
            2 * math.pi * 0.4 * np.arange(4000) / FS
        )
        p1 = pca_first_component(data, FS)
        p2 = pca_first_component(data.copy(), FS)
        assert np.array_equal(p1, p2)

    def test_needs_two_streams(self):
        with pytest.raises(ValueError):
            pca_first_component(np.ones((1, 100)), FS)


class TestTimeBase:
    @pytest.mark.parametrize("jitter_std_s", [0.0, 0.0005, 0.002])
    @pytest.mark.parametrize("duration, rate", [(300.0, 200.0), (37.35, 100.0), (61.7, 30.0)])
    def test_span_is_sample_count_without_gaps(self, duration, rate, jitter_std_s):
        # with every packet present the grid spans exactly n_samples periods
        trace = generate_trace(
            Scenario.breathing_only(duration), G, NoiseSpec(jitter_std_s=jitter_std_s),
            seed=1, n_rx=1, n_sc=1, sample_rate_hz=rate,
        )
        assert trace.duration_s == trace.n_samples / trace.sample_rate_hz

    def test_dropped_packets_keep_the_span(self):
        # 3 s of packets lost mid-seizure (100-103 s) must not cut the night short
        noise = NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.02, jitter_std_s=0.0005)
        full = generate_trace(build_night_scenario(300.0, 1, 3, seed=7), G, noise, seed=7,
                              dtype=np.complex64)
        keep = np.r_[0:20000, 20600:full.n_samples]
        gap = dataclasses.replace(full, csi=full.csi[:, :, keep],
                                  timestamps_s=full.timestamps_s[keep])
        assert gap.duration_s == 300.0
        calibration = calibrate(gap, PipelineConfig())
        assert extract_pipeline_stream(gap, calibration).size == 60_000
