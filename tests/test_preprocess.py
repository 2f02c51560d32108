"""Hampel filtering, SNR stream selection, and PCA denoising."""

import dataclasses
import hashlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from csiwatch import preprocess
from csiwatch.config import PipelineConfig
from csiwatch.csi_sim import (
    CsiTrace,
    NoiseSpec,
    Scenario,
    breathing_profile,
    build_night_scenario,
    generate_trace,
)
from csiwatch.detector import ED_BAND_HZ
from csiwatch.preprocess import (
    DERIVE_CHUNK,
    DERIVE_LANE_DIVISOR,
    HAMPEL_CHUNK,
    HAMPEL_N_SIGMAS,
    MAD_SCALE,
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
        assert np.array_equal(hampel_filter(x, 101), x)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            hampel_filter(np.ones(10), 4)
        with pytest.raises(ValueError):
            hampel_filter(np.ones(10), 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [2, 500])
    def test_non_finite_stream_rejected(self, bad, n):
        x = np.ones(n)
        x[n // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            hampel_filter(x, 101)

    def _removal_stats(self, noise, seed=2):
        dirty = breathing_trace(duration=60.0, noise=noise, seed=seed, n_rx=2, n_sc=5)
        by_stream = {}
        for i, j, k in dirty.outlier_log:
            by_stream.setdefault((i, j), []).append(k)
        removed = total = altered_clean = clean_total = 0
        for (i, j), idx in by_stream.items():
            s = dirty.csi[i, j].real ** 2 + dirty.csi[i, j].imag ** 2
            cleaned = hampel_filter(s, 101)
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
            once = hampel_filter(streams.data[row], 101)
            twice = hampel_filter(once, 101)
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

        def spy(stream, window_samples):
            windows.append(window_samples)
            return real(stream, window_samples)

        monkeypatch.setattr(preprocess, "hampel_filter", spy)
        trace = generate_trace(
            Scenario(20.0, breathing_profile(20.0)), G,
            NoiseSpec(awgn_sigma=0.01), seed=0, n_rx=2, n_sc=3, sample_rate_hz=100.0,
        )
        extract_pipeline_stream(trace, calibrate(trace, PipelineConfig(k_streams=3)))
        assert len(windows) == trace.n_streams + 3
        assert set(windows) == {51}

    @pytest.mark.parametrize("window", [3, 5, 21, 101, 201])
    def test_long_stream_bit_equal_to_median_filter(self, window):
        x = mixed_stream(24_000, seed=window)
        out = hampel_filter(x, window)
        assert out.tobytes() == median_filter_hampel(x, window).tobytes()
        assert np.count_nonzero(out != x) > 0

    def test_threshold_ties_bit_equal_to_median_filter(self):
        x = threshold_ties_stream(30_000)
        med, threshold = _median_and_threshold(x, 101)
        dev = np.abs(x - med)
        assert np.count_nonzero((dev == threshold) & (threshold > 0)) > 100
        assert np.count_nonzero((dev == threshold) & (threshold == 0)) > 1000
        out = hampel_filter(x, 101)
        assert out.tobytes() == median_filter_hampel(x, 101).tobytes()

    @pytest.mark.parametrize("window", [3, 5, 101])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2w"])
    def test_short_stream_bit_equal_to_median_filter(self, window, extra):
        n = 2 * window if extra == "2w" else window + extra
        x = mixed_stream(n, seed=n)
        assert hampel_filter(x, window).tobytes() == median_filter_hampel(x, window).tobytes()

    def test_input_not_modified(self):
        x = mixed_stream(20_000, seed=3)
        before = x.copy()
        out = hampel_filter(x, 101)
        assert np.count_nonzero(out != x) > 0
        assert x.tobytes() == before.tobytes()

    def test_peak_memory_on_hour_row(self):
        # one 720 000-sample row (an hour at 200 Hz): no more than the 29.6 MB
        # that the median-filter version added
        x = mixed_stream(720_000, seed=11)
        tracemalloc.start()
        try:
            hampel_filter(x, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 29.6e6


class TestHampelLanes:
    """A row of more than HAMPEL_CHUNK centres is filtered in two halves, one
    on a worker thread that no call outlives."""

    @staticmethod
    def stream(n_centres, extra=0, seed=0):
        """A mixed stream with n_centres MAD centres at window 101 (hop 51)
        and extra samples after the last centre's window."""
        return mixed_stream(101 + (n_centres - 1) * 51 + extra, seed=seed)

    @staticmethod
    def centre_chunk_spy(monkeypatch, before=None):
        """Names of the threads that run preprocess._centre_chunk, one per
        call; before(k0) is called first in each."""
        names = []
        real = preprocess._centre_chunk

        def spy(row, k0, k1):
            names.append(threading.current_thread().name)
            if before is not None:
                before(k0)
            return real(row, k0, k1)

        monkeypatch.setattr(preprocess, "_centre_chunk", spy)
        return names

    @pytest.mark.parametrize(
        "n_centres, extra",
        [(HAMPEL_CHUNK, 50),  # one chunk: no thread
         (HAMPEL_CHUNK + 1, 0),  # the shortest row in two halves
         (2 * HAMPEL_CHUNK - 1, 50),
         (2 * HAMPEL_CHUNK, 0),
         (2 * HAMPEL_CHUNK + 1, 7),
         (3 * HAMPEL_CHUNK, 0),  # an odd chunk count, split inside a chunk
         (5 * HAMPEL_CHUNK + 301, 23)],
    )
    def test_bit_equal_to_median_filter(self, n_centres, extra):
        x = self.stream(n_centres, extra, seed=n_centres)
        out = hampel_filter(x, 101)
        assert out.tobytes() == median_filter_hampel(x, 101).tobytes()
        assert np.count_nonzero(out != x) > 0

    def test_candidates_beyond_a_chunk_in_each_half(self, monkeypatch):
        # the threshold-ties stream at ~110 000 samples leaves both halves
        # more than a chunk of candidates
        settled = {}
        real = preprocess._candidate_chunk

        def spy(row, idx, thr, k0, out):
            name = threading.current_thread().name
            settled[name] = settled.get(name, 0) + idx.size
            real(row, idx, thr, k0, out)

        monkeypatch.setattr(preprocess, "_candidate_chunk", spy)
        x = threshold_ties_stream(110_000)
        out = hampel_filter(x, 101)
        assert out.tobytes() == median_filter_hampel(x, 101).tobytes()
        assert len(settled) == 2
        assert min(settled.values()) > HAMPEL_CHUNK

    @pytest.mark.parametrize("n", [2_600, 12_000, 101 + (HAMPEL_CHUNK - 1) * 51 + 50])
    def test_row_of_one_chunk_starts_no_thread(self, monkeypatch, n):
        # calibration rows (13 s), 60 s rows and the longest one-chunk row
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        names = self.centre_chunk_spy(monkeypatch)
        monkeypatch.setattr(threading, "Thread", no_thread)
        x = mixed_stream(n, seed=n)
        assert hampel_filter(x, 101).tobytes() == median_filter_hampel(x, 101).tobytes()
        assert set(names) == {threading.current_thread().name}

    def test_longer_row_has_one_worker(self, monkeypatch):
        names = self.centre_chunk_spy(monkeypatch)
        before = threading.active_count()
        hampel_filter(self.stream(HAMPEL_CHUNK + 1), 101)
        assert threading.active_count() == before
        assert sorted(names) == sorted([threading.current_thread().name, "csiwatch-hampel"])

    @pytest.mark.parametrize("failing, k_fail", [("worker", 2 * HAMPEL_CHUNK),
                                                 ("caller", HAMPEL_CHUNK)])
    def test_error_reaches_caller_and_no_thread_outlives_it(self, monkeypatch, failing, k_fail):
        # of 4 chunks, the worker's first one fails, or the caller's second
        # one while the worker is busy
        def fail(k0):
            if k0 == k_fail:
                raise FloatingPointError(f"{failing} failed")

        self.centre_chunk_spy(monkeypatch, fail)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"^{failing} failed$"):
            hampel_filter(self.stream(4 * HAMPEL_CHUNK), 101)
        assert threading.active_count() == before

    def test_concurrent_callers_with_fast_thread_switching(self, fast_switching_callers):
        rows = [self.stream(2 * HAMPEL_CHUNK + 500 * k, seed=k) for k in range(6)]
        expected = [median_filter_hampel(x, 101).tobytes() for x in rows]
        assert fast_switching_callers(
            [lambda x=x: hampel_filter(x, 101).tobytes() for x in rows]) == expected


def threshold_ties_stream(n):
    """Integers -2..2 give a zero median and a MAD of 1 in most windows, so
    a sample at +-HAMPEL_N_SIGMAS*MAD_SCALE sits exactly on the threshold;
    runs of one value give zero MADs, where the threshold is 0. One sample
    in 50 is such a spike."""
    rng = np.random.default_rng(7)
    x = rng.integers(-2, 3, n).astype(np.float64)
    t = HAMPEL_N_SIGMAS * MAD_SCALE
    spikes = rng.choice(x.size, n // 50, replace=False)
    x[spikes] = rng.choice([t, -t, np.nextafter(t, 10.0), 2.0 + t, -2.0 - t], n // 50)
    for start in range(1000, n, 3000):
        x[start : start + 200] = x[start]
    return x


def mixed_stream(n, seed):
    """Drift, noise, two steps, constant runs, a quantized stretch (tied
    values) and spikes. Quantizing can give -0.0, which is made +0.0: where a
    window holds both zeros, either is its median."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    x = 0.3 * np.sin(2 * math.pi * t / 700) + 1e-4 * t + rng.normal(0.0, 0.05, n)
    x += 2.0 * (t >= n // 3) - 1.5 * (t >= 2 * n // 3)
    for start in rng.integers(0, n, 8):
        x[start : start + int(rng.integers(20, 300))] = x[start]
    quantized = slice(n // 2, n // 2 + n // 6 + 1)
    x[quantized] = np.round(x[quantized] * 8) / 8
    spikes = rng.random(n) < 0.01
    x[spikes] += rng.choice([-1.0, 1.0], spikes.sum()) * rng.uniform(0.5, 10.0, spikes.sum())
    return x + 0.0


def _median_and_threshold(x, w):
    """Full running median (nearest-edge padding) and per-sample threshold
    as the median-filter version of hampel_filter formed them."""
    n = x.size
    med = median_filter(x, size=w, mode="nearest")
    hop = (w + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(x, w)[::hop]
    centers = w // 2 + hop * np.arange(windows.shape[0])
    abs_dev = windows - med[centers, None]
    np.abs(abs_dev, out=abs_dev)
    abs_dev.partition(w // 2, axis=1)
    mad_rows = abs_dev[:, w // 2]
    counts = np.full(mad_rows.size, hop)
    counts[0] = w // 2 + hop // 2 + 1
    counts[-1] = n - counts[:-1].sum()
    return med, np.repeat(HAMPEL_N_SIGMAS * MAD_SCALE * mad_rows, counts)


def median_filter_hampel(stream, window_samples):
    """hampel_filter as it was built on scipy.ndimage.median_filter: the
    oracle for bit-equality."""
    x = np.asarray(stream, dtype=np.float64)
    n = x.size
    w = min(window_samples, n if n % 2 == 1 else n - 1)
    if w < 3:
        return x.copy()
    med, threshold = _median_and_threshold(x, w)
    dev = x - med
    np.abs(dev, out=dev)
    np.copyto(med, x, where=dev <= threshold)
    return med


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


def reference_derive_streams(trace, ids=None, start_s=0.0, end_s=None):
    """derive_streams written with whole-series np.interp: each stream in
    ids order resamples every raw series it reads with two np.interp calls
    on the packets around the window. Returns the rows and the window's
    start."""
    if end_s is None:
        end_s = trace.duration_s
    if ids is None:
        ids = all_stream_ids(trace.n_rx, trace.n_sc)
    fs = trace.sample_rate_hz
    grid = np.arange(int(round(start_s * fs)), int(round(end_s * fs))) / fs

    def complex_raw(rx, sc):
        ts, values = trace.timestamps_s, trace.csi[rx, sc]
        if grid.size:
            lo, hi = np.searchsorted(ts, (grid[0], grid[-1]))
            ts, values = ts[max(lo - 1, 0) : hi + 1], values[max(lo - 1, 0) : hi + 1]
        c = np.empty(grid.size, dtype=np.complex128)
        c.real = np.interp(grid, ts, values.real)
        c.imag = np.interp(grid, ts, values.imag)
        return c

    data = np.empty((len(ids), grid.size))
    for row, sid in zip(data, ids):
        c = complex_raw(sid.rx, sid.sc)
        if sid.kind == "mag":
            np.multiply(c.real, c.real, out=row)
            row += c.imag * c.imag
        else:
            conj_c0 = np.conjugate(complex_raw(0, sid.sc))
            np.multiply(c, conj_c0, out=conj_c0)
            row[:] = np.unwrap(np.arctan2(conj_c0.imag, conj_c0.real))
    return data, grid[0] if grid.size else start_s


@st.composite
def irregular_traces(draw, n_rx=2, n_sc=2):
    """A trace with packet gaps of several periods, jitter that can put two
    packets or none between grid points, exact grid hits, repeated samples
    and +-0.0 parts; and a window that may start before the first packet,
    end after the last, or cross chunk edges."""
    n = draw(st.one_of(
        st.sampled_from([DERIVE_CHUNK - 1, DERIVE_CHUNK, DERIVE_CHUNK + 1, 2 * DERIVE_CHUNK + 1]),
        st.integers(1, 300),
    ))
    fs = draw(st.sampled_from([200.0, 100.0, 1000.0 / 7]))
    # a trace file may also hold real samples
    dtype = draw(st.sampled_from([np.complex64, np.complex128, np.float32]))
    gap_rate, jitter, hit_rate, zero_rate = draw(st.tuples(
        st.sampled_from([0.0, 0.01, 0.3]), st.sampled_from([0.0, 0.001, 0.45]),
        st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.05, 0.5]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = np.where(rng.random(n) < gap_rate, rng.integers(1, 6, n), 0)
    gaps[0] = 0
    offsets = rng.uniform(-jitter, jitter, n)
    offsets[rng.random(n) < hit_rate] = 0.0
    timestamps = (np.arange(n) + np.cumsum(gaps) + offsets) / fs
    csi = rng.normal(size=(n_rx, n_sc, n)).astype(dtype)
    if csi.dtype.kind == "c":
        csi.imag = rng.normal(size=csi.shape)
    repeat = np.flatnonzero(rng.random(n - 1) < 0.1)
    csi[..., repeat + 1] = csi[..., repeat]
    for part in (csi.real, csi.imag) if csi.dtype.kind == "c" else (csi,):
        zero = rng.random(part.shape) < zero_rate
        part[zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
    trace = CsiTrace(fs, csi, timestamps, events=(), geometry=G)
    if draw(st.booleans()):
        return trace, 0.0, None
    start_s = draw(st.floats(-0.05, 0.9)) * trace.duration_s
    end_s = start_s + draw(st.floats(0.0, 1.1)) * trace.duration_s
    return trace, start_s, end_s


def with_sample(trace, rx, sc, k, value):
    """A copy of trace.csi with sample k of stream (rx, sc) set to value."""
    csi = trace.csi.copy()
    csi[rx, sc, k] = value
    return csi


class TestDeriveStreams:
    # derive_streams has no error path: a trace holding a NaN or Inf sample
    # cannot be built, and the refusal names the raw sample
    def test_nan_sample_named(self):
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        csi = with_sample(trace, 1, 0, 400, math.nan)
        with pytest.raises(ValueError, match=r"^non-finite CSI sample on antenna 1, "
                                             r"subcarrier 0 at 2\.000 s$"):
            dataclasses.replace(trace, csi=csi)

    def test_infinite_reference_sample_rejected_in_phase_stream(self):
        # the angle of an infinite phase-difference product would be finite
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        csi = with_sample(trace, 0, 1, 400, complex(math.inf, 0.0))
        with pytest.raises(ValueError, match=r"antenna 0, subcarrier 1 at 2\.000 s"):
            dataclasses.replace(trace, csi=csi)

    def test_unread_stream_not_checked(self):
        # a stream no caller derives is checked all the same
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        csi = with_sample(trace, 1, 1, 400, math.nan)
        with pytest.raises(ValueError, match=r"antenna 1, subcarrier 1 at 2\.000 s"):
            dataclasses.replace(trace, csi=csi)

    @pytest.mark.parametrize("sid", [StreamId("mag", 1, 0), StreamId("pd", 1, 0)], ids=str)
    def test_infinite_sample_rejected_without_runtime_warning(self, sid):
        # the raw series the stream reads last: its own, or antenna 0's
        rx = sid.rx if sid.kind == "mag" else 0
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=2)
        csi = with_sample(trace, rx, sid.sc, 400, complex(math.inf, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=rf"antenna {rx}, subcarrier 0 at 2\.000 s"):
                dataclasses.replace(trace, csi=csi)

    @pytest.mark.parametrize(
        "duration, window",
        [(10.0, (2.0012, 5.0037)), (10.0, (0.0, 1.0)), (10.0, (9.0, 10.0)),
         (100.0, (2.0012, 5.0037))],
        ids=["window0", "window1", "window2", "100s-window0"],
    )
    def test_window_equals_full_length_columns(self, duration, window):
        # window ends between packets: only the packets around the window are
        # interpolated, and the result is bit for bit the full-length one. At
        # 100 s the full-length phase-difference product has 20 000 samples,
        # past the size where numpy would compute an unnamed product in place.
        trace = breathing_trace(duration=duration, noise=JITTER, n_rx=2, n_sc=3, dtype=np.complex64)
        full = derive_streams(trace)
        part = derive_streams(trace, start_s=window[0], end_s=window[1])
        i0 = int(round(window[0] * FS))
        assert part.start_s == full.start_s + i0 / FS
        assert np.array_equal(part.data, full.data[:, i0 : i0 + part.data.shape[1]])
        assert i0 + part.data.shape[1] == int(round(window[1] * FS))

    def test_magnitude_rows_and_hampel_output_pinned(self):
        # SHA-256 of the magnitude rows of a 120 s jittered complex64 trace
        # with outliers, and of their Hampel output (659 samples replaced),
        # as computed when rows were formed from complex series
        noise = NoiseSpec(awgn_sigma=0.01, jitter_std_s=0.0005,
                          outlier_rate_per_s=0.5, outlier_magnitude=8.0)
        trace = breathing_trace(duration=120.0, noise=noise, n_rx=2, n_sc=3, dtype=np.complex64)
        ids = [sid for sid in all_stream_ids(2, 3) if sid.kind == "mag"]
        mag = derive_streams(trace, ids=ids).data
        cleaned = np.stack([hampel_filter(row, 101) for row in mag])
        assert np.count_nonzero(cleaned != mag) == 659
        assert hashlib.sha256(mag.tobytes()).hexdigest() == (
            "37bcf62b8f03c55719f71e321fd0ad7b3704e906be7032b729053fbb20b9d082")
        assert hashlib.sha256(cleaned.tobytes()).hexdigest() == (
            "e15d05053636072c25c7971645aa56cd1987dcb99dc2d3eff08261612ef07bdb")

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

    def test_phase_difference_peak_memory(self):
        # a phase difference holds its own complex series while it reads
        # antenna 0's parts, and forms antenna 0's complex series only after
        # that read has freed np.interp's buffers
        trace = breathing_trace(duration=60.0, noise=JITTER, dtype=np.complex64)
        ids = [sid for sid in all_stream_ids(3, 10) if sid.kind == "pd"][:15]
        tracemalloc.start()
        try:
            streams = derive_streams(trace, ids=ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        series_bytes = trace.n_samples * np.dtype(np.complex128).itemsize
        assert peak < streams.data.nbytes + 4 * series_bytes

    @pytest.mark.parametrize("duration", [60.0, 600.0])
    def test_peak_memory_bounded_by_chunk(self, duration):
        # raw series are resampled one chunk at a time, so what is held
        # beside the output does not grow with the trace
        trace = breathing_trace(duration=duration, noise=JITTER, dtype=np.complex64)
        ids = all_stream_ids(3, 10)[:15]
        tracemalloc.start()
        try:
            streams = derive_streams(trace, ids=ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = DERIVE_CHUNK * np.dtype(np.complex128).itemsize
        assert peak < streams.data.nbytes + 12 * chunk_bytes

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(irregular_traces())
    def test_rows_equal_np_interp_oracle(self, case):
        trace, start_s, end_s = case
        streams = derive_streams(trace, start_s=start_s, end_s=end_s)
        expected, expected_start_s = reference_derive_streams(trace, start_s=start_s, end_s=end_s)
        assert streams.data.shape == expected.shape
        assert streams.data.tobytes() == expected.tobytes()
        assert streams.start_s == expected_start_s

    @pytest.mark.parametrize(
        "ids, named",
        [(["mag:0:1", "mag:1:1"], "mag:0:1: non-finite CSI sample at 50.000 s"),
         (["mag:1:1", "mag:0:1"], "mag:1:1: non-finite CSI sample at 2.000 s"),
         (["mag:1:0", "pd:1:1"], "mag:1:0: non-finite CSI sample at 45.000 s"),
         (["pd:1:0", "mag:0:0"], "pd:1:0: non-finite CSI sample at 45.000 s")],
    )
    def test_error_names_first_stream_in_ids_order(self, ids, named):
        # the sample that the first stream in ids order reads (named as the
        # stream's error once named it) is refused when the trace is built,
        # under its own (antenna, subcarrier) row; with every bad sample in,
        # the ids order no longer matters and the first bad row is named
        trace = breathing_trace(duration=60.0, noise=NoiseSpec(awgn_sigma=0.01), n_rx=2, n_sc=2)
        bad = {(0, 1, 10000): math.nan, (1, 1, 400): complex(math.inf, 0.0),
               (1, 0, 9000): math.nan, (0, 0, 2000): complex(0.0, -math.inf)}
        csi = trace.csi.copy()
        for at, value in bad.items():
            csi[at] = value
        with pytest.raises(ValueError, match=r"^non-finite CSI sample on antenna 0, "
                                             r"subcarrier 0 at 10\.000 s$"):
            dataclasses.replace(trace, csi=csi)

        sid, when = named.split(": non-finite CSI sample at ")
        _, rx, sc = (int(x) if x.isdigit() else x for x in sid.split(":"))
        ((k, value),) = [(k, v) for (r, s, k), v in bad.items() if (r, s) == (rx, sc)]
        with pytest.raises(ValueError) as err:
            dataclasses.replace(trace, csi=with_sample(trace, rx, sc, k, value))
        assert str(err.value) == f"non-finite CSI sample on antenna {rx}, subcarrier {sc} at {when}"

        # the finite trace derives its streams in ids order
        ids = [StreamId(kind, int(r), int(s)) for kind, r, s in (i.split(":") for i in ids)]
        streams = derive_streams(trace, ids)
        assert streams.ids == tuple(ids)
        assert streams.data.tobytes() == reference_derive_streams(trace, ids)[0].tobytes()

    def test_unread_packet_past_window_not_checked(self):
        # the window [0, 2) s reads nothing after packet 399, yet packet 400
        # is checked when the trace is built
        trace = breathing_trace(duration=10.0, noise=NoiseSpec(awgn_sigma=0.01), n_rx=2, n_sc=2)
        csi = trace.csi.copy()
        csi[:, :, 400] = math.inf
        with pytest.raises(ValueError, match=r"antenna 0, subcarrier 0 at 2\.000 s"):
            dataclasses.replace(trace, csi=csi)


# the shortest window whose chunks exceed DERIVE_CHUNK, so that it is walked
# on two lanes
LANES_FROM = DERIVE_LANE_DIVISOR * (DERIVE_CHUNK + 1)


def lane_trace(n_packets, seed, dtype=np.complex128, gap_rate=0.01, hit_rate=0.3):
    """A 2x2 trace of n_packets at FS, with gaps of 1-5 periods, jitter of up
    to 0.45 periods and exact grid hits."""
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(n_packets) < gap_rate, rng.integers(1, 6, n_packets), 0)
    gaps[0] = 0
    offsets = rng.uniform(-0.45, 0.45, n_packets)
    offsets[rng.random(n_packets) < hit_rate] = 0.0
    offsets[0] = 0.0
    timestamps = (np.arange(n_packets) + np.cumsum(gaps) + offsets) / FS
    csi = rng.normal(size=(2, 2, n_packets)).astype(dtype)
    if csi.dtype.kind == "c":
        csi.imag = rng.normal(size=csi.shape)
    return CsiTrace(FS, csi, timestamps, events=(), geometry=G)


def thread_starts(monkeypatch):
    """The names of the threads started from now on, in order."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


def off_grid_window(i0, n):
    """start_s and end_s off the grid that round to indices i0 and i0 + n."""
    return (i0 + 0.3) / FS, (i0 + n - 0.4) / FS


class TestDeriveLanes:
    """A window of LANES_FROM grid samples or more walks chunks of
    n // DERIVE_LANE_DIVISOR on two lanes, the second on a worker thread that
    no call outlives; a shorter one walks DERIVE_CHUNK chunks on the caller."""

    IDS = [StreamId("pd", 1, 0), StreamId("mag", 0, 1), StreamId("pd", 1, 1)]

    @staticmethod
    def plan_spy(monkeypatch, before=None):
        """(thread name, first grid index) of each chunk's plan, in order;
        before(i0) is called first in each."""
        chunks = []
        real = preprocess._interp_plan

        def spy(trace, i0, i1):
            chunks.append((threading.current_thread().name, i0))
            if before is not None:
                before(i0)
            return real(trace, i0, i1)

        monkeypatch.setattr(preprocess, "_interp_plan", spy)
        return chunks

    @pytest.mark.parametrize(
        "n, n_chunks, i0, n_packets, dtype, gap_rate, hit_rate",
        [(LANES_FROM - 1, -(-(LANES_FROM - 1) // DERIVE_CHUNK), 25, LANES_FROM + 60,
          np.complex64, 0.01, 0.3),
         # the window starts before the first packet: 64 chunks of 4097
         (LANES_FROM, DERIVE_LANE_DIVISOR, -40, LANES_FROM, np.complex128, 0.01, 0.3),
         # it ends after the last packet, which gaps push on: 65 chunks
         (LANES_FROM + 1, DERIVE_LANE_DIVISOR + 1, 25, LANES_FROM // 2, np.complex64, 0.3, 0.0),
         # every packet on the grid
         (DERIVE_LANE_DIVISOR * 5000, DERIVE_LANE_DIVISOR, 25, DERIVE_LANE_DIVISOR * 5000 + 60,
          np.complex128, 0.0, 1.0),
         (DERIVE_LANE_DIVISOR * 5000 + 17, DERIVE_LANE_DIVISOR + 1, 25,
          DERIVE_LANE_DIVISOR * 5000 + 99, np.float32, 0.01, 0.3)],
        ids=["below", "at-even", "above-odd", "on-grid-even", "float32-odd"],
    )
    def test_rows_equal_np_interp_oracle(
            self, monkeypatch, n, n_chunks, i0, n_packets, dtype, gap_rate, hit_rate):
        trace = lane_trace(n_packets, seed=n, dtype=dtype, gap_rate=gap_rate, hit_rate=hit_rate)
        start_s, end_s = off_grid_window(i0, n)
        chunks = self.plan_spy(monkeypatch)
        streams = derive_streams(trace, ids=self.IDS, start_s=start_s, end_s=end_s)
        expected, expected_start_s = reference_derive_streams(trace, self.IDS, start_s, end_s)
        assert streams.data.shape == (len(self.IDS), n)
        assert streams.data.tobytes() == expected.tobytes()
        assert streams.start_s == expected_start_s == i0 / FS
        # the chunks tile the window, the caller's half (the middle chunk
        # of an odd count included) first
        chunk = max(DERIVE_CHUNK, n // DERIVE_LANE_DIVISOR)
        assert sorted(i for _, i in chunks) == list(range(i0, i0 + n, chunk))
        assert len(chunks) == n_chunks
        caller = threading.current_thread().name
        mine = sorted(i for name, i in chunks if name == caller)
        if n < LANES_FROM:
            assert len(mine) == n_chunks
        else:
            assert mine == list(range(i0, i0 + (n_chunks + 1) // 2 * chunk, chunk))
            assert {name for name, _ in chunks} == {caller, "csiwatch-derive"}

    def test_shorter_window_starts_no_thread(self, monkeypatch):
        # the 13 s calibration window, 60 s and 600 s rows, and the longest
        # window of one lane
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        trace = lane_trace(LANES_FROM + 100, seed=1)
        monkeypatch.setattr(threading, "Thread", no_thread)
        for n in (2600, 12_000, 120_000, LANES_FROM - 1):
            start_s, end_s = off_grid_window(50, n)
            streams = derive_streams(trace, ids=self.IDS, start_s=start_s, end_s=end_s)
            expected = reference_derive_streams(trace, self.IDS, start_s, end_s)[0]
            assert streams.data.tobytes() == expected.tobytes()

    def test_longer_window_has_one_worker(self, monkeypatch):
        # one worker walks the second half of the chunks, then one unwraps
        # the second half of the phase-difference rows
        unwrapped = []
        real_unwrap = preprocess._unwrap_in_place

        def unwrap_spy(phase):
            unwrapped.append(threading.current_thread().name)
            real_unwrap(phase)

        started = thread_starts(monkeypatch)
        monkeypatch.setattr(preprocess, "_unwrap_in_place", unwrap_spy)
        chunks = self.plan_spy(monkeypatch)
        trace = lane_trace(LANES_FROM, seed=2)
        before = threading.active_count()
        derive_streams(trace, ids=self.IDS)
        assert threading.active_count() == before
        assert started == ["csiwatch-derive", "csiwatch-derive"]
        caller = threading.current_thread().name
        assert {name for name, _ in chunks} == {caller, "csiwatch-derive"}
        assert sorted(unwrapped) == sorted([caller, "csiwatch-derive"])

    def test_one_phase_difference_unwrapped_on_the_caller(self, monkeypatch):
        started = thread_starts(monkeypatch)
        trace = lane_trace(LANES_FROM, seed=3)
        ids = [StreamId("mag", 1, 1), StreamId("pd", 1, 0)]
        streams = derive_streams(trace, ids=ids)
        assert streams.data.tobytes() == reference_derive_streams(trace, ids)[0].tobytes()
        assert started == ["csiwatch-derive"]

    @pytest.mark.parametrize("step", ["derive", "unwrap"])
    @pytest.mark.parametrize("failing", ["worker", "both"])
    def test_error_reaches_caller_and_no_thread_outlives_it(self, monkeypatch, step, failing):
        # the worker fails on its first piece of work; with both failing,
        # the caller fails on its second once the worker has failed, and
        # the caller's error wins
        worker_failed = threading.Event()
        seen = []

        def fail():
            name = threading.current_thread().name
            seen.append(name)
            if name == "csiwatch-derive":
                worker_failed.set()
                raise FloatingPointError("worker failed")
            if failing == "both" and seen.count(name) == 2:
                assert worker_failed.wait(timeout=60)
                raise FloatingPointError("caller failed")

        if step == "derive":
            self.plan_spy(monkeypatch, lambda i0: fail())
        else:
            real_unwrap = preprocess._unwrap_in_place

            def unwrap_spy(phase):
                fail()
                real_unwrap(phase)

            monkeypatch.setattr(preprocess, "_unwrap_in_place", unwrap_spy)
        trace = lane_trace(LANES_FROM, seed=4)
        ids = [StreamId("pd", 1, sc) for sc in (0, 1, 0, 1)]
        before = threading.active_count()
        match = "caller failed" if failing == "both" else "worker failed"
        with pytest.raises(FloatingPointError, match=f"^{match}$"):
            derive_streams(trace, ids=ids)
        assert threading.active_count() == before

    def test_concurrent_callers_with_fast_thread_switching(self, fast_switching_callers):
        trace = lane_trace(LANES_FROM + 600, seed=5, dtype=np.complex64)
        windows = [off_grid_window(100 * k, LANES_FROM + 77 * k) for k in range(6)]
        expected = [reference_derive_streams(trace, self.IDS, *w)[0].tobytes() for w in windows]
        assert fast_switching_callers(
            [lambda w=w: derive_streams(trace, self.IDS, *w).data.tobytes()
             for w in windows]) == expected

    def test_peak_memory_within_one_output_row(self):
        # an hour at 200 Hz: the lanes' plans and series, beside the output,
        # take less than one of its rows
        trace = lane_trace(720_000, seed=6, dtype=np.complex64)
        tracemalloc.start()
        try:
            streams = derive_streams(trace, ids=self.IDS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streams.data.shape[1] >= 720_000
        assert peak < streams.data.nbytes + streams.data[0].nbytes


PHASE_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi]),
    st.floats(-20.0, 20.0, allow_nan=False),
)


class TestUnwrap:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(PHASE_SAMPLES, max_size=40))
    @example([])
    @example([1.5])
    @example([-0.0, 0.0])
    @example([0.0, math.pi, 0.0, -math.pi, -0.0])
    @example([0.0, math.pi + 1e-12, -math.pi - 1e-12, 2 * math.pi, -2.0])
    def test_equals_numpy_unwrap_bit_for_bit(self, values):
        phase = np.array(values, dtype=np.float64)
        expected = np.unwrap(phase)
        preprocess._unwrap_in_place(phase)
        assert phase.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [DERIVE_CHUNK + 2, 2 * DERIVE_CHUNK + 1, 3 * DERIVE_CHUNK + 777])
    def test_row_of_several_pieces_equals_numpy_unwrap(self, n):
        # wrapped phases with steps of exactly +-pi and jumps on both sides
        # of every piece boundary (a piece starts at 1 + k * DERIVE_CHUNK)
        rng = np.random.default_rng(n)
        phase = np.angle(np.exp(1j * np.cumsum(rng.normal(0.0, 1.5, n))))
        phase[rng.choice(n, n // 20, replace=False)] = rng.choice([math.pi, -math.pi], n // 20)
        for edge in range(1 + DERIVE_CHUNK, n, DERIVE_CHUNK):
            phase[edge - 1 : edge + 2] = [3.0, -3.0, math.pi][: n - edge + 1]
        expected = np.unwrap(phase)
        preprocess._unwrap_in_place(phase)
        assert phase.tobytes() == expected.tobytes()
        assert np.abs(expected).max() > 4 * math.pi

    @pytest.mark.parametrize("first_piece_jumps", [False, True])
    def test_quiet_pieces_equal_numpy_unwrap(self, first_piece_jumps):
        # a piece with no step of pi or more only adds the correction carried
        # into it (none, or the first piece's), to -0.0 samples as well
        n = 3 * DERIVE_CHUNK + 1
        rng = np.random.default_rng(11)
        phase = rng.uniform(-1.0, 1.0, n)
        phase[rng.choice(n, 200, replace=False)] = -0.0
        if first_piece_jumps:
            walk = np.cumsum(rng.normal(0.0, 1.5, DERIVE_CHUNK - 1))
            phase[1:DERIVE_CHUNK] = np.angle(np.exp(1j * walk))
            phase[DERIVE_CHUNK] = 0.0
        expected = np.unwrap(phase)
        carried = expected[-1] - phase[-1]
        preprocess._unwrap_in_place(phase)
        assert phase.tobytes() == expected.tobytes()
        assert (carried != 0) == first_piece_jumps

    def test_peak_memory_bounded_by_piece(self):
        # an hour at 200 Hz is unwrapped in DERIVE_CHUNK pieces
        phase = np.angle(np.exp(1j * np.cumsum(np.random.default_rng(0).normal(0, 1.0, 720_000))))
        tracemalloc.start()
        try:
            preprocess._unwrap_in_place(phase)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * DERIVE_CHUNK * 8


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
        selected, _ = select_streams(streams, 3)
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
        csi = trace.csi.copy()
        csi[1, 0] = csi[0, 0]
        trace = dataclasses.replace(trace, csi=csi)
        config = PipelineConfig(k_streams=10)
        cal = calibrate(trace, config)
        assert StreamId("pd", 1, 0) not in cal.selected_ids

    def test_defaults_t_cal_13_k_15(self):
        config = PipelineConfig()
        assert config.t_cal_s == 13.0
        assert config.k_streams == 15
        assert preprocess.BREATHING_BAND_HZ == 0.6
        assert ED_BAND_HZ == 1.1

    def test_trace_shorter_than_calibration_rejected(self):
        trace = breathing_trace(duration=10.0, n_rx=2, n_sc=3)
        with pytest.raises(ValueError, match="shorter"):
            calibrate(trace, PipelineConfig(k_streams=5))

    @pytest.mark.parametrize("start", [-12.0, math.nan, math.inf])
    def test_calibration_start_outside_trace_rejected(self, start):
        trace = breathing_trace(duration=20.0, n_rx=2, n_sc=3)
        with pytest.raises(ValueError, match="cal_start_s must be finite and at least 0 s"):
            calibrate(trace, PipelineConfig(k_streams=5), cal_start_s=start)

    def test_k_larger_than_streams_rejected(self):
        ids = all_stream_ids(1, 2)
        data = np.random.default_rng(0).standard_normal((len(ids), 2600))
        with pytest.raises(ValueError, match="exceeds"):
            select_streams(StreamSet(tuple(ids), data, FS), 5)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.permutations(range(12)), st.lists(st.integers(-4, 4), min_size=12, max_size=12),
           st.integers(1, 12))
    def test_selection_scale_invariant(self, order, exponents, k):
        # permuting the (id, row) pairs and scaling each row by its own power
        # of two (exact through the FFT) leaves every SNR and the selected ids
        # unchanged; rows 2 and 5 tie, so the id order breaks the tie
        rng = np.random.default_rng(2)
        ids = all_stream_ids(2, 4)  # 12 streams
        t = np.arange(2600) / FS
        data = np.array([
            a * np.sin(2 * math.pi * 0.25 * t) + 0.1 * rng.standard_normal(t.size)
            for a in rng.uniform(0.2, 2.0, len(ids))
        ])
        data[5] = 2.0 * data[2]
        base = select_streams(StreamSet(tuple(ids), data, FS), k)
        scaled = np.ldexp(data, np.array(exponents)[:, None])
        moved = StreamSet(tuple(ids[i] for i in order), scaled[list(order)], FS)
        assert select_streams(moved, k) == base


class TestPca:
    def test_peak_memory_two_rows(self):
        # p(t) is the weighted sum divided in place by the weights: beside
        # the input, two rows and one block's work
        data = np.random.default_rng(1).normal(size=(15, 72_000))
        tracemalloc.start()
        try:
            p = pca_first_component(data, FS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * p.nbytes + 0.5e6

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


def reference_pca(data, sample_rate_hz, flips=None):
    """pca_first_component as one loop over the blocks: the oracle. If
    flips is a list, each block's eigenvector sign flip is appended."""
    n = data.shape[1]
    block = min(int(round(preprocess.PCA_BLOCK_S * sample_rate_hz)), n)
    hop = max(int(round(block * (1.0 - preprocess.PCA_OVERLAP))), 1)
    acc = np.zeros(n)
    wsum = np.zeros(n)
    prev = None
    prev_start = 0
    starts = list(range(0, max(n - block, 0) + 1, hop))
    if starts[-1] + block < n:
        starts.append(n - block)
    w = np.minimum(np.arange(1, block + 1), np.arange(block, 0, -1)).astype(np.float64)
    for s in starts:
        x = data[:, s : s + block]
        xc = x - x.mean(axis=1, keepdims=True)
        cov = xc @ xc.T
        if not np.any(cov):
            comp = np.zeros(x.shape[1])
        else:
            eigvals, eigvecs = np.linalg.eigh(cov)
            v = eigvecs[:, -1]
            flipped = v[np.argmax(np.abs(v))] < 0
            if flipped:
                v = -v
            if flips is not None:
                flips.append(flipped)
            comp = v @ xc
            if prev is not None:
                lo = max(s, prev_start)
                hi = min(prev_start + prev.size, s + comp.size)
                if hi > lo:
                    dot = float(
                        np.dot(prev[lo - prev_start : hi - prev_start], comp[lo - s : hi - s])
                    )
                    if dot < 0:
                        comp = -comp
        acc[s : s + block] += w * comp
        wsum[s : s + block] += w
        prev, prev_start = comp, s
    acc /= wsum
    return acc


def pca_rows(k, n, seed):
    """k streams of n samples at FS: one shared breathing-like line at a
    different gain per stream, plus independent noise."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((k, n))
    data += np.sin(2 * math.pi * 0.3 / FS * np.arange(n)) * rng.uniform(-2.0, 2.0, (k, 1))
    return data


def pca_batch_size(k, n):
    """Blocks per batch, as pca_first_component sizes it at FS."""
    return max(1, n // (3 * (k + 1) * 800))


class TestPcaOracle:
    """pca_first_component equals the block-by-block loop bit for bit."""

    @pytest.mark.parametrize("k", [2, 15])
    @pytest.mark.parametrize("n", [799, 800, 801, 2_600, 12_000, 120_000, 720_000])
    def test_bit_equal_to_block_loop(self, k, n):
        # below, at and one past a block; 13 s, 60 s, 600 s and an hour
        data = pca_rows(k, n, seed=n + k)
        assert pca_first_component(data, FS).tobytes() == reference_pca(data, FS).tobytes()

    def test_last_block_off_the_hop_grid_inside_a_batch(self):
        # the last block starts 123 samples after the one before, in the
        # last batch of many blocks
        data = pca_rows(2, 120_123, seed=5)
        assert pca_batch_size(2, data.shape[1]) > 1
        assert pca_first_component(data, FS).tobytes() == reference_pca(data, FS).tobytes()

    @pytest.mark.parametrize("where", ["start", "end", "batch_boundary"])
    def test_constant_blocks(self, where):
        # 600 s of two streams: batches of 16 blocks, the first the caller's
        # and the second the worker's; blocks 15 and 16 lie on both sides
        n = 120_000
        assert pca_batch_size(2, n) == 16
        data = pca_rows(2, n, seed=6)
        span = {"start": slice(0, 1200), "end": slice(n - 1200, n),
                "batch_boundary": slice(15 * 400, 17 * 400 + 400)}[where]
        data[0, span] = 1.0
        data[1, span] = -2.0
        p = pca_first_component(data, FS)
        assert p.tobytes() == reference_pca(data, FS).tobytes()
        assert np.count_nonzero(p[span]) < span.stop - span.start

    def test_overlap_dot_exactly_zero(self):
        # the first block's second half equals its mean on every stream, so
        # its output there is zero and the next block's sign dot is 0.0
        data = pca_rows(3, 12_000, seed=7)
        data[:, 400:800] = 1.0
        data[:, :400] = 1.0 + np.where(np.arange(400) % 2, 0.5, -0.5) * [[1.0], [2.0], [-1.0]]
        p = pca_first_component(data, FS)
        assert np.all(p[400:800] != 0.0)  # the second block is not constant
        assert p.tobytes() == reference_pca(data, FS).tobytes()

    def test_flipped_and_kept_eigenvectors(self):
        # a loop projects a kept eigenvector as a strided column of eigh's
        # output and a flipped one as a new contiguous array; the two round
        # differently, and on independent noise both occur often
        data = np.random.default_rng(8).standard_normal((15, 120_000))
        flips = []
        expected = reference_pca(data, FS, flips)
        assert 0.3 < np.mean(flips) < 0.7
        assert pca_first_component(data, FS).tobytes() == expected.tobytes()


class TestPcaLanes:
    """Batches of more than one block split over the caller and one
    csiwatch-pca worker that no call outlives."""

    @staticmethod
    def batch_spy(monkeypatch, before=None):
        """(thread name, first block start) of each preprocess._pca_batch
        call; before(first start) is called first in each."""
        calls = []
        real = preprocess._pca_batch

        def spy(windows, hop, starts, buf):
            calls.append((threading.current_thread().name, starts[0]))
            if before is not None:
                before(starts[0])
            real(windows, hop, starts, buf)

        monkeypatch.setattr(preprocess, "_pca_batch", spy)
        return calls

    @pytest.mark.parametrize("n", [2_600, 12_000, 2 * 3 * 16 * 800 - 1])
    def test_batch_of_one_block_starts_no_thread(self, monkeypatch, n):
        # calibration rows (13 s), 60 s rows and the longest row of
        # one-block batches at K = 15
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        assert pca_batch_size(15, n) == 1
        calls = self.batch_spy(monkeypatch)
        monkeypatch.setattr(threading, "Thread", no_thread)
        data = pca_rows(15, n, seed=n)
        assert pca_first_component(data, FS).tobytes() == reference_pca(data, FS).tobytes()
        assert {name for name, _ in calls} == {threading.current_thread().name}

    def test_hour_has_one_worker_for_the_odd_batches(self, monkeypatch):
        calls = self.batch_spy(monkeypatch)
        before = threading.active_count()
        pca_first_component(pca_rows(15, 720_000, seed=9), FS)
        assert threading.active_count() == before
        # 1799 blocks in 100 batches of 18
        assert len(calls) == 100
        by_thread = {}
        for name, first in calls:
            by_thread.setdefault(name, []).append(first // (18 * 400))
        assert by_thread == {threading.current_thread().name: list(range(0, 100, 2)),
                             "csiwatch-pca": list(range(1, 100, 2))}

    @pytest.mark.parametrize("failing, batch", [("worker", 1), ("worker", 3),
                                                ("caller", 0), ("caller", 2)])
    def test_error_reaches_caller_and_no_thread_outlives_it(
            self, monkeypatch, failing, batch):
        # 600 s of two streams: 19 batches of 16 blocks
        def fail(first):
            if first == batch * 16 * 400:
                raise FloatingPointError(f"{failing} failed")

        self.batch_spy(monkeypatch, fail)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"^{failing} failed$"):
            pca_first_component(pca_rows(2, 120_000, seed=10), FS)
        assert threading.active_count() == before

    def test_concurrent_callers_with_fast_thread_switching(self, fast_switching_callers):
        rows = [pca_rows(2, 120_000 + 7_001 * k, seed=k) for k in range(6)]
        expected = [reference_pca(x, FS).tobytes() for x in rows]
        assert fast_switching_callers(
            [lambda x=x: pca_first_component(x, FS).tobytes() for x in rows]) == expected


class TestTimeBase:
    @pytest.mark.parametrize("jitter_std_s", [0.0, 0.0005, 0.002])
    @pytest.mark.parametrize("duration, rate", [(300.0, 200.0), (37.35, 100.0), (61.7, 30.0)])
    def test_span_is_sample_count_without_gaps(self, duration, rate, jitter_std_s):
        # with every packet present the grid spans exactly n_samples periods
        trace = generate_trace(
            Scenario(duration, breathing_profile(duration)), G,
            NoiseSpec(jitter_std_s=jitter_std_s), seed=1, n_rx=1, n_sc=1, sample_rate_hz=rate,
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
