"""Stage 1 of the pipeline: resampling, outlier removal, stream selection, PCA.

From a raw trace with N_R antennas and N_sc subcarriers the pipeline forms
N_D = (2*N_R - 1)*N_sc real data streams: every antenna/subcarrier squared
magnitude plus every (antenna i, antenna 1) per-subcarrier phase difference.
A breathing-only calibration window ranks the streams by in-band/out-of-band
SNR, keeps the best K, and fixes the detection noise floor sigma_c^2. During
operation the selected streams are denoised to a single series p(t) by
per-block PCA projection onto the first principal component.

Per-stream filtering and SNR are independent per stream; CalibrationState is
immutable once computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import median_filter

from .config import PipelineConfig
from .csi_sim import CsiTrace

__all__ = [
    "StreamId",
    "StreamSet",
    "CalibrationState",
    "all_stream_ids",
    "resample_uniform",
    "derive_streams",
    "hampel_filter",
    "compute_stream_snr",
    "select_streams",
    "calibrate",
    "pca_first_component",
    "extract_pipeline_stream",
]

MAD_SCALE = 1.4826  # scaled-MAD factor for a normal distribution
HAMPEL_WINDOW_S = 0.5
# B_br = 2 * f_o,br, twice the adult maximum breathing rate of 0.3 Hz: the
# in-band part of a stream's calibration SNR
BREATHING_BAND_HZ = 0.6


@dataclass(frozen=True, order=True)
class StreamId:
    """Identity of one derived data stream.

    kind "mag" is the squared magnitude of antenna ``rx``; kind "pd" is the
    phase difference between antenna ``rx`` and the reference antenna 0.
    Field order gives the deterministic (kind, antenna, subcarrier)
    tie-break ordering.
    """

    kind: str
    rx: int
    sc: int

    def __post_init__(self):
        if self.kind not in ("mag", "pd"):
            raise ValueError(f"unknown stream kind {self.kind!r}")

    def __str__(self):
        return f"{self.kind}:{self.rx}:{self.sc}"


def all_stream_ids(n_rx: int, n_sc: int) -> list[StreamId]:
    """All N_D = (2*n_rx - 1)*n_sc stream ids in deterministic order."""
    ids = [StreamId("mag", i, j) for i in range(n_rx) for j in range(n_sc)]
    ids += [StreamId("pd", i, j) for i in range(1, n_rx) for j in range(n_sc)]
    return ids


@dataclass(frozen=True)
class StreamSet:
    """A bundle of equal-length real streams on a uniform sample grid."""

    ids: tuple[StreamId, ...]
    data: np.ndarray  # shape (n_streams, n_samples)
    sample_rate_hz: float
    start_s: float = 0.0

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] != len(self.ids):
            raise ValueError("data must be (n_streams, n_samples) matching ids")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("stream ids must be unique")

    @property
    def n_streams(self) -> int:
        return len(self.ids)


def resample_uniform(
    timestamps_s: np.ndarray, values: np.ndarray, grid_s: np.ndarray
) -> np.ndarray:
    """Linear interpolation of complex samples at (possibly jittered) packet
    times onto a uniform grid, component-wise.

    Only the packets that bracket the grid are interpolated, so resampling
    a short window costs the same on an hour-long series as on a short one.
    Grid points outside the timestamp span clamp to the edge values.
    """
    if grid_s.size:
        lo, hi = np.searchsorted(timestamps_s, (grid_s[0], grid_s[-1]))
        bracket = slice(max(lo - 1, 0), hi + 1)
        timestamps_s, values = timestamps_s[bracket], values[bracket]
    re = np.interp(grid_s, timestamps_s, values.real)
    im = np.interp(grid_s, timestamps_s, values.imag)
    return re + 1j * im


def _uniform_grid(trace: CsiTrace, start_s: float, end_s: float) -> np.ndarray:
    fs = trace.sample_rate_hz
    i0 = int(round(start_s * fs))
    i1 = int(round(end_s * fs))
    return np.arange(i0, i1) / fs


def derive_streams(
    trace: CsiTrace,
    ids: list[StreamId] | None = None,
    start_s: float = 0.0,
    end_s: float | None = None,
) -> StreamSet:
    """Form the requested derived streams on the uniform grid.

    Each stream resamples the raw complex series it reads from the trace's
    packet timestamps onto the nominal uniform grid; a phase difference
    also reads antenna 0's series. No raw series outlives its stream, so
    extracting a few streams from an hour-long trace stays cheap. A NaN or
    Inf sample in a series a requested stream reads raises ValueError
    naming the stream and the time.
    """
    if end_s is None:
        end_s = trace.duration_s
    if ids is None:
        ids = all_stream_ids(trace.n_rx, trace.n_sc)
    grid = _uniform_grid(trace, start_s, end_s)

    def raw(rx: int, sc: int, sid: StreamId) -> np.ndarray:
        c = resample_uniform(trace.timestamps_s, trace.csi[rx, sc], grid)
        # NaN and Inf carry into the sum, so one reduction checks a series
        if not np.isfinite(c.sum()):
            k = int(np.argmin(np.isfinite(c)))
            raise ValueError(f"stream {sid}: non-finite CSI sample at {grid[k]:.3f} s")
        return c

    def form(sid: StreamId) -> np.ndarray:
        c = raw(sid.rx, sid.sc, sid)
        if sid.kind == "mag":
            return c.real**2 + c.imag**2
        # c is named, so numpy cannot reuse its buffer for the product: the
        # in-place complex multiply rounds differently. The product is freed
        # before the unwrap.
        return np.unwrap(np.angle(c * np.conj(raw(0, sid.sc, sid))))

    data = np.empty((len(ids), grid.size), dtype=np.float64)
    for row, sid in enumerate(ids):
        data[row] = form(sid)
    return StreamSet(
        tuple(ids), data, trace.sample_rate_hz, start_s=grid[0] if grid.size else start_s
    )


def hampel_filter(
    stream: np.ndarray, window_samples: int, n_sigmas: float = 3.0
) -> np.ndarray:
    """Hampel outlier rejection: replace samples deviating from the local
    median by more than n_sigmas scaled MADs with that median.

    The MAD is the classical same-window estimate, median(|x_j - m_i|) over
    the window around its own median m_i. Because that scale varies on the
    window timescale, it is evaluated at half-window hops and held between
    evaluation points, which keeps the filter O(n). window_samples must be
    odd and >= 3; ends use nearest-edge padding.
    """
    if window_samples < 3 or window_samples % 2 == 0:
        raise ValueError(f"window_samples must be odd and >= 3, got {window_samples}")
    x = np.asarray(stream, dtype=np.float64)
    n = x.size
    w = min(window_samples, n if n % 2 == 1 else n - 1)
    if w < 3:
        return x.copy()
    med = median_filter(x, size=w, mode="nearest")

    # each evaluated window's median is the median filter's output at its centre
    hop = (w + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(x, w)[::hop]
    centers = w // 2 + hop * np.arange(windows.shape[0])
    mad_rows = np.median(np.abs(windows - med[centers, None]), axis=1)

    # nearest evaluated window center supplies each sample's scale (ties left)
    counts = np.full(mad_rows.size, hop)
    counts[0] = w // 2 + hop // 2 + 1
    counts[-1] = n - counts[:-1].sum()
    scale = np.repeat(mad_rows, counts)

    dev = np.abs(x - med)
    threshold = n_sigmas * MAD_SCALE * scale
    return np.where(dev > threshold, med, x)


def _hampel_rows(streams: StreamSet) -> None:
    """Hampel-filter every stream in place; the window is HAMPEL_WINDOW_S at
    the streams' own sample rate, rounded up to odd and at least 3 samples."""
    window = max(int(round(HAMPEL_WINDOW_S * streams.sample_rate_hz)) | 1, 3)
    for row in streams.data:
        row[:] = hampel_filter(row, window)


def compute_stream_snr(stream: np.ndarray, sample_rate_hz: float, bw_br_hz: float) -> float:
    """In-band to out-of-band power ratio of one stream's periodogram.

    The numerator sums the periodogram over 0 < f <= bw_br (DC excluded),
    the denominator over f > bw_br up to Nyquist. A denominator that is
    zero up to FFT rounding (noiseless synthetic stream) returns the +inf
    sentinel so the stream ranks first; an all-zero spectrum returns 0.
    """
    x = np.asarray(stream, dtype=np.float64)
    p = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / sample_rate_hz)
    num = float(p[(freqs > 0) & (freqs <= bw_br_hz)].sum())
    den = float(p[freqs > bw_br_hz].sum())
    total = float(p.sum())
    if num <= 1e-12 * total:  # constant stream: only FFT rounding off DC
        return 0.0
    if den <= 1e-12 * num:
        return math.inf
    return num / den


@dataclass(frozen=True)
class CalibrationState:
    """Result of the breathing-only calibration pass."""

    selected_ids: tuple[StreamId, ...]
    sigma_c_sq: float
    t_cal_s: float
    cal_start_s: float
    snr_by_id: dict | None = None


def select_streams(
    streams: StreamSet, k: int, bw_br_hz: float
) -> tuple[list[StreamId], dict]:
    """Top-k stream ids by calibration SNR, ties broken by id order."""
    if k > streams.n_streams:
        raise ValueError(f"k = {k} exceeds the {streams.n_streams} available streams")
    snrs = {
        sid: compute_stream_snr(streams.data[row], streams.sample_rate_hz, bw_br_hz)
        for row, sid in enumerate(streams.ids)
    }
    ranked = sorted(streams.ids, key=lambda sid: (-snrs[sid], sid))
    return ranked[:k], snrs


def pca_first_component(
    data: np.ndarray,
    sample_rate_hz: float,
    block_s: float = 4.0,
    overlap: float = 0.5,
) -> np.ndarray:
    """Project K streams onto their per-block first principal component.

    Blocks of block_s seconds (hop = block*(1-overlap)) are mean-centered
    per stream, the top eigenvector of the K x K covariance is extracted,
    and overlapping block outputs are cross-faded with a triangular
    partition of unity. The eigenvector sign is fixed so that each block's
    output correlates non-negatively with the previous block's overlap
    region (first block: the largest-magnitude loading is made positive),
    which makes p(t) fully reproducible. All-constant blocks emit zeros.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need at least 2 streams for PCA")
    n = data.shape[1]
    block = min(int(round(block_s * sample_rate_hz)), n)
    hop = max(int(round(block * (1.0 - overlap))), 1)

    acc = np.zeros(n)
    wsum = np.zeros(n)
    prev: np.ndarray | None = None
    prev_start = 0

    starts = list(range(0, max(n - block, 0) + 1, hop))
    if starts[-1] + block < n:
        starts.append(n - block)

    for s in starts:
        x = data[:, s : s + block]
        xc = x - x.mean(axis=1, keepdims=True)
        cov = xc @ xc.T
        if not np.any(cov):
            comp = np.zeros(x.shape[1])
        else:
            eigvals, eigvecs = np.linalg.eigh(cov)
            v = eigvecs[:, -1]
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
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
        m = comp.size
        w = np.minimum(np.arange(1, m + 1), np.arange(m, 0, -1)).astype(np.float64)
        acc[s : s + m] += w * comp
        wsum[s : s + m] += w
        prev, prev_start = comp, s

    out = np.zeros(n)
    nz = wsum > 0
    out[nz] = acc[nz] / wsum[nz]
    return out


def calibrate(
    trace: CsiTrace, config: PipelineConfig, cal_start_s: float = 0.0
) -> CalibrationState:
    """Run the calibration pass: Hampel, SNR ranking, selection, noise floor.

    The window [cal_start, cal_start + t_cal] must contain breathing only;
    that is the caller's protocol responsibility. sigma_c^2 is the maximum
    out-of-band energy of the PCA-denoised calibration stream over sliding
    detection windows. Re-running after a pose change re-selects streams
    (the recalibration hook).
    """
    from .detector import sliding_out_of_band_energy

    fs = trace.sample_rate_hz
    cal_end = cal_start_s + config.t_cal_s
    if cal_end > trace.duration_s + 0.5 / fs:
        raise ValueError(
            f"trace ({trace.duration_s:.2f} s) shorter than the calibration window "
            f"ending at {cal_end:.2f} s"
        )
    streams = derive_streams(trace, start_s=cal_start_s, end_s=cal_end)
    _hampel_rows(streams)

    selected, snrs = select_streams(streams, config.k_streams, BREATHING_BAND_HZ)
    rows = [streams.ids.index(sid) for sid in selected]
    p_cal = pca_first_component(streams.data[rows], fs)
    _, energies = sliding_out_of_band_energy(p_cal, fs)
    if energies.size == 0:
        raise ValueError("calibration window shorter than one detection window")
    return CalibrationState(
        selected_ids=tuple(selected),
        sigma_c_sq=float(energies.max()),
        t_cal_s=config.t_cal_s,
        cal_start_s=cal_start_s,
        snr_by_id=snrs,
    )


def extract_pipeline_stream(trace: CsiTrace, calibration: CalibrationState) -> np.ndarray:
    """Full-length denoised stream p(t) from the selected streams."""
    streams = derive_streams(trace, ids=list(calibration.selected_ids))
    _hampel_rows(streams)
    return pca_first_component(streams.data, trace.sample_rate_hz)
