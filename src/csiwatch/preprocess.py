"""Stage 1 of the pipeline: resampling, outlier removal, stream selection, PCA.

From a raw trace with N_R antennas and N_sc subcarriers the pipeline forms
N_D = (2*N_R - 1)*N_sc real data streams: every antenna/subcarrier squared
magnitude plus every (antenna i, antenna 1) per-subcarrier phase difference.
A breathing-only calibration window ranks the streams by in-band/out-of-band
SNR, keeps the best K, and fixes the detection noise floor sigma_c^2. During
operation the selected streams are denoised to a single series p(t) by
per-block PCA projection onto the first principal component.

Per-stream filtering and SNR are independent per stream; CalibrationState is
immutable once computed. Hampel outlier rejection takes a sample's exact
running median only where that median could flip its keep-or-replace
decision: every other sample is cleared against order-statistic bounds from
the nearest MAD window (see hampel_filter). This module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .csi_sim import CsiTrace
from .spectral_oracle import BREATHING_BAND_HZ

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
HAMPEL_N_SIGMAS = 3.0
HAMPEL_CHUNK = 1024  # windows partitioned per batch
PCA_BLOCK_S = 4.0
PCA_OVERLAP = 0.5


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
) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of complex samples at (possibly jittered) packet
    times onto a uniform grid, component-wise.

    Returns the real and the imaginary part on the grid as two float64
    arrays; no complex series is formed. Only the packets that bracket the
    grid are interpolated, so resampling a short window costs the same on an
    hour-long series as on a short one. Grid points outside the timestamp
    span clamp to the edge values.
    """
    if grid_s.size:
        lo, hi = np.searchsorted(timestamps_s, (grid_s[0], grid_s[-1]))
        bracket = slice(max(lo - 1, 0), hi + 1)
        timestamps_s, values = timestamps_s[bracket], values[bracket]
    re = np.interp(grid_s, timestamps_s, values.real)
    im = np.interp(grid_s, timestamps_s, values.imag)
    return re, im


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

    Each stream resamples the raw series it reads from the trace's packet
    timestamps onto the nominal uniform grid, as real and imaginary parts.
    A magnitude row is re*re + im*im, written straight into its row. A phase
    difference also reads antenna 0's series and is the unwrapped angle of
    c * conj(c_0), multiplied in that operand order at every length. No raw
    series outlives its stream, so extracting a few streams from an
    hour-long trace stays cheap. A NaN or Inf sample in a series a requested
    stream reads raises ValueError naming the stream and the time.
    """
    if end_s is None:
        end_s = trace.duration_s
    if ids is None:
        ids = all_stream_ids(trace.n_rx, trace.n_sc)
    grid = _uniform_grid(trace, start_s, end_s)

    def raw(rx: int, sc: int, sid: StreamId) -> tuple[np.ndarray, np.ndarray]:
        re, im = resample_uniform(trace.timestamps_s, trace.csi[rx, sc], grid)
        # NaN and Inf carry into the sum, so one reduction checks a part
        if not (np.isfinite(re.sum()) and np.isfinite(im.sum())):
            k = int(np.argmin(np.isfinite(re) & np.isfinite(im)))
            raise ValueError(f"stream {sid}: non-finite CSI sample at {grid[k]:.3f} s")
        return re, im

    def complex_raw(rx: int, sc: int, sid: StreamId) -> np.ndarray:
        # read first: np.interp's buffers are freed before c is allocated
        re, im = raw(rx, sc, sid)
        c = np.empty(grid.size, dtype=np.complex128)
        c.real, c.imag = re, im
        return c

    def magnitude(sid: StreamId, out: np.ndarray) -> None:
        re, im = raw(sid.rx, sid.sc, sid)
        np.multiply(re, re, out=out)
        out += np.multiply(im, im, out=im)

    def phase_difference(sid: StreamId, out: np.ndarray) -> None:
        c = complex_raw(sid.rx, sid.sc, sid)
        conj_c0 = complex_raw(0, sid.sc, sid)
        np.conjugate(conj_c0, out=conj_c0)
        # one operand order at every length: an unnamed product of 16 384
        # or more samples would be computed in place as conj_c0 *= c, which
        # rounds differently
        np.multiply(c, conj_c0, out=conj_c0)
        np.arctan2(conj_c0.imag, conj_c0.real, out=out)

    data = np.empty((len(ids), grid.size), dtype=np.float64)
    for row, sid in zip(data, ids):
        if sid.kind == "mag":
            magnitude(sid, row)
        else:
            phase_difference(sid, row)
            _unwrap_in_place(row)
    return StreamSet(
        tuple(ids), data, trace.sample_rate_hz, start_s=grid[0] if grid.size else start_s
    )


def _unwrap_in_place(phase: np.ndarray) -> None:
    """np.unwrap(phase), bit for bit, written into ``phase``.

    np.unwrap wraps every step into [-pi, pi) and then zeroes the correction
    of every step smaller than pi; here the correction is computed only for
    the steps of pi or more, and a single cumulative sum spreads it. phase
    must be finite.
    """
    steps = np.diff(phase)
    jumps = np.flatnonzero(np.abs(steps) >= np.pi)
    step = steps[jumps]
    wrapped = np.mod(step + np.pi, 2 * np.pi) - np.pi
    # a step of exactly +pi keeps its sign, as in np.unwrap
    wrapped[(wrapped == -np.pi) & (step > 0)] = np.pi
    correction = np.zeros_like(steps)
    correction[jumps] = wrapped - step
    phase[1:] += np.cumsum(correction, out=correction)


def hampel_filter(stream: np.ndarray, window_samples: int) -> np.ndarray:
    """Hampel outlier rejection: replace samples deviating from the local
    median by more than HAMPEL_N_SIGMAS scaled MADs with that median.

    Sample i's median m_i is the middle order statistic of the w samples
    centred on it, the ends padded with the nearest edge value. The MAD is
    the classical same-window estimate, median(|x_j - m_c|) over the window
    around its own median m_c. Because that scale varies on the window
    timescale, it is evaluated at centres c spaced hop = (w+1)//2 apart and
    held between them: each sample takes the threshold of its nearest centre
    (ties to the left, the last centre to the end).

    No running median is formed over the whole stream. A window at
    distance d from a centre c differs from W_c in d samples (padded ends
    included), so m_i lies between W_c's order statistics m - d and m + d
    (m = w//2). Each centre's window is partitioned for m_c and, in its two
    halves, for lo_c and hi_c at ranks m - reach and m + reach, with
    reach = hop//2. A sample within reach of its centre whose |x - lo_c|
    and |x - hi_c| are both within the threshold keeps its value: rounding
    is monotone, so |x - m_i| is within it too. Only the other samples, the
    candidates, get their own window partitioned for the exact m_i: those
    the screen cannot clear, and the few at either end more than reach from
    their centre. The result equals a full median filter's bit for bit,
    except that a zero median of a window holding both +0.0 and -0.0 may
    carry either sign.

    Cost: one centre window per hop samples, partitioned once whole, once
    in halves and once for the MAD; then one window partition per
    candidate. With 1-3 % candidates, as on detection rows, that is about
    half the time of a full median filter; with every sample a candidate it
    is several times that. Work arrays hold at most HAMPEL_CHUNK windows at
    a time.

    window_samples must be odd and >= 3. The stream must be finite (a NaN
    or Inf sample raises ValueError) and is not modified; returns a new
    float64 array.
    """
    if window_samples < 3 or window_samples % 2 == 0:
        raise ValueError(f"window_samples must be odd and >= 3, got {window_samples}")
    x = np.asarray(stream, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("hampel_filter needs a finite stream")
    n = x.size
    w = min(window_samples, n if n % 2 == 1 else n - 1)
    if w < 3:
        return x.copy()
    m = w // 2
    hop = m + 1
    reach = hop // 2
    n_centres = (n - w) // hop + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, w)
    # block k: the hop samples from c_k - (m - reach) to c_k + reach, all
    # owned by centre c_k and within reach of it; the reach samples before
    # block 0 and the ones after the last block are always candidates
    blocks = x[reach : reach + n_centres * hop].reshape(n_centres, hop)

    thr = np.empty(n_centres)
    screened_out = [np.arange(reach)]
    for k0 in range(0, n_centres, HAMPEL_CHUNK):
        k1 = min(k0 + HAMPEL_CHUNK, n_centres)
        buf = windows[k0 * hop : (k1 - 1) * hop + 1 : hop].copy()
        buf.partition(m, axis=1)
        med = buf[:, m : m + 1].copy()
        # order statistics m -+ reach of W_c bound the median of every
        # window within reach of c_k
        buf[:, :m].partition(m - reach, axis=1)
        buf[:, m + 1 :].partition(reach - 1, axis=1)
        lo = buf[:, m - reach : m - reach + 1].copy()
        hi = buf[:, m + reach : m + reach + 1].copy()
        # the MAD, then the screen's deviations, reuse the window buffer
        np.subtract(buf, med, out=buf)
        np.abs(buf, out=buf)
        buf.partition(m, axis=1)
        t = thr[k0:k1, None]
        np.multiply(HAMPEL_N_SIGMAS * MAD_SCALE, buf[:, m : m + 1], out=t)

        block = blocks[k0:k1]
        dev = buf[:, :hop]
        np.subtract(block, lo, out=dev)
        np.abs(dev, out=dev)
        kept = dev <= t
        np.subtract(block, hi, out=dev)
        np.abs(dev, out=dev)
        kept &= dev <= t
        screened_out.append(np.flatnonzero(~kept) + (reach + k0 * hop))
    screened_out.append(np.arange(reach + n_centres * hop, n))
    candidates = np.concatenate(screened_out)

    out = x.copy()
    for j in range(0, candidates.size, HAMPEL_CHUNK):
        idx = candidates[j : j + HAMPEL_CHUNK]
        win = windows[np.clip(idx - m, 0, n - w)]
        # the windows of the first and last m samples are padded with the
        # nearest sample
        edge = np.flatnonzero((idx < m) | (idx >= n - m))
        win[edge] = x[np.clip(idx[edge, None] + np.arange(-m, m + 1), 0, n - 1)]
        win.partition(m, axis=1)
        med_i = win[:, m]
        dev = np.subtract(x[idx], med_i)
        np.abs(dev, out=dev)
        owner = np.clip((idx - reach) // hop, 0, n_centres - 1)
        replace = dev > thr[owner]
        out[idx[replace]] = med_i[replace]
    return out


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


def select_streams(streams: StreamSet, k: int) -> tuple[list[StreamId], dict]:
    """Top-k stream ids by calibration SNR in BREATHING_BAND_HZ, ties broken
    by id order."""
    if k > streams.n_streams:
        raise ValueError(f"k = {k} exceeds the {streams.n_streams} available streams")
    snrs = {
        sid: compute_stream_snr(streams.data[row], streams.sample_rate_hz, BREATHING_BAND_HZ)
        for row, sid in enumerate(streams.ids)
    }
    ranked = sorted(streams.ids, key=lambda sid: (-snrs[sid], sid))
    return ranked[:k], snrs


def pca_first_component(data: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Project K streams onto their per-block first principal component.

    Blocks of PCA_BLOCK_S seconds (hop = block*(1-PCA_OVERLAP)) are mean-centered
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
    block = min(int(round(PCA_BLOCK_S * sample_rate_hz)), n)
    hop = max(int(round(block * (1.0 - PCA_OVERLAP))), 1)

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
    detection windows.
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

    selected, snrs = select_streams(streams, config.k_streams)
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
