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
the nearest MAD window (see hampel_filter). Streams are derived in chunks of
DERIVE_CHUNK grid samples: each chunk's packet search and slope denominators
are shared by every raw series it resamples (see derive_streams). This module
needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .csi_sim import CsiTrace
from .detector import sliding_out_of_band_energy
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
DERIVE_CHUNK = 4096  # grid samples resampled per batch
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


class _InterpPlan(NamedTuple):
    """np.interp's work on one chunk of grid points, done once for every
    raw series the chunk resamples.

    A point g strictly between packets j and j+1 is interpolated from
    dx = ts[j+1] - ts[j] and off = g - ts[j]. Every other point takes one
    packet's value as it is: the first packet's before it, the last
    packet's from it on, packet j's on an exact hit.
    """

    grid_s: np.ndarray  # the chunk's grid times
    left: np.ndarray  # packet j of each interpolated point
    right: np.ndarray  # j + 1
    dx: np.ndarray  # per interpolated point, twice: real and imaginary part
    off: np.ndarray  # likewise
    inner: np.ndarray | None  # positions of the interpolated points; None: all
    take: np.ndarray  # positions of the other points
    take_j: np.ndarray  # the packet each of them takes


def _last_packets(ts: np.ndarray, fs: float, i0: int, i1: int) -> np.ndarray:
    """np.searchsorted(ts, grid, "right") - 1 on the grid i / fs, i in
    [i0, i1): the last packet at or before each point, -1 before the first.

    Each packet between the chunk's ends is counted from the first grid
    index whose time is at or after the packet's. fl(i / fs) rises with i,
    so stepping from ceil(t * fs) settles on that index exactly.
    """
    a, b = np.searchsorted(ts, (i0 / fs, (i1 - 1) / fs), side="right")
    t = ts[a:b]
    first = np.ceil(t * fs)
    while (late := (first - 1) / fs >= t).any():
        first -= late
    while (early := first / fs < t).any():
        first += early
    n_new = np.bincount((first - i0).astype(np.intp), minlength=i1 - i0)
    return np.cumsum(n_new) + (a - 1)


def _interp_plan(trace: CsiTrace, i0: int, i_end: int) -> _InterpPlan:
    """The plan of the DERIVE_CHUNK grid indices from i0 on, or of those
    before i_end if fewer; grid point i lies at i / fs."""
    ts, fs = trace.timestamps_s, trace.sample_rate_hz
    i1 = min(i0 + DERIVE_CHUNK, i_end)
    grid = np.arange(i0, i1, dtype=np.float64) / fs
    j = _last_packets(ts, fs, i0, i1)
    t0 = ts[np.maximum(j, 0)]
    take = (j < 0) | (j == ts.size - 1) | (t0 == grid)
    inner, g = None, grid
    if take.any():
        inner = np.flatnonzero(~take)
        take = np.flatnonzero(take)
        take_j = np.maximum(j[take], 0)
        j, t0, g = j[inner], t0[inner], grid[inner]
    else:
        take = take_j = j[:0]
    dx = np.repeat(ts[j + 1] - t0, 2)
    off = np.repeat(g - t0, 2)
    return _InterpPlan(grid, j, j + 1, dx, off, inner, take, take_j)


def _pairs(samples: np.ndarray) -> np.ndarray:
    """Complex samples as one real array of (real, imaginary) pairs."""
    if samples.dtype.kind != "c":
        samples = samples + 0j
    return samples.view(samples.real.dtype)


def _first_non_finite_s(values: np.ndarray, plan: _InterpPlan) -> float:
    """The plan's first grid time whose np.interp value reads a non-finite
    sample of ``values`` (and so is non-finite itself)."""
    bad = np.zeros(plan.grid_s.size, dtype=bool)
    read = ~(np.isfinite(values[plan.left]) & np.isfinite(values[plan.right]))
    bad[slice(None) if plan.inner is None else plan.inner] = read
    bad[plan.take] = ~np.isfinite(values[plan.take_j])
    return float(plan.grid_s[np.argmax(bad)])


def resample_uniform(
    values: np.ndarray, plan: _InterpPlan, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of one series of complex samples at (possibly
    jittered) packet times onto one chunk's grid points, component-wise.

    ``plan`` holds the packets that bracket each grid point and the slope
    denominators, so that work is done once per chunk, not once per series.
    Returns the real and the imaginary part on the chunk, bit for bit
    np.interp's on the whole series: (y[j+1] - y[j]) / dx, times off, plus
    y[j], each step rounded to float64. The two are the float64 views of
    ``out``, a complex128 array of the chunk's length (a new one if None).
    Grid points outside the timestamp span clamp to the edge values. Only
    the packets the plan names are read, each checked before use: a NaN or
    Inf among them raises ValueError naming the first grid time whose value
    it would make non-finite.
    """
    y0, y1 = _pairs(values[plan.left]), _pairs(values[plan.right])
    finite = np.isfinite(y0).all() and np.isfinite(y1).all()
    if plan.inner is not None:
        kept = values[plan.take_j]
        finite = finite and np.isfinite(kept).all()
    if not finite:
        raise ValueError(f"non-finite CSI sample at {_first_non_finite_s(values, plan):.3f} s")
    if out is None:
        out = np.empty(plan.grid_s.size, dtype=np.complex128)
    d = out.view(np.float64) if plan.inner is None else np.empty(y0.size)
    y0 = y0.astype(np.float64, copy=False)
    np.copyto(d, y1)
    d -= y0
    d /= plan.dx
    d *= plan.off
    d += y0
    if plan.inner is not None:
        out[plan.inner] = d.view(np.complex128)
        # an exact hit, a signed zero included, keeps its packet's value
        out[plan.take] = kept
    return out.real, out.imag


def _raise_non_finite(trace: CsiTrace, ids, i0: int, i1: int) -> None:
    """Raise the ValueError of the first stream in ``ids`` order whose raw
    series resample to a non-finite value on the grid indices [i0, i1),
    naming the first such time of the first such series it reads."""
    for sid in ids:
        for rx in (sid.rx,) if sid.kind == "mag" else (sid.rx, 0):
            for i in range(i0, i1, DERIVE_CHUNK):
                try:
                    resample_uniform(trace.csi[rx, sid.sc], _interp_plan(trace, i, i1))
                except ValueError as err:
                    raise ValueError(f"stream {sid}: {err}") from None


def _derive_chunk(trace: CsiTrace, ids, plan: _InterpPlan, cols: np.ndarray) -> None:
    """Write the plan's chunk of every stream in ``ids`` into ``cols``."""
    for row, sid in zip(cols, ids):
        values = trace.csi[sid.rx, sid.sc]
        if sid.kind == "mag":
            re, im = resample_uniform(values, plan)
            np.multiply(re, re, out=row)
            row += np.multiply(im, im, out=im)
        else:
            c, conj_c0 = np.empty((2, row.size), dtype=np.complex128)
            resample_uniform(values, plan, c)
            resample_uniform(trace.csi[0, sid.sc], plan, conj_c0)
            np.conjugate(conj_c0, out=conj_c0)
            # one operand order everywhere: conj_c0 * c rounds differently
            np.multiply(c, conj_c0, out=conj_c0)
            np.arctan2(conj_c0.imag, conj_c0.real, out=row)


def derive_streams(
    trace: CsiTrace,
    ids: list[StreamId] | None = None,
    start_s: float = 0.0,
    end_s: float | None = None,
) -> StreamSet:
    """Form the requested derived streams on the uniform grid.

    The grid is walked in chunks of DERIVE_CHUNK samples. A chunk's
    interpolation plan (the packets around each grid point) is made once,
    and every raw series a requested stream reads is resampled on the chunk
    from it, as real and imaginary parts, into the stream's columns. A
    magnitude is re*re + im*im. A phase difference also reads antenna 0's
    series and is the angle of c * conj(c_0), multiplied in that operand
    order; its row is unwrapped whole once every chunk is in. A raw series
    is read again by every stream that needs it and held for one chunk
    only, so resampling needs a few chunks' memory however long the trace
    is. Every row is bit for bit the one np.interp gives on whole series.

    A NaN or Inf sample that a requested stream resamples raises ValueError
    naming the first such stream in ``ids`` order and its first such grid
    time, as if each stream were formed whole in turn.
    """
    if end_s is None:
        end_s = trace.duration_s
    if ids is None:
        ids = all_stream_ids(trace.n_rx, trace.n_sc)
    fs = trace.sample_rate_hz
    i0, i1 = int(round(start_s * fs)), int(round(end_s * fs))
    data = np.empty((len(ids), max(i1 - i0, 0)), dtype=np.float64)
    try:
        for i in range(i0, i1, DERIVE_CHUNK):
            # the plan is dropped before the next one is made
            cols = data[:, i - i0 : i - i0 + DERIVE_CHUNK]
            _derive_chunk(trace, ids, _interp_plan(trace, i, i1), cols)
    except ValueError:
        # name the stream that forming each stream whole, in ids order, would
        _raise_non_finite(trace, ids, i, i1)
        raise
    for row, sid in zip(data, ids):
        if sid.kind == "pd":
            _unwrap_in_place(row)
    return StreamSet(tuple(ids), data, fs, start_s=i0 / fs if i1 > i0 else start_s)


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
