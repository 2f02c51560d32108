"""Stage 1 of the pipeline: resampling, outlier removal, stream selection, PCA.

From a raw trace with N_R antennas and N_sc subcarriers the pipeline forms
N_D = (2*N_R - 1)*N_sc real data streams: every antenna/subcarrier squared
magnitude plus every (antenna i, antenna 1) per-subcarrier phase difference.
A breathing-only calibration window ranks the streams by in-band/out-of-band
SNR, keeps the best K, and fixes the detection noise floor sigma_c^2. During
operation the selected streams are denoised to a single series p(t) by
per-block PCA projection onto the first principal component.

Per-stream filtering and SNR are independent per stream; CalibrationState is
immutable once computed. Hampel outlier rejection sorts the window of each
MAD centre and takes a sample's exact running median only where that median
could flip its keep-or-replace decision: every other sample is cleared
against order statistics of its centre's sorted window. A row of more than
HAMPEL_CHUNK centres is filtered in two halves at once, the second on a
worker thread that the call joins (see hampel_filter). Streams are derived
in chunks of grid samples: each chunk's packet search and slope
denominators are shared by every raw series it resamples, each raw series
is resampled once per chunk, and phase differences are unwrapped in pieces
of DERIVE_CHUNK. A window longer than about 22 min at 200 Hz is walked in
larger chunks on two lanes, the second half of its chunks on a worker
thread; the caller then unwraps every phase difference (see
derive_streams). Both give the output of one thread bit for bit through
split_in_two. PCA takes its blocks one at a time on the caller alone (see
pca_first_component).
CsiTrace checks CSI, so only hampel_filter checks its input here. Needs
numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lanes import split_in_two
from .config import PipelineConfig
from .csi_sim import CsiTrace
from .detector import ED_WINDOW_S, check_sample_rate, sliding_out_of_band_energy
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
HAMPEL_CHUNK = 1024  # windows sorted per batch and lane
DERIVE_CHUNK = 4096  # grid samples resampled per batch
DERIVE_LANE_DIVISOR = 64  # a long window's lanes walk chunks of n // this
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

    n_points: int  # the chunk's grid points
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


def _interp_plan(trace: CsiTrace, i0: int, i1: int) -> _InterpPlan:
    """The plan of the grid indices i0 to i1 - 1; grid point i lies at i / fs."""
    ts, fs = trace.timestamps_s, trace.sample_rate_hz
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
    return _InterpPlan(grid.size, j, j + 1, dx, off, inner, take, take_j)


def _pairs(samples: np.ndarray) -> np.ndarray:
    """Complex samples as one real array of (real, imaginary) pairs."""
    if samples.dtype.kind != "c":
        samples = samples + 0j
    return samples.view(samples.real.dtype)


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
    Grid points outside the timestamp span clamp to the edge values. The
    samples are finite: CsiTrace refused any other when it was built.
    """
    return _resample(values, plan, out)


def _resample(
    values: np.ndarray, plan: _InterpPlan, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """resample_uniform's work. derive_streams calls this private name, so
    that its worker runs no public function."""
    y0, y1 = _pairs(values[plan.left]), _pairs(values[plan.right])
    if out is None:
        out = np.empty(plan.n_points, dtype=np.complex128)
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
        out[plan.take] = values[plan.take_j]
    return out.real, out.imag


def _derive_chunk(trace: CsiTrace, ids, plan: _InterpPlan, cols: np.ndarray) -> None:
    """Write the plan's chunk of every stream in ``ids`` into ``cols``, one
    subcarrier at a time: each raw series its streams read is resampled
    once and shared by them."""
    by_sc: dict[int, list] = {}
    for row, sid in zip(cols, ids):
        by_sc.setdefault(sid.sc, []).append((row, sid))
    for sc, streams in by_sc.items():
        series = {}
        for _, sid in streams:
            for rx in (sid.rx, 0) if sid.kind == "pd" else (sid.rx,):
                if rx not in series:
                    series[rx] = np.empty(plan.n_points, dtype=np.complex128)
                    _resample(trace.csi[rx, sc], plan, series[rx])
        conj_c0 = None
        for row, sid in streams:
            c = series[sid.rx]
            if sid.kind == "mag":
                np.multiply(c.real, c.real, out=row)
                row += c.imag * c.imag
            else:
                if conj_c0 is None:
                    conj_c0 = np.empty(plan.n_points, dtype=np.complex128)
                np.conjugate(series[0], out=conj_c0)
                # one operand order everywhere: conj_c0 * c rounds differently
                np.multiply(c, conj_c0, out=conj_c0)
                np.arctan2(conj_c0.imag, conj_c0.real, out=row)


def _derive_span(trace: CsiTrace, ids, cols: np.ndarray, a: int, b: int, chunk: int) -> None:
    """Write the grid indices a to b - 1 of every stream in ``ids`` into
    ``cols``, in chunks of ``chunk`` samples."""
    for i in range(a, b, chunk):
        end = min(i + chunk, b)
        # the plan is dropped before the next one is made
        _derive_chunk(trace, ids, _interp_plan(trace, i, end), cols[:, i - a : end - a])


def derive_streams(
    trace: CsiTrace,
    ids: list[StreamId] | None = None,
    start_s: float = 0.0,
    end_s: float | None = None,
) -> StreamSet:
    """Form the requested derived streams on the uniform grid.

    The grid is walked in chunks. A chunk's interpolation plan (the packets
    around each grid point) is made once, and every raw series a requested
    stream reads is resampled on the chunk from it, as real and imaginary
    parts. A magnitude is re*re + im*im. A phase difference also reads
    antenna 0's series and is the angle of c * conj(c_0), multiplied in that
    operand order; its row is unwrapped, DERIVE_CHUNK samples at a time,
    once every chunk is in. The streams are taken one subcarrier at a time:
    each raw series is resampled once per chunk and shared by that
    subcarrier's magnitudes and phase differences, so at most n_rx series
    are held, for one chunk only.
    Every row is bit for bit the one np.interp (and np.unwrap) gives on
    whole series, whatever the chunks are. The trace's CSI is finite, as
    CsiTrace checks, so every row is too.

    Lanes: a window of n grid samples walks chunks of
    max(DERIVE_CHUNK, n // DERIVE_LANE_DIVISOR). Where that exceeds
    DERIVE_CHUNK, from n = 64 * 4097 samples (21.9 min at 200 Hz) on, the
    window is walked on two lanes: the caller takes the first half of the
    chunks and a csiwatch-derive worker thread the second. The lanes write
    apart, so the output does not depend on the thread, and the worker is
    joined before the caller unwraps every phase-difference row. A shorter
    window (the 13 s calibration window, 60 s and 600 s rows) is walked in
    DERIVE_CHUNK chunks on the caller, with no thread.

    Memory: a chunk's plan and one subcarrier's series take at most about
    175 bytes per grid sample on each lane (3 antennas), so at n // 64 the
    two lanes hold at most about 5.5 bytes per output sample beside the
    output: 3.9 MB on an hour, within one 5.8 MB output row, where n // 32
    would hold 7.9 MB. A shorter window and the unwrap need a few
    DERIVE_CHUNK pieces.
    Cost: on the 15 selected streams of an hour (2 vCPUs), two lanes of
    n // 64 chunks won 21 of 21 interleaved pairs against one, in two runs
    (159 against 208 ms and 169 against 240 ms, medians); smaller chunks
    give back part of the gain. Two lanes of
    chunks near DERIVE_CHUNK take longer than one: each numpy call then
    lasts a few microseconds, and the lanes spend their time passing the
    interpreter lock. The unwrap walks DERIVE_CHUNK pieces, so for the same
    reason it runs on the caller alone.
    """
    if end_s is None:
        end_s = trace.duration_s
    if ids is None:
        ids = all_stream_ids(trace.n_rx, trace.n_sc)
    fs = trace.sample_rate_hz
    i0, i1 = int(round(start_s * fs)), int(round(end_s * fs))
    n = max(i1 - i0, 0)
    data = np.empty((len(ids), n), dtype=np.float64)
    chunk = max(DERIVE_CHUNK, n // DERIVE_LANE_DIVISOR)
    if chunk == DERIVE_CHUNK:
        _derive_span(trace, ids, data, i0, i1, chunk)
    else:
        # the caller's half holds the middle chunk of an odd count
        mid = (-(-n // chunk) + 1) // 2 * chunk
        split_in_two(lambda: _derive_span(trace, ids, data[:, :mid], i0, i0 + mid, chunk),
                     lambda: _derive_span(trace, ids, data[:, mid:], i0 + mid, i1, chunk),
                     "csiwatch-derive")
    for row, sid in zip(data, ids):
        if sid.kind == "pd":
            _unwrap_in_place(row)
    return StreamSet(tuple(ids), data, fs, start_s=i0 / fs if i1 > i0 else start_s)


def _unwrap_in_place(phase: np.ndarray) -> None:
    """np.unwrap(phase), bit for bit, written into ``phase``.

    np.unwrap wraps every step into [-pi, pi) and then zeroes the correction
    of every step smaller than pi; here the correction is computed only for
    the steps of pi or more, and a cumulative sum spreads it. The row is
    walked in DERIVE_CHUNK pieces: each piece's first step is taken from
    the previous piece's last sample as it was, and the correction summed
    so far is added to the piece's first correction before its cumulative
    sum, so the sum runs in the same order as one over the whole row.
    phase must be finite.
    """
    if phase.size < 2:
        return
    before = phase[0]  # the sample before the piece, as it was
    carried = 0.0
    for i in range(1, phase.size, DERIVE_CHUNK):
        piece = phase[i : i + DERIVE_CHUNK]
        steps = np.empty_like(piece)
        steps[0] = piece[0] - before
        np.subtract(piece[1:], piece[:-1], out=steps[1:])
        before = piece[-1]
        jumps = np.flatnonzero(np.abs(steps) >= np.pi)
        if jumps.size == 0:
            # the cumulative sum stays at carried, never -0.0 (a sum of
            # corrections, none of them -0.0)
            piece += carried
            continue
        step = steps[jumps]
        wrapped = np.mod(step + np.pi, 2 * np.pi) - np.pi
        # a step of exactly +pi keeps its sign, as in np.unwrap
        wrapped[(wrapped == -np.pi) & (step > 0)] = np.pi
        correction = np.zeros_like(steps)
        correction[jumps] = wrapped - step
        correction[0] += carried
        np.cumsum(correction, out=correction)
        carried = correction[-1]
        piece += correction


class _HampelRow(NamedTuple):
    """One stream's Hampel geometry, read by both lanes."""

    x: np.ndarray  # the stream
    windows: np.ndarray  # its sliding windows of w samples
    m: int  # the median's rank in a window, w // 2
    hop: int  # the spacing of the MAD centres, m + 1
    reach: int  # hop // 2
    n_centres: int


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
    (m = w//2). One sort of each centre's window gives m_c, and lo_c and
    hi_c at ranks m - reach and m + reach, with reach = hop//2. A sample
    within reach of its centre whose |x - lo_c| and |x - hi_c| are both
    within the threshold keeps its value: rounding is monotone, so
    |x - m_i| is within it too. Only the other samples, the candidates, get
    their own window sorted for the exact m_i: those the screen cannot
    clear, and the few at either end more than reach from their centre.
    The result equals a full median filter's bit for bit, except that a
    zero median of a window holding both +0.0 and -0.0 may carry either
    sign.

    Cost: one window sort per centre, then one per candidate. The centre's
    sorted window s gives the MAD too: the m + 1 deviations nearest m_c
    belong to m + 1 neighbours s[t..t+m], so the MAD is the least over
    t = 0..m of max(m_c - s[t], s[t+m] - m_c), the same floats a sort of
    the deviations would order. Detection rows have 1-3 % candidates, so
    the centres' sorts take most of the time; when most samples are
    candidates, as on integer-quantized CSI, theirs do. Work arrays hold at
    most HAMPEL_CHUNK windows per lane. A row of more than HAMPEL_CHUNK
    centres is cut into two halves of equal centre count, each with the
    samples its centres own: the caller filters one half and a worker
    thread the other. The halves write apart, so the output does not depend
    on the thread, and no thread outlives the call. A shorter row starts no
    thread. On the 15 selected rows of an hour (2 vCPUs), two halves won 21
    of 21 interleaved pairs against one lane, in two runs (195 against 270
    ms and 208 against 272 ms, medians).

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
    n_centres = (n - w) // hop + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, w)
    row = _HampelRow(x, windows, m, hop, hop // 2, n_centres)
    out = np.empty_like(x)
    if n_centres <= HAMPEL_CHUNK:
        _hampel_half(row, out, 0, n_centres)
        return out
    half = (n_centres + 1) // 2
    split_in_two(lambda: _hampel_half(row, out, 0, half),
                 lambda: _hampel_half(row, out, half, n_centres), "csiwatch-hampel")
    return out


def _hampel_half(row: _HampelRow, out: np.ndarray, k0: int, k1: int) -> None:
    """Filter the samples that centres k0 to k1 - 1 own into out.

    Centre c_k owns block k, the hop samples from c_k - (m - reach) to
    c_k + reach, all within reach of it; the first centre also owns the
    reach samples before its block, the last one every sample after its.
    """
    a = 0 if k0 == 0 else row.reach + k0 * row.hop
    b = row.x.size if k1 == row.n_centres else row.reach + k1 * row.hop
    out[a:b] = row.x[a:b]
    for k in range(k0, k1, HAMPEL_CHUNK):
        k_end = min(k + HAMPEL_CHUNK, k1)
        candidates, thr = _centre_chunk(row, k, k_end)
        for j in range(0, candidates.size, HAMPEL_CHUNK):
            _candidate_chunk(row, candidates[j : j + HAMPEL_CHUNK], thr, k, out)


def _centre_chunk(row: _HampelRow, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates among the samples that centres k0 to k1 - 1 own, and
    those centres' thresholds."""
    m, hop, reach = row.m, row.hop, row.reach
    buf = row.windows[k0 * hop : (k1 - 1) * hop + 1 : hop].copy()
    buf.sort(axis=1)
    med = buf[:, m : m + 1].copy()
    # order statistics m -+ reach of W_c bound the median of every window
    # within reach of c_k
    lo = buf[:, m - reach : m - reach + 1].copy()
    hi = buf[:, m + reach : m + reach + 1].copy()
    # the MAD is the least spread max(med - s[t], s[t+m] - med) over
    # t = 0..m (a zero MAD may be -0.0 here; thresholds are only compared)
    spread = np.subtract(med, buf[:, :hop])
    np.maximum(spread, np.subtract(buf[:, m:], med, out=buf[:, m:]), out=spread)
    thr = HAMPEL_N_SIGMAS * MAD_SCALE * spread.min(axis=1, keepdims=True)

    first = reach + k0 * hop
    block = row.x[first : first + (k1 - k0) * hop].reshape(k1 - k0, hop)
    # the screen's deviations reuse the MAD's buffers
    dev = np.subtract(block, lo, out=spread)
    np.abs(dev, out=dev)
    dev_hi = np.subtract(block, hi, out=buf[:, :hop])
    np.abs(dev_hi, out=dev_hi)
    np.maximum(dev, dev_hi, out=dev)
    candidates = np.flatnonzero(dev > thr) + first
    # the samples before block 0 and after the last block are more than
    # reach from their centre
    if k0 == 0:
        candidates = np.concatenate([np.arange(reach), candidates])
    if k1 == row.n_centres:
        candidates = np.concatenate([candidates, np.arange(first + dev.size, row.x.size)])
    return candidates, thr[:, 0]


def _candidate_chunk(
    row: _HampelRow, idx: np.ndarray, thr: np.ndarray, k0: int, out: np.ndarray
) -> None:
    """Replace each candidate in idx whose own median is beyond its
    threshold with that median, in out. thr holds the thresholds of the
    centres from k0 on, which own every sample in idx."""
    x, m, hop, reach = row.x, row.m, row.hop, row.reach
    n, w = x.size, 2 * m + 1
    win = row.windows[np.clip(idx - m, 0, n - w)]
    # the windows of the first and last m samples are padded with the
    # nearest sample
    edge = np.flatnonzero((idx < m) | (idx >= n - m))
    win[edge] = x[np.clip(idx[edge, None] + np.arange(-m, m + 1), 0, n - 1)]
    win.sort(axis=1)
    med_i = win[:, m]
    dev = np.subtract(x[idx], med_i)
    np.abs(dev, out=dev)
    owner = np.clip((idx - reach) // hop - k0, 0, thr.size - 1)
    replace = dev > thr[owner]
    out[idx[replace]] = med_i[replace]


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
    snr_by_id: dict[StreamId, float]  # every derived stream's calibration SNR


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

    The blocks are taken one at a time, in order, on the caller. Memory:
    each block is copied into one reused (K, block) buffer and centred
    there, and its weighted output goes through one reused buffer. The
    cross-fade weights are whole numbers, so their sums are exact in any
    order: they are held for a window of 2*block samples from the current
    block's start only, and a sample is divided by its sum once no later
    block covers it. Beside the input, a call needs p(t) and one block's
    work.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need at least 2 streams for PCA")
    k, n = data.shape
    if n == 0:  # no block to take
        return np.zeros(0)
    block = min(int(round(PCA_BLOCK_S * sample_rate_hz)), n)
    hop = max(int(round(block * (1.0 - PCA_OVERLAP))), 1)

    starts = list(range(0, max(n - block, 0) + 1, hop))
    if starts[-1] + block < n:
        starts.append(n - block)
    # every block is `block` samples long
    w = np.minimum(np.arange(1, block + 1), np.arange(block, 0, -1)).astype(np.float64)

    acc = np.zeros(n)
    # the weights on acc[done:]; wsum[block:] stays zero
    wsum = np.zeros(2 * block)
    done = 0
    xc = np.empty((k, block))
    weighted = np.empty(block)
    prev: np.ndarray | None = None
    for s in starts:
        np.copyto(xc, data[:, s : s + block])
        xc -= xc.mean(axis=1, keepdims=True)
        cov = xc @ xc.T
        if not cov.any():
            comp = np.zeros(block)
        else:
            v = np.linalg.eigh(cov)[1][:, -1]
            # v @ xc rounds differently for a strided column of eigh's
            # output and a new contiguous array: v keeps the oracle's layout
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            comp = v @ xc
            # the blocks start at most `block` apart
            if prev is not None and float(np.dot(prev[s - done :], comp[: done + block - s])) < 0:
                np.negative(comp, out=comp)
        # no later block covers the samples before s
        d = s - done
        acc[done:s] /= wsum[:d]
        wsum[:block] = wsum[d : d + block]
        wsum[:block] += w
        acc[s : s + block] += np.multiply(w, comp, out=weighted)
        prev, done = comp, s

    # the blocks cover every sample, each with a weight of at least 1
    acc[done:] /= wsum[: n - done]
    return acc


def calibrate(trace: CsiTrace, config: PipelineConfig) -> CalibrationState:
    """Run the calibration pass: Hampel, SNR ranking, selection, noise floor.

    The window is config's [cal_start_s, cal_start_s + t_cal_s] and must
    contain breathing only; that is the caller's protocol responsibility.
    sigma_c^2 is the maximum out-of-band energy of the PCA-denoised
    calibration stream over sliding detection windows. A trace whose
    Nyquist frequency is at or below ED_BAND_HZ is refused (check_sample_rate).
    """
    fs = trace.sample_rate_hz
    check_sample_rate(fs)
    cal_end = config.cal_start_s + config.t_cal_s
    if cal_end > trace.duration_s + 0.5 / fs:
        raise ValueError(
            f"trace ({trace.duration_s:.2f} s) shorter than the calibration window "
            f"ending at {cal_end:.2f} s"
        )
    streams = derive_streams(trace, start_s=config.cal_start_s, end_s=cal_end)
    _hampel_rows(streams)

    selected, snrs = select_streams(streams, config.k_streams)
    rows = [streams.ids.index(sid) for sid in selected]
    p_cal = pca_first_component(streams.data[rows], fs)
    _, energies = sliding_out_of_band_energy(p_cal, fs)
    if energies.size == 0:
        raise ValueError(f"the {config.t_cal_s:g} s calibration window is shorter than one "
                         f"{ED_WINDOW_S:g} s detection window")
    return CalibrationState(
        selected_ids=tuple(selected),
        sigma_c_sq=float(energies.max()),
        snr_by_id=snrs,
    )


def extract_pipeline_stream(trace: CsiTrace, calibration: CalibrationState) -> np.ndarray:
    """Full-length denoised stream p(t) from the selected streams."""
    streams = derive_streams(trace, ids=list(calibration.selected_ids))
    _hampel_rows(streams)
    return pca_first_component(streams.data, trace.sample_rate_hz)
