"""Gauge the host's speed while an op runs, and scale op times by it.

The benchmark runs on a few cores of a shared machine whose speed changes by
up to a factor of two from one second to the next, and not alike for all
code: numpy-bound and interpreter-bound work slow down separately. Timing a
reference kernel between ops does not follow those changes closely enough.
So a `Sampler` times a small kernel from inside the op: a SIGALRM handler
runs it every `interval` seconds of wall time. The op's scaled time is

    (wall time - time spent in the samples) * nominal / mean sample time,

the time the op would take on a host on which the kernel takes its nominal
time (KERNELS). Each workload names the kernel whose work is most like its
own. The kernels use numpy and the interpreter only, never csiwatch, so a
change to the program does not move them. A sampler starts no thread and no
process.
"""

from __future__ import annotations

import functools
import signal
import time


@functools.cache
def _arrays():
    import numpy as np

    rng = np.random.default_rng(20210325)
    signals = rng.standard_normal((40, 4000)).astype(np.float32)
    csi = (rng.standard_normal((90, 10)) + 1j * rng.standard_normal((90, 10))).astype(np.complex64)
    return signals, csi


def _numpy_kernel() -> None:
    """Array work like the pipeline's: a sort, an FFT, a covariance, scans."""
    import numpy as np

    x, _ = _arrays()
    np.sort(x, axis=1)
    spectrum = np.fft.rfft(x, axis=1)
    x @ x.T
    np.cumsum(x * x, axis=1)
    np.abs(spectrum).sum()


def _text_kernel() -> None:
    """Interpreter work like text trace I/O: format complex samples one
    float at a time, then parse the lines back into an array."""
    import numpy as np

    _, csi = _arrays()
    lines = []
    for k in range(csi.shape[1]):
        parts = [repr(k / 200.0)]
        for v in csi[:, k]:
            parts.append(repr(float(v.real)))
            parts.append(repr(float(v.imag)))
        lines.append(" ".join(parts))
    back = np.empty_like(csi)
    for k, line in enumerate(lines):
        vals = line.split()
        re = np.array(vals[1::2], dtype=np.float64)
        im = np.array(vals[2::2], dtype=np.float64)
        back[:, k] = (re + 1j * im).astype(back.dtype)


def _python_kernel() -> None:
    """Pure interpreter work, for timing imports: build, format and parse
    small objects."""
    values = [((k * 7919) % 1000) / 7.0 for k in range(1500)]
    text = " ".join(repr(v) for v in values)
    table = {i: float(s) for i, s in enumerate(text.split())}
    sorted(table.items(), key=lambda kv: kv[1])


# kernel -> (function, nominal seconds: its time on the host the figures are scaled to)
KERNELS = {
    "numpy": (_numpy_kernel, 0.003),
    "text": (_text_kernel, 0.002),
    "python": (_python_kernel, 0.002),
}
MIN_SAMPLES = 3


class Sampler:
    """Use as `with sampler: ...`; then `scaled(elapsed)` turns the wall
    time of the block into nominal-host time.

    Inside the block the kernel runs every `interval` seconds. A block too
    short for MIN_SAMPLES samples gets the missing ones as it ends. The
    samples' time comes off the block's wall time again in `scaled`. Python
    runs the handler between bytecodes, so a sample waits for a long native
    call to return. The module imports nothing but the standard library's
    functools, signal and time, so that it can time an import of numpy."""

    def __init__(self, kind: str, interval: float = 0.1):
        self.fn, self.nominal = KERNELS[kind]
        self.interval = interval
        self.inside: list[float] = []
        self.after: list[float] = []
        for _ in range(MIN_SAMPLES):  # warm-up, not kept
            self._sample()
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self.fn()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.inside.append(self._sample())

    def __enter__(self):
        self.inside, self.after = [], []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.inside) + len(self.after) < MIN_SAMPLES:
            self.after.append(self._sample())

    @property
    def samples(self) -> list[float]:
        return self.inside + self.after

    def scale(self) -> float:
        """Nominal over mean sample time of the last block."""
        samples = self.samples
        return self.nominal * len(samples) / sum(samples)

    def scaled(self, elapsed: float) -> float:
        """The last block at nominal host speed. `elapsed` is the wall time
        of the whole `with` block, the samples' time included."""
        return (elapsed - sum(self.samples)) * self.scale()
