"""Trace, label, event, and report file formats.

A trace file is one JSON header line (format version, sample rate, antenna
and subcarrier counts, record count, CSI dtype, scene geometry) followed by
two arrays in NumPy ``.npy`` format: ``timestamps_s`` (float64, shape
``(n_records,)``) and ``csi`` (the header's dtype, shape
``(n_rx, n_sc, n_records)``). The arrays hold the raw in-memory bytes, so
write-then-read reproduces the arrays bit for bit. Reading checks the
arrays against the header, refuses pickled data, truncation and trailing
bytes, and rejects non-finite samples and timestamps that do not strictly
increase. A ``.gz`` extension transparently gzip-compresses; written gzip
members carry no timestamp or file name, so equal content gives equal
bytes.

Ground-truth labels live in a CSV sidecar (start_s, end_s, class,
person_id); detector output in an events CSV; reports as JSON.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import zlib

import numpy as np

from .csi_sim import CsiTrace, EventKind, LabelInterval
from .detector import DetectedEvent, EventClass

__all__ = [
    "TRACE_FORMAT_VERSION",
    "write_trace",
    "read_trace",
    "write_labels",
    "read_labels",
    "write_events_csv",
    "read_events_csv",
    "write_report",
    "file_sha256",
]

TRACE_FORMAT_VERSION = 2

_MAX_HEADER_BYTES = 1 << 16


@contextlib.contextmanager
def _open(path, mode: str):
    """Open ``path`` for reading ("r", "rb") or writing ("w", "wb").

    Modes without "b" give UTF-8 text. A ``.gz`` suffix gzip-compresses;
    the gzip header gets mtime 0 and an empty file name.
    """
    with open(path, mode[0] + "b") as raw:
        f = raw
        if str(path).endswith(".gz"):
            f = gzip.GzipFile(filename="", fileobj=raw, mode=mode[0] + "b", mtime=0)
        with f:
            if mode.endswith("b"):
                yield f
            else:
                with io.TextIOWrapper(f, encoding="utf-8") as text:
                    yield text


def write_trace(trace: CsiTrace, path) -> None:
    """Write a trace file (JSON header line + timestamps and CSI arrays)."""
    header = {
        "version": TRACE_FORMAT_VERSION,
        "sample_rate_hz": trace.sample_rate_hz,
        "n_rx": trace.n_rx,
        "n_sc": trace.n_sc,
        "n_records": trace.n_samples,
        "dtype": str(trace.csi.dtype),
        "geometry": {
            "wavelength_m": trace.geometry.wavelength_m,
            "psi": trace.geometry.psi,
            "phi_rad": trace.geometry.phi_rad,
        },
    }
    with _open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        np.save(f, np.asarray(trace.timestamps_s, dtype=np.float64), allow_pickle=False)
        np.save(f, trace.csi, allow_pickle=False)


def _read_header(f, path) -> dict:
    line = f.readline(_MAX_HEADER_BYTES)
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: missing or oversized trace header line")
    header = json.loads(line)
    version = header.get("version") if isinstance(header, dict) else None
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version}")
    return header


def _load_array(f, path, name: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
    try:
        arr = np.load(f, allow_pickle=False)
    except (ValueError, EOFError) as e:
        raise ValueError(f"{path}: {name} array is truncated or malformed ({e})") from e
    if not isinstance(arr, np.ndarray) or arr.shape != shape or arr.dtype != dtype:
        raise ValueError(
            f"{path}: header announces {name} of shape {shape} and dtype {dtype}, "
            f"file holds shape {getattr(arr, 'shape', None)} and "
            f"dtype {getattr(arr, 'dtype', None)}"
        )
    return arr


def _check_samples(path, timestamps: np.ndarray, csi: np.ndarray) -> None:
    """Reject non-finite values and timestamps that do not strictly increase.

    CSI is checked one stream row at a time, so no temporary of the full
    array's size is allocated.
    """
    bad = ~np.isfinite(timestamps)
    if bad.any():
        raise ValueError(f"{path}: non-finite timestamp at record {int(np.argmax(bad))}")
    not_increasing = np.diff(timestamps) <= 0
    if not_increasing.any():
        k = int(np.argmax(not_increasing)) + 1
        raise ValueError(f"{path}: timestamps do not strictly increase at record {k}")
    for rx, sc in np.ndindex(csi.shape[:2]):
        if not np.isfinite(csi[rx, sc]).all():
            raise ValueError(f"{path}: non-finite CSI on antenna {rx}, subcarrier {sc}")


def read_trace(path) -> CsiTrace:
    """Read a trace file back into a CsiTrace.

    Raises ValueError for a file that is not a well-formed trace of the
    current format version, or whose samples are non-finite or whose
    timestamps do not strictly increase, or whose first packet lies more
    than half a sample period from 0 s. The file format does not carry
    ground truth, per-stream path parameters or the outlier log: events and
    the outlier log come back empty, the path parameters None.
    """
    from .signal_model import SceneGeometry

    try:
        with _open(path, "rb") as f:
            header = _read_header(f, path)
            try:
                sample_rate_hz = float(header["sample_rate_hz"])
                n_rx, n_sc = int(header["n_rx"]), int(header["n_sc"])
                n = int(header["n_records"])
                dtype = np.dtype(header["dtype"])
                g = header["geometry"]
                geometry = SceneGeometry(
                    wavelength_m=g["wavelength_m"], psi=g["psi"], phi_rad=g.get("phi_rad")
                )
            except (KeyError, TypeError, AttributeError) as e:
                raise ValueError(f"{path}: malformed trace header ({e!r})") from e
            timestamps = _load_array(f, path, "timestamps_s", (n,), np.dtype(np.float64))
            csi = _load_array(f, path, "csi", (n_rx, n_sc, n), dtype)
            if f.read(1):
                raise ValueError(f"{path}: trailing bytes after the csi array")
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise ValueError(f"{path}: truncated or corrupt trace ({e})") from e
    _check_samples(path, timestamps, csi)
    try:
        return CsiTrace(sample_rate_hz, csi, timestamps, events=(), geometry=geometry)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def write_labels(events, path) -> None:
    with _open(path, "w") as f:
        f.write("start_s,end_s,class,person_id\n")
        for ev in events:
            f.write(
                f"{float(ev.start_s)!r},{float(ev.end_s)!r},"
                f"{ev.kind.value},{ev.person_id}\n"
            )


def read_labels(path) -> list[LabelInterval]:
    labels = []
    with _open(path, "r") as f:
        header = f.readline().strip()
        if header != "start_s,end_s,class,person_id":
            raise ValueError(f"{path}: unexpected label header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            start, end, kind, person = line.split(",")
            labels.append(
                LabelInterval(float(start), float(end), EventKind(kind), int(person))
            )
    return labels


def write_events_csv(events: list[DetectedEvent], path) -> None:
    with _open(path, "w") as f:
        f.write("start_s,end_s,class,b_pe_hz,decision_time_s\n")
        for ev in events:
            b = "" if ev.b_pe_hz is None else repr(float(ev.b_pe_hz))
            d = "" if ev.decision_time_s is None else repr(float(ev.decision_time_s))
            f.write(
                f"{float(ev.start_s)!r},{float(ev.end_s)!r},"
                f"{ev.event_class.value},{b},{d}\n"
            )


def read_events_csv(path) -> list[DetectedEvent]:
    events = []
    with _open(path, "r") as f:
        header = f.readline().strip()
        if header != "start_s,end_s,class,b_pe_hz,decision_time_s":
            raise ValueError(f"{path}: unexpected events header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            start, end, cls, b, d = line.split(",")
            events.append(
                DetectedEvent(
                    start_s=float(start),
                    end_s=float(end),
                    event_class=EventClass(cls),
                    b_pe_hz=float(b) if b else None,
                    decision_time_s=float(d) if d else None,
                )
            )
    return events


def write_report(report, path) -> None:
    with _open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
