"""Trace, label, event, and report file formats.

A trace file is one JSON header line (format version, sample rate, antenna
and subcarrier counts, record count, CSI dtype, scene geometry) followed by
two arrays in NumPy ``.npy`` format: ``timestamps_s`` (float64, shape
``(n_records,)``) and ``csi`` (the header's dtype, shape
``(n_rx, n_sc, n_records)``). The arrays hold the raw in-memory bytes, so
write-then-read reproduces the arrays bit for bit. Reading checks each
array's ``.npy`` header against the trace header before it allocates the
array, and refuses pickled data, truncation and trailing bytes; `CsiTrace`
itself rejects non-finite CSI and bad timestamps, and
returns read-only arrays. A ``.gz`` extension transparently gzip-compresses at level 1;
written gzip members carry no timestamp or file name, so equal content
gives equal bytes.

A trace's ground truth travels next to it: ``<stem>.csitrace[.gz]`` has
its labels in the CSV sidecar ``<stem>.labels.csv`` (start_s, end_s,
class, person_id), which `write_trace` writes and `read_trace` reads back.
Detector output goes to an events CSV (by default ``<stem>.events.csv``),
reports to JSON.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import math
import zlib
from pathlib import Path

import numpy as np

from .csi_sim import CsiTrace, EventKind, LabelInterval
from .detector import DetectedEvent, EventClass
from .signal_model import SceneGeometry

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TRACE_SUFFIXES",
    "sidecar_path",
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
TRACE_SUFFIXES = (".csitrace", ".csitrace.gz")

_MAX_HEADER_BYTES = 1 << 16
# bytes read per call into an array: a gzip read makes a temporary of this size
_READ_CHUNK = 1 << 18
_LABELS_HEADER = "start_s,end_s,class,person_id"
_EVENTS_HEADER = "start_s,end_s,class,b_pe_hz,decision_time_s"


@contextlib.contextmanager
def _open(path, mode: str):
    """Open ``path`` for reading ("r", "rb") or writing ("w", "wb").

    Modes without "b" give UTF-8 text. A ``.gz`` suffix gzip-compresses at
    level 1: on a 60 s complex64 trace level 9 took 1.4x as long and gave a
    slightly larger file, since float noise barely compresses. The gzip
    header gets mtime 0 and an empty file name.
    """
    with open(path, mode[0] + "b") as raw:
        f = raw
        if str(path).endswith(".gz"):
            f = gzip.GzipFile(filename="", fileobj=raw, mode=mode[0] + "b", mtime=0,
                              compresslevel=1)
        with f:
            if mode.endswith("b"):
                yield f
            else:
                with io.TextIOWrapper(f, encoding="utf-8") as text:
                    yield text


def sidecar_path(trace_path, kind: str) -> Path:
    """``<stem>.<kind>.csv`` next to ``<stem>.csitrace[.gz]``."""
    trace_path = Path(trace_path)
    name = trace_path.name
    for suffix in TRACE_SUFFIXES:
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    return trace_path.with_name(f"{name}.{kind}.csv")


def write_trace(trace: CsiTrace, path) -> None:
    """Write a trace file (JSON header line + timestamps and CSI arrays) and
    its labels sidecar."""
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
    write_labels(trace.events, sidecar_path(path, "labels"))


def _read_header(f, path) -> dict:
    line = f.readline(_MAX_HEADER_BYTES)
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: missing or oversized trace header line")
    try:
        header = json.loads(line)
    except ValueError as e:  # not JSON, or not UTF-8 (a gzip file without .gz)
        raise ValueError(f"{path}: trace header is not a JSON line ({e})") from e
    version = header.get("version") if isinstance(header, dict) else None
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported trace format version {version}")
    return header


def _load_array(f, path, name: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """Read one ``.npy`` array that must have the shape and dtype the trace
    header gives. Its ``.npy`` header is checked against them before
    anything is allocated, so a file that claims more data than the trace
    header costs nothing; then exactly the announced bytes are read."""
    fmt = np.lib.format
    try:
        version = fmt.read_magic(f)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported .npy format version {version}")
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        npy_shape, fortran_order, npy_dtype = read_header(f)
    except ValueError as e:
        raise ValueError(f"{path}: {name} array is truncated or malformed ({e})") from e
    if npy_dtype.hasobject:
        raise ValueError(f"{path}: {name} array holds pickled objects, which are not "
                         "loaded (allow_pickle=False)")
    if npy_shape != shape or npy_dtype != dtype:
        raise ValueError(
            f"{path}: header announces {name} of shape {shape} and dtype {dtype}, "
            f"file holds shape {npy_shape} and dtype {npy_dtype}"
        )
    # a Fortran-order array is stored as its transpose in C order
    try:
        arr = np.empty(shape[::-1] if fortran_order else shape, dtype)
    except MemoryError as e:
        raise ValueError(f"{path}: {name} of shape {shape} does not fit in memory") from e
    data = arr.reshape(-1).view(np.uint8)
    done = 0
    while done < data.size:
        got = f.readinto(data[done : done + _READ_CHUNK])
        if not got:
            raise ValueError(f"{path}: {name} array is truncated or malformed "
                             f"({done} of {data.size} bytes)")
        done += got
    return arr.T if fortran_order else arr


def read_trace(path) -> CsiTrace:
    """Read a trace file and its labels sidecar back into a CsiTrace.

    Raises ValueError for a file that is not a well-formed trace of the
    current format version, or that `CsiTrace` rejects (bad rate,
    timestamps or non-finite CSI); those messages start with the path.
    events come from the labels sidecar, and are empty when there is none.
    The file format does not carry per-stream path parameters or the
    outlier log: the outlier log comes back empty, the path parameters None.
    """
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
    labels_path = sidecar_path(path, "labels")
    events = tuple(read_labels(labels_path)) if labels_path.exists() else ()
    try:
        return CsiTrace(sample_rate_hz, csi, timestamps, events=events, geometry=geometry)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def write_labels(events, path) -> None:
    with _open(path, "w") as f:
        f.write(_LABELS_HEADER + "\n")
        for ev in events:
            f.write(
                f"{float(ev.start_s)!r},{float(ev.end_s)!r},"
                f"{ev.kind.value},{ev.person_id}\n"
            )


def read_labels(path) -> list[LabelInterval]:
    """Read a labels CSV (start_s, end_s, class, person_id).

    A row without four fields, with a time that is not a finite number, an
    end before its start, an unknown class or a non-integer person id
    raises ValueError naming ``<path>:<line>``.
    """
    return _read_csv(path, _LABELS_HEADER, _label_row)


def _read_csv(path, header: str, parse_row) -> list:
    """``parse_row(fields)`` of each non-blank line after ``header``.

    A different header raises ValueError naming the path; a row with the
    wrong number of fields, or one that ``parse_row`` refuses, raises
    ValueError naming ``<path>:<line>``.
    """
    n_fields = header.count(",") + 1
    rows = []
    with _open(path, "r") as f:
        got = f.readline().strip()
        if got != header:
            raise ValueError(f"{path}: unexpected header {got!r}, expected {header!r}")
        for lineno, line in enumerate(f, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            try:
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                rows.append(parse_row(fields))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    return rows


def _interval(fields: list[str], what: str) -> tuple[float, float]:
    """The finite (start_s, end_s) of a row's first two fields, end >= start."""
    start, end = float(fields[0]), float(fields[1])
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"non-finite {what} time in {','.join(fields)!r}")
    if end < start:
        raise ValueError(f"{what} ends at {end} s, before its start at {start} s")
    return start, end


def _label_row(fields: list[str]) -> LabelInterval:
    return LabelInterval(*_interval(fields, "label"), EventKind(fields[2]), int(fields[3]))


def write_events_csv(events: list[DetectedEvent], path) -> None:
    with _open(path, "w") as f:
        f.write(_EVENTS_HEADER + "\n")
        for ev in events:
            b = "" if ev.b_pe_hz is None else repr(float(ev.b_pe_hz))
            d = "" if ev.decision_time_s is None else repr(float(ev.decision_time_s))
            f.write(
                f"{float(ev.start_s)!r},{float(ev.end_s)!r},"
                f"{ev.event_class.value},{b},{d}\n"
            )


def read_events_csv(path) -> list[DetectedEvent]:
    """Read an events CSV (start_s, end_s, class, b_pe_hz, decision_time_s).

    A row without five fields, with a time or bandwidth that is not a
    finite number, an end before its start or an unknown class raises
    ValueError naming ``<path>:<line>``. An empty b_pe_hz or
    decision_time_s is None.
    """
    return _read_csv(path, _EVENTS_HEADER, _event_row)


def _event_row(fields: list[str]) -> DetectedEvent:
    start, end = _interval(fields, "event")
    b, d = (float(x) if x else None for x in fields[3:])
    if not all(math.isfinite(x) for x in (b, d) if x is not None):
        raise ValueError(f"non-finite b_pe_hz or decision_time_s in {','.join(fields)!r}")
    return DetectedEvent(start, end, EventClass(fields[2]), b, d)


def write_report(report, path) -> None:
    with _open(path, "w") as f:
        json.dump(dataclasses.asdict(report), f, indent=2)
        f.write("\n")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
