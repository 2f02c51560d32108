"""Trace, label, event, and report file formats.

A trace file is one JSON header line (format version, sample rate, antenna
and subcarrier counts, record count, CSI dtype, scene geometry) followed by
two arrays in NumPy ``.npy`` format: ``timestamps_s`` (float64, shape
``(n_records,)``) and ``csi`` (the header's dtype, shape
``(n_rx, n_sc, n_records)``). `write_trace` pads the header line with
spaces to a multiple of 64 bytes; numpy pads each ``.npy`` header to 64
bytes too, so both arrays' data start at offsets aligned for their dtypes.
The arrays hold the raw in-memory bytes, so write-then-read reproduces the
arrays bit for bit. Reading checks each array's ``.npy`` header against the
trace header before it maps or allocates the array, and refuses pickled
data, truncation and trailing bytes; `CsiTrace` itself rejects non-finite
CSI and bad timestamps, and returns read-only arrays.

A plain trace file is mapped, not read: `read_trace` returns read-only
views of a read-only map of the file, so the CSI stays in the page cache
and out of the process's heap. A ``.gz`` file, a FIFO or other non-regular
file, an array whose data offset is not aligned for its dtype (files
written before the header was padded) and a file the system will not map
are read into memory instead. A mapped file must not be modified in place
while its trace is alive: truncating it ends the process with SIGBUS at
the map's next read. No write here modifies a regular file in place: each
goes to a new sibling file that then replaces the target, so a live trace
keeps the bytes it maps, and a write that raises or is killed never leaves
half a file under the target's name. A FIFO or device is written in place.

A ``.gz`` extension transparently gzip-compresses at level 1; written gzip
members carry no timestamp or file name, so equal content gives equal
bytes.

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
import mmap
import os
import stat
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
# the header line is padded to a multiple of this, numpy's .npy header alignment
_HEADER_ALIGN = 64
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

    A write goes to a new sibling, ``<path>.<random hex>.tmp``, which
    replaces ``path`` once it is closed and is removed if the write raises.
    An existing FIFO, device or directory is opened in place.
    """
    target = _replacement(path) if mode[0] == "w" else None
    try:
        with open(target[0] if target else path, "xb" if target else mode[0] + "b") as raw:
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
        if target:
            os.replace(*target)
    except BaseException:
        if target:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(target[0])
        raise


def _replacement(path) -> tuple[str, str] | None:
    """(a new sibling file to write, the file it is to replace) for a write
    to ``path``, or None when ``path`` exists and is not a regular file.
    The replaced file is the one a symbolic link ``path`` points to."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except FileNotFoundError:
        pass
    final = os.path.realpath(path)
    return f"{final}.{os.urandom(4).hex()}.tmp", final


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
    its labels sidecar.

    The header line is padded with spaces to a multiple of 64 bytes, so a
    plain file's arrays can be mapped aligned. Each file is written to a
    new sibling that then replaces ``path``: a trace still mapped from the
    old file keeps its bytes, and a failed write leaves no half-written
    trace.
    """
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
        },
    }
    line = json.dumps(header).encode("utf-8")
    line += b" " * (-(len(line) + 1) % _HEADER_ALIGN) + b"\n"
    with _open(path, "wb") as f:
        f.write(line)
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


def _map(f) -> mmap.mmap | None:
    """A read-only map of the whole of ``f``, or None when ``f`` is a gzip
    stream or not a regular file, or the system refuses the map."""
    if isinstance(f, gzip.GzipFile) or not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        return None
    try:
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError:
        return None


def _load_array(f, path, name: str, shape: tuple, dtype: np.dtype,
                mapped: mmap.mmap | None) -> np.ndarray:
    """Read one ``.npy`` array that must have the shape and dtype the trace
    header gives. Its ``.npy`` header is checked against them before
    anything is mapped or allocated, so a file that claims more data than
    the trace header costs nothing. When ``mapped`` (a map of the file ``f``
    reads) is given and the data offset is aligned for ``dtype``, the array
    is a read-only view of the map, once the file is seen to hold all of
    its bytes, and ``f`` moves past them; otherwise exactly the announced
    bytes are read into a new array."""
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
    stored = shape[::-1] if fortran_order else shape
    if mapped is not None and (offset := f.tell()) % dtype.alignment == 0:
        nbytes = math.prod(stored) * dtype.itemsize
        if offset + nbytes > len(mapped):
            raise ValueError(f"{path}: {name} array is truncated or malformed "
                             f"({len(mapped) - offset} of {nbytes} bytes)")
        arr = np.ndarray(stored, dtype, buffer=mapped, offset=offset)
        f.seek(offset + nbytes)
        return arr.T if fortran_order else arr
    try:
        arr = np.empty(stored, dtype)
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

    A plain regular file's arrays are read-only views of a read-only map of
    the file wherever their data offsets are aligned for their dtypes, as
    in every file `write_trace` writes. A view is taken only once its
    ``.npy`` header and the file's size have been checked. The map lives as
    long as the arrays, so the file must not be modified in place meanwhile
    (`write_trace` replaces it instead). Other arrays, and those of a
    ``.gz`` file or a FIFO, are read into memory.
    """
    try:
        with _open(path, "rb") as f:
            header = _read_header(f, path)
            try:
                sample_rate_hz = float(header["sample_rate_hz"])
                n_rx, n_sc = int(header["n_rx"]), int(header["n_sc"])
                n = int(header["n_records"])
                dtype = np.dtype(header["dtype"])
                g = header["geometry"]  # older files also carry "phi_rad", which is not read
                geometry = SceneGeometry(wavelength_m=g["wavelength_m"], psi=g["psi"])
            except (KeyError, TypeError, AttributeError) as e:
                raise ValueError(f"{path}: malformed trace header ({e!r})") from e
            mapped = _map(f)
            timestamps = _load_array(f, path, "timestamps_s", (n,), np.dtype(np.float64), mapped)
            csi = _load_array(f, path, "csi", (n_rx, n_sc, n), dtype, mapped)
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
    """SHA-256 of a file, read through one reused 1 MiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()
