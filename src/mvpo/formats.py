"""Persistence: the MVPO binary stream format, raw YUV 4:2:0 input, reports.

The stream format is fixed-layout little-endian: a 25-byte header (magic,
version, geometry, coding parameters, counts) followed by one 16-byte record
per PU.  Readers reject rather than guess: bad magic, unknown version,
truncation, count mismatches, and out-of-range fields each raise a distinct
`MalformedStreamError`; the CLI puts the file's path before its message.

The records are read as one numpy structured array, which the stream
constructor validates at once, column by column, as it validates every stream
(see `stream`): first that there is one record per PU of every P-frame, then
each record's fields and its raster position.  A failure names the first bad
record and the first check it fails.  The stream read keeps that array as its
read-only record table and builds no per-record objects.  Writing is the header
plus the stream's table, whichever way the stream was made: every stream holds one.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .analyzer import FeatureReport
from .errors import InputError, MalformedStreamError, check_geometry
from .stream import RECORD_DTYPE, Plane, SequenceStream, StreamHeader

MAGIC = b"MVPO"
VERSION = 1

_HEADER = struct.Struct("<4sHHHBBBIQ")  # magic, version, width, height, pu, qp, gop, frames, records

HEADER_SIZE = _HEADER.size
RECORD_SIZE = RECORD_DTYPE.itemsize


def write_stream(stream: SequenceStream) -> bytes:
    """Serialize a stream to bytes; identical streams serialize identically."""
    h, table = stream.header, stream.table
    fields = (MAGIC, VERSION, h.width, h.height, h.pu_size, h.qp, h.gop, h.frame_count, len(table))
    return _HEADER.pack(*fields) + table.tobytes()


def read_stream(data: bytes) -> SequenceStream:
    """Parse and validate stream bytes into a stream that holds its record table."""
    if len(data) < HEADER_SIZE:
        raise MalformedStreamError(f"truncated stream: {len(data)} bytes, header needs {HEADER_SIZE}")
    magic, version, width, height, pu_size, qp, gop, frame_count, n_records = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedStreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedStreamError(f"unsupported version {version}")
    try:
        header = StreamHeader(width, height, pu_size, qp, gop, frame_count)
    except ValueError as exc:
        raise MalformedStreamError(f"invalid header field: {exc}") from exc
    expected = HEADER_SIZE + RECORD_SIZE * n_records
    if len(data) < expected:
        raise MalformedStreamError(f"truncated stream: {len(data)} bytes, {n_records} records need {expected}")
    if len(data) > expected:
        raise MalformedStreamError(f"record count mismatch: {len(data) - expected} trailing bytes")
    return SequenceStream(header, np.frombuffer(data, RECORD_DTYPE, n_records, HEADER_SIZE))


def write_atomic(
    path: str | os.PathLike, data: str | bytes, sidecar: tuple[str, str] | None = None
) -> None:
    """Write `data` to a temp file beside `path`, then rename it over `path`.

    Readers see the old file or the whole new one, never a partial write, and
    a failed write leaves `path` as it was and no temp file.  A `sidecar`
    (path, text) that records how `path` was made is written first and renamed
    into place just before `path`, so `path` never exists without its record;
    if `path`'s rename then fails, the old record is put back (or the new one
    removed), so a record never describes bytes it was not written for.
    """
    temps = []
    try:
        for target, content in [(os.fspath(path), data)] + ([sidecar] if sidecar else []):
            temps.append(f"{target}.{os.getpid()}.tmp")
            with open(temps[-1], "wb" if isinstance(content, bytes) else "w") as f:
                f.write(content)
        old_record = None
        if sidecar:
            with contextlib.suppress(FileNotFoundError), open(sidecar[0], "rb") as f:
                old_record = f.read()
            os.replace(temps[1], sidecar[0])
        try:
            os.replace(temps[0], path)
        except OSError:
            if old_record is not None:
                write_atomic(sidecar[0], old_record)
            elif sidecar:
                os.remove(sidecar[0])
            raise
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def save_stream(
    stream: SequenceStream, path: str | os.PathLike, sidecar: tuple[str, str] | None = None
) -> None:
    write_atomic(path, write_stream(stream), sidecar)


def load_stream(path: str | os.PathLike) -> SequenceStream:
    """The stream in file `path`, read with `read_stream`."""
    with open(path, "rb") as f:
        return read_stream(f.read())


@dataclass(frozen=True)
class YuvSpec:
    """Geometry of a raw planar YUV 4:2:0 file."""

    width: int
    height: int
    frame_count: int

    def __post_init__(self):
        check_geometry(self.width, self.height, self.frame_count, "size", "frame_count")
        if self.width % 2 or self.height % 2:
            raise InputError(f"4:2:0 needs even dimensions, got {self.width}x{self.height}")

    @property
    def luma_bytes(self) -> int:
        return self.width * self.height

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * 3 // 2


def iter_yuv_lumas(path: str | os.PathLike, spec: YuvSpec) -> Iterator[Plane]:
    """Stream luma planes from a 4:2:0 file, skipping chroma, one frame at a time.

    A generator: the file's size is checked and the file opened when the
    first plane is asked for, and it is closed after the last plane or when
    the generator is closed.  Each plane is a read-only view of its own
    frame's bytes, so a consumer that keeps one plane at a time, as
    `encode_sequence` does, holds one frame of the file, not all of it.
    """
    actual = os.stat(path).st_size
    expected = spec.frame_bytes * spec.frame_count
    if actual != expected:
        raise InputError(
            f"{path}: size {actual} does not match {spec.frame_count} frames of "
            f"{spec.width}x{spec.height} 4:2:0 ({expected} bytes)"
        )
    chroma = spec.frame_bytes - spec.luma_bytes
    with open(path, "rb") as f:
        for _ in range(spec.frame_count):
            raw = f.read(spec.luma_bytes)
            if len(raw) != spec.luma_bytes:
                raise InputError(f"{path}: short read, file changed underneath")
            yield Plane(np.frombuffer(raw, dtype=np.uint8).reshape(spec.height, spec.width))
            f.seek(chroma, os.SEEK_CUR)


def read_yuv(path: str | os.PathLike, spec: YuvSpec) -> list[Plane]:
    """Read every luma plane of a 4:2:0 file."""
    return list(iter_yuv_lumas(path, spec))


def _report_dict(report: FeatureReport) -> dict:
    pct = report.optimal_rate_pct
    return {
        "n_pus": report.n_pus,
        "n_optimal": report.n_optimal,
        "optimal_rate_pct": pct,
        "verdict": report.verdict.value,
        "per_frame": {
            str(f): {"n_pus": t.n_pus, "n_optimal": t.n_optimal} for f, t in report.per_frame.items()
        },
        "violations": [list(v) for v in report.violations],
    }


def report_to_json(report: FeatureReport, invocation: dict | None = None) -> str:
    doc = _report_dict(report)
    if invocation is not None:
        doc["invocation"] = invocation
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: FeatureReport) -> str:
    pct = report.optimal_rate_pct
    pct_text = "" if pct is None else f"{pct:.6f}"
    return (
        "n_pus,n_optimal,optimal_rate_pct,verdict\n"
        f"{report.n_pus},{report.n_optimal},{pct_text},{report.verdict.value}\n"
    )
