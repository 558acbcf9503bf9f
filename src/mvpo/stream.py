"""Container types for frames and coded motion data.

A `SequenceStream` is its header and one read-only `RECORD_DTYPE` table, one
row per PU as the file lays it out: a table read from bytes, the encoder's, or
an embedder's edited copy.  Its one constructor checks every record as the
stream reader does, so every stream in memory is one the reader accepts: one
record per PU of every P-frame, at the position `raster_positions` gives it.
Readers read the table as it is; each read of `.records` builds a new list.
A stream cannot change once built, so the first `codec.decode` of it and the
first rating of it by the analyzer are kept on it, read-only, and every later
reader gets the same arrays: each stream is decoded at most once per process.
They cost up to 64 bytes per PU, against the table's 16, while the stream is
alive.  An index embed keeps every vector, so its output inherits them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Mvd, PU_SIZES, QP_MAX, QP_MIN, _slot_setters
from .errors import MalformedStreamError

GOP_IPPP = 0

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF


class Plane:
    """A single 8-bit luma plane, row-major."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError(f"plane must be 2-D, got shape {data.shape}")
        if data.dtype != np.uint8:
            raise ValueError(f"plane must be uint8, got {data.dtype}")
        self.data = data

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Plane) and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"Plane({self.width}x{self.height})"


@dataclass(frozen=True, slots=True, init=False)
class PuRecord:
    """One inter-coded PU: grid position, signalled index, coded difference."""

    frame_index: int
    block_x: int
    block_y: int
    idx: int
    mvd: Mvd

    def __init__(self, frame_index: int, block_x: int, block_y: int, idx: int, mvd: Mvd):
        f, x, y = frame_index, block_x, block_y
        if not (
            type(f) is int is type(x) is type(y) is type(idx)
            and 0 <= f <= _U32_MAX and 0 <= x <= _U16_MAX >= y >= 0 <= idx <= 1
        ):
            f, x, y, idx = map(operator.index, (f, x, y, idx))
            if not 0 <= f <= _U32_MAX:
                raise ValueError(f"frame_index {f} outside u32 range")
            if not 0 <= x <= _U16_MAX or not 0 <= y <= _U16_MAX:
                raise ValueError(f"block origin ({x}, {y}) outside u16 range")
            if idx not in (0, 1):
                raise ValueError(f"idx {idx} not in {{0, 1}}")
        _set_frame_index(self, f)
        _set_block_x(self, x)
        _set_block_y(self, y)
        _set_idx(self, idx)
        _set_mvd(self, mvd)


_set_frame_index, _set_block_x, _set_block_y, _set_idx, _set_mvd = _slot_setters(PuRecord)


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    pu_size: int
    qp: int
    gop: int = GOP_IPPP
    frame_count: int = 1

    def __post_init__(self):
        if self.pu_size not in PU_SIZES:
            raise ValueError(f"pu_size {self.pu_size} not one of {PU_SIZES}")
        for name, dim in (("width", self.width), ("height", self.height)):
            if not 0 < dim <= _U16_MAX:
                raise ValueError(f"{name} {dim} outside (0, {_U16_MAX}]")
            if dim % self.pu_size:
                raise ValueError(f"{name} {dim} not a multiple of pu_size {self.pu_size}")
        if not QP_MIN <= self.qp <= QP_MAX:
            raise ValueError(f"qp {self.qp} outside [{QP_MIN}, {QP_MAX}]")
        if self.gop != GOP_IPPP:
            raise ValueError(f"unknown gop tag {self.gop}")
        if not 1 <= self.frame_count <= _U32_MAX:
            raise ValueError(f"frame_count {self.frame_count} outside [1, {_U32_MAX}]")

    @property
    def pus_per_frame(self) -> int:
        return (self.width // self.pu_size) * (self.height // self.pu_size)


# one record as the stream file lays it out: <IHHBBhhH, one hex-dump row each
RECORD_DTYPE = np.dtype([("frame", "<u4"), ("bx", "<u2"), ("by", "<u2"), ("idx", "u1"), ("pad", "u1"),
                         ("dx", "<i2"), ("dy", "<i2"), ("reserved", "<u2")])
# the record columns a PuRecord carries, in its fields' order; pad and reserved stay zero
_COLUMNS = ("frame", "bx", "by", "idx", "dx", "dy")


def _records_of(table: np.ndarray, rows: int) -> Iterator[PuRecord]:
    """One `PuRecord` per row of a validated table, built `rows` rows at a time."""
    # records with equal differences share one Mvd across the whole table: a stream
    # has far fewer distinct ones than records
    mvds = functools.cache(Mvd)
    for k in range(0, len(table), rows):
        f, x, y, i, dx, dy = (table[name][k : k + rows].tolist() for name in _COLUMNS)
        yield from map(PuRecord, f, x, y, i, map(mvds, dx, dy))


@functools.lru_cache(maxsize=4)
def raster_positions(header: StreamHeader) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `frame`, `bx` and `by` columns of every P-frame PU of `header`'s grid, in raster order.

    Record k of a stream sits at entry k of each: frames count from 1, the
    first P-frame, and blocks go row by row.  Typed as the record columns; read-only.
    """
    ps, cols, per_frame = header.pu_size, header.width // header.pu_size, header.pus_per_frame
    k = np.arange((header.frame_count - 1) * per_frame)
    positions = {"frame": k // per_frame + 1, "bx": k % cols * ps, "by": k % per_frame // cols * ps}
    columns = tuple(column.astype(RECORD_DTYPE[name]) for name, column in positions.items())
    for column in columns:
        column.flags.writeable = False
    return columns


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """`arrays`, each made read-only, as a tuple: the form a stream keeps its decode and rates in."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class SequenceStream:
    """A coded sequence: header plus a read-only record table in decode (raster) order.

    Every stream holds a table the stream reader accepts: one record per PU of
    every P-frame, each at its raster position.  Two streams are equal when
    their headers and their tables are.  `_decoded`, the `codec.decode` pair
    `(mv, cands)`, and `_rates`, the analyzer's `(chosen, other)`, start empty
    and are filled, read-only, on first use; a decode that raises fills nothing.
    """

    __slots__ = ("header", "table", "_decoded", "_rates")

    def __init__(self, header: StreamHeader, table: np.ndarray):
        """Check `table`, a 1-D `RECORD_DTYPE` array, as the stream reader does; make it read-only and keep it."""
        if not (isinstance(table, np.ndarray) and table.dtype == RECORD_DTYPE and table.ndim == 1):
            got = f"{table.dtype} {table.shape}" if isinstance(table, np.ndarray) else type(table).__name__
            raise ValueError(f"a stream's table must be a 1-D RECORD_DTYPE array, got {got}")
        n = (header.frame_count - 1) * header.pus_per_frame
        if len(table) != n:  # before anything is sized by the frame count
            raise MalformedStreamError(f"record count {len(table)} does not cover the grid (expected {n})")
        frame, bx, by = raster_positions(header)
        checks = (  # in a record-by-record reader's order, each message formatted with the record's fields
            (table["pad"] != 0, "nonzero pad byte {pad} in record {k}"),
            (table["reserved"] != 0, "nonzero reserved field {reserved} in record {k}"),
            ((table["frame"] != frame) | (table["bx"] != bx) | (table["by"] != by),
             "record at ({frame}, {bx}, {by}) out of raster order, expected {expected}"),
            (table["idx"] > 1, "invalid record {k}: idx {idx} not in {{0, 1}}"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():  # the reader's error: the first bad record's first failing check
            k = int(bad.argmax())
            message = next(message for mask, message in checks if mask[k])
            record = dict(zip(RECORD_DTYPE.names, table[k].tolist()), k=k)
            raise MalformedStreamError(message.format(expected=(int(frame[k]), int(bx[k]), int(by[k])), **record))
        table.flags.writeable = False
        self.header, self.table = header, table
        self._decoded: tuple[np.ndarray, np.ndarray] | None = None
        self._rates: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def records(self) -> list[PuRecord]:
        """A new `PuRecord` per row: an edit of the list does not reach the stream."""
        return list(_records_of(self.table, max(1, self.n_records)))

    @property
    def n_records(self) -> int:
        return len(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceStream):
            return NotImplemented
        return self.header == other.header and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return f"SequenceStream({self.header!r}, {self.n_records} records)"
