"""Container types for frames and coded motion data."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import Mvd, PU_SIZES, QP_MAX, QP_MIN, _slot_setters

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


@dataclass
class SequenceStream:
    """A coded sequence: header plus records in decode (raster) order."""

    header: StreamHeader
    records: list[PuRecord] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return len(self.records)
