"""Shared value types and the zero-order Exp-Golomb bit model.

Motion vectors and their differences are integers in quarter-pel units.
Rates are exact codeword lengths in bits, so every decision built on top
of them reduces to integer comparisons and is reproducible everywhere.

The value types here and `stream.PuRecord` are slotted frozen dataclasses with
hand-written constructors.  Plain in-range ints cost a constructor one chained
comparison; any other integral (a numpy int, a bool) is coerced with
`operator.index`, so every stored field is a plain int.  Each field is stored
through its slot's descriptor (`_slot_setters`), which the dataclass-generated
constructor would do through `object.__setattr__`, one attribute lookup per
field.  `dataclasses.replace` builds through the same constructor, so it
re-validates; equality, hashing, repr, pickling and the frozen guard are the
dataclass's own.

`rate_of` prices a difference with two lookups in one table of `se_bits` over
the whole difference component range; the encoder's vectorised rate term reads
a view of the same table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

# Component bounds for reconstructed vectors and coded differences.
# A difference of two in-bound vectors always fits the coded range.
MV_MIN = -8192
MV_MAX = 8191
MVD_MIN = -(2**15)
MVD_MAX = 2**15 - 1

QP_MIN = 0
QP_MAX = 51
PU_SIZES = (8, 16, 32, 64)


def _slot_setters(cls) -> tuple:
    """The `__set__` of each field's slot descriptor, in field order: stores that bypass the frozen guard."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


def _in_range(what: str, low: int, high: int, *values) -> list[int]:
    """Coerce integral `values` (numpy ints, bools) to plain ints, each checked against [low, high]."""
    ints = [operator.index(v) for v in values]
    for v in ints:
        if not low <= v <= high:
            raise ValueError(f"{what} {v} outside [{low}, {high}]")
    return ints


@dataclass(frozen=True, slots=True, init=False)
class MotionVector:
    """A reconstructed motion vector in quarter-pel units."""

    x: int
    y: int

    def __init__(self, x: int, y: int):
        if not (type(x) is int is type(y) and MV_MIN <= x <= MV_MAX >= y >= MV_MIN):
            x, y = _in_range("motion vector component", MV_MIN, MV_MAX, x, y)
        _set_mv_x(self, x)
        _set_mv_y(self, y)


_set_mv_x, _set_mv_y = _slot_setters(MotionVector)
ZERO_MV = MotionVector(0, 0)


@dataclass(frozen=True, slots=True, init=False)
class Mvd:
    """A coded motion vector difference in quarter-pel units."""

    dx: int
    dy: int

    def __init__(self, dx: int, dy: int):
        if not (type(dx) is int is type(dy) and MVD_MIN <= dx <= MVD_MAX >= dy >= MVD_MIN):
            dx, dy = _in_range("mvd component", MVD_MIN, MVD_MAX, dx, dy)
        _set_mvd_dx(self, dx)
        _set_mvd_dy(self, dy)


_set_mvd_dx, _set_mvd_dy = _slot_setters(Mvd)


@dataclass(frozen=True, slots=True, init=False)
class CandidatePair:
    """The two-entry predictor candidate list signalled by a one-bit index."""

    mvp0: MotionVector
    mvp1: MotionVector

    def __init__(self, mvp0: MotionVector, mvp1: MotionVector):
        _set_mvp0(self, mvp0)
        _set_mvp1(self, mvp1)

    def __getitem__(self, idx: int) -> MotionVector:
        if idx == 0:
            return self.mvp0
        if idx == 1:
            return self.mvp1
        raise ValueError(f"candidate index {idx} not in {{0, 1}}")

    def __iter__(self) -> Iterator[MotionVector]:
        # without it, iteration would index 0, 1, 2, ... until an IndexError, and index 2 raises ValueError
        return iter((self.mvp0, self.mvp1))

    @property
    def identical(self) -> bool:
        return self.mvp0 == self.mvp1


_set_mvp0, _set_mvp1 = _slot_setters(CandidatePair)


def motion_lambda(qp: int) -> float:
    """Default motion search multiplier for a quantizer step (HM-style)."""
    return math.sqrt(0.85 * 2.0 ** ((qp - 12) / 3.0))


@dataclass(frozen=True)
class RdParams:
    """Rate-distortion knobs shared by estimation and selection."""

    qp: int = 25
    lambda_motion: float | None = None
    search_range: int = 8
    pu_size: int = 16

    def __post_init__(self):
        if not QP_MIN <= self.qp <= QP_MAX:
            raise ValueError(f"qp {self.qp} outside [{QP_MIN}, {QP_MAX}]")
        if self.pu_size not in PU_SIZES:
            raise ValueError(f"pu_size {self.pu_size} not one of {PU_SIZES}")
        if self.search_range < 1:
            raise ValueError(f"search_range {self.search_range} must be >= 1")
        if self.lambda_motion is None:
            object.__setattr__(self, "lambda_motion", motion_lambda(self.qp))
        elif not self.lambda_motion > 0:
            raise ValueError(f"lambda_motion {self.lambda_motion} must be > 0")


def ue_bits(code_num: int) -> int:
    """Codeword length of an unsigned zero-order Exp-Golomb code."""
    code_num = operator.index(code_num)
    if code_num < 0:
        raise ValueError(f"codeNum {code_num} must be >= 0")
    return 2 * ((code_num + 1).bit_length() - 1) + 1


def se_bits(value: int) -> int:
    """Codeword length of a signed value under the standard zigzag mapping."""
    value = operator.index(value)
    return ue_bits(2 * value - 1 if value > 0 else -2 * value)


def _se_bits_table() -> np.ndarray:
    """`se_bits(v)` at index `v - MVD_MIN` for every difference component v, read-only.

    se_bits(v) is 2 * bit_length(|v|) + 1.  Bit length 0 holds the magnitude 0 and bit
    length k > 0 the 2**(k - 1) magnitudes [2**(k - 1), 2**k), so `by_magnitude[m]`,
    se_bits(m) for m < 2**16, is 17 runs of the lengths 1, 3, ..., 33: no per-value call.
    """
    by_magnitude = np.repeat(np.arange(1, 35, 2, dtype=np.int16), [1] + [2 ** (k - 1) for k in range(1, 17)])
    table = np.concatenate((by_magnitude[-MVD_MIN:0:-1], by_magnitude[: MVD_MAX + 1]))
    table.flags.writeable = False
    return table


_SE_BITS_TABLE = _se_bits_table()
_SE_BITS = _SE_BITS_TABLE.tolist()  # the same table, for lookups one value at a time


def rate_of(mvd: Mvd) -> int:
    """Bits to signal one PU's motion: both difference components plus the index bit."""
    return _SE_BITS[mvd.dx - MVD_MIN] + _SE_BITS[mvd.dy - MVD_MIN] + 1
