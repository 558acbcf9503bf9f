"""Shared value types and the zero-order Exp-Golomb bit model.

Motion vectors and their differences are integers in quarter-pel units.
Rates are exact codeword lengths in bits, so every decision built on top
of them reduces to integer comparisons and is reproducible everywhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# Component bounds for reconstructed vectors and coded differences.
# A difference of two in-bound vectors always fits the coded range.
MV_MIN = -8192
MV_MAX = 8191
MVD_MIN = -(2**15)
MVD_MAX = 2**15 - 1

QP_MIN = 0
QP_MAX = 51
PU_SIZES = (8, 16, 32, 64)


def _as_int(value) -> int:
    """Coerce any integral (including numpy ints) to a plain int."""
    return operator.index(value)


@dataclass(frozen=True)
class MotionVector:
    """A reconstructed motion vector in quarter-pel units."""

    x: int
    y: int

    def __post_init__(self):
        x = _as_int(self.x)
        y = _as_int(self.y)
        for v in (x, y):
            if not MV_MIN <= v <= MV_MAX:
                raise ValueError(f"motion vector component {v} outside [{MV_MIN}, {MV_MAX}]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


ZERO_MV = MotionVector(0, 0)


@dataclass(frozen=True)
class Mvd:
    """A coded motion vector difference in quarter-pel units."""

    dx: int
    dy: int

    def __post_init__(self):
        dx = _as_int(self.dx)
        dy = _as_int(self.dy)
        for v in (dx, dy):
            if not MVD_MIN <= v <= MVD_MAX:
                raise ValueError(f"mvd component {v} outside [{MVD_MIN}, {MVD_MAX}]")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)


@dataclass(frozen=True)
class CandidatePair:
    """The two-entry predictor candidate list signalled by a one-bit index."""

    mvp0: MotionVector
    mvp1: MotionVector

    def __getitem__(self, idx: int) -> MotionVector:
        if idx == 0:
            return self.mvp0
        if idx == 1:
            return self.mvp1
        raise ValueError(f"candidate index {idx} not in {{0, 1}}")

    def other(self, idx: int) -> MotionVector:
        return self[1 - self._check(idx)]

    @staticmethod
    def _check(idx: int) -> int:
        if idx not in (0, 1):
            raise ValueError(f"candidate index {idx} not in {{0, 1}}")
        return idx

    @property
    def identical(self) -> bool:
        return self.mvp0 == self.mvp1

    def mvds(self, mv: MotionVector) -> tuple[Mvd, Mvd]:
        """The differences that signal `mv` against each candidate; `rate_of` prices them.

        Both are in range by the bounds above, so this never raises.
        """
        a, b = self.mvp0, self.mvp1
        return Mvd(mv.x - a.x, mv.y - a.y), Mvd(mv.x - b.x, mv.y - b.y)


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
    code_num = _as_int(code_num)
    if code_num < 0:
        raise ValueError(f"codeNum {code_num} must be >= 0")
    return 2 * ((code_num + 1).bit_length() - 1) + 1


def se_bits(value: int) -> int:
    """Codeword length of a signed value under the standard zigzag mapping."""
    value = _as_int(value)
    code_num = 2 * value - 1 if value > 0 else -2 * value
    return ue_bits(code_num)


def rate_of(mvd: Mvd) -> int:
    """Bits to signal one PU's motion: both difference components plus the index bit."""
    return se_bits(mvd.dx) + se_bits(mvd.dy) + 1


def rd_cost(distortion: float, rate_bits: int, params: RdParams) -> float:
    """Lagrangian cost of a coding choice: distortion plus weighted rate."""
    if distortion < 0:
        raise ValueError("distortion must be >= 0")
    if rate_bits < 0:
        raise ValueError("rate_bits must be >= 0")
    return distortion + params.lambda_motion * rate_bits
