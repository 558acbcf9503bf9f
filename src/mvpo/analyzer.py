"""Predictor-optimality analysis of coded streams.

A cost-aware encoder always signals the candidate whose difference codes in
no more bits than the alternative, so in an untouched stream every PU passes
that check.  The analyzer decodes a stream, counts the PUs that still pass,
and calls the stream clean only at exactly 100 percent.  The check depends on
codeword lengths alone, never on the Lagrangian multiplier.

`optimal_rate` decodes the stream's record table with `codec.decode`, a level
of PUs at a time, and rates every PU with numpy: each distinct difference is
priced once by `rate_of`, the one bit model.  It is the one analysis path: the
CLI and the experiment both score a stream with it, and tar3 picks its slots
from the same arrays.  `stream_rates` keeps a stream's rates on it, beside
its decode, so each stream is decoded and rated at most once per process; an
index embed's output inherits both from its input.  No per-PU object is
built: the analyzer never walks a stream one PU at a time.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .codec import decode
from .core import Mvd, rate_of
from .stream import SequenceStream, _read_only


class Verdict(enum.Enum):
    COVER = "cover"
    STEGO = "stego"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class FrameTally:
    n_pus: int
    n_optimal: int


@dataclass(frozen=True)
class FeatureReport:
    """Counts, the violating PU positions, and the verdict they give, for one stream."""

    n_pus: int
    n_optimal: int
    per_frame: dict[int, FrameTally] = field(default_factory=dict)
    violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def verdict(self) -> Verdict:
        """Cover only at exactly 100 percent; no tolerance window, integer comparison only."""
        if self.n_pus == 0:
            return Verdict.INDETERMINATE
        return Verdict.COVER if self.n_optimal == self.n_pus else Verdict.STEGO

    @property
    def optimal_rate_pct(self) -> float | None:
        if self.n_pus == 0:
            return None
        return 100.0 * self.n_optimal / self.n_pus


def mvd_rates(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """`rate_of(Mvd(dx[k], dy[k]))` for every k, as int64; each distinct difference is priced by one call."""
    # a difference component fits 16 bits, so (dx, dy) packs into one int64 key
    _, first, which = np.unique((dx.astype(np.int64) << 16) + dy, return_index=True, return_inverse=True)
    return np.array(list(map(rate_of, map(Mvd, dx[first].tolist(), dy[first].tolist()))), np.int64)[which]


def pu_rates(table: np.ndarray, mv: np.ndarray, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every PU's chosen and other rate, from its record and its `codec.decode` vector and candidates.

    The chosen rate prices the record's difference, the other rate `mv` less
    the candidate the record does not signal.
    """
    n = len(table)
    other = mv - cands[np.arange(n), 1 - table["idx"].astype(np.intp)]
    rates = mvd_rates(np.concatenate((table["dx"], other[:, 0])), np.concatenate((table["dy"], other[:, 1])))
    return rates[:n], rates[n:]


def stream_rates(stream: SequenceStream) -> tuple[np.ndarray, np.ndarray]:
    """`pu_rates` of the stream's table and `codec.decode`, kept on the stream, read-only, from the first call."""
    if stream._rates is None:
        stream._rates = _read_only(*pu_rates(stream.table, *decode(stream)))
    return stream._rates


def optimal_rate(stream: SequenceStream) -> FeatureReport:
    """List the violations; a stream holds one record per PU of each P-frame, so the counts follow.

    The stream's record table is decoded by `codec.decode` and rated in numpy,
    or its kept rates are read (`stream_rates`); no per-PU object is built.
    Each P-frame's tally counts its whole grid: the stream constructor
    checked the record count and raster order.
    """
    table = stream.table
    chosen, other = stream_rates(stream)
    worse = chosen > other  # a tie is optimal: a rate-aware encoder may signal either side of an equal-cost pair
    violations = list(zip(*(table[name][worse].tolist() for name in ("frame", "bx", "by"))))
    n = stream.header.pus_per_frame
    bad = Counter(f for f, _, _ in violations)
    per_frame = {f: FrameTally(n, n - bad[f]) for f in range(1, stream.header.frame_count)}
    return FeatureReport(stream.n_records, stream.n_records - len(violations), per_frame, violations)
