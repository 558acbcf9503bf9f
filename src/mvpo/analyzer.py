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
index embed's output inherits both from its input.  The per-PU form,
`iter_pu_checks`, replays `decode_walk` and yields a `PuCheck` for each PU.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .codec import decode, decode_walk
from .core import CandidatePair, MotionVector, Mvd, rate_of
from .stream import PuRecord, SequenceStream, _read_only


class Verdict(enum.Enum):
    COVER = "cover"
    STEGO = "stego"
    INDETERMINATE = "indeterminate"


class PuCheck(NamedTuple):
    """One PU's decode-side rates: the signalled candidate versus the alternative.

    In a `decode_walk` triple `mv == cands[record.idx] + record.mvd`, so the chosen
    rate prices `record.mvd` and the other rate `mv` less the other candidate.
    """

    record: PuRecord
    cands: CandidatePair
    mv: MotionVector
    chosen_rate: int
    other_rate: int

    @property
    def optimal(self) -> bool:
        """Ties count as optimal: a rate-aware encoder may sit on either side of an equal-cost pair."""
        return self.chosen_rate <= self.other_rate


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


def _rate(record: PuRecord, cands: CandidatePair, mv: MotionVector) -> PuCheck:
    other = cands.mvp0 if record.idx else cands.mvp1
    return PuCheck(record, cands, mv, rate_of(record.mvd), rate_of(Mvd(mv.x - other.x, mv.y - other.y)))


def is_locally_optimal(record: PuRecord, cands: CandidatePair, mv: MotionVector) -> bool:
    """True when the signalled candidate's difference codes in no more bits than the other's.

    `mv` must be what the record reconstructs to, `cands[record.idx] + record.mvd`,
    as in a `decode_walk` triple: the signalled difference is read from the record.
    """
    return _rate(record, cands, mv).optimal


def iter_pu_checks(stream: SequenceStream) -> Iterator[PuCheck]:
    """Replay a stream with `decode_walk` and yield both candidate rates for every PU."""
    for step in decode_walk(stream):
        yield _rate(*step)


def mvd_rates(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """`rate_of(Mvd(dx[k], dy[k]))` for every k, as int64; each distinct difference is priced by one call."""
    # a difference component fits 16 bits, so (dx, dy) packs into one int64 key
    _, first, which = np.unique((dx.astype(np.int64) << 16) + dy, return_index=True, return_inverse=True)
    return np.array(list(map(rate_of, map(Mvd, dx[first].tolist(), dy[first].tolist()))), np.int64)[which]


def pu_rates(table: np.ndarray, mv: np.ndarray, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every PU's chosen and other rate, from its record and its `codec.decode` vector and candidates.

    The chosen rate prices the record's difference, the other rate `mv` less
    the candidate the record does not signal, as in a `PuCheck`.
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
    worse = chosen > other
    violations = list(zip(*(table[name][worse].tolist() for name in ("frame", "bx", "by"))))
    n = stream.header.pus_per_frame
    bad = Counter(f for f, _, _ in violations)
    per_frame = {f: FrameTally(n, n - bad[f]) for f in range(1, stream.header.frame_count)}
    return FeatureReport(stream.n_records, stream.n_records - len(violations), per_frame, violations)
