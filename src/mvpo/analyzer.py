"""Predictor-optimality analysis of coded streams.

A cost-aware encoder always signals the candidate whose difference codes in
no more bits than the alternative, so in an untouched stream every PU passes
that check.  The analyzer replays a stream decode-side, counts the PUs that
still pass, and calls the stream clean only at exactly 100 percent.  The
check depends on codeword lengths alone, never on the Lagrangian multiplier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

from .codec import decode_walk
from .core import CandidatePair, MotionVector, rate_of
from .stream import PuRecord, SequenceStream


class Verdict(enum.Enum):
    COVER = "cover"
    STEGO = "stego"
    INDETERMINATE = "indeterminate"


class PuCheck(NamedTuple):
    """One PU's decode-side rates: the signalled candidate versus the alternative."""

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
    """Counts, verdict, and the violating PU positions for one stream."""

    n_pus: int
    n_optimal: int
    verdict: Verdict
    per_frame: dict[int, FrameTally] = field(default_factory=dict)
    violations: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def optimal_rate_pct(self) -> float | None:
        if self.n_pus == 0:
            return None
        return 100.0 * self.n_optimal / self.n_pus

    @property
    def optimal_rate_exact(self) -> Fraction | None:
        if self.n_pus == 0:
            return None
        return Fraction(100 * self.n_optimal, self.n_pus)


def _rate(record: PuRecord, cands: CandidatePair, mv: MotionVector) -> PuCheck:
    rates = [rate_of(mvd) for mvd in cands.mvds(mv)]
    return PuCheck(record, cands, mv, rates[record.idx], rates[1 - record.idx])


def is_locally_optimal(record: PuRecord, cands: CandidatePair, mv: MotionVector) -> bool:
    """True when the signalled candidate's difference codes in no more bits than the other's."""
    return _rate(record, cands, mv).optimal


def iter_pu_checks(stream: SequenceStream) -> Iterator[PuCheck]:
    """Replay a stream and yield both candidate rates for every PU."""
    for step in decode_walk(stream):
        yield _rate(*step)


def _verdict(n_pus: int, n_optimal: int) -> Verdict:
    if n_pus == 0:
        return Verdict.INDETERMINATE
    return Verdict.COVER if n_optimal == n_pus else Verdict.STEGO


def optimal_rate(stream: SequenceStream) -> FeatureReport:
    """Single-pass analysis: count optimal PUs, tally per frame, list violations."""
    n_pus = 0
    n_optimal = 0
    frame_counts: dict[int, list[int]] = {}
    violations: list[tuple[int, int, int]] = []
    for check in iter_pu_checks(stream):
        record = check.record
        tally = frame_counts.setdefault(record.frame_index, [0, 0])
        n_pus += 1
        tally[0] += 1
        if check.optimal:
            n_optimal += 1
            tally[1] += 1
        else:
            violations.append((record.frame_index, record.block_x, record.block_y))
    per_frame = {f: FrameTally(n, k) for f, (n, k) in sorted(frame_counts.items())}
    return FeatureReport(
        n_pus=n_pus,
        n_optimal=n_optimal,
        verdict=_verdict(n_pus, n_optimal),
        per_frame=per_frame,
        violations=violations,
    )


def classify(report: FeatureReport) -> Verdict:
    """Cover only at exactly 100 percent; no tolerance window, integer comparison only."""
    return _verdict(report.n_pus, report.n_optimal)
