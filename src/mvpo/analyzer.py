"""Predictor-optimality analysis of coded streams.

A cost-aware encoder always signals the candidate whose difference codes in
no more bits than the alternative, so in an untouched stream every PU passes
that check.  The analyzer replays a stream decode-side, counts the PUs that
still pass, and calls the stream clean only at exactly 100 percent.  The
check depends on codeword lengths alone, never on the Lagrangian multiplier.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .codec import decode_walk
from .core import CandidatePair, MotionVector, Mvd, rate_of
from .stream import PuRecord, SequenceStream


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
    """Replay a stream and yield both candidate rates for every PU."""
    for step in decode_walk(stream):
        yield _rate(*step)


def rechecked(
    stream: SequenceStream, base: SequenceStream, base_checks: Sequence[PuCheck]
) -> list[PuCheck] | None:
    """This stream's checks, built from `base_checks`, or None when they cannot be without a decode.

    `base_checks` must be `list(iter_pu_checks(base))`.  Every record that
    differs from the base's must keep its position and reconstruct the base's
    vector from the base's candidates, as an index flip does.  Candidates read
    only earlier vectors, so by induction over decode order the stream then
    decodes to the base's candidates and vectors at every PU, passes every
    order and range check, and only the differing records need re-rating; an
    equal record keeps the base's check.  Any other difference (a moved vector
    or position, another header or record count) returns None.
    """
    if stream.header != base.header or stream.n_records != base.n_records:
        return None
    checks = list(base_checks)
    for k, (new, old) in enumerate(zip(stream.records, base.records)):
        if new is old or new == old:
            continue
        if (new.frame_index, new.block_x, new.block_y) != (old.frame_index, old.block_x, old.block_y):
            return None
        cands, mv = checks[k].cands, checks[k].mv
        mvp = cands[new.idx]
        if mvp.x + new.mvd.dx != mv.x or mvp.y + new.mvd.dy != mv.y:
            return None
        checks[k] = _rate(new, cands, mv)
    return checks


def optimal_rate(stream: SequenceStream, checks: Iterable[PuCheck] | None = None) -> FeatureReport:
    """List the violations; the walk checks one record per PU of each P-frame, so the counts follow.

    `checks` is this stream's `iter_pu_checks`, or checks equal to them, when
    the caller already holds them: the experiment passes a cover's held decode,
    and for a stego the `rechecked` form of it; without them (None) the stream
    is replayed.
    """
    if checks is None:
        checks = iter_pu_checks(stream)
    violations = [
        (check.record.frame_index, check.record.block_x, check.record.block_y)
        for check in checks
        if not check.optimal
    ]
    n_pus = stream.n_records
    n_optimal = n_pus - len(violations)
    bad = Counter(f for f, _, _ in violations)
    pus_per_frame = stream.header.pus_per_frame
    per_frame = {
        f: FrameTally(pus_per_frame, pus_per_frame - bad[f]) for f in range(1, stream.header.frame_count)
    }
    return FeatureReport(n_pus, n_optimal, per_frame, violations)
