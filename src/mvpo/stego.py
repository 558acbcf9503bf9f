"""Three motion-vector embedders operating on coded streams.

Each maps input records to output records, keeping the input record object
where it changes nothing, and every stream they return decodes.

* `embed_mvd_parity` hides bits in the parity of one difference component,
  nudging it by one quarter-pel when needed, then decodes its output.
* `embed_index_threshold` and `embed_index_adaptive` hide bits in the
  candidate index and differ only in the PUs, the slots, they choose:
  tar2 walks the decode and takes the PUs whose two candidates are close
  under an absolute-component distance; tar3 reads the analyzer's rated walk
  and takes a requested payload density of the PUs where a flip is cheapest
  (smallest rate gap), a greedy stand-in for a trellis-coded assignment.
  One writer then puts payload bit j into the index of slot j, recomputing
  the difference so every reconstructed vector survives.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .analyzer import PuCheck, iter_pu_checks
from .codec import decode_walk
from .core import CandidatePair, MotionVector, Mvd, MVD_MAX, MVD_MIN, rate_of
from .stream import PuRecord, SequenceStream


class EmbedMethod(enum.Enum):
    MVD_PARITY = "mvd-parity"
    INDEX_THRESHOLD = "index-threshold"
    INDEX_ADAPTIVE = "index-adaptive"


@dataclass(frozen=True)
class EmbedConfig:
    method: EmbedMethod
    value: float | int  # the method's one parameter, in the range its METHOD_TAGS row gives
    rng_seed: int = 0
    payload: Sequence[int] | None = None

    def __post_init__(self):
        # random.Random(-s) seeds like Random(s), so a negative seed would alias a positive one
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed {self.rng_seed} must be >= 0")
        tag = _TAG_OF[self.method]
        if not tag.low <= self.value <= tag.high:  # NaN fails too
            raise ValueError(f"{tag.param} {self.value} must be {tag.bounds}")
        if self.payload is not None:
            try:
                bits = tuple(map(operator.index, self.payload))
            except TypeError:  # a bit such as 1.0 is no integer
                bits = ()
            if not bits or not set(bits) <= {0, 1}:
                raise ValueError("payload must be a non-empty sequence of 0/1 bits")
            object.__setattr__(self, "payload", bits)


@dataclass(frozen=True)
class MethodTag:
    """What a short method tag (tar1/tar2/tar3) means: its embedder and its one parameter."""

    method: EmbedMethod
    param: str  # the CLI flag and the experiment's param column
    convert: Callable[[str], float | int]
    low: float | int  # the parameter's range, bounds included
    high: float | int
    grid: tuple[float | int, ...]  # the experiment's default values

    @property
    def bounds(self) -> str:
        return f">= {self.low}" if self.high == math.inf else f"in [{self.low}, {self.high}]"


METHOD_TAGS = {
    "tar1": MethodTag(EmbedMethod.MVD_PARITY, "e", float, 0, 1, (0.1, 0.2, 0.3, 0.4, 0.5)),
    "tar2": MethodTag(EmbedMethod.INDEX_THRESHOLD, "T", int, 0, math.inf, (0, 1, 5, 20, 1000)),
    "tar3": MethodTag(EmbedMethod.INDEX_ADAPTIVE, "bpap", float, 0, 1, (0.1, 0.2, 0.3, 0.4, 0.5)),
}
_TAG_OF = {tag.method: tag for tag in METHOD_TAGS.values()}


@dataclass
class EmbedReport:
    """What an embedding run did to a stream."""

    method: EmbedMethod
    pus_visited: int = 0
    pus_modified: int = 0
    bits_embedded: int = 0
    flips_rate_asymmetric: int = 0
    per_frame_modified: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "pus_visited": self.pus_visited,
            "pus_modified": self.pus_modified,
            "bits_embedded": self.bits_embedded,
            "flips_rate_asymmetric": self.flips_rate_asymmetric,
            "per_frame_modified": {str(f): n for f, n in sorted(self.per_frame_modified.items())},
        }


def _payload(cfg: EmbedConfig, seed: int, n: int) -> list[int]:
    """The first `n` payload bits: the explicit payload cycled, else `n` draws of a PRNG seeded `seed`."""
    if cfg.payload is not None:
        return [cfg.payload[j % len(cfg.payload)] for j in range(n)]
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(n)]


def t_value(cands: CandidatePair) -> int:
    """Absolute-component distance between the two candidates."""
    return abs(abs(cands.mvp1.x) - abs(cands.mvp0.x)) + abs(abs(cands.mvp1.y) - abs(cands.mvp0.y))


def _parity_adjust(mvd: Mvd, use_x: bool, bit: int) -> Mvd:
    """Force the parity of one component to `bit`, moving one quarter-pel at most.

    A component already carrying the right parity stays put.  Otherwise the
    direction that codes cheaper wins; an exact rate tie steps down.
    """
    value = mvd.dx if use_x else mvd.dy
    if value & 1 == bit:
        return mvd

    def rebuilt(v: int) -> Mvd:
        return Mvd(v, mvd.dy) if use_x else Mvd(mvd.dx, v)

    options = [rebuilt(value + step) for step in (-1, +1) if MVD_MIN <= value + step <= MVD_MAX]
    return min(options, key=rate_of)  # min() keeps the first of a tie: the -1 step


def _stego(
    method: EmbedMethod, stream: SequenceStream, out: list[PuRecord], bits: int
) -> tuple[SequenceStream, EmbedReport]:
    """The stream of `out` and its report, counted from the records that are new objects.

    An index flip keeps the vector, so a flipped pair's differences are its two candidate differences.
    """
    changed = [(a, b) for a, b in zip(stream.records, out) if a is not b]
    asymmetric = sum(1 for a, b in changed if a.idx != b.idx and rate_of(a.mvd) != rate_of(b.mvd))
    per_frame = Counter(b.frame_index for _, b in changed)
    report = EmbedReport(method, pus_visited=len(out), pus_modified=len(changed), bits_embedded=bits,
                         flips_rate_asymmetric=asymmetric, per_frame_modified=dict(per_frame))
    return SequenceStream(stream.header, out), report


def embed_mvd_parity(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Select each PU with probability e, `cfg.value`, and host one parity bit there.

    All randomness is drawn per record, keyed to decode order, so the PUs
    selected at a lower strength are a subset of those at a higher one under
    the same seed, and each keeps the same component and payload bit.  The
    output is decoded whole, so a malformed input, or a nudge that pushes a
    later vector out of range, raises `MalformedStreamError`.
    """
    if cfg.method is not EmbedMethod.MVD_PARITY:
        raise ValueError(f"config method {cfg.method} does not match embed_mvd_parity")
    master = random.Random(cfg.rng_seed)
    select = random.Random(master.getrandbits(64))
    coin = random.Random(master.getrandbits(64))
    payload = _payload(cfg, master.getrandbits(64), stream.n_records)

    out = []
    bits = 0
    for k, record in enumerate(stream.records):
        u = select.random()
        use_x = coin.getrandbits(1) == 1
        if u < cfg.value:
            bits += 1
            new_mvd = _parity_adjust(record.mvd, use_x, payload[k])
            if new_mvd != record.mvd:
                record = PuRecord(record.frame_index, record.block_x, record.block_y, record.idx, new_mvd)
        out.append(record)
    stego, report = _stego(EmbedMethod.MVD_PARITY, stream, out, bits)
    for _ in decode_walk(stego):
        pass
    return stego, report


def _write_indices(
    stream: SequenceStream, cfg: EmbedConfig, slots: list[tuple[int, CandidatePair, MotionVector]]
) -> tuple[SequenceStream, EmbedReport]:
    """Write payload bit j into the index of slot j = (record position, candidates, vector).

    The new difference is taken against the newly signalled candidate, so the
    vector survives; a record whose index already holds its bit is kept as is.
    """
    bits = _payload(cfg, random.Random(cfg.rng_seed).getrandbits(64), len(slots))
    out = list(stream.records)
    for (k, cands, mv), bit in zip(slots, bits):
        record = out[k]
        if record.idx != bit:
            mvp = cands[bit]
            mvd = Mvd(mv.x - mvp.x, mv.y - mvp.y)
            out[k] = PuRecord(record.frame_index, record.block_x, record.block_y, bit, mvd)
    return _stego(cfg.method, stream, out, len(slots))


def embed_index_threshold(
    stream: SequenceStream, cfg: EmbedConfig, checks: Sequence[PuCheck] | None = None
) -> tuple[SequenceStream, EmbedReport]:
    """Write payload bits into the candidate index of close-candidate PUs, in decode order.

    A PU is eligible when its candidate distance is at most T, `cfg.value`; a
    threshold of zero additionally demands componentwise-identical candidates,
    the population a zero distance is meant to capture.  `checks`, the
    stream's `iter_pu_checks` when the caller holds it, replaces the walk;
    without it the walk runs unrated.
    """
    if cfg.method is not EmbedMethod.INDEX_THRESHOLD:
        raise ValueError(f"config method {cfg.method} does not match embed_index_threshold")
    limit = cfg.value
    steps = decode_walk(stream) if checks is None else ((c.record, c.cands, c.mv) for c in checks)
    slots = [
        (k, cands, mv)
        for k, (_, cands, mv) in enumerate(steps)
        if (cands.identical if limit == 0 else t_value(cands) <= limit)
    ]
    return _write_indices(stream, cfg, slots)


def embed_index_adaptive(
    stream: SequenceStream, cfg: EmbedConfig, checks: Sequence[PuCheck] | None = None
) -> tuple[SequenceStream, EmbedReport]:
    """Host bpap, `cfg.value`, bits per PU in the cheapest index flips.

    Every PU's flip cost is the gap between its two candidate rates.  The
    requested bit count lands in the PUs with the smallest gaps (decode order
    breaks ties), assigned greedily in that order.  bpap is at
    most 1, so the request never exceeds the PU count.  `checks` is the
    stream's `list(iter_pu_checks(stream))` when the caller holds it; without
    it the stream is replayed.
    """
    if cfg.method is not EmbedMethod.INDEX_ADAPTIVE:
        raise ValueError(f"config method {cfg.method} does not match embed_index_adaptive")
    if checks is None:
        checks = list(iter_pu_checks(stream))
    # the shortest decimal repr keeps 0.1 * 30 at exactly 3 bits, where the
    # raw binary fraction of 0.1 would tip the ceiling to 4; float() first,
    # because a numpy scalar's repr is not a number
    target = math.ceil(Fraction(repr(float(cfg.value))) * len(checks))
    gaps = [abs(check.chosen_rate - check.other_rate) for check in checks]
    # a stable sort keeps decode order among equal gaps
    order = sorted(range(len(checks)), key=gaps.__getitem__)[:target]
    return _write_indices(stream, cfg, [(k, checks[k].cands, checks[k].mv) for k in order])


def embed(
    stream: SequenceStream, cfg: EmbedConfig, checks: Sequence[PuCheck] | None = None
) -> tuple[SequenceStream, EmbedReport]:
    """Dispatch to the embedder matching `cfg.method`.

    `checks`, when given, must be `list(iter_pu_checks(stream))`: a caller
    that holds the stream's decode (the experiment, for each cover) passes it
    so tar2 and tar3 do not replay the stream again.  tar1 ignores it, since
    it decodes its own output, not its input.
    """
    if cfg.method is EmbedMethod.MVD_PARITY:
        return embed_mvd_parity(stream, cfg)
    if cfg.method is EmbedMethod.INDEX_THRESHOLD:
        return embed_index_threshold(stream, cfg, checks)
    return embed_index_adaptive(stream, cfg, checks)
