"""Three motion-vector embedders operating on coded streams.

All three rewrite records in place, and every stream they return decodes.

* `embed_mvd_parity` hides bits in the parity of one difference component,
  nudging it by one quarter-pel when needed, then decodes its output.
* `embed_index_threshold` walks the decode and hides bits in the index of
  PUs whose two candidates are close under an absolute-component distance,
  keeping every reconstructed vector intact by recomputing the difference.
* `embed_index_adaptive` reads the analyzer's rated walk and hides a
  requested payload density in the PUs where an index flip is cheapest
  (smallest rate gap), a greedy stand-in for a trellis-coded assignment,
  again preserving every reconstructed vector.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .analyzer import iter_pu_checks
from .codec import decode_walk
from .core import CandidatePair, Mvd, MVD_MAX, MVD_MIN, rate_of
from .stream import SequenceStream


class EmbedMethod(enum.Enum):
    MVD_PARITY = "mvd-parity"
    INDEX_THRESHOLD = "index-threshold"
    INDEX_ADAPTIVE = "index-adaptive"


@dataclass(frozen=True)
class EmbedConfig:
    method: EmbedMethod
    strength_e: float | None = None
    threshold_T: int | None = None
    capacity_bpap: float | None = None
    rng_seed: int = 0
    payload: Sequence[int] | None = None

    def __post_init__(self):
        if self.method is EmbedMethod.MVD_PARITY:
            if self.strength_e is None or not 0.0 <= self.strength_e <= 1.0:
                raise ValueError(f"strength_e {self.strength_e} must be in [0, 1]")
        elif self.method is EmbedMethod.INDEX_THRESHOLD:
            if self.threshold_T is None or self.threshold_T < 0:
                raise ValueError(f"threshold_T {self.threshold_T} must be >= 0")
        elif self.method is EmbedMethod.INDEX_ADAPTIVE:
            if self.capacity_bpap is None or not 0.0 <= self.capacity_bpap <= 1.0:
                raise ValueError(f"capacity_bpap {self.capacity_bpap} must be in [0, 1]")
        if self.payload is not None:
            bits = tuple(self.payload)
            if not bits or any(b not in (0, 1) for b in bits):
                raise ValueError("payload must be a non-empty sequence of 0/1 bits")
            object.__setattr__(self, "payload", bits)


@dataclass(frozen=True)
class MethodTag:
    """What a short method tag (tar1/tar2/tar3) means: its embedder and its one parameter."""

    method: EmbedMethod
    param: str  # the CLI flag and the experiment's param column
    convert: Callable[[str], float | int]
    config_field: str

    def config(self, value: float | int, rng_seed: int = 0) -> EmbedConfig:
        return EmbedConfig(self.method, rng_seed=rng_seed, **{self.config_field: value})


METHOD_TAGS = {
    "tar1": MethodTag(EmbedMethod.MVD_PARITY, "e", float, "strength_e"),
    "tar2": MethodTag(EmbedMethod.INDEX_THRESHOLD, "T", int, "threshold_T"),
    "tar3": MethodTag(EmbedMethod.INDEX_ADAPTIVE, "bpap", float, "capacity_bpap"),
}


@dataclass
class EmbedReport:
    """What an embedding run did to a stream."""

    method: EmbedMethod
    pus_visited: int = 0
    pus_modified: int = 0
    bits_embedded: int = 0
    pus_skipped: int = 0  # no embedder skips a PU; the key stays so report files keep their shape
    flips_rate_asymmetric: int = 0
    per_frame_modified: dict[int, int] = field(default_factory=dict)

    def _count_modified(self, frame_index: int) -> None:
        self.pus_modified += 1
        self.per_frame_modified[frame_index] = self.per_frame_modified.get(frame_index, 0) + 1

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "pus_visited": self.pus_visited,
            "pus_modified": self.pus_modified,
            "bits_embedded": self.bits_embedded,
            "pus_skipped": self.pus_skipped,
            "flips_rate_asymmetric": self.flips_rate_asymmetric,
            "per_frame_modified": {str(f): n for f, n in sorted(self.per_frame_modified.items())},
        }


class PayloadBits:
    """Random-access bit source: an explicit sequence (cycled) or a seeded PRNG."""

    def __init__(self, bits: Sequence[int] | None, seed: int):
        self._explicit = tuple(bits) if bits is not None else None
        self._rng = random.Random(seed)
        self._cache: list[int] = []

    def bit_at(self, i: int) -> int:
        if self._explicit is not None:
            return self._explicit[i % len(self._explicit)]
        while len(self._cache) <= i:
            self._cache.append(self._rng.getrandbits(1))
        return self._cache[i]


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


def embed_mvd_parity(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Select each PU with probability `strength_e` and host one parity bit there.

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
    payload = PayloadBits(cfg.payload, master.getrandbits(64))

    report = EmbedReport(EmbedMethod.MVD_PARITY)
    out = []
    for k, record in enumerate(stream.records):
        u = select.random()
        use_x = coin.getrandbits(1) == 1
        report.pus_visited += 1
        if u >= cfg.strength_e:
            out.append(record)
            continue
        report.bits_embedded += 1
        new_mvd = _parity_adjust(record.mvd, use_x, payload.bit_at(k))
        if new_mvd == record.mvd:
            out.append(record)
            continue
        report._count_modified(record.frame_index)
        out.append(dataclasses.replace(record, mvd=new_mvd))
    stego = SequenceStream(stream.header, out)
    for _ in decode_walk(stego):
        pass
    return stego, report


def embed_index_threshold(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Write payload bits into the candidate index of close-candidate PUs.

    A PU is eligible when its candidate distance is at most `threshold_T`; a
    threshold of zero additionally demands componentwise-identical candidates,
    the population a zero distance is meant to capture.  The difference is
    recomputed so every reconstructed vector survives unchanged.
    """
    if cfg.method is not EmbedMethod.INDEX_THRESHOLD:
        raise ValueError(f"config method {cfg.method} does not match embed_index_threshold")
    payload = PayloadBits(cfg.payload, random.Random(cfg.rng_seed).getrandbits(64))

    report = EmbedReport(EmbedMethod.INDEX_THRESHOLD)
    out = []
    for record, cands, mv in decode_walk(stream):
        report.pus_visited += 1
        if cfg.threshold_T == 0:
            eligible = cands.identical
        else:
            eligible = t_value(cands) <= cfg.threshold_T
        if not eligible:
            out.append(record)
            continue
        bit = payload.bit_at(report.bits_embedded)
        report.bits_embedded += 1
        if bit == record.idx:
            out.append(record)
            continue
        report._count_modified(record.frame_index)
        mvds = cands.mvds(mv)
        rate0, rate1 = map(rate_of, mvds)
        if rate0 != rate1:
            report.flips_rate_asymmetric += 1
        out.append(dataclasses.replace(record, idx=bit, mvd=mvds[bit]))
    return SequenceStream(stream.header, out), report


def embed_index_adaptive(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Host `capacity_bpap` bits per PU in the cheapest index flips.

    Every PU's flip cost is the gap between its two candidate rates.  The
    requested bit count lands in the PUs with the smallest gaps (decode order
    breaks ties), assigned greedily.  `capacity_bpap` is at most 1, so the
    request never exceeds the PU count.
    """
    if cfg.method is not EmbedMethod.INDEX_ADAPTIVE:
        raise ValueError(f"config method {cfg.method} does not match embed_index_adaptive")
    payload = PayloadBits(cfg.payload, random.Random(cfg.rng_seed).getrandbits(64))

    checks = list(iter_pu_checks(stream))
    n = len(checks)
    # the shortest decimal repr keeps 0.1 * 30 at exactly 3 bits, where the
    # raw binary fraction of 0.1 would tip the ceiling to 4; float() first,
    # because a numpy scalar's repr is not a number
    target = math.ceil(Fraction(repr(float(cfg.capacity_bpap))) * n)
    gaps = [abs(check.chosen_rate - check.other_rate) for check in checks]
    # a stable sort keeps decode order among equal gaps
    chosen = {k: j for j, k in enumerate(sorted(range(n), key=gaps.__getitem__)[:target])}

    report = EmbedReport(EmbedMethod.INDEX_ADAPTIVE, pus_visited=n, bits_embedded=target)
    out = []
    for k, (record, cands, mv, _, _) in enumerate(checks):
        j = chosen.get(k)
        if j is None:
            out.append(record)
            continue
        bit = payload.bit_at(j)
        if bit == record.idx:
            out.append(record)
            continue
        report._count_modified(record.frame_index)
        if gaps[k]:
            report.flips_rate_asymmetric += 1
        out.append(dataclasses.replace(record, idx=bit, mvd=cands.mvds(mv)[bit]))
    return SequenceStream(stream.header, out), report


def embed(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Dispatch to the embedder matching `cfg.method`."""
    if cfg.method is EmbedMethod.MVD_PARITY:
        return embed_mvd_parity(stream, cfg)
    if cfg.method is EmbedMethod.INDEX_THRESHOLD:
        return embed_index_threshold(stream, cfg)
    return embed_index_adaptive(stream, cfg)
