"""Three motion-vector embedders operating on coded streams.

Each writes its output into a copy of the input's record table, which the
stream constructor checks as the reader does, and counts its report from the
rows that differ, building no output record; every stream they return decodes.
The copy is one copy of the table's bytes: numpy would copy the packed record
fields one at a time.

* `embed_mvd_parity` hides bits in the parity of one difference component,
  nudging it by one quarter-pel when needed, then decodes its output's record
  table with `codec.decode`, the analyzer's decode.  It draws each random
  stream in one `getrandbits` call, whose 32-bit words are exactly those that
  per-record `random()` and `getrandbits(1)` calls would consume.
* `embed_index_threshold` and `embed_index_adaptive` hide bits in the
  candidate index and differ only in the PUs, the slots, they choose:
  tar2 walks the decode one PU at a time and takes the PUs whose two
  candidates are close under an absolute-component distance; tar3 rates the
  analyzer's array decode and takes a requested payload density of the PUs
  where a flip is cheapest (smallest rate gap), a greedy stand-in for a
  trellis-coded assignment.  One writer, on arrays, then puts payload bit j
  into the index of slot j, recomputing the difference so every
  reconstructed vector survives.  So the output inherits its input's kept
  decode, and its kept rates with the two swapped at each written row: an
  index stego of a decoded and rated input is neither decoded nor rated again.
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

import numpy as np

from .analyzer import mvd_rates, stream_rates
from .codec import decode, decode_walk
from .core import CandidatePair, MotionVector, MVD_MAX, MVD_MIN
from .stream import RECORD_DTYPE, PuRecord, SequenceStream, _read_only

WalkStep = tuple[PuRecord, CandidatePair, MotionVector]  # one `decode_walk` step


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
        try:  # random.Random seeds a float from its hash, a stream unlike any integer's
            object.__setattr__(self, "rng_seed", operator.index(self.rng_seed))
        except TypeError:
            raise ValueError(f"rng_seed {self.rng_seed} must be an integer") from None
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


def _words(rng: random.Random, n: int) -> np.ndarray:
    """`rng`'s next `n` 32-bit outputs, in order: one `getrandbits` call puts the first in the lowest bits."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _payload(cfg: EmbedConfig, seed: int, n: int) -> np.ndarray:
    """The first `n` payload bits: the explicit payload cycled, else n `getrandbits(1)` draws seeded `seed`."""
    if cfg.payload is not None:
        return np.resize(np.array(cfg.payload, np.int64), n)
    return (_words(random.Random(seed), n) >> 31).astype(np.int64)


def t_value(cands: CandidatePair) -> int:
    """Absolute-component distance between the two candidates."""
    return abs(abs(cands.mvp1.x) - abs(cands.mvp0.x)) + abs(abs(cands.mvp1.y) - abs(cands.mvp0.y))


def _copy(table: np.ndarray) -> np.ndarray:
    """A writable copy of a record table, its bytes copied in one go rather than field by field."""
    return np.ascontiguousarray(table).view(np.uint8).copy().view(RECORD_DTYPE)


def _stego(
    method: EmbedMethod, stream: SequenceStream, table: np.ndarray, bits: int
) -> tuple[SequenceStream, EmbedReport]:
    """The stream of `table`, an edited copy of `stream.table`, and its report, counted from the rows that differ.

    An index flip keeps the vector, so a flipped pair's differences are its two candidate differences.
    """
    before = stream.table
    flipped = before["idx"] != table["idx"]
    changed = flipped | (before["dx"] != table["dx"]) | (before["dy"] != table["dy"])
    old, new = (mvd_rates(t["dx"][flipped], t["dy"][flipped]) for t in (before, table))
    asymmetric = int(np.count_nonzero(old != new))
    per_frame = Counter(table["frame"][changed].tolist())
    report = EmbedReport(method, pus_visited=len(table), pus_modified=int(changed.sum()), bits_embedded=bits,
                         flips_rate_asymmetric=asymmetric, per_frame_modified=dict(per_frame))
    return SequenceStream(stream.header, table), report


def embed_mvd_parity(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Select each PU with probability e, `cfg.value`, and host one parity bit there.

    Each record k takes the k-th draw of each random stream, so the PUs
    selected at a lower strength are a subset of those at a higher one under
    the same seed, and each keeps the same component and payload bit.  A
    component without the bit's parity moves one quarter-pel, to the option
    in range that codes cheaper; an exact rate tie steps down.  The output is
    decoded whole, so a malformed input, or a nudge that pushes a later
    vector out of range, raises `MalformedStreamError`.
    """
    if cfg.method is not EmbedMethod.MVD_PARITY:
        raise ValueError(f"config method {cfg.method} does not match embed_mvd_parity")
    master = random.Random(cfg.rng_seed)
    select, coin = random.Random(master.getrandbits(64)), random.Random(master.getrandbits(64))
    n = stream.n_records
    payload = _payload(cfg, master.getrandbits(64), n)
    # random() builds (a >> 5) * 2**26 + (b >> 6) over 2**53 from its next two outputs a, b
    a, b = _words(select, 2 * n).astype(np.int64).reshape(-1, 2).T
    selected = ((a >> 5) * 2**26 + (b >> 6)) * 2.0**-53 < cfg.value
    use_x = _words(coin, n) >> 31 == 1  # getrandbits(1) is the top bit of one output
    table = _copy(stream.table)
    mvd = np.stack((table["dx"], table["dy"]), 1).astype(np.int64)
    k = np.flatnonzero(selected & (np.where(use_x, mvd[:, 0], mvd[:, 1]) & 1 != payload))
    step = np.stack((use_x[k], ~use_x[k]), 1)  # one quarter-pel on the chosen component
    down, up = mvd[k] - step, mvd[k] + step
    # the clip only keeps the pricing in range: a step past the range is masked, and -1 wins a rate tie
    rate_down, rate_up = np.split(mvd_rates(*np.clip(np.concatenate((down, up)), MVD_MIN, MVD_MAX).T), 2)
    take_down = (down.min(1) >= MVD_MIN) & ((up.max(1) > MVD_MAX) | (rate_down <= rate_up))
    table["dx"][k], table["dy"][k] = np.where(take_down[:, None], down, up).T
    stego, report = _stego(EmbedMethod.MVD_PARITY, stream, table, int(np.count_nonzero(selected)))
    decode(stego)
    return stego, report


def _write_indices(
    stream: SequenceStream, cfg: EmbedConfig, slots: np.ndarray, cands: np.ndarray, mv: np.ndarray
) -> tuple[SequenceStream, EmbedReport]:
    """Write payload bit j into the index of record `slots[j]`, of candidates `cands[j]` and vector `mv[j]`.

    The new difference is taken against the newly signalled candidate, so the
    vector survives; a record whose index already holds its bit is kept as is.
    Every vector, and so every candidate, is unchanged: the output keeps the
    input's decode, and each written row, whose index flipped, swaps its two
    kept rates.
    """
    bits = _payload(cfg, random.Random(cfg.rng_seed).getrandbits(64), len(slots))
    write = np.flatnonzero(stream.table["idx"][slots] != bits)
    k, bit = slots[write], bits[write]
    mvd = mv[write] - cands[write, bit]
    table = _copy(stream.table)
    table["idx"][k], table["dx"][k], table["dy"][k] = bit, mvd[:, 0], mvd[:, 1]
    stego, report = _stego(cfg.method, stream, table, len(slots))
    stego._decoded = stream._decoded
    if stream._rates is not None:
        chosen, other = (rates.copy() for rates in stream._rates)
        chosen[k], other[k] = stream._rates[1][k], stream._rates[0][k]
        stego._rates = _read_only(chosen, other)
    return stego, report


def embed_index_threshold(
    stream: SequenceStream, cfg: EmbedConfig, walk: Sequence[WalkStep] | None = None
) -> tuple[SequenceStream, EmbedReport]:
    """Write payload bits into the candidate index of close-candidate PUs, in decode order.

    A PU is eligible when its candidate distance is at most T, `cfg.value`; a
    threshold of zero additionally demands componentwise-identical candidates,
    the population a zero distance is meant to capture.  `walk`, the
    stream's `decode_walk` triples when the caller holds them, replaces the
    walk this embedder would run.
    """
    if cfg.method is not EmbedMethod.INDEX_THRESHOLD:
        raise ValueError(f"config method {cfg.method} does not match embed_index_threshold")
    limit = cfg.value
    slots = [
        (k, cands.mvp0.x, cands.mvp0.y, cands.mvp1.x, cands.mvp1.y, mv.x, mv.y)
        for k, (_, cands, mv) in enumerate(decode_walk(stream) if walk is None else walk)
        if (cands.identical if limit == 0 else t_value(cands) <= limit)
    ]
    a = np.array(slots, np.int64).reshape(-1, 7)
    return _write_indices(stream, cfg, a[:, 0], a[:, 1:5].reshape(-1, 2, 2), a[:, 5:])


def embed_index_adaptive(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Host bpap, `cfg.value`, bits per PU in the cheapest index flips.

    Every PU's flip cost is the gap between its two candidate rates, which
    `codec.decode` and `stream_rates` give for the whole stream as arrays,
    computed once per stream and kept on it.  The
    requested bit count lands in the PUs with the smallest gaps (decode order
    breaks ties), assigned greedily in that order.  bpap is at most 1, so the
    request never exceeds the PU count.
    """
    if cfg.method is not EmbedMethod.INDEX_ADAPTIVE:
        raise ValueError(f"config method {cfg.method} does not match embed_index_adaptive")
    mv, cands = decode(stream)
    chosen, other = stream_rates(stream)
    # the shortest decimal repr keeps 0.1 * 30 at exactly 3 bits, where the
    # raw binary fraction of 0.1 would tip the ceiling to 4; float() first,
    # because a numpy scalar's repr is not a number
    target = math.ceil(Fraction(repr(float(cfg.value))) * len(mv))
    # a stable sort keeps decode order among equal gaps
    slots = np.argsort(np.abs(chosen - other), kind="stable")[:target]
    return _write_indices(stream, cfg, slots, cands[slots], mv[slots])


def embed(
    stream: SequenceStream, cfg: EmbedConfig, walk: Sequence[WalkStep] | None = None
) -> tuple[SequenceStream, EmbedReport]:
    """Dispatch to the embedder matching `cfg.method`.

    `walk`, when given, must be `list(decode_walk(stream))`: a caller that
    embeds one stream many times (the experiment, for each cover) walks it
    once and passes the walk, so tar2 does not replay the stream again.
    tar1 and tar3 ignore it: tar1 decodes its own output, not its input, and
    tar3 decodes its input as arrays.  A decode is kept on the stream it
    decodes, so a stream embedded many times is decoded and rated once; a
    tar2 or tar3 output inherits its input's, and a tar1 output keeps the
    decode that checked it.
    """
    if cfg.method is EmbedMethod.MVD_PARITY:
        return embed_mvd_parity(stream, cfg)
    if cfg.method is EmbedMethod.INDEX_THRESHOLD:
        return embed_index_threshold(stream, cfg, walk)
    return embed_index_adaptive(stream, cfg)
