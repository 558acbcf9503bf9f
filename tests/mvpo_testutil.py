"""Shared oracles and stream builders for the test suite.

The oracles here are deliberately independent of the implementation:
codeword lengths come from literally constructing the prefix code as a
string, motion search from a double loop with scalar arithmetic,
encoding from a raster-order walk that searches one PU at a time,
stream parsing from a loop that unpacks and checks one record at a time
against a nested loop over the raster positions,
the per-PU check from the decode walk rated one PU at a time by `rate_of`,
the analysis report from a count over those checks,
tar1's output from a loop that draws and nudges one record at a time,
and tar3's slots from a sort of those checks.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np
from hypothesis import strategies as st

from mvpo import (
    CandidatePair,
    EmbedConfig,
    EmbedMethod,
    EmbedReport,
    MotionVector,
    Mvd,
    MvField,
    Plane,
    PuRecord,
    RdParams,
    SequenceStream,
    StreamHeader,
    SynthPattern,
    SynthSpec,
    decode_walk,
    derive_candidates,
    encode_sequence,
    rate_of,
    se_bits,
    seed_candidate,
    select_mvp,
    synthesize,
)
from mvpo.analyzer import FeatureReport, FrameTally
from mvpo.core import MV_MAX, MV_MIN, MVD_MAX, MVD_MIN
from mvpo.errors import MalformedStreamError
from mvpo.formats import _HEADER, HEADER_SIZE, MAGIC, VERSION
from mvpo.stream import GOP_IPPP, RECORD_DTYPE


_RECORD = struct.Struct("<IHHBBhhH")  # frame, bx, by, idx, pad, dx, dy, reserved


def out_of_range(check: PuCheck, component: str) -> PuRecord:
    """`check`'s record with a difference that takes its vector one step outside the range on `component`."""
    record, mv = check.record, check.mv
    mvp = check.cands[record.idx]
    x, y = {"x": (MV_MAX + 1, mv.y), "y": (mv.x, MV_MIN - 1), "xy": (MV_MIN - 1, MV_MAX + 1)}[component]
    return PuRecord(record.frame_index, record.block_x, record.block_y, record.idx, Mvd(x - mvp.x, y - mvp.y))


def stream_of(header: StreamHeader, records) -> SequenceStream:
    """The stream of `records`, one `RECORD_DTYPE` row each with pad and reserved zero, read in one pass."""
    rows = [(r.frame_index, r.block_x, r.block_y, r.idx, 0, r.mvd.dx, r.mvd.dy, 0) for r in records]
    return SequenceStream(header, np.array(rows, RECORD_DTYPE))


def stream_bytes(header: StreamHeader, records) -> bytes:
    """A stream's bytes packed field by field, without `write_stream`, a record table or a check."""
    h = header
    fields = (MAGIC, VERSION, h.width, h.height, h.pu_size, h.qp, h.gop, h.frame_count, len(records))
    return struct.pack("<4sHHHBBBIQ", *fields) + b"".join(
        _RECORD.pack(r.frame_index, r.block_x, r.block_y, r.idx, 0, r.mvd.dx, r.mvd.dy, 0) for r in records
    )


def ue_codeword(code_num: int) -> str:
    """The literal zero-order Exp-Golomb codeword for an unsigned value."""
    body = bin(code_num + 1)[2:]
    return "0" * (len(body) - 1) + body


def se_code_num(value: int) -> int:
    """Signed-to-unsigned zigzag: positives take the odd codes."""
    return 2 * value - 1 if value > 0 else -2 * value


def se_codeword(value: int) -> str:
    return ue_codeword(se_code_num(value))


def me_oracle(
    cur_block: np.ndarray,
    ref: np.ndarray,
    block_x: int,
    block_y: int,
    start: MotionVector,
    cands: CandidatePair,
    params: RdParams,
) -> tuple[MotionVector, int]:
    """Brute-force reference search: same window, cost, and tie-break contract."""
    h, w = ref.shape
    ps = params.pu_size
    reach = params.search_range

    def clamp(center: int, lo: int, hi: int) -> tuple[int, int]:
        return min(max(center - reach, lo), hi), min(max(center + reach, lo), hi)

    # inside the frame, and inside the pel range a vector can represent
    dx_lo, dx_hi = clamp(start.x // 4, max(block_x - (w - ps), MV_MIN // 4), min(block_x, MV_MAX // 4))
    dy_lo, dy_hi = clamp(start.y // 4, max(block_y - (h - ps), MV_MIN // 4), min(block_y, MV_MAX // 4))

    best_key = None
    best = None
    for dy in range(dy_lo, dy_hi + 1):
        for dx in range(dx_lo, dx_hi + 1):
            blk = ref[block_y - dy : block_y - dy + ps, block_x - dx : block_x - dx + ps]
            sad = int(np.abs(blk.astype(np.int64) - cur_block.astype(np.int64)).sum())
            rate = min(
                se_bits(4 * dx - c.x) + se_bits(4 * dy - c.y) + 1
                for c in (cands.mvp0, cands.mvp1)
            )
            cost = sad + params.lambda_motion * rate
            key = (cost, sad, abs(dy), abs(dx))
            if best_key is None or key < best_key:
                best_key = key
                best = (MotionVector(4 * dx, 4 * dy), sad)
    return best


def encode_oracle(frames: list[Plane], params: RdParams) -> SequenceStream:
    """Reference encoder: raster order, one `me_oracle` search per PU, plain uint8 planes."""
    h, w = frames[0].data.shape
    ps = params.pu_size
    field = MvField(w, h, ps)
    records = []
    ref = frames[0].data
    for f in range(1, len(frames)):
        cur = frames[f].data
        recon = np.empty_like(ref)
        for by in range(0, h, ps):
            for bx in range(0, w, ps):
                cands = derive_candidates(field, f, bx, by)
                start = seed_candidate(cands)
                mv, _ = me_oracle(cur[by : by + ps, bx : bx + ps], ref, bx, by, start, cands, params)
                idx, mvd = select_mvp(mv, cands)
                field.put(f, bx, by, mv)
                records.append(PuRecord(f, bx, by, idx, mvd))
                ry, rx = by - mv.y // 4, bx - mv.x // 4
                recon[by : by + ps, bx : bx + ps] = ref[ry : ry + ps, rx : rx + ps]
        ref = recon
    return stream_of(StreamHeader(w, h, ps, params.qp, GOP_IPPP, len(frames)), records)


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


def check_oracle(stream: SequenceStream) -> Iterator[PuCheck]:
    """Reference per-PU check: replay `decode_walk` and rate both candidates of each PU with `rate_of`."""
    for record, cands, mv in decode_walk(stream):
        other = cands[1 - record.idx]
        yield PuCheck(record, cands, mv, rate_of(record.mvd), rate_of(Mvd(mv.x - other.x, mv.y - other.y)))


def report_oracle(stream: SequenceStream) -> FeatureReport:
    """Reference analysis: count `check_oracle` one PU at a time, a tie counting as optimal.

    The violations come in raster order, and each P-frame's tally counts the checks in that frame.
    """
    violations, tallies = [], {}
    for check in check_oracle(stream):
        record = check.record
        optimal = check.optimal
        n, k = tallies.get(record.frame_index, (0, 0))
        tallies[record.frame_index] = (n + 1, k + optimal)
        if not optimal:
            violations.append((record.frame_index, record.block_x, record.block_y))
    per_frame = {f: FrameTally(n, k) for f, (n, k) in tallies.items()}
    n_pus, n_optimal = (sum(column) for column in zip((0, 0), *tallies.values()))
    return FeatureReport(n_pus, n_optimal, per_frame, violations)


def payload_oracle(cfg: EmbedConfig, seed: int, n: int) -> list[int]:
    """The first `n` payload bits: the explicit payload cycled, else one `getrandbits(1)` call per bit."""
    if cfg.payload is not None:
        return [cfg.payload[j % len(cfg.payload)] for j in range(n)]
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(n)]


def parity_adjust(mvd: Mvd, use_x: bool, bit: int) -> Mvd:
    """Force the parity of one component to `bit`, moving one quarter-pel at most.

    A component already carrying the right parity stays put.  Otherwise the
    direction in range that codes cheaper wins; an exact rate tie steps down.
    """
    value = mvd.dx if use_x else mvd.dy
    if value & 1 == bit:
        return mvd

    def rebuilt(v: int) -> Mvd:
        return Mvd(v, mvd.dy) if use_x else Mvd(mvd.dx, v)

    options = [rebuilt(value + step) for step in (-1, +1) if MVD_MIN <= value + step <= MVD_MAX]
    return min(options, key=rate_of)  # min() keeps the first of a tie: the -1 step


def tar1_oracle(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Reference tar1: draw, select and nudge one record at a time, then walk the output's decode.

    Record k takes the k-th `random()` of the selection PRNG, the k-th
    `getrandbits(1)` of the component PRNG and payload bit k.
    """
    master = random.Random(cfg.rng_seed)
    select = random.Random(master.getrandbits(64))
    coin = random.Random(master.getrandbits(64))
    records = stream.records
    payload = payload_oracle(cfg, master.getrandbits(64), len(records))
    report = EmbedReport(EmbedMethod.MVD_PARITY, pus_visited=len(records))
    for k, old in enumerate(records):
        u = select.random()
        use_x = coin.getrandbits(1) == 1
        if u < cfg.value:
            report.bits_embedded += 1
            mvd = parity_adjust(old.mvd, use_x, payload[k])
            if mvd != old.mvd:
                records[k] = PuRecord(old.frame_index, old.block_x, old.block_y, old.idx, mvd)
                report.pus_modified += 1
                report.per_frame_modified[old.frame_index] = report.per_frame_modified.get(old.frame_index, 0) + 1
    stego = stream_of(stream.header, records)
    list(decode_walk(stego))
    return stego, report


def tar3_oracle(stream: SequenceStream, cfg: EmbedConfig) -> tuple[SequenceStream, EmbedReport]:
    """Reference tar3: sort the `check_oracle` checks by rate gap, then rewrite one record at a time.

    `sorted` is stable, so equal gaps keep decode order.  Slot j takes payload
    bit j: a record whose index already holds it is kept, any other signals
    the other candidate with the difference that keeps its vector.
    """
    checks = list(check_oracle(stream))
    target = math.ceil(Fraction(repr(float(cfg.value))) * len(checks))
    gaps = [abs(check.chosen_rate - check.other_rate) for check in checks]
    slots = sorted(range(len(checks)), key=gaps.__getitem__)[:target]
    bits = payload_oracle(cfg, random.Random(cfg.rng_seed).getrandbits(64), len(slots))
    records = [check.record for check in checks]
    report = EmbedReport(EmbedMethod.INDEX_ADAPTIVE, pus_visited=len(records), bits_embedded=len(slots))
    for k, bit in zip(slots, bits):
        old, mvp, mv = records[k], checks[k].cands[bit], checks[k].mv
        if old.idx == bit:
            continue
        records[k] = PuRecord(old.frame_index, old.block_x, old.block_y, bit, Mvd(mv.x - mvp.x, mv.y - mvp.y))
        report.pus_modified += 1
        report.flips_rate_asymmetric += rate_of(old.mvd) != rate_of(records[k].mvd)
        report.per_frame_modified[old.frame_index] = report.per_frame_modified.get(old.frame_index, 0) + 1
    return stream_of(stream.header, records), report


def read_stream_oracle(data: bytes) -> SequenceStream:
    """Reference parser: unpack and check one record at a time, stopping at the first bad one."""
    if len(data) < HEADER_SIZE:
        raise MalformedStreamError(f"truncated stream: {len(data)} bytes, header needs {HEADER_SIZE}")
    magic, version, width, height, pu_size, qp, gop, frame_count, n_records = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedStreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedStreamError(f"unsupported version {version}")
    try:
        header = StreamHeader(width, height, pu_size, qp, gop, frame_count)
    except ValueError as exc:
        raise MalformedStreamError(f"invalid header field: {exc}") from exc
    expected = HEADER_SIZE + _RECORD.size * n_records
    if len(data) < expected:
        raise MalformedStreamError(f"truncated stream: {len(data)} bytes, {n_records} records need {expected}")
    if len(data) > expected:
        raise MalformedStreamError(f"record count mismatch: {len(data) - expected} trailing bytes")
    grid = (frame_count - 1) * (width // pu_size) * (height // pu_size)
    if n_records != grid:
        raise MalformedStreamError(f"record count {n_records} does not cover the grid (expected {grid})")

    records = []
    rows, cols = range(0, height, pu_size), range(0, width, pu_size)
    raster = ((f, bx, by) for f in range(1, frame_count) for by in rows for bx in cols)
    for fields, position in zip(_RECORD.iter_unpack(data[HEADER_SIZE:]), raster):
        frame_index, block_x, block_y, idx, pad, dx, dy, reserved = fields
        if pad != 0:
            raise MalformedStreamError(f"nonzero pad byte {pad} in record {len(records)}")
        if reserved != 0:
            raise MalformedStreamError(f"nonzero reserved field {reserved} in record {len(records)}")
        if (frame_index, block_x, block_y) != position:
            got = (frame_index, block_x, block_y)
            raise MalformedStreamError(f"record at {got} out of raster order, expected {position}")
        try:
            records.append(PuRecord(frame_index, block_x, block_y, idx, Mvd(dx, dy)))
        except ValueError as exc:
            raise MalformedStreamError(f"invalid record {len(records)}: {exc}") from exc
    return stream_of(header, records)


SCAFFOLD_LEFT = MotionVector(3, 9)
SCAFFOLD_ABOVE = MotionVector(3, 8)


def scaffold_stream(target_idx: int, target_mvd: Mvd) -> SequenceStream:
    """A 2x2-PU single-P-frame stream whose last PU sees candidates (3,9)/(3,8).

    The first three PUs each derive two zero candidates (a rate tie, always
    optimal) and carry the vectors that become the target PU's left and above
    neighbours.  Only the last record varies between scenarios.
    """
    header = StreamHeader(32, 32, 16, qp=25, gop=GOP_IPPP, frame_count=2)
    records = [
        PuRecord(1, 0, 0, 0, Mvd(0, 0)),
        PuRecord(1, 16, 0, 0, Mvd(SCAFFOLD_ABOVE.x, SCAFFOLD_ABOVE.y)),
        PuRecord(1, 0, 16, 0, Mvd(SCAFFOLD_LEFT.x, SCAFFOLD_LEFT.y)),
        PuRecord(1, 16, 16, target_idx, target_mvd),
    ]
    return stream_of(header, records)


def encode_synth(
    pattern: str = "shift",
    size: tuple[int, int] = (64, 64),
    frames: int = 9,
    seed: int = 0,
    amp: tuple[int, int] = (1, 0),
    qp: int = 25,
    pu_size: int = 16,
    search_range: int = 8,
):
    """Encode one synthetic sequence; returns (stream, field, params)."""
    spec = SynthSpec(
        SynthPattern(pattern), size[0], size[1], frames, seed=seed, amplitude=amp
    )
    params = RdParams(qp=qp, search_range=search_range, pu_size=pu_size)
    stream, field = encode_sequence(synthesize(spec), params)
    return stream, field, params


# components a decoder must accept at the edges of the vector range
_MV_COMPONENTS = st.one_of(
    st.sampled_from([MV_MIN, MV_MIN + 1, MV_MAX - 1, MV_MAX, 0]),
    st.integers(MV_MIN, MV_MAX),
)


@st.composite
def valid_streams(draw) -> SequenceStream:
    """A decodable stream of 1-3 x 1-3 PUs of size 16 over 2-3 frames, vectors near +-8192.

    Each PU draws the vector it should reconstruct to and a candidate index;
    replaying `derive_candidates` then gives the difference that codes it.
    """
    ps = 16
    cols, rows, frames = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    header = StreamHeader(cols * ps, rows * ps, ps, qp=25, gop=GOP_IPPP, frame_count=frames)
    field = MvField(header.width, header.height, ps)
    records = []
    for f in range(1, frames):
        for by in range(0, header.height, ps):
            for bx in range(0, header.width, ps):
                mv = MotionVector(draw(_MV_COMPONENTS), draw(_MV_COMPONENTS))
                idx = draw(st.integers(0, 1))
                mvp = derive_candidates(field, f, bx, by)[idx]
                field.put(f, bx, by, mv)
                records.append(PuRecord(f, bx, by, idx, Mvd(mv.x - mvp.x, mv.y - mvp.y)))
    return stream_of(header, records)


@st.composite
def synth_covers(draw) -> SequenceStream:
    """A small synthetic cover at any PU size, qp and search range 1-16, over 2-4 frames.

    Frames are 1-4 x 1-3 PUs of size 8-32, and 1-2 x 1 PUs of size 64: at
    most 128 x 96 pels, so the covers stay cheap at every parameter.
    """
    ps = draw(st.sampled_from((8, 16, 32, 64)))
    stream, _, _ = encode_synth(
        draw(st.sampled_from(("shift", "objects", "noise"))),
        size=(ps * draw(st.integers(1, min(4, 128 // ps))), ps * draw(st.integers(1, min(3, 96 // ps)))),
        frames=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 99)),
        amp=(draw(st.integers(-2, 2)), draw(st.integers(-2, 2))),
        qp=draw(st.integers(0, 51)),
        pu_size=ps,
        search_range=draw(st.integers(1, 16)),
    )
    return stream
