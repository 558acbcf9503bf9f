"""Simplified AMVP inter-coding model.

One fixed-size PU grid, an IPPP structure where every P-frame predicts from
the previous reconstructed frame, integer-pel full search over SAD plus a
weighted motion rate, and a two-entry predictor candidate list rebuilt from
already-decoded vectors.

The decoder walks PUs in raster order, stepping frame and block counters,
and keeps the vectors of two frames.  The encoder walks each P-frame one
anti-diagonal of PUs at a time (equal bx/ps + by/ps) and searches a whole
diagonal in one batched `motion_estimate` call.  The order is exact: a PU's
candidates read only its left and above neighbours, both on the previous
diagonal, and the co-located vector of the previous frame, and its search
reads only the previous reconstructed frame.  So each PU sees the candidates,
window and reference it would see in raster order, the records are written
out in raster order, and candidate lists agree on both sides by construction.

Once per P-frame the encoder lays the reconstructed reference out as a
`window_table`, in which every candidate block is one contiguous run of
samples, and as the int32 `block_sums` of those blocks; the previous frame's
tables are dropped before the next are built, and the reconstruction is one
gather of each PU's reference block from the table.  The search centres each
window on the candidate `seed_candidate` picks and clamps it to the frame and
to the pel range a vector can carry, in plain integers per PU; a call's arrays
are as wide as its widest window, and one key per position, packing the SAD
and the displacement, names the winner in one reduction.  SAD is exact in
narrow integers: |a - b| = 2 max(a, b) - a - b, so a block's SAD is twice the
sum of its uint8 maxima, summed 256 samples at a time in uint16, less the two
block sums.  One search call works within a fixed byte budget that holds a
whole CIF diagonal; a PU whose window exceeds it is searched in bands of rows.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np

from .core import (
    CandidatePair,
    MVD_MIN,
    MV_MAX,
    MV_MIN,
    MotionVector,
    Mvd,
    RdParams,
    ZERO_MV,
    _SE_BITS,
    _SE_BITS_TABLE,
)
from .errors import InputError, MalformedStreamError
from .stream import GOP_IPPP, Plane, PuRecord, SequenceStream, StreamHeader


@dataclasses.dataclass
class MvField:
    """Reconstructed motion vectors on the PU grid, keyed by frame and block origin."""

    width: int
    height: int
    pu_size: int
    _mvs: dict[tuple[int, int, int], MotionVector] = dataclasses.field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.width % self.pu_size or self.height % self.pu_size:
            raise ValueError(f"{self.width}x{self.height} is not a multiple of pu_size {self.pu_size}")

    def get(self, frame_index: int, block_x: int, block_y: int) -> MotionVector | None:
        return self._mvs.get((frame_index, block_x, block_y))

    def put(self, frame_index: int, block_x: int, block_y: int, mv: MotionVector) -> None:
        self._mvs[(frame_index, block_x, block_y)] = mv


def derive_candidates(field: MvField, frame_index: int, block_x: int, block_y: int) -> CandidatePair:
    """Build the two-entry candidate list for one PU from already-decoded vectors.

    Candidate A is the left neighbour's vector, candidate B the one above;
    a missing neighbour contributes the zero vector.  When A equals B, B is
    replaced by the co-located vector from the previous frame (zero again if
    that frame carries no vectors).  Duplicates are allowed to remain.
    """
    ps = field.pu_size
    if frame_index < 1:
        raise MalformedStreamError(f"frame {frame_index} carries no inter PUs")
    if (
        block_x < 0
        or block_y < 0
        or block_x % ps
        or block_y % ps
        or block_x + ps > field.width
        or block_y + ps > field.height
    ):
        raise MalformedStreamError(
            f"block ({block_x}, {block_y}) outside the {field.width}x{field.height} grid"
        )
    get = field._mvs.get
    a = get((frame_index, block_x - ps, block_y), ZERO_MV) if block_x else ZERO_MV
    b = get((frame_index, block_x, block_y - ps), ZERO_MV) if block_y else ZERO_MV
    if a == b:
        b = get((frame_index - 1, block_x, block_y), ZERO_MV)
    return CandidatePair(a, b)


def _codes_shorter(x1: int, y1: int, x0: int, y0: int) -> bool:
    """Whether the pair (x1, y1) codes in fewer `se_bits` than the pair (x0, y0)."""
    bits, lim = _SE_BITS, -MVD_MIN
    return bits[x1 + lim] + bits[y1 + lim] < bits[x0 + lim] + bits[y0 + lim]


def seed_candidate(cands: CandidatePair) -> MotionVector:
    """Pick the search window centre: the candidate whose own code is shorter, ties keep mvp0."""
    c0, c1 = cands.mvp0, cands.mvp1
    return c1 if _codes_shorter(c1.x, c1.y, c0.x, c0.y) else c0


# working memory of one search call: one byte per sample of its candidate
# blocks, gathered and then overwritten with max(block, current); a whole CIF
# anti-diagonal of 18 16x16 PUs at search range 8 fits
_BATCH_BYTES = 18 * 17 * 17 * 16 * 16
# max(a, b) <= 255 for 8-bit samples, so a uint16 sum of this many cannot wrap
_CHUNK = 256
# the pel displacements a quarter-pel vector can carry
_PEL_MIN, _PEL_MAX = MV_MIN // 4, MV_MAX // 4
# bounds |4 * d - c| for such a displacement d and any candidate c
_RATE_LIMIT = -4 * _PEL_MIN - MV_MIN
_NO_KEY = np.iinfo(np.int64).max
# 0, 1, 2, ...: a window's offsets from its lo on either axis
_OFFSETS = np.arange(_PEL_MAX - _PEL_MIN + 1)
_OFFSETS.flags.writeable = False


def _key_table(magnitude_bit: int, sign_bit: int) -> np.ndarray:
    """The bits one axis adds to a search key: |d| from `magnitude_bit`, d > 0 at `sign_bit`.

    Entry d is for the pel displacement d, a negative d counted from the end; read-only.
    """
    d = np.r_[0 : _PEL_MAX + 1, _PEL_MIN:0]
    table = np.abs(d) << magnitude_bit | (d > 0).astype(np.int64) << sign_bit
    table.flags.writeable = False
    return table


# the low half of a search key: |dy| from bit 18, |dx| from bit 2, dy > 0 in bit 1, dx > 0 in bit 0
_KEY_DY, _KEY_DX = _key_table(18, 1), _key_table(2, 0)


def window_table(ref: np.ndarray, pu_size: int) -> np.ndarray:
    """Every `pu_size` x `pu_size` block of the plane `ref`, each one contiguous run of samples.

    Returns a read-only (W - ps + 1, H - ps + 1, ps * ps) view whose entry
    [x, y] is `ref[y : y + ps, x : x + ps].ravel()`.  Its buffer holds the
    column band `ref[:, x : x + ps]` for every x, so a block is one copy of
    ps * ps samples, and the table costs (W - ps + 1) * H * ps samples.
    """
    ps = pu_size
    ref = np.ascontiguousarray(ref)
    (h, w), (row, col) = ref.shape, ref.strides
    # band x is ref[:, x : x + ps]: one copy lays each band out as H * ps contiguous samples
    bands = np.ndarray((w - ps + 1, h, ps), ref.dtype, ref, strides=(col, row, col)).copy()
    # block (x, y) is rows y .. y + ps - 1 of band x: ps * ps samples from sample y * ps of the band
    table = np.ndarray((w - ps + 1, h - ps + 1, ps * ps), ref.dtype, bands, strides=(h * ps * col, ps * col, col))
    table.flags.writeable = False
    return table


def block_sums(ref: np.ndarray, pu_size: int) -> np.ndarray:
    """The sample sum of every `pu_size` x `pu_size` block of `ref`, indexed like its `window_table`.

    Returns a C-contiguous int32 (W - ps + 1, H - ps + 1) array whose entry
    [x, y] is `ref[y : y + ps, x : x + ps].sum()`.  Sums over runs of 1, 2,
    4, ... samples double along y, then along x, so `pu_size` must be a power
    of two, as every PU size is; no temporary is wider than int32.
    """
    if pu_size < 1 or pu_size & (pu_size - 1):
        raise ValueError(f"pu_size {pu_size} is not a power of two")
    sums = ref.T.astype(np.int32, order="C")
    run = 1
    while run < pu_size:
        sums = sums[:, :-run] + sums[:, run:]
        run *= 2
    run = 1
    while run < pu_size:
        sums = sums[:-run] + sums[run:]
        run *= 2
    return sums


# `se_bits(v)` at index `v + _RATE_LIMIT` for every |v| <= _RATE_LIMIT: a read-only view of core's table
_RATE_BITS = _SE_BITS_TABLE[-MVD_MIN - _RATE_LIMIT : -MVD_MIN + _RATE_LIMIT + 1]


def _rates(dxs: np.ndarray, dys: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Bits to signal every displacement of a batch against its cheaper candidate.

    `dxs` and `dys` are (n, k_x) and (n, k_y) pel displacements inside the
    vector range, `cands` is (n, 2, 2): the quarter-pel (x, y) of both
    candidates of each PU.  Returns (n, k_y, k_x).
    """
    offsets = _RATE_LIMIT - cands  # a candidate's difference 4d - c sits at 4d + offset in _RATE_BITS
    bits_x = _RATE_BITS[4 * dxs[:, None, :] + offsets[:, :, 0, None]]  # (n, 2, k_x)
    bits_y = _RATE_BITS[4 * dys[:, None, :] + offsets[:, :, 1, None]]
    bits_y += 1  # the index bit
    both = bits_y[:, :, :, None] + bits_x[:, :, None, :]
    return np.minimum(both[:, 0], both[:, 1])


def _key_vector(key: int) -> MotionVector:
    """The displacement a search key names, as a quarter-pel vector."""
    dx, dy = 4 * (key >> 2 & 0xFFF), 4 * (key >> 18 & 0xFFF)
    return MotionVector(dx if key & 1 else -dx, dy if key & 2 else -dy)


def motion_estimate(
    cur: np.ndarray,
    table: np.ndarray,
    sums: np.ndarray,
    origins: Sequence[tuple[int, int]],
    cands: Sequence[CandidatePair],
    params: RdParams,
) -> list[tuple[MotionVector, int]]:
    """Exhaustive integer-pel search for a batch of PUs, scored by SAD plus weighted rate.

    PU i has its top-left corner at `origins[i]` = (x, y) in the current plane
    `cur` and searches the reference plane, given as its `window_table`
    `table` and its `block_sums` `sums`, in a window of +-search_range pels
    around `seed_candidate(cands[i])`, clamped to the frame and to the pel
    range [MV_MIN // 4, MV_MAX // 4] a vector can carry.  The rate term
    charges each displacement the cheaper of its two differences against
    `cands[i]`.  Cost ties fall back to smaller SAD, then smaller |dy|, then
    smaller |dx|, then first position in raster scan order.  Returns one
    (vector in quarter-pel units, SAD) per PU; each PU's result is
    independent of the others in the batch.  Raises ValueError unless
    `origins` and `cands` have the same length.
    """
    if len(cands) != len(origins):
        raise ValueError(f"one candidate pair per origin: {len(origins)} origins, {len(cands)} pairs")
    # each axis searches at most 2R+1 positions, and never more than the frame
    # has or a vector can reach
    span_x, span_y = (min(2 * params.search_range + 1, k, _PEL_MAX - _PEL_MIN + 1) for k in table.shape[:2])
    row_bytes = span_x * table.shape[2]
    step = max(1, _BATCH_BYTES // (span_y * row_bytes))
    # a PU whose window alone exceeds the budget is searched a band of dy rows at a
    # time; bands run in raster order, so the earlier one keeps a full (cost, key) tie
    rows = max(1, min(span_y, _BATCH_BYTES // row_bytes))
    (row0, row1), *bands = [(r, min(r + rows, span_y)) for r in range(0, span_y, rows)]
    found: list[tuple[MotionVector, int]] = []
    for i in range(0, len(origins), step):
        batch = (cur, table, sums, origins[i : i + step], cands[i : i + step], params)
        best = _search(*batch, row0, row1)
        for band in bands:
            best = [b if b <= p else p for b, p in zip(best, _search(*batch, *band))]
        found += [(_key_vector(key), key >> 32) for _, key in best]
    return found


def _axis_window(pos: int, last: int, centre: int, reach: int) -> tuple[int, int]:
    """The displacements [lo, hi] one axis of a PU searches: `centre` +- `reach`, clamped.

    Displacement d maps the block at `pos` to the reference block at pos - d, which
    must start in [0, last], and d must lie in the pel range a vector can carry.
    """
    low = pos - last if pos - last > _PEL_MIN else _PEL_MIN
    high = pos if pos < _PEL_MAX else _PEL_MAX
    lo, hi = centre - reach, centre + reach
    return (low if lo < low else high if lo > high else lo), (low if hi < low else high if hi > high else hi)


def _search(
    cur: np.ndarray,
    table: np.ndarray,
    sums: np.ndarray,
    origins: Sequence[tuple[int, int]],
    cands: Sequence[CandidatePair],
    params: RdParams,
    row0: int,
    row1: int,
) -> list[tuple[float, int]]:
    """Each PU's best (cost, key) in rows [row0, row1) of its window, in one batch.

    The key packs (SAD, |dy|, |dx|, dy > 0, dx > 0), the SAD in its bits from
    32 up.  Among positions tied on SAD, |dy| and |dx|, a negative
    displacement comes first in a window, whose displacements ascend, so the
    least key among the cheapest positions is the first in raster order that
    `motion_estimate` documents, and it names its (dx, dy).
    """
    ps, reach = params.pu_size, params.search_range
    last_x, last_y = table.shape[0] - 1, table.shape[1] - 1  # the last block origin on each axis
    k_x, k_y = 1, 1  # the widest window of the batch: its columns, and its rows from row0
    fields: list[int] = []
    current = []
    for (x, y), p in zip(origins, cands):
        s, c0, c1 = seed_candidate(p), p.mvp0, p.mvp1
        lo_x, hi_x = _axis_window(x, last_x, s.x >> 2, reach)
        lo_y, hi_y = _axis_window(y, last_y, s.y >> 2, reach)
        lo_y += row0
        if hi_x - lo_x >= k_x:
            k_x = hi_x - lo_x + 1
        if hi_y - lo_y >= k_y:
            k_y = hi_y - lo_y + 1
        fields += (lo_x, lo_y, hi_x, hi_y, x, y, c0.x, c0.y, c1.x, c1.y)
        current.append(cur[y : y + ps, x : x + ps])
    n, k_y = len(current), min(k_y, row1 - row0)
    a = np.array(fields, dtype=np.int64).reshape(n, 10)
    lo, hi, pos = a[:, :6].reshape(n, 3, 2, 1).transpose(1, 0, 2, 3)  # each (n, axis, 1)
    # a narrower window repeats its hi up to the widest: a repeat has its original's
    # key, so it names the same displacement
    d = np.minimum(lo + _OFFSETS[: max(k_x, k_y)], hi)  # (n, axis, offset)
    pos = pos - d  # the reference block each displacement reads
    xs, ys = pos[:, 0, None, :k_x], pos[:, 1, :k_y, None]
    dxs, dys = d[:, 0, :k_x], d[:, 1, :k_y]

    blocks = table[xs, ys]  # (n, dy, dx, ps * ps)
    current = np.array(current).reshape(n, 1, 1, ps * ps)
    # |a - b| = 2 max(a, b) - a - b: the maxima stay in uint8 and sums of _CHUNK
    # of them fit uint16; the block sums come from `sums`, the current ones from here
    np.maximum(blocks, current, out=blocks)
    chunk = min(_CHUNK, ps * ps)
    sad = blocks.reshape(*blocks.shape[:3], -1, chunk).sum(axis=-1, dtype=np.uint16).sum(axis=-1, dtype=np.int64)
    sad <<= 1
    sad -= sums[xs, ys]
    sad -= np.add.reduce(current, axis=3, dtype=np.int64)

    cost = sad + params.lambda_motion * _rates(dxs, dys, a[:, 6:].reshape(n, 2, 2))
    low_cost = np.minimum.reduce(cost, axis=(1, 2), keepdims=True)
    # the SAD becomes the key in place: SAD < 2**31 for 64x64 PUs of 8-bit samples,
    # and |d| <= 2048 < 2**12 inside the vector range
    key = sad
    key <<= 32
    key |= _KEY_DY[dys][:, :, None]
    key |= _KEY_DX[dxs][:, None, :]
    key[cost != low_cost] = _NO_KEY
    return list(zip(low_cost.ravel().tolist(), np.minimum.reduce(key, axis=(1, 2)).tolist()))


def select_mvp(mv: MotionVector, cands: CandidatePair) -> tuple[int, Mvd]:
    """Signal the candidate whose difference codes in fewer bits; ties keep index 0."""
    a, b = cands.mvp0, cands.mvp1
    dx0, dy0, dx1, dy1 = mv.x - a.x, mv.y - a.y, mv.x - b.x, mv.y - b.y
    # both differences share the index bit, so the shorter pair of components wins
    if _codes_shorter(dx1, dy1, dx0, dy0):
        return 1, Mvd(dx1, dy1)
    return 0, Mvd(dx0, dy0)


def encode_sequence(frames: list[Plane], params: RdParams) -> tuple[SequenceStream, MvField]:
    """Encode an IPPP sequence; the first frame is intra and emits no records.

    Each P-frame predicts from the previous reconstructed frame via a pure
    motion-compensated copy.  Returns the stream and the reconstructed motion
    field for inspection.
    """
    if len(frames) < 2:
        raise InputError(f"need at least 2 frames, got {len(frames)}")
    w, h = frames[0].width, frames[0].height
    for i, plane in enumerate(frames):
        if (plane.width, plane.height) != (w, h):
            raise InputError(
                f"frame {i} is {plane.width}x{plane.height}, expected {w}x{h}"
            )
    ps = params.pu_size
    if w % ps or h % ps:
        raise InputError(f"{w}x{h} frames are not a multiple of pu_size {ps}")

    try:
        header = StreamHeader(w, h, ps, params.qp, GOP_IPPP, len(frames))
    except ValueError as exc:  # frames wider or taller than a stream can describe
        raise InputError(f"{w}x{h} frames do not fit a stream: {exc}") from exc
    field = MvField(w, h, ps)
    records: list[PuRecord] = []
    cols, rows = w // ps, h // ps
    # anti-diagonal k holds the PUs at grid (col, row) with col + row == k
    diagonals = [
        [(col * ps, (k - col) * ps) for col in range(max(0, k - rows + 1), min(k, cols - 1) + 1)]
        for k in range(cols + rows - 1)
    ]
    ref = frames[0].data
    for f in range(1, len(frames)):
        cur = frames[f].data
        table, sums = window_table(ref, ps), block_sums(ref, ps)
        coded: list[PuRecord | None] = [None] * (cols * rows)
        sources: list[tuple[int, int]] = [(0, 0)] * (cols * rows)  # the reference block each PU copies
        for diagonal in diagonals:
            cands = [derive_candidates(field, f, bx, by) for bx, by in diagonal]
            found = motion_estimate(cur, table, sums, diagonal, cands, params)
            for (bx, by), pair, (mv, _) in zip(diagonal, cands, found):
                idx, mvd = select_mvp(mv, pair)
                field.put(f, bx, by, mv)
                k = (by // ps) * cols + bx // ps
                coded[k] = PuRecord(f, bx, by, idx, mvd)
                sources[k] = (bx - mv.x // 4, by - mv.y // 4)
        records += coded
        # the reconstruction is each PU's reference block, gathered in raster order
        xs, ys = np.array(sources).T
        ref = table[xs, ys].reshape(rows, cols, ps, ps).swapaxes(1, 2).reshape(h, w)
        del table, sums  # one table alive per encode: drop it before the next frame builds its own
    return SequenceStream(header, records), field


def decode_walk(stream: SequenceStream) -> Iterator[tuple[PuRecord, CandidatePair, MotionVector]]:
    """Replay a stream in decode order, yielding each PU with its candidates and vector.

    Enforces exactly one record per PU of every P-frame, in raster order, and
    rejects reconstructed vectors that leave the representable range.  It
    holds the vectors of the current and previous frame only, which candidates read.
    """
    header = stream.header
    expected_n = (header.frame_count - 1) * header.pus_per_frame
    if stream.n_records != expected_n:
        raise MalformedStreamError(
            f"record count {stream.n_records} does not cover the grid (expected {expected_n})"
        )
    ps, width, height = header.pu_size, header.width, header.height
    field = MvField(width, height, ps)
    shared: dict[tuple[int, int], MotionVector] = {}  # equal vectors share one object
    f, bx, by = 1, 0, 0  # the raster position the next record must carry
    for record in stream.records:
        if record.block_x != bx or record.block_y != by or record.frame_index != f:
            got = (record.frame_index, record.block_x, record.block_y)
            raise MalformedStreamError(f"record at {got} out of raster order, expected {(f, bx, by)}")
        cands = derive_candidates(field, f, bx, by)
        mvp, mvd = cands.mvp1 if record.idx else cands.mvp0, record.mvd
        x, y = mvd.dx + mvp.x, mvd.dy + mvp.y
        mv = shared.get((x, y))
        if mv is None:
            try:
                mv = MotionVector(x, y)
            except ValueError as exc:
                raise MalformedStreamError(f"reconstructed vector out of range at {(f, bx, by)}: {exc}") from exc
            shared[x, y] = mv
        field._mvs[f, bx, by] = mv
        yield record, cands, mv
        bx += ps
        if bx == width:
            bx, by = 0, by + ps
            if by == height:
                by, f = 0, f + 1
                field._mvs = {key: v for key, v in field._mvs.items() if key[0] == f - 1}


def reconstruct_mvs(stream: SequenceStream) -> MvField:
    """Rebuild the full motion field of a stream."""
    header = stream.header
    field = MvField(header.width, header.height, header.pu_size)
    for record, _, mv in decode_walk(stream):
        field.put(record.frame_index, record.block_x, record.block_y, mv)
    return field
