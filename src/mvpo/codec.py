"""Simplified AMVP inter-coding model.

One fixed-size PU grid, an IPPP structure where every P-frame predicts from
the previous reconstructed frame, integer-pel full search over SAD plus a
weighted motion rate, and a two-entry predictor candidate list rebuilt from
already-decoded vectors.

A stream holds one record per PU of every P-frame in raster order (the
stream constructor checks it), so the decoders check only the vectors they
reconstruct.  The decoder walks the records in that order, reading each PU's
position from its record, and keeps the vectors of two frames.  `decode`
computes the same vectors and candidates from a stream's record table a
level at a time: level L holds the PUs with frame + column + row == L, and a
PU's left, above and co-located neighbours all sit on level L - 1, the order
of HEVC's wavefront parallelism carried across frames.  The encoder walks
each P-frame by the same levels, those `_levels` gives one frame: its
anti-diagonals of PUs (equal bx/ps + by/ps), each in raster order, and
searches a whole diagonal in one batched `motion_estimate` call.  The order
is exact: a PU's candidates read only its left and above neighbours, both on
the previous diagonal, and the co-located vector of the previous frame, and
its search reads only the previous reconstructed frame.  So each PU sees the
candidates, window and reference it would see in raster order, and candidate
lists agree on both sides by construction.  `derive_candidates` checks no
position: every caller passes a PU on the grid, the encoder one it generates
and the walk one the stream constructor checked.  The encoder writes each
P-frame's indices and differences straight into the stream's record table,
in raster order.

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
whole CIF diagonal; a call sizes its batches from its widest window, and a PU
whose window alone exceeds the budget is searched in bands of rows.

A PU whose window holds an integer-pel candidate that predicts it exactly
takes that candidate without a search: its cost, 0 + 3 lambda, is the least
any position can have, since SAD >= 0 and a rate is at least 3 bits, one per
difference component and the index bit.  Of two exact candidates the lesser
search key wins, the order the search reduces by (|dy|, then |dx|, then
dy > 0, then dx > 0), so the vectors and bytes are those of the full search.
The test is one pass over the call's PUs in plain integers, the block sums
first and the blocks only where the sums agree; it is skipped when 3 lambda
overflows to inf, where every cost is inf and the least |d| of SAD 0 wins.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Iterator, Sequence

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
from .stream import (GOP_IPPP, RECORD_DTYPE, Plane, PuRecord, SequenceStream, StreamHeader, _read_only,
                     _records_of, raster_positions)


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
    that frame carries no vectors).  Duplicates are allowed to remain.  The
    position must be a PU of a P-frame on the field's grid, and is not
    checked: the encoder passes positions it generates, and `decode_walk`
    positions the stream constructor has checked.
    """
    ps = field.pu_size
    get = field._mvs.get
    a = get((frame_index, block_x - ps, block_y), ZERO_MV) if block_x else ZERO_MV
    b = get((frame_index, block_x, block_y - ps), ZERO_MV) if block_y else ZERO_MV
    if a is b or a == b:  # the decode walk shares one object between equal vectors
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
    independent of the others in the batch, so the call sizes its batches and
    bands of rows from the widest window it scores.  Raises ValueError unless
    `origins` and `cands` have the same length.

    Early accept: a PU whose window holds an integer-pel candidate that
    predicts it exactly takes that candidate, with SAD 0, and its window is
    not scored.  No position costs less: SAD >= 0 and a rate is at least 3
    bits, one per difference component plus the index bit, so 3 lambda is
    the least cost and only an exact candidate has it.  Of two exact
    candidates the lesser search key, the tie order above, wins.  The rule
    holds only while 3 lambda is finite; at lambda = inf, or large enough that
    3 lambda overflows, every cost is inf, the least |d| of SAD 0 wins, and
    every window is scored.
    """
    n = len(origins)
    if len(cands) != n:
        raise ValueError(f"one candidate pair per origin: {n} origins, {len(cands)} pairs")
    ps, reach = params.pu_size, params.search_range
    last_x, last_y = table.shape[0] - 1, table.shape[1] - 1  # the last block origin on each axis
    current = np.array([cur[y : y + ps, x : x + ps] for x, y in origins]).reshape(n, ps * ps)
    current_sums = np.add.reduce(current, axis=1, dtype=np.int64)
    targets = current_sums.tolist() if math.isfinite(3 * params.lambda_motion) else None
    found: list = [None] * n  # each PU's (vector, SAD), set below
    # each PU left to score: its index, and its window bounds, position and candidates
    searched: list[int] = []
    fields: list[int] = []
    k_x, k_y = 1, 1  # the widest window left to score: its columns and rows
    for i, ((x, y), p) in enumerate(zip(origins, cands)):
        s, c0, c1 = seed_candidate(p), p.mvp0, p.mvp1
        lo_x, hi_x = _axis_window(x, last_x, s.x >> 2, reach)
        lo_y, hi_y = _axis_window(y, last_y, s.y >> 2, reach)
        if targets is not None:
            exact, best = None, _NO_KEY
            for c in (c0, c1):
                dx, dy = c.x >> 2, c.y >> 2
                if (c.x | c.y) & 3 or not (lo_x <= dx <= hi_x and lo_y <= dy <= hi_y):
                    continue  # quarter-pel, or outside the window
                # the cheap test first, the reference block's sum; the lesser search key wins
                if sums.item(x - dx, y - dy) == targets[i] and table[x - dx, y - dy].tobytes() == current[i].tobytes():
                    if (key := _KEY_DY[dy] | _KEY_DX[dx]) < best:
                        exact, best = c, key
            if exact is not None:
                found[i] = (exact, 0)
                continue
        searched.append(i)
        fields += (lo_x, lo_y, hi_x, hi_y, x, y, c0.x, c0.y, c1.x, c1.y)
        if hi_x - lo_x >= k_x:
            k_x = hi_x - lo_x + 1
        if hi_y - lo_y >= k_y:
            k_y = hi_y - lo_y + 1
    m = len(searched)
    if not m:
        return found
    if m < n:
        current, current_sums = current[searched], current_sums[searched]
    windows = np.array(fields, dtype=np.int64).reshape(m, 10)

    # the budget holds `step` PUs of the widest window; a PU whose window alone exceeds it
    # is searched a band of dy rows at a time, and bands run in raster order, so the
    # earlier one keeps a full (cost, key) tie
    row_bytes = k_x * table.shape[2]
    step = max(1, _BATCH_BYTES // (k_y * row_bytes))
    rows = max(1, min(k_y, _BATCH_BYTES // row_bytes))
    (row0, row1), *bands = [(r, min(r + rows, k_y)) for r in range(0, k_y, rows)]
    for j in range(0, m, step):
        part = slice(j, j + step)
        batch = (table, sums, current[part], current_sums[part], windows[part], (k_x, k_y), params)
        best = _search(*batch, row0, row1)
        for band in bands:
            best = [b if b <= p else p for b, p in zip(best, _search(*batch, *band))]
        for i, (_, key) in zip(searched[part], best):
            found[i] = (_key_vector(key), key >> 32)
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
    table: np.ndarray,
    sums: np.ndarray,
    current: np.ndarray,
    current_sums: np.ndarray,
    windows: np.ndarray,
    span: tuple[int, int],
    params: RdParams,
    row0: int,
    row1: int,
) -> list[tuple[float, int]]:
    """Each PU's best (cost, key) in rows [row0, row1) of its window, in one batch.

    PU i has the (ps * ps,) block `current[i]` with sample sum
    `current_sums[i]`, and `windows[i]` holds its window (lo_x, lo_y, hi_x,
    hi_y), its origin (x, y) and the quarter-pel (x, y) of both candidates;
    `span` is the widest window's (columns, rows), whose rows hold [row0,
    row1).  The key packs (SAD, |dy|, |dx|, dy > 0, dx > 0), the SAD in its
    bits from 32 up.  Among positions tied on SAD, |dy| and |dx|, a negative
    displacement comes first in a window, whose displacements ascend, so the
    least key among the cheapest positions is the first in raster order that
    `motion_estimate` documents, and it names its (dx, dy).
    """
    n = len(windows)
    k_x, k_y = span[0], row1 - row0
    lo, hi, pos = windows[:, :6].reshape(n, 3, 2, 1).transpose(1, 0, 2, 3)  # each (n, axis, 1)
    if row0:
        lo = lo + [[0], [row0]]  # a later band: its rows start row0 below each window's first
    # a narrower window repeats its hi up to the widest: a repeat has its original's
    # key, so it names the same displacement
    d = np.minimum(lo + _OFFSETS[: max(k_x, k_y)], hi)  # (n, axis, offset)
    pos = pos - d  # the reference block each displacement reads
    xs, ys = pos[:, 0, None, :k_x], pos[:, 1, :k_y, None]
    dxs, dys = d[:, 0, :k_x], d[:, 1, :k_y]

    blocks = table[xs, ys]  # (n, dy, dx, ps * ps)
    current = current[:, None, None, :]
    # |a - b| = 2 max(a, b) - a - b: the maxima stay in uint8 and sums of _CHUNK
    # of them fit uint16; the block sums come from `sums`, the current ones from the caller
    np.maximum(blocks, current, out=blocks)
    chunk = min(_CHUNK, blocks.shape[3])
    sad = blocks.reshape(*blocks.shape[:3], -1, chunk).sum(axis=-1, dtype=np.uint16).sum(axis=-1, dtype=np.int64)
    sad <<= 1
    sad -= sums[xs, ys]
    sad -= current_sums[:, None, None]

    with np.errstate(over="ignore"):  # a lambda near the float limit makes costs inf, as intended
        cost = sad + params.lambda_motion * _rates(dxs, dys, windows[:, 6:].reshape(n, 2, 2))
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


def _stream_header(w: int, h: int, params: RdParams, frame_count: int) -> StreamHeader:
    """The header of `frame_count` w x h frames coded with `params`; frames no stream describes are an input error."""
    try:
        return StreamHeader(w, h, params.pu_size, params.qp, GOP_IPPP, frame_count)
    except ValueError as exc:  # frames off the PU grid, or larger than a stream can describe
        raise InputError(f"{w}x{h} frames do not fit a stream: {exc}") from exc


def encode_sequence(frames: Iterable[Plane], params: RdParams) -> tuple[SequenceStream, MvField]:
    """Encode an IPPP sequence; the first frame is intra and emits no records.

    Each P-frame predicts from the previous reconstructed frame via a pure
    motion-compensated copy.  Returns the stream and the reconstructed motion
    field for inspection.  `frames` is any iterable of planes, a YUV reader
    too, and is read once, a plane at a time: the encoder holds the current
    plane and its own reconstruction of the one before, not the sequence.
    Fewer than 2 planes, or a second plane of another size than the first,
    is an `InputError` before any search; then the geometry is checked
    against what a stream can describe, and each later plane's size as it
    arrives, once the planes before it are coded.
    """
    planes = iter(frames)
    ref, plane = next(planes, None), next(planes, None)
    if plane is None:
        raise InputError(f"need at least 2 frames, got {0 if ref is None else 1}")
    w, h, ps = ref.width, ref.height, params.pu_size

    def samples(f: int, plane: Plane) -> np.ndarray:
        """Frame f's samples; it must have the first frame's size."""
        if (plane.width, plane.height) != (w, h):
            raise InputError(f"frame {f} is {plane.width}x{plane.height}, expected {w}x{h}")
        return plane.data

    ref, cur = ref.data, samples(1, plane)  # the samples alone: frame 0's go once frame 1 is coded
    _stream_header(w, h, params, 2)  # the geometry, once two planes agree on it
    field = MvField(w, h, ps)
    cols, rows = w // ps, h // ps
    n_pus = cols * rows
    coded: list[np.ndarray] = []  # each P-frame's records in raster order, positions left for the end
    # a frame's anti-diagonals are its decode levels: each one's raster indices, and their block origins
    order, _, bounds = _levels(1, rows, cols)
    levels = (order[start:end].tolist() for start, end in zip(bounds, bounds[1:]))
    diagonals = [(ks, [(k % cols * ps, k // cols * ps) for k in ks]) for ks in levels]
    f = 1
    while cur is not None:
        table, sums = window_table(ref, ps), block_sums(ref, ps)
        idxs, dxs, dys = [0] * n_pus, [0] * n_pus, [0] * n_pus
        sources: list[tuple[int, int]] = [(0, 0)] * n_pus  # the reference block each PU copies
        for ks, origins in diagonals:
            cands = [derive_candidates(field, f, bx, by) for bx, by in origins]
            found = motion_estimate(cur, table, sums, origins, cands, params)
            for k, (bx, by), pair, (mv, _) in zip(ks, origins, cands, found):
                idx, mvd = select_mvp(mv, pair)
                field.put(f, bx, by, mv)
                idxs[k], dxs[k], dys[k] = idx, mvd.dx, mvd.dy
                sources[k] = (bx - mv.x // 4, by - mv.y // 4)
        records = np.zeros(n_pus, RECORD_DTYPE)
        records["idx"], records["dx"], records["dy"] = idxs, dxs, dys
        coded.append(records)
        # the reconstruction is each PU's reference block, gathered in raster order
        xs, ys = np.array(sources).T
        ref = table[xs, ys].reshape(rows, cols, ps, ps).swapaxes(1, 2).reshape(h, w)
        del table, sums  # one table alive per encode: drop it before the next frame builds its own
        f += 1
        plane = next(planes, None)
        cur = None if plane is None else samples(f, plane)
    header = _stream_header(w, h, params, f)
    records = np.concatenate(coded)
    records["frame"], records["bx"], records["by"] = raster_positions(header)
    return SequenceStream(header, records), field


def decode_walk(stream: SequenceStream) -> Iterator[tuple[PuRecord, CandidatePair, MotionVector]]:
    """Replay a stream in decode order, yielding each PU with its candidates and vector.

    The stream holds one record per PU of every P-frame, in raster order; the
    walk rejects reconstructed vectors that leave the representable range.  It
    builds the records of one frame of table rows at a time, sharing one `Mvd`
    per distinct difference and one `MotionVector` per distinct vector of the
    whole table, and holds the vectors of the current and previous frame only,
    which candidates read.
    """
    header = stream.header
    field = MvField(header.width, header.height, header.pu_size)
    vectors = functools.cache(MotionVector)
    current = 1  # the frame whose vectors the field gathers
    for record in _records_of(stream.table, header.pus_per_frame):
        f, bx, by = record.frame_index, record.block_x, record.block_y
        if f != current:  # a new frame: its candidates read only the frame before it
            field._mvs = {key: v for key, v in field._mvs.items() if key[0] == current}
            current = f
        cands = derive_candidates(field, f, bx, by)
        mvp, mvd = cands.mvp1 if record.idx else cands.mvp0, record.mvd
        try:  # the cache keeps no exception, so an out-of-range vector raises every time
            mv = vectors(mvd.dx + mvp.x, mvd.dy + mvp.y)
        except ValueError as exc:
            raise MalformedStreamError(f"reconstructed vector out of range at {(f, bx, by)}: {exc}") from exc
        field._mvs[f, bx, by] = mv
        yield record, cands, mv


@functools.lru_cache(maxsize=4)
def _levels(frames: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The decode levels of `frames` P-frames of rows x cols PUs.

    Raster index k = (f * rows + r) * cols + c, with f counted from the first
    P-frame, sits on level f + r + c.  Returns `order`, the raster indices
    level by level and in raster order within a level; `neighbours`, the
    (3, n) positions in `order` of each one's left, above and co-located PU,
    n where it has none; and `bounds`, where each level starts in `order`,
    then n.  Read-only.
    """
    n = frames * rows * cols
    k = np.arange(n)
    col, row, frame = k % cols, k // cols % rows, k // (rows * cols)
    level = frame + row + col
    order = np.argsort(level, kind="stable")
    at = np.empty(n + 1, np.int64)  # at[k]: raster index k's position in `order`; at[n] is n, no neighbour
    at[order], at[n] = k, n
    none = np.full(n, n)
    shifts = ((col > 0, 1), (row > 0, cols), (frame > 0, rows * cols))
    neighbours = np.stack([at[np.where(has, k - d, none)] for has, d in shifts])[:, order]
    # levels 0 .. frames + rows + cols - 3, none without a P-frame: each one's start, then n
    bounds = np.searchsorted(level[order], np.arange(frames and frames + rows + cols - 2))
    for array in (order, neighbours):
        array.flags.writeable = False
    return order, neighbours, (*bounds.tolist(), n)


# a vector (x, y) packed as one int64 x * 2**32 + y: sums and equality of packed
# vectors are those of the pairs while |y| < 2**31
def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x << 32) + y


def _unpack(packed: np.ndarray) -> np.ndarray:
    """(..., 2) int64 vectors from packed ones."""
    y = (packed + 2**31 & 0xFFFFFFFF) - 2**31
    return np.stack(((packed - y) >> 32, y), axis=-1)


def decode(stream: SequenceStream) -> tuple[np.ndarray, np.ndarray]:
    """Every PU's vector and candidates, computed from the record table a level at a time.

    Returns raster-order int64 arrays `mv` (n, 2) and `cands` (n, 2, 2),
    equal to the vectors and candidate pairs `decode_walk` yields, and raises
    the `MalformedStreamError` it raises for the first vector out of range.
    The first decode of a stream is kept on it, read-only, and returned by
    every later call: a stream is decoded at most once per process.
    """
    if stream._decoded is not None:
        return stream._decoded
    header, table, n = stream.header, stream.table, stream.n_records
    rows, cols = header.height // header.pu_size, header.width // header.pu_size
    order, (left, above, colocated), bounds = _levels(header.frame_count - 1, rows, cols)
    # int64 before any arithmetic: the int16 columns would wrap
    mvd = _pack(table["dx"].astype(np.int64), table["dy"].astype(np.int64))[order]
    signals_b = table["idx"][order].astype(bool)
    packed = np.zeros(n + 1, np.int64)  # each PU's vector, in level order; entry n the zero of no neighbour
    cand_a, cand_b = np.empty(n, np.int64), np.empty(n, np.int64)
    for start, end in zip(bounds, bounds[1:]):
        a, b = packed[left[start:end]], packed[above[start:end]]
        b = np.where(a == b, packed[colocated[start:end]], b)
        cand_a[start:end], cand_b[start:end] = a, b
        packed[start:end] = np.where(signals_b[start:end], b, a) + mvd[start:end]
    mv, cands = np.empty((n, 2), np.int64), np.empty((n, 2, 2), np.int64)
    mv[order] = _unpack(packed[:n])
    cands[order] = _unpack(np.stack((cand_a, cand_b), axis=1))

    # the walk stops at its first vector out of range
    bad = ((mv < MV_MIN) | (mv > MV_MAX)).any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        try:
            MotionVector(*mv[k].tolist())
        except ValueError as exc:  # the walk's message, naming x before y
            at = tuple(table[["frame", "bx", "by"]][k].tolist())
            raise MalformedStreamError(f"reconstructed vector out of range at {at}: {exc}") from exc
    stream._decoded = _read_only(mv, cands)
    return stream._decoded


def reconstruct_mvs(stream: SequenceStream) -> MvField:
    """Rebuild the full motion field of a stream from its `decode`, raising the walk's error."""
    header, table = stream.header, stream.table
    field = MvField(header.width, header.height, header.pu_size)
    mv, _ = decode(stream)
    positions = zip(*(table[name].tolist() for name in ("frame", "bx", "by")))
    field._mvs = dict(zip(positions, map(MotionVector, mv[:, 0].tolist(), mv[:, 1].tolist())))
    return field
