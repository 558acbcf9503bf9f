"""Simplified AMVP inter-coding model.

One fixed-size PU grid, an IPPP structure where every P-frame predicts from
the previous reconstructed frame, integer-pel full search over SAD plus a
weighted motion rate, and a two-entry predictor candidate list rebuilt from
already-decoded vectors.  Encoder and decoder walk PUs in the same raster
order, so candidate lists agree on both sides by construction.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    CandidatePair,
    MotionVector,
    Mvd,
    RdParams,
    ZERO_MV,
    rate_of,
    se_bits,
)
from .errors import InputError, MalformedStreamError
from .stream import GOP_IPPP, Plane, PuRecord, SequenceStream, StreamHeader


class MvField:
    """Reconstructed motion vectors on the PU grid, keyed by frame and block origin."""

    def __init__(self, width: int, height: int, pu_size: int):
        if width <= 0 or height <= 0 or width % pu_size or height % pu_size:
            raise ValueError(f"{width}x{height} is not a multiple of pu_size {pu_size}")
        self.width = width
        self.height = height
        self.pu_size = pu_size
        self._mvs: dict[tuple[int, int, int], MotionVector] = {}

    def get(self, frame_index: int, block_x: int, block_y: int) -> MotionVector | None:
        return self._mvs.get((frame_index, block_x, block_y))

    def put(self, frame_index: int, block_x: int, block_y: int, mv: MotionVector) -> None:
        self._mvs[(frame_index, block_x, block_y)] = mv

    def as_dict(self) -> dict[tuple[int, int, int], MotionVector]:
        return dict(self._mvs)

    def __len__(self) -> int:
        return len(self._mvs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MvField)
            and (self.width, self.height, self.pu_size) == (other.width, other.height, other.pu_size)
            and self._mvs == other._mvs
        )

    def __repr__(self) -> str:
        return f"MvField({self.width}x{self.height}/{self.pu_size}, {len(self._mvs)} mvs)"


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
    left = field.get(frame_index, block_x - ps, block_y) if block_x else None
    above = field.get(frame_index, block_x, block_y - ps) if block_y else None
    a = left if left is not None else ZERO_MV
    b = above if above is not None else ZERO_MV
    if a == b:
        colocated = field.get(frame_index - 1, block_x, block_y)
        b = colocated if colocated is not None else ZERO_MV
    return CandidatePair(a, b)


def seed_candidate(cands: CandidatePair) -> MotionVector:
    """Pick the search window centre: the candidate cheaper to code, ties keep the first."""
    # the code length of -v equals that of v, so this rates each candidate itself
    r0, r1 = map(rate_of, cands.mvds(ZERO_MV))
    return cands.mvp1 if r1 < r0 else cands.mvp0


def _clamp_window(center: int, reach: int, lo: int, hi: int) -> tuple[int, int]:
    # lo <= hi always holds for a block inside the frame, so the window is never empty
    a = min(max(center - reach, lo), hi)
    b = min(max(center + reach, lo), hi)
    return a, b


def _se_bits_grid(values: np.ndarray) -> np.ndarray:
    return np.array([se_bits(v) for v in values.tolist()], dtype=np.int64)


def _rate_grid(dxs: np.ndarray, dys: np.ndarray, cand: MotionVector) -> np.ndarray:
    col = _se_bits_grid(4 * dys - cand.y)
    row = _se_bits_grid(4 * dxs - cand.x)
    return col[:, None] + row[None, :] + 1


def motion_estimate(
    cur_block: np.ndarray,
    ref: np.ndarray,
    block_x: int,
    block_y: int,
    start: MotionVector,
    cands: CandidatePair,
    params: RdParams,
) -> tuple[MotionVector, int]:
    """Exhaustive integer-pel search around `start`, scored by SAD plus weighted rate.

    The rate term charges each displacement the cheaper of the two candidate
    differences.  Cost ties fall back to smaller SAD, then smaller |dy|, then
    smaller |dx|, then first position in raster scan order.  Returns the
    winning vector in quarter-pel units together with its SAD.
    """
    h, w = ref.shape
    ps = params.pu_size
    # displacement d maps the current block to the reference block at (pos - d)
    dx_lo, dx_hi = _clamp_window(start.x // 4, params.search_range, block_x - (w - ps), block_x)
    dy_lo, dy_hi = _clamp_window(start.y // 4, params.search_range, block_y - (h - ps), block_y)
    dxs = np.arange(dx_lo, dx_hi + 1)
    dys = np.arange(dy_lo, dy_hi + 1)

    region = ref[block_y - dy_hi : block_y - dy_lo + ps, block_x - dx_hi : block_x - dx_lo + ps]
    windows = sliding_window_view(region, (ps, ps))
    sad = np.abs(windows.astype(np.int32) - cur_block.astype(np.int32)).sum(axis=(2, 3))
    sad = sad[::-1, ::-1]  # reindex to ascending dy, dx

    rate = np.minimum(_rate_grid(dxs, dys, cands.mvp0), _rate_grid(dxs, dys, cands.mvp1))
    cost = sad + params.lambda_motion * rate

    keep = cost == cost.min()
    best_sad = sad[keep].min()
    keep &= sad == best_sad
    ady = np.broadcast_to(np.abs(dys)[:, None], keep.shape)
    keep = keep & (ady == ady[keep].min())
    adx = np.broadcast_to(np.abs(dxs)[None, :], keep.shape)
    keep = keep & (adx == adx[keep].min())
    a, b = np.unravel_index(np.flatnonzero(keep.ravel())[0], keep.shape)

    mv = MotionVector(int(dxs[b]) * 4, int(dys[a]) * 4)
    return mv, int(sad[a, b])


def select_mvp(mv: MotionVector, cands: CandidatePair) -> tuple[int, Mvd]:
    """Signal the candidate whose difference codes in fewer bits; ties keep index 0."""
    mvds = cands.mvds(mv)
    rate0, rate1 = map(rate_of, mvds)
    idx = 1 if rate1 < rate0 else 0
    return idx, mvds[idx]


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

    header = StreamHeader(w, h, ps, params.qp, GOP_IPPP, len(frames))
    field = MvField(w, h, ps)
    records: list[PuRecord] = []
    ref = frames[0].data
    for f in range(1, len(frames)):
        cur = frames[f].data
        recon = np.empty_like(ref)
        for by in range(0, h, ps):
            for bx in range(0, w, ps):
                cands = derive_candidates(field, f, bx, by)
                start = seed_candidate(cands)
                mv, _ = motion_estimate(cur[by : by + ps, bx : bx + ps], ref, bx, by, start, cands, params)
                idx, mvd = select_mvp(mv, cands)
                field.put(f, bx, by, mv)
                records.append(PuRecord(f, bx, by, idx, mvd))
                ry, rx = by - mv.y // 4, bx - mv.x // 4
                recon[by : by + ps, bx : bx + ps] = ref[ry : ry + ps, rx : rx + ps]
        ref = recon
    return SequenceStream(header, records), field


def _raster_positions(header: StreamHeader) -> Iterator[tuple[int, int, int]]:
    for f in range(1, header.frame_count):
        for by in range(0, header.height, header.pu_size):
            for bx in range(0, header.width, header.pu_size):
                yield f, bx, by


def decode_walk(stream: SequenceStream) -> Iterator[tuple[PuRecord, CandidatePair, MotionVector]]:
    """Replay a stream in decode order, yielding each PU with its candidates and vector.

    Enforces exactly one record per PU of every P-frame, in raster order, and
    rejects reconstructed vectors that leave the representable range.
    """
    header = stream.header
    expected_n = (header.frame_count - 1) * header.pus_per_frame
    if stream.n_records != expected_n:
        raise MalformedStreamError(
            f"record count {stream.n_records} does not cover the grid (expected {expected_n})"
        )
    field = MvField(header.width, header.height, header.pu_size)
    for record, (f, bx, by) in zip(stream.records, _raster_positions(header)):
        got = (record.frame_index, record.block_x, record.block_y)
        if got != (f, bx, by):
            raise MalformedStreamError(f"record at {got} out of raster order, expected {(f, bx, by)}")
        cands = derive_candidates(field, f, bx, by)
        mvp = cands[record.idx]
        try:
            mv = MotionVector(record.mvd.dx + mvp.x, record.mvd.dy + mvp.y)
        except ValueError as exc:
            raise MalformedStreamError(f"reconstructed vector out of range at {got}: {exc}") from exc
        field.put(f, bx, by, mv)
        yield record, cands, mv


def reconstruct_mvs(stream: SequenceStream) -> MvField:
    """Rebuild the full motion field of a stream."""
    header = stream.header
    field = MvField(header.width, header.height, header.pu_size)
    for record, _, mv in decode_walk(stream):
        field.put(record.frame_index, record.block_x, record.block_y, mv)
    return field
