"""Shared oracles and stream builders for the test suite.

The oracles here are deliberately independent of the implementation:
codeword lengths come from literally constructing the prefix code as a
string, motion search from a double loop with scalar arithmetic, and
encoding from a raster-order walk that searches one PU at a time.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from mvpo import (
    CandidatePair,
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
    derive_candidates,
    encode_sequence,
    se_bits,
    seed_candidate,
    select_mvp,
    synthesize,
)
from mvpo.core import MV_MAX, MV_MIN
from mvpo.stream import GOP_IPPP


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

    dx_lo, dx_hi = clamp(start.x // 4, block_x - (w - ps), block_x)
    dy_lo, dy_hi = clamp(start.y // 4, block_y - (h - ps), block_y)

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
    return SequenceStream(StreamHeader(w, h, ps, params.qp, GOP_IPPP, len(frames)), records)


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
    return SequenceStream(header, records)


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
    return SequenceStream(header, records)
