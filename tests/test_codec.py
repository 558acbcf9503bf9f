"""Codec model against a brute-force search oracle, plus walk validation."""

import dataclasses
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvpo import (
    CandidatePair,
    MalformedStreamError,
    MotionVector,
    Mvd,
    MvField,
    PuRecord,
    RdParams,
    SequenceStream,
    SynthPattern,
    SynthSpec,
    Verdict,
    ZERO_MV,
    block_sums,
    decode_walk,
    derive_candidates,
    encode_sequence,
    motion_estimate,
    optimal_rate,
    rate_of,
    reconstruct_mvs,
    seed_candidate,
    select_mvp,
    synthesize,
    window_table,
    write_stream,
    read_stream,
)
from mvpo import codec
from mvpo.codec import _BATCH_BYTES, _rates
from mvpo.core import MV_MAX, MV_MIN
from mvpo.errors import InputError
from mvpo.stream import Plane, StreamHeader

from mvpo_testutil import encode_oracle, encode_synth, me_oracle, se_codeword


# ---------------------------------------------------------------- candidates

def test_derive_candidates_no_neighbours_is_zero_pair():
    field = MvField(64, 64, 16)
    cands = derive_candidates(field, 1, 0, 0)
    assert cands == CandidatePair(ZERO_MV, ZERO_MV)


def test_derive_candidates_left_and_above():
    field = MvField(64, 64, 16)
    field.put(1, 0, 16, MotionVector(4, 0))   # left of (16, 16)
    field.put(1, 16, 0, MotionVector(0, 4))   # above (16, 16)
    cands = derive_candidates(field, 1, 16, 16)
    assert cands == CandidatePair(MotionVector(4, 0), MotionVector(0, 4))


def test_derive_candidates_duplicate_falls_back_to_colocated():
    field = MvField(64, 64, 16)
    field.put(1, 16, 16, MotionVector(8, 8))  # co-located PU in frame 1
    field.put(2, 0, 16, MotionVector(4, 0))
    field.put(2, 16, 0, MotionVector(4, 0))
    cands = derive_candidates(field, 2, 16, 16)
    assert cands == CandidatePair(MotionVector(4, 0), MotionVector(8, 8))


def test_derive_candidates_duplicate_without_colocated_keeps_zero():
    field = MvField(64, 64, 16)
    field.put(1, 0, 16, MotionVector(4, 0))
    field.put(1, 16, 0, MotionVector(4, 0))
    cands = derive_candidates(field, 1, 16, 16)
    assert cands == CandidatePair(MotionVector(4, 0), ZERO_MV)


def test_derive_candidates_missing_neighbours_use_zero_then_colocated():
    field = MvField(64, 64, 16)
    field.put(1, 16, 16, MotionVector(-4, 12))
    # (16, 16) in frame 2 with no coded neighbours: A == B == 0, B -> co-located
    cands = derive_candidates(field, 2, 16, 16)
    assert cands == CandidatePair(ZERO_MV, MotionVector(-4, 12))


def test_derive_candidates_rejects_bad_positions():
    field = MvField(64, 64, 16)
    with pytest.raises(MalformedStreamError):
        derive_candidates(field, 0, 0, 0)
    with pytest.raises(MalformedStreamError):
        derive_candidates(field, 1, 8, 0)     # off the PU grid
    with pytest.raises(MalformedStreamError):
        derive_candidates(field, 1, 64, 0)    # outside the frame


def test_seed_candidate_prefers_cheaper_code():
    cheap = MotionVector(0, 0)
    costly = MotionVector(64, 64)
    assert seed_candidate(CandidatePair(costly, cheap)) == cheap
    assert seed_candidate(CandidatePair(cheap, costly)) == cheap
    # exact tie keeps the first entry
    a, b = MotionVector(4, 0), MotionVector(0, -4)
    assert seed_candidate(CandidatePair(a, b)) == a


# ---------------------------------------------------------------- selection

def test_select_mvp_picks_cheaper_candidate():
    cands = CandidatePair(MotionVector(3, 9), MotionVector(3, 8))
    idx, mvd = select_mvp(MotionVector(3, 9), cands)
    assert (idx, mvd) == (0, Mvd(0, 0))
    idx, mvd = select_mvp(MotionVector(3, 8), cands)
    assert (idx, mvd) == (1, Mvd(0, 0))


def test_select_mvp_tie_keeps_index_zero():
    cands = CandidatePair(MotionVector(4, 0), MotionVector(-4, 0))
    idx, mvd = select_mvp(ZERO_MV, cands)
    assert idx == 0
    assert mvd == Mvd(-4, 0)
    assert rate_of(Mvd(-4, 0)) == rate_of(Mvd(4, 0))


def test_select_mvp_result_is_never_beaten():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mv = MotionVector(int(rng.integers(-64, 65)), int(rng.integers(-64, 65)))
        cands = CandidatePair(
            MotionVector(int(rng.integers(-64, 65)), int(rng.integers(-64, 65))),
            MotionVector(int(rng.integers(-64, 65)), int(rng.integers(-64, 65))),
        )
        idx, mvd = select_mvp(mv, cands)
        chosen = cands[idx]
        assert mvd == Mvd(mv.x - chosen.x, mv.y - chosen.y)
        other = cands[1 - idx]
        assert rate_of(mvd) <= rate_of(Mvd(mv.x - other.x, mv.y - other.y))


# ---------------------------------------------------------------- search oracle

def _estimate(cur, ref, origins, cands, params):
    """`motion_estimate` over the reference tables the encoder builds for each P-frame."""
    ps = params.pu_size
    return motion_estimate(cur, window_table(ref, ps), block_sums(ref, ps), origins, cands, params)


def _search_one(cur, ref, bx, by, cands, params):
    """A one-PU batch, the same call the encoder makes for a whole anti-diagonal."""
    (found,) = _estimate(cur, ref, [(bx, by)], [cands], params)
    return found


def _oracle(cur, ref, bx, by, cands, params):
    """The brute-force search around the window centre the encoder seeds: `seed_candidate`."""
    ps = params.pu_size
    return me_oracle(cur[by : by + ps, bx : bx + ps], ref, bx, by, seed_candidate(cands), cands, params)


def _assert_batch_matches_oracle(cur, ref, origins, cands, params):
    found = _estimate(cur, ref, origins, cands, params)
    assert len(found) == len(origins)
    for (bx, by), pair, got in zip(origins, cands, found):
        assert got == _oracle(cur, ref, bx, by, pair, params), (bx, by, pair)


def _centred(start):
    """A pair whose window centre is `start`: its mirror codes in as many bits, and a tie keeps the first."""
    return CandidatePair(start, MotionVector(-start.x, -start.y))


def _place(block, shape, bx, by):
    """A current plane holding `block` at (bx, by); searches read nothing else of it."""
    cur = np.zeros(shape, dtype=np.uint8)
    cur[by : by + block.shape[0], bx : bx + block.shape[1]] = block
    return cur


def _random_case(rng, ps, frame, reach):
    h = w = frame
    ref = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    cur = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    bx = int(rng.integers(0, w // ps)) * ps
    by = int(rng.integers(0, h // ps)) * ps
    cands = CandidatePair(
        MotionVector(int(rng.integers(-24, 25)) * 4, int(rng.integers(-24, 25)) * 4),
        MotionVector(int(rng.integers(-40, 41)), int(rng.integers(-40, 41))),
    )
    params = RdParams(qp=int(rng.integers(10, 40)), search_range=reach, pu_size=ps)
    return cur, ref, bx, by, cands, params


@pytest.mark.parametrize("seed", range(40))
def test_motion_estimate_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    case = _random_case(rng, ps=8, frame=24, reach=3)
    assert _search_one(*case) == _oracle(*case)


@pytest.mark.parametrize("seed", range(10))
def test_motion_estimate_matches_oracle_larger_blocks(seed):
    rng = np.random.default_rng(1000 + seed)
    case = _random_case(rng, ps=16, frame=48, reach=4)
    assert _search_one(*case) == _oracle(*case)


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("seed", range(10))
def test_motion_estimate_matches_oracle_on_flat_planes(seed, scale):
    # zero SAD everywhere: every tie-break level is exercised; integer-pel candidates
    # (scale 4) make exact rate ties between positions that differ only in |dx|
    rng = np.random.default_rng(2000 + seed)
    ref = np.zeros((24, 24), dtype=np.uint8)
    cur = np.zeros((24, 24), dtype=np.uint8)
    bx = int(rng.integers(0, 3)) * 8
    by = int(rng.integers(0, 3)) * 8
    cands = CandidatePair(
        MotionVector(int(rng.integers(-12, 13)) * scale, int(rng.integers(-12, 13)) * scale),
        MotionVector(int(rng.integers(-8, 9)) * scale, int(rng.integers(-8, 9)) * scale),
    )
    params = RdParams(qp=25, search_range=3, pu_size=8)
    case = (cur, ref, bx, by, cands, params)
    assert _search_one(*case) == _oracle(*case)


@pytest.mark.parametrize("rows_per_band", [None, 1])
def test_motion_estimate_orders_a_tie_by_abs_dx_before_the_sign_of_dy(monkeypatch, rows_per_band):
    # on a flat plane (3, -1) and (1, 1) each code in 3 bits against one candidate:
    # |dy| ties, so the smaller |dx| wins although dy = -1 comes first in raster order,
    # in one window and across bands of one row each
    params = RdParams(qp=25, search_range=3, pu_size=8)
    if rows_per_band:
        monkeypatch.setattr(codec, "_BATCH_BYTES", rows_per_band * 7 * 8 * 8)
    flat = np.zeros((32, 32), dtype=np.uint8)
    case = (flat, flat, 8, 8, CandidatePair(MotionVector(12, -4), MotionVector(4, 4)), params)
    assert _search_one(*case) == _oracle(*case) == (MotionVector(4, 4), 0)


@pytest.mark.parametrize("seed", range(10))
def test_motion_estimate_matches_oracle_low_contrast(seed):
    # a two-level texture produces frequent SAD ties deeper in the cascade
    rng = np.random.default_rng(3000 + seed)
    ref = (rng.integers(0, 2, size=(24, 24)) * 255).astype(np.uint8)
    cur = _place((rng.integers(0, 2, size=(8, 8)) * 255).astype(np.uint8), ref.shape, 8, 8)
    params = RdParams(qp=30, search_range=3, pu_size=8)
    case = (cur, ref, 8, 8, CandidatePair(ZERO_MV, ZERO_MV), params)
    assert _search_one(*case) == _oracle(*case)


def test_rate_grid_matches_scalar_loop():
    dxs, dys = np.arange(-8, 9), np.arange(-20, -3)
    grids = {}
    for cand in (ZERO_MV, MotionVector(-37, 90), MotionVector(MV_MAX, MV_MIN)):
        expected = [
            [len(se_codeword(4 * dx - cand.x)) + len(se_codeword(4 * dy - cand.y)) + 1 for dx in dxs.tolist()]
            for dy in dys.tolist()
        ]
        # a pair of equal candidates prices each displacement against that candidate
        pair = np.array([[[cand.x, cand.y]] * 2])
        assert _rates(dxs[None], dys[None], pair)[0].tolist() == expected
        grids[cand] = np.array(expected)
    # a batch of mixed pairs prices each PU against its own cheaper candidate
    pairs = [(ZERO_MV, MotionVector(-37, 90)), (MotionVector(MV_MAX, MV_MIN), ZERO_MV)]
    batch = np.array([[[a.x, a.y], [b.x, b.y]] for a, b in pairs])
    got = _rates(np.stack([dxs, dxs]), np.stack([dys, dys]), batch)
    for rates, (a, b) in zip(got, pairs):
        assert rates.tolist() == np.minimum(grids[a], grids[b]).tolist()


def test_motion_estimate_window_clamps_at_corners():
    rng = np.random.default_rng(4)
    ref = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
    cur = ref
    params = RdParams(qp=25, search_range=3, pu_size=8)
    # start far outside the valid displacement range still searches a window
    for start in (MotionVector(400, 400), MotionVector(-400, -400)):
        case = (cur, ref, 0, 0, _centred(start), params)
        mv, sad = _search_one(*case)
        assert (mv, sad) == _oracle(*case)
        assert -((24 - 8)) * 4 <= mv.x <= 0 and -((24 - 8)) * 4 <= mv.y <= 0


@pytest.mark.parametrize("n_cands", [0, 1, 3])
def test_motion_estimate_needs_one_candidate_pair_per_origin(monkeypatch, n_cands):
    # a missing or an extra pair is an error before any search
    def _no_search(*args):
        raise AssertionError("searched before the lengths were checked")

    monkeypatch.setattr(codec, "_search", _no_search)
    ref = np.zeros((32, 32), dtype=np.uint8)
    origins, pairs = [(0, 0), (16, 0)], [CandidatePair(ZERO_MV, ZERO_MV)] * n_cands
    with pytest.raises(ValueError, match=f"2 origins, {n_cands} pairs"):
        _estimate(ref, ref, origins, pairs, RdParams(pu_size=16))


def test_motion_estimate_finds_exact_shift():
    rng = np.random.default_rng(11)
    ref = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    # current block content sits one pel right and two down in the frame
    cur = _place(ref[8 - 2 : 16 - 2, 8 - 1 : 16 - 1], ref.shape, 8, 8)
    params = RdParams(qp=25, search_range=4, pu_size=8)
    mv, sad = _search_one(cur, ref, 8, 8, CandidatePair(ZERO_MV, ZERO_MV), params)
    assert sad == 0
    assert mv == MotionVector(4, 8)


# ---------------------------------------------------------------- window table

@settings(max_examples=40)
@given(
    ps=st.sampled_from((8, 16, 32, 64)),
    extra_w=st.integers(0, 20),
    extra_h=st.integers(0, 20),
    seed=st.integers(0, 2**16),
)
@example(ps=8, extra_w=0, extra_h=13, seed=1)   # width == ps: one column of windows
@example(ps=64, extra_w=7, extra_h=0, seed=2)   # height == ps: one row of windows
@example(ps=32, extra_w=0, extra_h=0, seed=3)   # a single window
def test_window_table_holds_every_block_as_one_contiguous_run(ps, extra_w, extra_h, seed):
    w, h = ps + extra_w, ps + extra_h
    ref = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
    table = window_table(ref, ps)
    assert table.shape == (w - ps + 1, h - ps + 1, ps * ps)
    assert table.dtype == np.uint8 and table.strides[-1] == 1 and not table.flags.writeable
    for x in range(w - ps + 1):
        for y in range(h - ps + 1):
            assert np.array_equal(table[x, y], ref[y : y + ps, x : x + ps].ravel()), (x, y)


@settings(max_examples=40)
@given(
    ps=st.sampled_from((8, 16, 32, 64)),
    extra_w=st.integers(0, 20),
    extra_h=st.integers(0, 20),
    seed=st.integers(0, 2**16),
)
@example(ps=8, extra_w=0, extra_h=13, seed=1)   # width == ps: one column of windows
@example(ps=64, extra_w=7, extra_h=0, seed=2)   # height == ps: one row of windows
@example(ps=32, extra_w=0, extra_h=0, seed=3)   # a single window
def test_block_sums_hold_the_sum_of_every_window_table_entry(ps, extra_w, extra_h, seed):
    w, h = ps + extra_w, ps + extra_h
    ref = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
    table, sums = window_table(ref, ps), block_sums(ref, ps)
    assert sums.shape == table.shape[:2]
    assert sums.dtype == np.int32 and sums.flags.c_contiguous
    for x in range(w - ps + 1):
        for y in range(h - ps + 1):
            assert sums[x, y] == int(table[x, y].sum(dtype=np.int64)), (x, y)


def _owner(view):
    """The array that owns the memory `view` looks at."""
    while isinstance(view.base, np.ndarray):
        view = view.base
    return view


@settings(max_examples=30)
@given(
    ps=st.sampled_from((8, 16, 32)),
    extra_w=st.integers(0, 12),
    extra_h=st.integers(0, 12),
    layout=st.sampled_from(("every other sample", "transposed", "frombuffer")),
    seed=st.integers(0, 2**16),
)
def test_window_table_and_block_sums_read_strided_and_read_only_planes(ps, extra_w, extra_h, layout, seed):
    # a plane need not be C-contiguous or writable: a slice of a larger plane, a
    # transposed view and a plane over an immutable buffer give the tables of their copy
    w, h = ps + extra_w, ps + extra_h
    big = np.random.default_rng(seed).integers(0, 256, size=(2 * max(w, h), 2 * max(w, h)), dtype=np.uint8)
    if layout == "every other sample":
        ref = big[: 2 * h : 2, : 2 * w : 2]
    elif layout == "transposed":
        ref = big[:w, :h].T
    else:
        ref = np.frombuffer(big[:h, :w].tobytes(), dtype=np.uint8).reshape(h, w)
    assert not ref.flags.c_contiguous or not ref.flags.writeable
    copy = np.array(ref)
    table = window_table(ref, ps)
    assert np.array_equal(table, window_table(copy, ps))
    assert np.array_equal(block_sums(ref, ps), block_sums(copy, ps))
    assert not table.flags.writeable
    # the buffer holds the column band of every x: (W - ps + 1) * H * ps samples
    assert _owner(table).nbytes == (w - ps + 1) * h * ps


def test_block_sums_need_a_power_of_two_pu_size():
    # sums double from runs of 1 sample, so only widths 2**k are reachable
    with pytest.raises(ValueError, match="12 is not a power of two"):
        block_sums(np.zeros((24, 24), dtype=np.uint8), 12)


# ---------------------------------------------------------------- batched search

def test_batch_clamped_at_all_four_borders_matches_oracle():
    # 40x32, PU 8, range 4: every PU's window is cut by a different border,
    # so the windows in one batch have different sizes
    rng = np.random.default_rng(21)
    ref = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    cur = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    params = RdParams(qp=22, search_range=4, pu_size=8)
    origins = [(0, 0), (32, 0), (0, 24), (32, 24), (16, 0), (0, 8), (32, 16), (24, 24), (16, 16)]
    centres = [
        MotionVector(-20, -20),   # towards the top-left corner
        MotionVector(40, -8),     # right edge, window cut on the right and top
        MotionVector(-4, 48),     # bottom-left
        MotionVector(64, 64),     # past the bottom-right corner
        MotionVector(0, -30),     # top edge only
        MotionVector(-33, 0),     # left edge only
        MotionVector(17, 3),      # right edge only
        MotionVector(2, 21),      # bottom edge only
        MotionVector(-3, 5),      # interior, full window
    ]
    _assert_batch_matches_oracle(cur, ref, origins, [_centred(c) for c in centres], params)
    # the same windows, now priced against a second candidate drawn at random
    cands = [
        CandidatePair(c, MotionVector(int(x), int(y)))
        for c, (x, y) in zip(centres, rng.integers(-20, 21, size=(len(origins), 2)))
    ]
    _assert_batch_matches_oracle(cur, ref, origins, cands, params)


def test_batch_with_differing_starts_matches_oracle():
    rng = np.random.default_rng(22)
    ref = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
    cur = np.roll(ref, (1, -2), axis=(0, 1))
    params = RdParams(qp=30, search_range=5, pu_size=16)
    # one PU per cell of the 4x3 grid, each searched around its own seed
    origins = [(bx, by) for by in range(0, 48, 16) for bx in range(0, 64, 16)]
    cands = [
        CandidatePair(MotionVector(int(a), int(b)), MotionVector(int(c), int(d)))
        for a, b, c, d in rng.integers(-60, 61, size=(len(origins), 4))
    ]
    assert len({seed_candidate(pair) for pair in cands}) == len(origins)
    _assert_batch_matches_oracle(cur, ref, origins, cands, params)


def test_batch_on_flat_plane_resolves_ties_at_each_level():
    # zero SAD everywhere, so the rate alone decides; the pairs are chosen so
    # the cheapest cost is unique for the first PU and tied for the others,
    # resolved by |dy|, by |dx| and by raster order respectively
    flat = np.full((24, 32), 77, dtype=np.uint8)
    params = RdParams(qp=25, search_range=3, pu_size=8)
    origins = [(0, 0), (8, 8), (16, 8), (8, 16)]
    cands = [
        CandidatePair(ZERO_MV, ZERO_MV),
        CandidatePair(ZERO_MV, MotionVector(0, 8)),    # dy = 0 and dy = 2 tie
        CandidatePair(ZERO_MV, MotionVector(8, 0)),    # dx = 0 and dx = 2 tie
        CandidatePair(MotionVector(4, 0), MotionVector(-4, 0)),  # dx = -1 and dx = 1 tie
    ]
    found = _estimate(flat, flat, origins, cands, params)
    assert [mv for mv, _ in found] == [ZERO_MV, ZERO_MV, ZERO_MV, MotionVector(-4, 0)]
    assert all(sad == 0 for _, sad in found)
    _assert_batch_matches_oracle(flat, flat, origins, cands, params)


@pytest.mark.parametrize("seed", range(6))
def test_batch_on_two_level_planes_matches_oracle(seed):
    # a two-level texture ties SADs often, so some PUs of a batch reach the
    # |dy| and |dx| levels and others stop at the cost
    rng = np.random.default_rng(4000 + seed)
    ref = (rng.integers(0, 2, size=(32, 32)) * 255).astype(np.uint8)
    cur = (rng.integers(0, 2, size=(32, 32)) * 255).astype(np.uint8)
    params = RdParams(qp=int(rng.integers(0, 52)), search_range=3, pu_size=8)
    origins = [(bx, by) for by in range(0, 32, 8) for bx in range(0, 32, 8)]
    cands = [
        CandidatePair(MotionVector(int(a), int(b)), MotionVector(int(c), int(d)))
        for a, b, c, d in rng.integers(-16, 17, size=(len(origins), 4))
    ]
    _assert_batch_matches_oracle(cur, ref, origins, cands, params)


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_batch_with_whole_lambda_ties_sad_against_rate(lam):
    # samples in 0..2 and a round lambda make SAD and rate trade off exactly,
    # so equal costs with different SADs reach the SAD level of the tie-break
    rng = np.random.default_rng(24)
    ref = rng.integers(0, 3, size=(32, 32), dtype=np.uint8)
    cur = rng.integers(0, 3, size=(32, 32), dtype=np.uint8)
    params = RdParams(qp=25, lambda_motion=lam, search_range=4, pu_size=8)
    origins = [(bx, by) for by in range(0, 32, 8) for bx in range(0, 32, 8)]
    cands = [
        CandidatePair(MotionVector(int(a), int(b)), MotionVector(int(c), int(d)))
        for a, b, c, d in rng.integers(-12, 13, size=(len(origins), 4))
    ]
    _assert_batch_matches_oracle(cur, ref, origins, cands, params)


def test_batch_larger_than_one_search_call_matches_oracle():
    # 96 PUs of 8x8 at range 8, at one working byte per candidate sample,
    # exceed one search call's byte budget, so the batch is split
    rng = np.random.default_rng(23)
    ref = rng.integers(0, 256, size=(64, 96), dtype=np.uint8)
    cur = np.roll(ref, (-1, 2), axis=(0, 1))
    params = RdParams(qp=12, search_range=8, pu_size=8)
    origins = [(bx, by) for by in range(0, 64, 8) for bx in range(0, 96, 8)]
    assert len(origins) * 17 * 17 * 8 * 8 > _BATCH_BYTES
    centres = [MotionVector(int(x), int(y)) for x, y in rng.integers(-12, 13, size=(len(origins), 2))]
    _assert_batch_matches_oracle(cur, ref, origins, [_centred(c) for c in centres], params)


@pytest.mark.parametrize("ps", [8, 16, 32, 64])
def test_sad_at_saturation_is_exact_at_every_pu_size(ps):
    # SAD = 2 * sum(max) - sum(ref) - sum(cur).  On equal all-255 planes every
    # 256-sample sum of maxima sits at the uint16 limit, 65,280, and the terms
    # must cancel to 0.  All-0 against all-255, either way round, differs by
    # 255 in every sample, the largest SAD a PU can have: ps * ps * 255
    params = RdParams(qp=25, search_range=3, pu_size=ps)
    zero = CandidatePair(ZERO_MV, ZERO_MV)
    dark, bright = (np.full((2 * ps, 2 * ps), v, dtype=np.uint8) for v in (0, 255))
    origins = [(0, 0), (ps, 0), (0, ps), (ps, ps)]
    for cur, ref, sad in ((bright, bright, 0), (dark, bright, ps * ps * 255), (bright, dark, ps * ps * 255)):
        assert [got for _, got in _estimate(cur, ref, origins, [zero] * 4, params)] == [sad] * 4
        _assert_batch_matches_oracle(cur, ref, origins, [zero] * 4, params)
    # a 0/255 checkerboard against its inverse, where the only position is d = 0
    board = (np.indices((ps, ps)).sum(axis=0) % 2 * 255).astype(np.uint8)
    for cur, ref in ((board, 255 - board), (255 - board, board)):
        found = _search_one(cur, ref, 0, 0, zero, params)
        assert found == (ZERO_MV, ps * ps * 255) == _oracle(cur, ref, 0, 0, zero, params)


def test_one_pu_wider_than_the_budget_is_searched_in_bands_of_rows():
    # PU 64 on a 128x128 plane covers up to 65 x 65 positions, more than one
    # batch's byte budget, so each window is searched a few dy rows at a time
    ps = 64
    assert 65 * 65 * ps * ps > _BATCH_BYTES > 2 * 65 * ps * ps
    params = RdParams(qp=25, search_range=1000, pu_size=ps)
    # flat: dy = -3 and dy = +3 tie in cost, SAD, |dy| and |dx| in different
    # bands, and raster order keeps the earlier band's dy = -3
    flat = np.full((128, 128), 90, dtype=np.uint8)
    tie = CandidatePair(MotionVector(0, 12), MotionVector(0, -12))
    found = _search_one(flat, flat, 32, 32, tie, params)
    assert found == (MotionVector(0, -12), 0) == _oracle(flat, flat, 32, 32, tie, params)
    # dy = -3 and dy = +2 tie in cost only, and the later band's smaller |dy| wins
    near = CandidatePair(MotionVector(0, -12), MotionVector(0, 8))
    found = _search_one(flat, flat, 32, 32, near, params)
    assert found == (MotionVector(0, 8), 0) == _oracle(flat, flat, 32, 32, near, params)
    rng = np.random.default_rng(25)
    ref = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
    cur = np.roll(ref, (3, -5), axis=(0, 1))
    origins = [(0, 0), (64, 0), (32, 32), (64, 64)]
    firsts = [ZERO_MV, MotionVector(-20, 12), MotionVector(40, -40), MotionVector(8, 8)]
    cands = [CandidatePair(v, MotionVector(-20, 12)) for v in firsts]
    _assert_batch_matches_oracle(cur, ref, origins, cands, params)


# ---------------------------------------------------------------- encoding

def test_encode_static_sequence_emits_zero_motion():
    stream, field, _ = encode_synth("shift", frames=4, amp=(0, 0), seed=3)
    assert stream.n_records == 3 * 16
    assert all(r.mvd == Mvd(0, 0) and r.idx == 0 for r in stream.records)
    assert all(field.get(r.frame_index, r.block_x, r.block_y) == ZERO_MV for r in stream.records)


def test_encode_global_shift_recovers_motion():
    stream, field, _ = encode_synth("shift", frames=5, amp=(1, 0), seed=3)
    # frame 1 predicts from an exact reference: every PU clear of the left
    # frame edge can reach the true displacement
    for bx in (16, 32, 48):
        for by in (0, 16, 32, 48):
            assert field.get(1, bx, by) == MotionVector(4, 0)
    # the left column cannot reach the wrapped content; its reconstruction
    # error creeps right one pel per frame and stays clear of column 32 here
    for f in (1, 2, 3, 4):
        for bx in (32, 48):
            for by in (0, 16, 32, 48):
                assert field.get(f, bx, by) == MotionVector(4, 0)


def test_encode_searches_one_batch_per_anti_diagonal(monkeypatch):
    # each P-frame makes one motion_estimate call per anti-diagonal of the PU
    # grid, and each call one _search; per-call costs are read per diagonal
    calls = {"motion_estimate": 0, "_search": 0}
    for name in calls:
        real = getattr(codec, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(codec, name, counted)
    cols, rows, frames = 6, 4, 4
    clip = synthesize(SynthSpec(SynthPattern.MULTI_OBJECT, 16 * cols, 16 * rows, frames, seed=2))
    encode_sequence(clip, RdParams(qp=25, search_range=8, pu_size=16))
    assert calls == {"motion_estimate": (cols + rows - 1) * (frames - 1), "_search": (cols + rows - 1) * (frames - 1)}


def _oracle_positions(w, h, ps, reach):
    """Positions `me_oracle` scores for one frame: PUs times the clamped window of each axis."""
    return (w // ps) * (h // ps) * min(2 * reach + 1, w - ps + 1) * min(2 * reach + 1, h - ps + 1)


@st.composite
def _sequences(draw):
    ps = draw(st.sampled_from((8, 16, 32, 64)))
    # a range of at most 8 pels, or one wider than every frame drawn here
    reach = draw(st.integers(1, 8) | st.integers(128, 1000))
    # non-square frames of at most 128 pels a side, no more work for the oracle
    # than the largest frame of PU 8 at range 8 that this property drew before
    w, h = draw(st.sampled_from([
        (w, h)
        for w in range(ps, 129, ps)
        for h in range(ps, 129, ps)
        if w != h and _oracle_positions(w, h, ps, reach) <= _oracle_positions(64, 56, 8, 8)
    ]))
    n = draw(st.integers(2, 3))
    pattern = draw(st.sampled_from([p.value for p in SynthPattern] + ["flat"]))
    seed = draw(st.integers(0, 2**16))
    if pattern == "flat":
        levels = draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
        frames = [Plane(np.full((h, w), v, dtype=np.uint8)) for v in levels]
    else:
        amp = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        frames = synthesize(SynthSpec(SynthPattern(pattern), w, h, n, seed=seed, amplitude=amp))
    params = RdParams(
        qp=draw(st.integers(0, 51)),
        lambda_motion=draw(st.sampled_from((None, 0.5, 1.0, 2.0))),
        search_range=reach,
        pu_size=ps,
    )
    return frames, params


def _synth_case(pattern, ps, w, h, reach):
    frames = synthesize(SynthSpec(SynthPattern(pattern), w, h, 3, seed=9, amplitude=(2, -1)))
    return frames, RdParams(qp=25, search_range=reach, pu_size=ps)


@settings(max_examples=50)
@given(_sequences())
# the largest PUs, each at a range inside and one far beyond the frame
@example(_synth_case("noise", 64, 128, 64, 3))
@example(_synth_case("objects", 64, 64, 128, 1000))
@example(_synth_case("noise", 32, 96, 64, 5))
@example(_synth_case("objects", 32, 64, 96, 200))
def test_encode_matches_raster_order_oracle(case):
    # the anti-diagonal walk and batched search write the bytes of a
    # raster-order encoder that searches one PU at a time
    frames, params = case
    stream = encode_sequence(frames, params)[0]
    assert write_stream(stream) == write_stream(encode_oracle(frames, params))
    # and every cover scores exactly 100%, at each PU size, qp, lambda and range drawn
    report = optimal_rate(stream)
    assert report.n_optimal == report.n_pus and report.verdict is Verdict.COVER


def test_encode_with_search_range_wider_than_the_frame_matches_oracle():
    # each axis searches at most the positions the frame has, so a range far
    # beyond the frame gathers no more than a whole-frame search
    frames = synthesize(SynthSpec(SynthPattern.MULTI_OBJECT, 64, 64, 2, seed=5))
    params = RdParams(qp=25, search_range=1000, pu_size=16)
    assert write_stream(encode_sequence(frames, params)[0]) == write_stream(encode_oracle(frames, params))


def test_search_window_stays_inside_the_vector_range():
    # a static 2304x16 clip whose last PU moves to where the block 2136 pels
    # to its left was: 4 * 2136 = 8544 quarter-pels is past MV_MAX, so the
    # window stops at 2047 pels and the stream still encodes and decodes
    rng = np.random.default_rng(26)
    ref = rng.integers(0, 256, size=(16, 2304), dtype=np.uint8)
    cur = ref.copy()
    cur[:, 2288:] = ref[:, 152:168]
    params = RdParams(qp=25, search_range=2200, pu_size=16)
    stream, field = encode_sequence([Plane(ref), Plane(cur)], params)
    mvs = [field.get(r.frame_index, r.block_x, r.block_y) for r in stream.records]
    assert all(MV_MIN <= v <= MV_MAX for mv in mvs for v in (mv.x, mv.y))
    assert read_stream(write_stream(stream)).records == stream.records
    assert reconstruct_mvs(stream) == field
    assert optimal_rate(stream).optimal_rate_pct == 100.0
    # the moved PU searched the clamped window the oracle searches
    last = derive_candidates(field, 1, 2288, 0)
    found = _search_one(cur, ref, 2288, 0, last, params)
    assert found == _oracle(cur, ref, 2288, 0, last, params)
    assert found[0] == field.get(1, 2288, 0)


_BOUNDED_ENCODE = """
import resource, sys
sys.path[:0] = {path!r}
from mvpo import RdParams, SynthPattern, SynthSpec, encode_sequence, synthesize, write_stream
frames = synthesize(SynthSpec(SynthPattern.NOISE_TEXTURE, 192, 128, 2, seed=3))
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + {budget}, resource.getrlimit(resource.RLIMIT_AS)[1]))
stream, _ = encode_sequence(frames, RdParams(qp=25, search_range=1000, pu_size=64))
sys.stdout.buffer.write(write_stream(stream))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_one_wide_pu_searches_in_bounded_memory():
    # one 64x64 PU at range 1000 on a 192x128 frame covers 129 x 65 positions:
    # 34 MB of blocks if gathered at once.  Split into rows of displacements,
    # the whole encode fits in 24 MB more than the child had mapped before it,
    # and writes the oracle's bytes.
    child = subprocess.run(
        [sys.executable, "-c", _BOUNDED_ENCODE.format(path=sys.path, budget=24 << 20)],
        capture_output=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()[-2000:]
    frames = synthesize(SynthSpec(SynthPattern.NOISE_TEXTURE, 192, 128, 2, seed=3))
    assert child.stdout == write_stream(encode_oracle(frames, RdParams(qp=25, search_range=1000, pu_size=64)))


def _walk_peak_bytes(frames: int) -> int:
    header = StreamHeader(64, 64, 8, qp=25, frame_count=frames)
    grid = [(bx, by) for by in range(0, 64, 8) for bx in range(0, 64, 8)]
    records = [PuRecord(f, bx, by, 0, Mvd(4, -4)) for f in range(1, frames) for bx, by in grid]
    stream = SequenceStream(header, records)
    # a first, cold walk makes one-time allocations (caches, interned objects) that a
    # later walk does not repeat: walk once untraced, so only the walk's own memory counts
    for _ in decode_walk(stream):
        pass
    tracemalloc.start()
    try:
        for _ in decode_walk(stream):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_walk_memory_does_not_grow_with_frames():
    # candidates read the current and the previous frame only, so the walk
    # holds two frames of vectors however long the stream is
    assert _walk_peak_bytes(40) < 1.5 * _walk_peak_bytes(4)


def test_encode_requires_two_frames_and_uniform_geometry():
    frames = [Plane(np.zeros((32, 32), dtype=np.uint8))]
    with pytest.raises(InputError):
        encode_sequence(frames, RdParams(pu_size=16))
    mixed = [
        Plane(np.zeros((32, 32), dtype=np.uint8)),
        Plane(np.zeros((32, 48), dtype=np.uint8)),
    ]
    with pytest.raises(InputError):
        encode_sequence(mixed, RdParams(pu_size=16))
    odd = [Plane(np.zeros((40, 40), dtype=np.uint8))] * 2
    with pytest.raises(InputError):
        encode_sequence(odd, RdParams(pu_size=16))
    # wider than the 16-bit width field of a stream header
    wide = [Plane(np.zeros((16, 65536), dtype=np.uint8))] * 2
    with pytest.raises(InputError, match="65536x16 frames do not fit a stream"):
        encode_sequence(wide, RdParams(pu_size=16))


def test_encoded_streams_are_selection_optimal_by_construction():
    for pattern, amp in (("shift", (1, 1)), ("objects", (2, 2)), ("noise", (0, 0))):
        stream, _, _ = encode_synth(pattern, frames=5, amp=amp, seed=9)
        for record, cands, mv in decode_walk(stream):
            chosen = rate_of(record.mvd)
            other = cands[1 - record.idx]
            assert chosen <= rate_of(Mvd(mv.x - other.x, mv.y - other.y))


def test_encoder_and_decoder_candidates_agree():
    stream, field, _ = encode_synth("objects", frames=5, amp=(2, 2), seed=5)
    # the final field only holds entries at or before each PU in decode
    # order for left/above/co-located lookups, so deriving from it replays
    # exactly what the encoder saw
    for record, cands, mv in decode_walk(stream):
        expected = derive_candidates(field, record.frame_index, record.block_x, record.block_y)
        assert cands == expected
        assert mv == field.get(record.frame_index, record.block_x, record.block_y)


def test_reconstruct_mvs_round_trip():
    for pattern in ("shift", "objects", "noise"):
        stream, field, _ = encode_synth(pattern, frames=4, seed=2, amp=(1, 1))
        rebuilt = reconstruct_mvs(read_stream(write_stream(stream)))
        assert rebuilt == field


# ---------------------------------------------------------------- walk validation

def _small_cover() -> SequenceStream:
    stream, _, _ = encode_synth("shift", size=(32, 32), frames=3, seed=1)
    return stream


def test_decode_walk_rejects_wrong_record_count():
    stream = _small_cover()
    short = SequenceStream(stream.header, stream.records[:-1])
    with pytest.raises(MalformedStreamError, match="record count"):
        list(decode_walk(short))


def test_decode_walk_rejects_out_of_order_records():
    stream = _small_cover()
    records = list(stream.records)
    records[0], records[1] = records[1], records[0]
    with pytest.raises(MalformedStreamError, match="raster order"):
        list(decode_walk(SequenceStream(stream.header, records)))


def test_decode_walk_rejects_duplicate_position():
    stream = _small_cover()
    records = list(stream.records)
    records[1] = records[0]
    with pytest.raises(MalformedStreamError, match="raster order"):
        list(decode_walk(SequenceStream(stream.header, records)))


def test_decode_walk_rejects_unrepresentable_vectors():
    stream = _small_cover()
    records = list(stream.records)
    records[0] = dataclasses.replace(records[0], mvd=Mvd(32767, 0))
    with pytest.raises(MalformedStreamError, match="out of range"):
        list(decode_walk(SequenceStream(stream.header, records)))


def test_mv_field_validates_geometry():
    with pytest.raises(ValueError):
        MvField(60, 64, 16)
    field = MvField(64, 64, 16)
    assert field.get(1, 0, 0) is None
    field.put(1, 0, 0, MotionVector(4, 4))
    assert field.get(1, 0, 0) == MotionVector(4, 4)
    assert field != MvField(64, 64, 16)
    # equality compares the geometry as well as the vectors
    assert MvField(64, 64, 16) != MvField(64, 32, 16)
    assert MvField(64, 64, 16) != MvField(64, 64, 32)
    assert MvField(64, 64, 16) == MvField(64, 64, 16)


def test_header_grid_capacity_checks():
    header = StreamHeader(64, 48, 16, 25, frame_count=3)
    assert header.pus_per_frame == 12
    with pytest.raises(ValueError):
        StreamHeader(65, 48, 16, 25)
    with pytest.raises(ValueError):
        StreamHeader(64, 48, 16, 99)
