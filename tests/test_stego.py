"""The three embedders: selection rules, modification rules, invariants."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvpo import (
    CandidatePair,
    EmbedConfig,
    EmbedMethod,
    MalformedStreamError,
    MotionVector,
    Mvd,
    PuRecord,
    SequenceStream,
    Verdict,
    decode_walk,
    embed,
    embed_index_adaptive,
    embed_index_threshold,
    embed_mvd_parity,
    iter_pu_checks,
    optimal_rate,
    reconstruct_mvs,
    t_value,
    write_stream,
)
from mvpo.analyzer import stream_rates
from mvpo.codec import decode
from mvpo.core import MVD_MAX, MVD_MIN
from mvpo.formats import read_stream
from mvpo.stego import METHOD_TAGS
from mvpo.stream import GOP_IPPP, StreamHeader

from mvpo_testutil import (
    encode_synth,
    out_of_range,
    parity_adjust,
    report_oracle,
    scaffold_stream,
    stream_of,
    synth_covers,
    tar1_oracle,
    tar3_oracle,
    valid_streams,
)


def _cover() -> SequenceStream:
    stream, _, _ = encode_synth("objects", frames=8, amp=(2, 2), seed=5)
    return stream


def _modified_positions(cover, stego):
    return {
        (a.frame_index, a.block_x, a.block_y)
        for a, b in zip(cover.records, stego.records)
        if a != b
    }


# ---------------------------------------------------------------- config

def test_config_validates_per_method():
    # the value is a required field: a config without one cannot be built
    for method in EmbedMethod:
        with pytest.raises(TypeError):
            EmbedConfig(method)
    with pytest.raises(ValueError, match=r"^e 1\.5 must be in \[0, 1\]$"):
        EmbedConfig(EmbedMethod.MVD_PARITY, 1.5)
    with pytest.raises(ValueError, match=r"^T -1 must be >= 0$"):
        EmbedConfig(EmbedMethod.INDEX_THRESHOLD, -1)
    with pytest.raises(ValueError, match=r"^bpap 2\.0 must be in \[0, 1\]$"):
        EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, 2.0)
    with pytest.raises(ValueError):
        EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, math.nan)
    for payload in ((), (0, 2), (1.0, 0)):
        with pytest.raises(ValueError):
            EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, payload=payload)
    # random.Random(-1) seeds like Random(1), so a negative seed would alias a positive one
    with pytest.raises(ValueError, match=r"rng_seed -1 must be >= 0"):
        EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, rng_seed=-1)
    for payload in ([1, 0], (True, False)):
        bits = EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, payload=payload).payload
        assert bits == (1, 0) and all(type(b) is int for b in bits)


def test_config_seed_is_an_integer():
    # a numpy integer seeds like the int it holds; a float is refused, not seeded from its hash
    cover = scaffold_stream(0, Mvd(0, 0))
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, rng_seed=np.int64(3))
    assert type(cfg.rng_seed) is int and cfg == EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, rng_seed=3)
    assert embed(cover, cfg) == embed(cover, EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, rng_seed=3))
    for seed in (2.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match=rf"^rng_seed {seed} must be an integer$"):
            EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, rng_seed=seed)


def test_embed_dispatch_checks_method():
    cover = scaffold_stream(0, Mvd(0, 0))
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, 0.5)
    with pytest.raises(ValueError):
        embed_index_threshold(cover, cfg)
    with pytest.raises(ValueError):
        embed_index_adaptive(cover, cfg)
    with pytest.raises(ValueError):
        embed_mvd_parity(cover, EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 1))


def test_t_value_examples():
    assert t_value(CandidatePair(MotionVector(3, 9), MotionVector(3, 8))) == 1
    assert t_value(CandidatePair(MotionVector(0, 0), MotionVector(0, 0))) == 0
    # mirrored but distinct candidates also measure zero
    assert t_value(CandidatePair(MotionVector(4, 8), MotionVector(-4, 8))) == 0


# ---------------------------------------------------------------- parity embedder

def test_parity_adjust_keeps_matching_parity():
    assert parity_adjust(Mvd(0, 0), use_x=False, bit=0) == Mvd(0, 0)
    assert parity_adjust(Mvd(3, 5), use_x=True, bit=1) == Mvd(3, 5)


def test_parity_adjust_moves_one_quarter_pel_toward_cheaper_code():
    # from zero both directions cost the same; the tie steps down
    assert parity_adjust(Mvd(0, 0), use_x=False, bit=1) == Mvd(0, -1)
    assert parity_adjust(Mvd(0, 0), use_x=True, bit=1) == Mvd(-1, 0)
    # from an odd magnitude the smaller-magnitude side codes cheaper
    assert parity_adjust(Mvd(0, 3), use_x=False, bit=0) == Mvd(0, 2)
    assert parity_adjust(Mvd(0, -3), use_x=False, bit=0) == Mvd(0, -2)
    assert parity_adjust(Mvd(5, 0), use_x=True, bit=0) == Mvd(4, 0)


def test_parity_embed_strength_zero_is_identity():
    cover = _cover()
    stego, report = embed_mvd_parity(cover, EmbedConfig(EmbedMethod.MVD_PARITY, 0.0))
    assert write_stream(stego) == write_stream(cover)
    assert report.pus_visited == cover.n_records
    assert report.pus_modified == 0
    assert report.bits_embedded == 0


def test_parity_embed_full_strength_zero_payload_changes_nothing():
    cover = _cover()
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, 1.0, payload=[0])
    stego, report = embed_mvd_parity(cover, cfg)
    # the cover's differences are quarter-pel multiples of 4, parity already 0
    assert report.bits_embedded == cover.n_records
    assert report.pus_modified == 0
    assert write_stream(stego) == write_stream(cover)


def test_parity_embed_full_strength_one_payload_modifies_every_pu():
    cover = _cover()
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, 1.0, payload=[1])
    stego, report = embed_mvd_parity(cover, cfg)
    assert report.pus_modified == cover.n_records
    for a, b in zip(cover.records, stego.records):
        assert b.idx == a.idx
        dx, dy = b.mvd.dx - a.mvd.dx, b.mvd.dy - a.mvd.dy
        assert sorted((abs(dx), abs(dy))) == [0, 1]  # one component, one step
        changed = b.mvd.dx if dx else b.mvd.dy
        assert changed & 1 == 1


def test_parity_embed_modified_sets_nest_as_strength_grows():
    cover = _cover()
    previous = set()
    previous_records = {}
    for e in (0.1, 0.2, 0.3, 0.5, 0.8):
        cfg = EmbedConfig(EmbedMethod.MVD_PARITY, e, rng_seed=42)
        stego, _ = embed_mvd_parity(cover, cfg)
        positions = _modified_positions(cover, stego)
        assert previous <= positions
        records = {
            (r.frame_index, r.block_x, r.block_y): r
            for r in stego.records
            if (r.frame_index, r.block_x, r.block_y) in positions
        }
        for pos in previous:
            assert records[pos] == previous_records[pos]
        previous, previous_records = positions, records


def test_parity_embed_is_deterministic_and_seed_sensitive():
    cover = _cover()
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, 0.4, rng_seed=7)
    once = embed_mvd_parity(cover, cfg)[0]
    twice = embed_mvd_parity(cover, cfg)[0]
    assert write_stream(once) == write_stream(twice)
    other = embed_mvd_parity(cover, EmbedConfig(EmbedMethod.MVD_PARITY, 0.4, rng_seed=8))[0]
    assert write_stream(once) != write_stream(other)


def test_parity_embed_preserves_grid_and_count():
    cover = _cover()
    stego, _ = embed_mvd_parity(cover, EmbedConfig(EmbedMethod.MVD_PARITY, 0.6))
    assert stego.header == cover.header
    assert [(r.frame_index, r.block_x, r.block_y) for r in stego.records] == [
        (r.frame_index, r.block_x, r.block_y) for r in cover.records
    ]


# ---------------------------------------------------------------- threshold embedder

def test_threshold_embed_reproduces_index_flip():
    cover = scaffold_stream(0, Mvd(0, 0))
    cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 1, payload=[0, 0, 0, 1])
    stego, report = embed_index_threshold(cover, cfg)
    assert report.bits_embedded == 4
    assert report.pus_modified == 1
    assert report.flips_rate_asymmetric == 1
    assert stego.records[:3] == cover.records[:3]
    assert stego.records[3] == PuRecord(1, 16, 16, 1, Mvd(0, 1))
    assert optimal_rate(stego).verdict is Verdict.STEGO


def test_threshold_embed_preserves_every_vector():
    cover = _cover()
    for T in (0, 4, 1000):
        cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, T, rng_seed=3)
        stego, _ = embed_index_threshold(cover, cfg)
        assert reconstruct_mvs(stego) == reconstruct_mvs(cover)


def test_threshold_zero_selects_identical_pairs_only():
    # the target PU's mirrored candidates measure zero distance but differ,
    # so a zero threshold must leave it alone
    header = StreamHeader(32, 32, 16, 25, gop=GOP_IPPP, frame_count=2)
    records = [
        PuRecord(1, 0, 0, 0, Mvd(0, 0)),
        PuRecord(1, 16, 0, 0, Mvd(4, 8)),    # above neighbour of the target
        PuRecord(1, 0, 16, 0, Mvd(-4, 8)),   # left neighbour of the target
        PuRecord(1, 16, 16, 1, Mvd(0, 0)),   # candidates (-4,8) and (4,8)
    ]
    cover = stream_of(header, records)
    assert optimal_rate(cover).verdict is Verdict.COVER
    cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 0, payload=[0])
    stego, report = embed_index_threshold(cover, cfg)
    assert report.bits_embedded == 3  # the three identical-pair scaffold PUs
    assert stego.records[3] == cover.records[3]
    assert report.flips_rate_asymmetric == 0
    assert optimal_rate(stego).verdict is Verdict.COVER


def test_threshold_zero_embedding_stays_at_100_percent():
    cover = _cover()
    cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 0, rng_seed=1)
    stego, report = embed_index_threshold(cover, cfg)
    assert report.bits_embedded > 0
    assert optimal_rate(stego).optimal_rate_pct == 100.0


def test_threshold_widens_with_t():
    cover = _cover()
    bits = []
    for T in (0, 4, 8, 1000):
        _, report = embed_index_threshold(
            cover, EmbedConfig(EmbedMethod.INDEX_THRESHOLD, T, rng_seed=2)
        )
        bits.append(report.bits_embedded)
    assert bits == sorted(bits)
    assert bits[-1] == cover.n_records  # every PU is close enough at T=1000


# ---------------------------------------------------------------- adaptive embedder

def test_adaptive_embed_targets_cheapest_flips_first():
    cover = scaffold_stream(0, Mvd(0, 0))  # costs: 0, 0, 0, 2
    cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, 0.5, payload=[1])
    stego, report = embed_index_adaptive(cover, cfg)
    assert report.bits_embedded == 2
    assert report.pus_modified == 2
    assert report.flips_rate_asymmetric == 0
    assert _modified_positions(cover, stego) == {(1, 0, 0), (1, 16, 0)}
    assert optimal_rate(stego).verdict is Verdict.COVER  # tie flips stay invisible


def test_adaptive_embed_spills_into_asymmetric_flips_at_full_capacity():
    cover = scaffold_stream(0, Mvd(0, 0))
    cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, 1.0, payload=[1])
    stego, report = embed_index_adaptive(cover, cfg)
    assert report.bits_embedded == 4
    assert report.flips_rate_asymmetric == 1
    assert stego.records[3] == PuRecord(1, 16, 16, 1, Mvd(0, 1))
    report_after = optimal_rate(stego)
    assert report_after.verdict is Verdict.STEGO
    assert report_after.violations == [(1, 16, 16)]


def test_adaptive_embed_preserves_every_vector():
    cover = _cover()
    assert cover.n_records == 112
    # ceil of the decimal request: 11.2 -> 12, 33.6 -> 34, 56, 112
    for bpap, expected_bits in ((0.1, 12), (0.3, 34), (0.5, 56), (1.0, 112)):
        cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=4)
        stego, report = embed_index_adaptive(cover, cfg)
        assert report.bits_embedded == expected_bits
        assert reconstruct_mvs(stego) == reconstruct_mvs(cover)


def test_adaptive_embed_zero_capacity_is_identity():
    cover = _cover()
    cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, 0.0)
    stego, report = embed_index_adaptive(cover, cfg)
    assert report.bits_embedded == 0
    assert write_stream(stego) == write_stream(cover)


def test_adaptive_embed_reads_numpy_capacities_as_floats():
    cover, _, _ = encode_synth("shift", size=(80, 32), frames=2)
    assert cover.n_records == 10
    # 0.3 * 10 is exactly 3 bits; float32's nearest value to 0.3 lies just above it
    for bpap, expected_bits in ((np.float64(0.3), 3), (np.float32(0.3), 4)):
        cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=2)
        stego, report = embed_index_adaptive(cover, cfg)
        as_float = dataclasses.replace(cfg, value=float(bpap))
        stego_float, report_float = embed_index_adaptive(cover, as_float)
        assert report.bits_embedded == expected_bits
        assert report == report_float
        assert write_stream(stego) == write_stream(stego_float)


def test_embed_dispatcher_routes_all_methods():
    cover = scaffold_stream(0, Mvd(0, 0))
    for cfg in (
        EmbedConfig(EmbedMethod.MVD_PARITY, 0.0),
        EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 0, payload=[0]),
        EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, 0.0),
    ):
        stego, report = embed(cover, cfg)
        assert report.method is cfg.method
        assert stego.n_records == cover.n_records


# ---------------------------------------------------------------- every output decodes

def _near_bound_pair() -> SequenceStream:
    """A 32x16 two-PU stream whose tar1 nudges (payload 0) move the second vector to -8194."""
    header = StreamHeader(32, 16, 16, qp=25, gop=GOP_IPPP, frame_count=2)
    return stream_of(header, [PuRecord(1, 0, 0, 0, Mvd(-8187, 0)), PuRecord(1, 16, 0, 0, Mvd(-5, 0))])


def test_parity_embed_refuses_an_output_that_would_not_decode():
    stream = _near_bound_pair()
    assert len(list(decode_walk(stream))) == 2  # the input decodes: -8187, then -8192
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, 1.0, payload=[0])
    with pytest.raises(MalformedStreamError, match=r"at \(1, 16, 0\).*-8194 outside \[-8192, 8191\]"):
        embed_mvd_parity(stream, cfg)


_PAYLOADS = st.none() | st.lists(st.integers(0, 1), min_size=1, max_size=4)

# components at and next to the ends of the difference range, where one step leaves it, and around zero, where steps tie
_MVD_EDGES = st.sampled_from((MVD_MIN, MVD_MIN + 1, -1, 0, 1, MVD_MAX - 1, MVD_MAX))


def _edge_stream(mvds: list[Mvd]) -> SequenceStream:
    """One P-frame of one PU per difference in `mvds`; most edge differences leave the vector range."""
    header = StreamHeader(16 * len(mvds), 16, 16, qp=25, gop=GOP_IPPP, frame_count=2)
    return stream_of(header, [PuRecord(1, 16 * c, 0, 0, mvd) for c, mvd in enumerate(mvds)])


_EDGE_STREAMS = st.lists(st.builds(Mvd, _MVD_EDGES, _MVD_EDGES), min_size=1, max_size=2).map(_edge_stream)


@settings(max_examples=150)
@given(
    valid_streams() | synth_covers() | _EDGE_STREAMS,
    st.sampled_from((0.0, 1.0)) | st.floats(0, 1),
    st.none() | st.integers(0, 3),
    st.integers(0, 2**80),
    _PAYLOADS,
)
# a component at an end of the range steps inwards; the other one at an end leaves both steps of this one in range
@example(_edge_stream([Mvd(-1, MVD_MAX), Mvd(MVD_MAX, MVD_MIN + 1)]), 1.0, None, 0, [0])
@example(_edge_stream([Mvd(MVD_MIN, MVD_MIN), Mvd(MVD_MIN, MVD_MIN)]), 1.0, None, 0, [1])
@example(_edge_stream([Mvd(0, MVD_MIN), Mvd(MVD_MIN, 0)] * 2), 1.0, None, 0, [1])
def test_parity_embed_matches_the_record_oracle(stream, e, exact, seed, payload):
    if exact is not None:  # e equal to a record's selection uniform: < leaves the record, <= would take it
        select = random.Random(random.Random(seed).getrandbits(64))
        e = [select.random() for _ in range(exact % stream.n_records + 1)][-1]
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, e, rng_seed=seed, payload=payload)
    # the nudges alone, also where the output would not decode: neither side decodes it here
    with mock.patch("mvpo.stego.decode"), mock.patch("mvpo_testutil.decode_walk", return_value=()):
        assert embed_mvd_parity(stream, cfg) == tar1_oracle(stream, cfg)
    try:
        expected = tar1_oracle(stream, cfg)
    except MalformedStreamError as exc:
        with pytest.raises(MalformedStreamError) as got:
            embed_mvd_parity(stream, cfg)
        assert str(got.value) == str(exc)
        return
    assert embed_mvd_parity(stream, cfg) == expected


@settings(max_examples=60)
@given(valid_streams(), st.floats(0, 1), st.integers(0, 2**32), _PAYLOADS)
@example(_near_bound_pair(), 1.0, 0, [0])
def test_parity_embed_output_decodes_or_is_refused(stream, e, seed, payload):
    cfg = EmbedConfig(EmbedMethod.MVD_PARITY, e, rng_seed=seed, payload=payload)
    try:
        stego, _ = embed_mvd_parity(stream, cfg)
    except MalformedStreamError as exc:
        # the input decodes, so only a nudged vector leaving the range is refused
        assert "reconstructed vector out of range" in str(exc)
        return
    assert len(list(decode_walk(stego))) == stream.n_records


@settings(max_examples=60)
@given(
    valid_streams(),
    st.integers(0, 3) | st.integers(0, 2 * 8192),
    st.floats(0, 1),
    st.integers(0, 2**32),
    _PAYLOADS,
)
def test_index_embedders_output_decodes_to_the_same_field(stream, threshold, bpap, seed, payload):
    field = reconstruct_mvs(stream)
    for cfg in (
        EmbedConfig(EmbedMethod.INDEX_THRESHOLD, threshold, rng_seed=seed, payload=payload),
        EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=seed, payload=payload),
    ):
        stego, _ = embed(stream, cfg)
        assert reconstruct_mvs(stego) == field


@settings(max_examples=60)
@given(
    valid_streams(),
    st.integers(0, 3) | st.integers(0, 2 * 8192),
    st.floats(0, 1),
    st.lists(st.integers(0, 1), min_size=1, max_size=4),
)
def test_index_bits_read_back_from_the_stego_alone(stream, threshold, bpap, payload):
    # a receiver re-derives the slots from the stego: a flip keeps every vector, so it
    # changes neither a PU's candidates nor the gap between its two rates
    for cfg in (
        EmbedConfig(EmbedMethod.INDEX_THRESHOLD, threshold, payload=payload),
        EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, payload=payload),
    ):
        stego, report = embed(stream, cfg)
        checks = list(iter_pu_checks(stego))
        if cfg.method is EmbedMethod.INDEX_THRESHOLD:
            slots = [
                k for k, c in enumerate(checks)
                if (c.cands.identical if threshold == 0 else t_value(c.cands) <= threshold)
            ]
            assert len(slots) == report.bits_embedded
        else:
            gaps = [abs(c.chosen_rate - c.other_rate) for c in checks]
            slots = sorted(range(len(checks)), key=gaps.__getitem__)[: report.bits_embedded]
        assert [checks[k].record.idx for k in slots] == [payload[j % len(payload)] for j in range(len(slots))]


_BPAPS = st.sampled_from((0.0, 1.0)) | st.floats(0, 1)


@settings(max_examples=80)
@given(valid_streams() | synth_covers(), _BPAPS, st.integers(0, 2**32), _PAYLOADS)
def test_adaptive_embed_matches_the_walk_oracle(stream, bpap, seed, payload):
    cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=seed, payload=payload)
    stego, report = embed_index_adaptive(stream, cfg)
    expected, expected_report = tar3_oracle(stream, cfg)
    assert stego == expected
    assert report == expected_report


@settings(max_examples=40)
@given(valid_streams() | synth_covers(), st.sampled_from(("x", "y", "xy")), _BPAPS, st.data())
def test_adaptive_embed_raises_the_walk_oracle_error_on_a_damaged_stream(stream, component, bpap, data):
    # one difference that takes its vector out of range: the stream is whole, so only a decode refuses it
    checks = list(iter_pu_checks(stream))
    k = data.draw(st.integers(0, len(checks) - 1))
    records = stream.records
    records[k] = record = out_of_range(checks[k], component)
    damaged = stream_of(stream.header, records)
    cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap)
    with pytest.raises(MalformedStreamError) as got:
        embed_index_adaptive(damaged, cfg)
    with pytest.raises(MalformedStreamError) as expected:
        tar3_oracle(damaged, cfg)
    assert str(got.value) == str(expected.value)
    at = (record.frame_index, record.block_x, record.block_y)
    assert str(got.value).startswith(f"reconstructed vector out of range at {at}: ")


# ---------------------------------------------------------------- the held decode

_HELD_CONFIGS = (
    *(dict(method=EmbedMethod.INDEX_THRESHOLD, value=t) for t in (0, 1, 5, 1000)),
    *(dict(method=EmbedMethod.INDEX_ADAPTIVE, value=b) for b in (0, 0.3, 1)),
)


@settings(max_examples=60)
@given(valid_streams(), st.integers(0, 2**32), _PAYLOADS)
def test_held_decode_gives_the_same_embeds_and_analysis(stream, seed, payload):
    walk = list(decode_walk(stream))
    assert optimal_rate(stream) == report_oracle(stream)
    for fields in _HELD_CONFIGS:
        cfg = EmbedConfig(rng_seed=seed, payload=payload, **fields)
        held, held_report = embed(stream, cfg, walk)
        walked, walked_report = embed(stream, cfg)
        assert held.header == walked.header and held.records == walked.records
        assert held_report == walked_report


@settings(max_examples=60)
@given(valid_streams(), st.integers(0, 2**32))
def test_threshold_zero_leaves_the_optimal_count_unchanged(stream, seed):
    # T=0 flips only between identical candidates, so both differences stay the same
    cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 0, rng_seed=seed)
    assert optimal_rate(embed(stream, cfg)[0]).n_optimal == report_oracle(stream).n_optimal


@settings(max_examples=60)
@given(valid_streams(), st.floats(0, 1), st.integers(0, 2**32))
def test_adaptive_within_the_rate_ties_leaves_the_optimal_count_unchanged(stream, share, seed):
    # tar3 takes zero-gap PUs first, and a flip there keeps both rates
    checks = list(iter_pu_checks(stream))
    ties = sum(1 for c in checks if c.chosen_rate == c.other_rate)
    bpap = share * ties / len(checks)
    if math.ceil(Fraction(repr(bpap)) * len(checks)) > ties:  # the float rounded past the tie pool
        return
    cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=seed)
    assert optimal_rate(embed(stream, cfg)[0]).n_optimal == report_oracle(stream).n_optimal


# ---------------------------------------------------------------- reports against a recount

def _checked_analysis(stream):
    """`optimal_rate(stream)`, checked against a per-PU recount."""
    report = optimal_rate(stream)
    assert report == report_oracle(stream)
    return report


@settings(max_examples=30)
@given(synth_covers(), st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**32))
def test_reports_match_a_recount_of_the_records(cover, e, bpap, seed):
    assert _checked_analysis(cover).verdict is Verdict.COVER
    for cfg in (
        EmbedConfig(EmbedMethod.MVD_PARITY, e, rng_seed=seed),
        *(EmbedConfig(EmbedMethod.INDEX_THRESHOLD, t, rng_seed=seed) for t in (0, 1, 5, 1000)),
        EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=seed),
    ):
        stego, report = embed(cover, cfg)
        changed = [b for a, b in zip(cover.records, stego.records) if a != b]
        assert report.pus_visited == stego.n_records == cover.n_records
        assert report.pus_modified == len(changed)
        assert report.per_frame_modified == Counter(b.frame_index for b in changed)
        analysis = _checked_analysis(stego)
        if cfg.method is EmbedMethod.MVD_PARITY:
            assert report.flips_rate_asymmetric == 0
        else:
            # a flip keeps every vector and candidate, so in an all-optimal
            # cover each flip that costs bits is exactly one violation
            assert analysis.n_pus - analysis.n_optimal == report.flips_rate_asymmetric


# ---------------------------------------------------------------- the decode and rates a stream keeps

@settings(max_examples=80)
@given(
    valid_streams() | synth_covers(),
    st.sampled_from(sorted(METHOD_TAGS)),
    st.floats(0, 1),
    st.integers(0, 50),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_kept_decode_and_rates_are_those_of_the_same_bytes_read_afresh(cover, tag, share, threshold, seed, rated):
    method = METHOD_TAGS[tag].method
    if rated:  # the cover's rates are kept before the embed, so an index stego inherits them
        optimal_rate(cover)
    try:
        stego, _ = embed(cover, EmbedConfig(method, threshold if tag == "tar2" else share, seed))
    except MalformedStreamError:  # a nudge pushed a later vector out of range; the cover is still checked
        stego = None
    if stego is not None:
        if method is EmbedMethod.MVD_PARITY:  # kept by the output check, rated by nothing yet
            assert stego._decoded is not None and stego._rates is None
        else:  # an index write keeps every vector: the cover's decode, and rates whenever the cover's are kept
            assert stego._decoded is cover._decoded
            assert (stego._rates is None) is (cover._rates is None)
    for stream in (cover, stego):
        if stream is None:
            continue
        kept = (*decode(stream), *stream_rates(stream))
        fresh = read_stream(write_stream(stream))
        assert fresh._decoded is None and fresh._rates is None
        for array, expected in zip(kept, (*decode(fresh), *stream_rates(fresh))):
            assert array.dtype == expected.dtype and np.array_equal(array, expected)
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert all(a is b for a, b in zip(kept, (*decode(stream), *stream_rates(stream))))
