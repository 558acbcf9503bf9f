"""Optimality feature: per-PU checks, stream counts, verdict rule."""

import dataclasses

import pytest
from hypothesis import given, settings
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
    StreamHeader,
    Verdict,
    embed,
    is_locally_optimal,
    iter_pu_checks,
    optimal_rate,
    rate_of,
    read_stream,
    write_stream,
)
from mvpo.analyzer import FeatureReport, rechecked

from mvpo_testutil import encode_synth, scaffold_stream, synth_covers, valid_streams


PAIR = CandidatePair(MotionVector(3, 9), MotionVector(3, 8))


def test_is_locally_optimal_on_exact_match():
    record = PuRecord(1, 0, 0, 0, Mvd(0, 0))
    assert is_locally_optimal(record, PAIR, MotionVector(3, 9))


def test_is_locally_optimal_flags_costlier_choice():
    # signalling the other candidate for the same vector needs 5 bits, not 3
    record = PuRecord(1, 0, 0, 1, Mvd(0, 1))
    assert not is_locally_optimal(record, PAIR, MotionVector(3, 9))


def test_is_locally_optimal_counts_ties():
    pair = CandidatePair(MotionVector(4, 0), MotionVector(-4, 0))
    record = PuRecord(1, 0, 0, 1, Mvd(4, 0))
    assert is_locally_optimal(record, pair, MotionVector(0, 0))


@given(valid_streams())
def test_pu_check_rates_price_both_candidate_differences(stream):
    for check in iter_pu_checks(stream):
        rates = [rate_of(Mvd(check.mv.x - c.x, check.mv.y - c.y)) for c in (check.cands.mvp0, check.cands.mvp1)]
        idx = check.record.idx
        assert (check.chosen_rate, check.other_rate) == (rates[idx], rates[1 - idx])


def test_cover_stream_scores_exactly_100():
    stream, _, _ = encode_synth("objects", frames=6, amp=(2, 2), seed=4)
    report = optimal_rate(stream)
    assert report.n_pus == stream.n_records
    assert report.n_optimal == report.n_pus
    assert report.optimal_rate_pct == 100.0
    assert report.verdict is Verdict.COVER
    assert report.violations == []


def test_single_violation_yields_75_percent_stego():
    report = optimal_rate(scaffold_stream(1, Mvd(0, 1)))
    assert (report.n_pus, report.n_optimal) == (4, 3)
    assert report.optimal_rate_pct == 75.0
    assert report.verdict is Verdict.STEGO
    assert report.violations == [(1, 16, 16)]
    assert report.per_frame[1].n_pus == 4
    assert report.per_frame[1].n_optimal == 3


def test_iter_pu_checks_exposes_both_rates():
    checks = list(iter_pu_checks(scaffold_stream(0, Mvd(0, 0))))
    assert len(checks) == 4
    target = checks[-1]
    assert (target.chosen_rate, target.other_rate) == (3, 5)
    assert target.optimal
    assert all(c.optimal for c in checks)


def test_empty_stream_is_indeterminate():
    header = StreamHeader(32, 32, 16, 25, frame_count=1)
    report = optimal_rate(SequenceStream(header, []))
    assert report.n_pus == 0
    assert report.optimal_rate_pct is None
    assert report.verdict is Verdict.INDETERMINATE


def test_verdict_is_exact_integer_comparison():
    assert FeatureReport(10, 10).verdict is Verdict.COVER
    assert FeatureReport(10, 9).verdict is Verdict.STEGO
    assert FeatureReport(0, 0).verdict is Verdict.INDETERMINATE
    # one violation in a large stream must still flip the verdict
    assert FeatureReport(10**9, 10**9 - 1).verdict is Verdict.STEGO


def test_per_frame_tallies_sum_to_totals():
    stream, _, _ = encode_synth("noise", frames=5, seed=8)
    report = optimal_rate(stream)
    assert sum(t.n_pus for t in report.per_frame.values()) == report.n_pus
    assert sum(t.n_optimal for t in report.per_frame.values()) == report.n_optimal
    assert sorted(report.per_frame) == [1, 2, 3, 4]


# ---------------------------------------------------------------- a stego's checks from its cover's

_STEGO_CONFIGS = (
    *(dict(method=EmbedMethod.MVD_PARITY, value=e) for e in (0.3, 1.0)),
    *(dict(method=EmbedMethod.INDEX_THRESHOLD, value=t) for t in (0, 1, 5, 1000)),
    *(dict(method=EmbedMethod.INDEX_ADAPTIVE, value=b) for b in (0, 0.3, 1)),
)


@settings(max_examples=60)
@given(valid_streams() | synth_covers(), st.integers(0, 2**32))
def test_rechecked_is_the_stegos_own_decode_or_none(cover, seed):
    checks = list(iter_pu_checks(cover))
    for fields in _STEGO_CONFIGS:
        try:
            stego, _ = embed(cover, EmbedConfig(rng_seed=seed, **fields))
        except MalformedStreamError:  # a tar1 nudge pushed a later vector out of range
            continue
        # in memory, where unchanged records are the cover's objects, and read back from bytes
        for form in (stego, read_stream(write_stream(stego))):
            got = rechecked(form, cover, checks)
            if got is None:
                # only a moved vector needs a decode, and index flips move none
                assert fields["method"] is EmbedMethod.MVD_PARITY
                continue
            assert got == list(iter_pu_checks(form))
            # only the records that differ are re-rated: an equal one keeps the cover's check
            assert [g is c for g, c in zip(got, checks)] == [a == b for a, b in zip(form.records, cover.records)]


def _moved(records, k):
    """Record k carries the position of record k + 1."""
    nxt = records[k + 1]
    return dataclasses.replace(records[k], frame_index=nxt.frame_index, block_x=nxt.block_x, block_y=nxt.block_y)


def _nudged(records, k):
    """Record k's difference one quarter-pel further along x."""
    mvd = records[k].mvd
    return dataclasses.replace(records[k], mvd=Mvd(mvd.dx + 1, mvd.dy))


@pytest.mark.parametrize("damage", [_moved, _nudged], ids=["record-moved", "mvd-plus-one"])
def test_rechecked_refuses_a_moved_record_or_vector(damage):
    cover, _, _ = encode_synth("objects", frames=3, amp=(2, 2), seed=4)
    checks = list(iter_pu_checks(cover))
    for k in (0, cover.n_records // 2, cover.n_records - 2):
        records = list(cover.records)
        records[k] = damage(records, k)
        assert rechecked(SequenceStream(cover.header, records), cover, checks) is None


def test_rechecked_refuses_another_header_or_record_count():
    cover, _, _ = encode_synth("objects", frames=3, amp=(2, 2), seed=4)
    checks = list(iter_pu_checks(cover))
    assert rechecked(SequenceStream(cover.header, list(cover.records)), cover, checks) == checks
    other_qp = dataclasses.replace(cover.header, qp=cover.header.qp + 1)
    assert rechecked(SequenceStream(other_qp, cover.records), cover, checks) is None
    assert rechecked(SequenceStream(cover.header, cover.records[:-1]), cover, checks) is None
