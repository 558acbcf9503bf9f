"""Optimality feature: per-PU checks, stream counts, verdict rule."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvpo import (
    EmbedConfig,
    EmbedMethod,
    MalformedStreamError,
    MotionVector,
    Mvd,
    StreamHeader,
    Verdict,
    embed,
    optimal_rate,
    rate_of,
    read_stream,
    write_stream,
)
from mvpo.analyzer import FeatureReport, pu_rates
from mvpo.codec import decode

from mvpo_testutil import (
    SCAFFOLD_ABOVE,
    SCAFFOLD_LEFT,
    check_oracle,
    encode_synth,
    out_of_range,
    read_stream_oracle,
    report_oracle,
    scaffold_stream,
    stream_bytes,
    stream_of,
    synth_covers,
    valid_streams,
)


def _target_check(idx: int, mvd: Mvd):
    """The check of the scaffold's last PU, whose candidates are (3,9) and (3,8)."""
    check = list(check_oracle(scaffold_stream(idx, mvd)))[-1]
    assert (check.cands.mvp0, check.cands.mvp1) == (SCAFFOLD_LEFT, SCAFFOLD_ABOVE)
    return check


def test_check_is_optimal_on_exact_match():
    check = _target_check(0, Mvd(0, 0))
    assert check.mv == MotionVector(3, 9)
    assert check.optimal


def test_check_flags_costlier_choice():
    # signalling the other candidate for the same vector needs 5 bits, not 3
    check = _target_check(1, Mvd(0, 1))
    assert check.mv == MotionVector(3, 9)
    assert not check.optimal


def test_check_counts_ties():
    # (3,11) lies (0,2) from (3,9) and (0,3) from (3,8): both differences code in 7 bits
    check = _target_check(1, Mvd(0, 3))
    assert check.mv == MotionVector(3, 11)
    assert check.chosen_rate == check.other_rate == 7
    assert check.optimal
    assert optimal_rate(scaffold_stream(1, Mvd(0, 3))).verdict is Verdict.COVER


@given(valid_streams())
def test_pu_check_rates_price_both_candidate_differences(stream):
    for check in check_oracle(stream):
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


def test_check_oracle_exposes_both_rates():
    checks = list(check_oracle(scaffold_stream(0, Mvd(0, 0))))
    assert len(checks) == 4
    target = checks[-1]
    assert (target.chosen_rate, target.other_rate) == (3, 5)
    assert target.optimal
    assert all(c.optimal for c in checks)


def test_empty_stream_is_indeterminate():
    header = StreamHeader(32, 32, 16, 25, frame_count=1)
    report = optimal_rate(stream_of(header, []))
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


# ---------------------------------------------------------------- the level decode against the walk


def _with_tar1_stego(cover, seed, stego):
    """The cover, or its tar1 e=1.0 stego, which moves vectors; a stego that would not decode is skipped."""
    if not stego:
        return cover
    try:
        return embed(cover, EmbedConfig(EmbedMethod.MVD_PARITY, 1.0, seed))[0]
    except MalformedStreamError:
        assume(False)


@settings(max_examples=80)
@given(valid_streams() | synth_covers(), st.integers(0, 2**32), st.booleans())
def test_level_decode_gives_the_walks_vectors_candidates_and_rates(cover, seed, stego):
    stream = _with_tar1_stego(cover, seed, stego)
    checks = list(check_oracle(stream))
    data = write_stream(stream)
    # the stream built from records, and the same stream read back from bytes
    for form in (stream, read_stream(data)):
        table = form.table
        mv, cands = decode(form)
        chosen, other = pu_rates(table, mv, cands)
        assert mv.tolist() == [[c.mv.x, c.mv.y] for c in checks]
        assert cands.tolist() == [[[p.x, p.y] for p in c.cands] for c in checks]
        assert chosen.tolist() == [c.chosen_rate for c in checks]
        assert other.tolist() == [c.other_rate for c in checks]
    report = report_oracle(stream)
    assert optimal_rate(stream) == report
    assert optimal_rate(read_stream(data)) == report


@settings(max_examples=80)
@given(
    valid_streams() | synth_covers(),
    st.sampled_from(["swapped", "dropped", "out-of-range", "misplaced-and-out-of-range"]),
    st.sampled_from(["x", "y", "xy"]),
    st.data(),
)
def test_level_decode_raises_the_walks_error(cover, damage, component, data):
    records, checks = list(cover.records), list(check_oracle(cover))
    assume(damage != "swapped" or len(records) > 1)
    k = data.draw(st.integers(0, len(records) - (2 if damage == "swapped" else 1)))
    at = [(r.frame_index, r.block_x, r.block_y) for r in records]
    if damage == "swapped":
        records[k], records[k + 1] = records[k + 1], records[k]
        message = f"record at {at[k + 1]} out of raster order, expected {at[k]}"
    elif damage == "dropped":
        del records[k]
        message = f"record count {len(records)} does not cover the grid (expected {len(at)})"
    else:
        records[k] = out_of_range(checks[k], component)
        if damage == "misplaced-and-out-of-range":  # refused as misplaced before its vector is decoded
            records[k] = dataclasses.replace(records[k], frame_index=0)  # the intra frame carries none
            message = f"record at {(0, *at[k][1:])} out of raster order, expected {at[k]}"
    if damage != "out-of-range":
        # a missing or misplaced record is refused with the reader's error before any decode
        raw = stream_bytes(cover.header, records)
        builds = (read_stream_oracle, read_stream, lambda raw: stream_of(cover.header, records))
        for build in builds:
            with pytest.raises(MalformedStreamError) as refused:
                build(raw)
            assert str(refused.value) == message
        return
    damaged = stream_of(cover.header, records)
    with pytest.raises(MalformedStreamError) as walk:
        list(check_oracle(damaged))
    for form in (damaged, read_stream(write_stream(damaged))):
        for _ in range(2):  # a decode that raises keeps nothing, so the second raises again
            with pytest.raises(MalformedStreamError) as level:
                optimal_rate(form)
            assert str(level.value) == str(walk.value)
            assert form._decoded is None and form._rates is None


def test_level_decode_handles_an_empty_grid():
    mv, cands = decode(stream_of(StreamHeader(32, 32, 16, 25, frame_count=1), []))
    assert (mv.shape, cands.shape) == ((0, 2), (0, 2, 2))
    assert mv.dtype == cands.dtype == np.int64
