"""Acceptance gate: eight end-to-end criteria, one printed PASS/FAIL line each.

Run under pytest (the criteria execute in order) or directly:

    python3 tests/test_acceptance.py

The lines are written to the real stdout so they stay visible under pytest's
capture.  Criteria 2-4 condition on an effective modification being present
in each stego stream; those preconditions are asserted, never assumed, so a
fixture that stops modifying anything fails the gate instead of passing it
vacuously.
"""

import contextlib
import sys
import time
from functools import lru_cache

import numpy as np

from mvpo import (
    EmbedConfig,
    EmbedMethod,
    MotionVector,
    Mvd,
    RdParams,
    SynthPattern,
    SynthSpec,
    Verdict,
    decode_walk,
    derive_candidates,
    embed,
    embed_index_threshold,
    encode_sequence,
    iter_pu_checks,
    optimal_rate,
    read_stream,
    reconstruct_mvs,
    se_bits,
    synthesize,
    ue_bits,
    write_stream,
)
from mvpo_testutil import parity_adjust, scaffold_stream, se_codeword, stream_of, ue_codeword


@contextlib.contextmanager
def _gate(label: str):
    info: dict = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", file=sys.__stdout__, flush=True)
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"ACCEPTANCE {label}: PASS{detail}", file=sys.__stdout__, flush=True)


@lru_cache(maxsize=None)
def _cover(pattern: str, seed: int, amp: tuple, qp: int, frames: int = 31, size: int = 64):
    spec = SynthSpec(SynthPattern(pattern), size, size, frames, seed=seed, amplitude=amp)
    stream, _ = encode_sequence(synthesize(spec), RdParams(qp=qp))
    return stream


# 21 sequences, three content families, 30 P-frames each
_C1_SEQUENCES = (
    [("shift", s, a) for s, a in zip(range(7), [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)])]
    + [("objects", s, (2, 2)) for s in range(7)]
    + [("noise", s, (0, 0)) for s in range(7)]
)

_MOTION_RICH = [
    ("objects", 1, (2, 2)),
    ("objects", 2, (2, 2)),
    ("objects", 3, (1, 1)),
    ("objects", 4, (1, 1)),
    ("shift", 7, (1, 1)),
    ("shift", 8, (2, 1)),
]

_CLOSE_CANDIDATES = [
    ("objects", 1, (1, 1)),
    ("objects", 2, (1, 1)),
    ("objects", 4, (1, 1)),
    ("shift", 9, (1, 0)),
]

_NOISE_HEAVY = [
    ("noise", 1, (0, 0)),
    ("noise", 2, (0, 0)),
    ("noise", 3, (0, 0)),
    ("objects", 5, (2, 2)),
]


def test_criterion_1_cover_streams_score_exactly_100():
    with _gate("1 cover optimality") as info:
        t0 = time.perf_counter()
        pcts = []
        for qp in (20, 25, 30):
            for pattern, seed, amp in _C1_SEQUENCES:
                report = optimal_rate(_cover(pattern, seed, amp, qp))
                assert report.n_pus == 30 * 16
                assert report.n_optimal == report.n_pus
                assert report.verdict is Verdict.COVER
                pcts.append(report.optimal_rate_pct)
        assert len(pcts) == 63
        assert all(p == 100.0 for p in pcts)
        prop_at_100 = 100.0 * sum(1 for p in pcts if p == 100.0) / len(pcts)
        assert prop_at_100 == 100.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        info["detail"] = f"63 streams, all 100%, {elapsed:.1f}s"


def test_criterion_2_parity_embedding_always_detected():
    with _gate("2 parity embedder detected") as info:
        covers = [_cover(*args, 25) for args in _MOTION_RICH]
        means = []
        for e in (0.1, 0.2, 0.3, 0.4, 0.5):
            pcts = []
            for cover in covers:
                cfg = EmbedConfig(EmbedMethod.MVD_PARITY, e, rng_seed=0)
                stego, rep = embed(cover, cfg)
                assert rep.pus_modified >= 1  # precondition, not assumption
                report = optimal_rate(stego)
                assert report.optimal_rate_pct < 100.0
                pcts.append(report.optimal_rate_pct)
            assert all(p < 100.0 for p in pcts)  # proportion at 100% is 0
            means.append(sum(pcts) / len(pcts))
        assert all(a >= b for a, b in zip(means, means[1:]))  # non-increasing
        info["detail"] = f"means {['%.2f' % m for m in means]}"


def test_criterion_3_index_threshold_blind_at_zero_detected_above():
    with _gate("3 threshold embedder") as info:
        covers = [_cover(*args, 25) for args in _CLOSE_CANDIDATES]
        for cover in covers:
            cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 0, rng_seed=0)
            stego, rep = embed(cover, cfg)
            assert rep.bits_embedded >= 1
            assert optimal_rate(stego).optimal_rate_pct == 100.0  # provably blind
        # cover vectors are integer-pel here, so the smallest nonzero
        # candidate distance is 4; these are the T >= 1 operating points
        flips_seen = 0
        for T in (4, 8, 1000):
            pcts = []
            for cover in covers:
                cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, T, rng_seed=0)
                stego, rep = embed(cover, cfg)
                assert rep.flips_rate_asymmetric >= 1  # precondition
                flips_seen += rep.flips_rate_asymmetric
                report = optimal_rate(stego)
                assert report.optimal_rate_pct < 100.0
                pcts.append(report.optimal_rate_pct)
            assert all(p < 100.0 for p in pcts)
        info["detail"] = f"T=0 blind on {len(covers)} streams; {flips_seen} asymmetric flips detected above"


def test_criterion_4_adaptive_embedding_detected_and_mv_preserving():
    with _gate("4 adaptive embedder") as info:
        covers = [_cover(*args, 25) for args in _NOISE_HEAVY]
        fields = [reconstruct_mvs(c) for c in covers]
        total_asym = 0
        for bpap in (0.1, 0.2, 0.3, 0.4, 0.5):
            for cover, field, (pattern, _, _) in zip(covers, fields, _NOISE_HEAVY):
                cfg = EmbedConfig(EmbedMethod.INDEX_ADAPTIVE, bpap, rng_seed=0)
                stego, rep = embed(cover, cfg)
                assert reconstruct_mvs(stego) == field  # vectors identical
                report = optimal_rate(stego)
                if rep.flips_rate_asymmetric >= 1:
                    total_asym += rep.flips_rate_asymmetric
                    assert report.optimal_rate_pct < 100.0
                if pattern == "noise" and bpap >= 0.2:
                    # the cheap symmetric pool is exhausted by then
                    assert rep.flips_rate_asymmetric >= 1
        assert total_asym > 0
        info["detail"] = f"{total_asym} asymmetric flips across the grid, all detected"


def test_criterion_5_worked_example_streams():
    with _gate("5 worked example") as info:
        # (a) the optimal choice: 3 bits against the 5-bit alternative
        optimal = scaffold_stream(0, Mvd(0, 0))
        report = optimal_rate(optimal)
        assert report.optimal_rate_pct == 100.0
        assert report.verdict is Verdict.COVER
        target = list(iter_pu_checks(optimal))[-1]
        assert (target.chosen_rate, target.other_rate) == (3, 5)
        assert target.mv == MotionVector(3, 9)
        assert target.record.mvd == Mvd(0, 0)
        other_mvd = Mvd(target.mv.x - target.cands.mvp1.x, target.mv.y - target.cands.mvp1.y)
        assert other_mvd == Mvd(0, 1)

        # (b) an index flip preserving the vector: 5 bits where 3 sufficed
        flipped = scaffold_stream(1, Mvd(0, 1))
        report_b = optimal_rate(flipped)
        assert report_b.verdict is Verdict.STEGO
        assert report_b.optimal_rate_pct == 75.0
        assert report_b.violations == [(1, 16, 16)]
        check_b = list(iter_pu_checks(flipped))[-1]
        assert (check_b.chosen_rate, check_b.other_rate) == (5, 3)
        assert check_b.mv == MotionVector(3, 9)
        # the threshold embedder reproduces exactly this stream
        cfg = EmbedConfig(EmbedMethod.INDEX_THRESHOLD, 1, payload=[0, 0, 0, 1])
        produced, _ = embed_index_threshold(optimal, cfg)
        assert write_stream(produced) == write_stream(flipped)

        # (c) a one-quarter-pel difference change: decoder sees 5 against 3
        assert parity_adjust(Mvd(0, 0), use_x=False, bit=1) == Mvd(0, -1)
        nudged = scaffold_stream(0, Mvd(0, -1))
        report_c = optimal_rate(nudged)
        assert report_c.verdict is Verdict.STEGO
        assert report_c.optimal_rate_pct == 75.0
        check_c = list(iter_pu_checks(nudged))[-1]
        assert check_c.mv == MotionVector(3, 8)
        assert (check_c.chosen_rate, check_c.other_rate) == (5, 3)
        info["detail"] = "rates 3/5, flip and nudge both flagged"


def test_criterion_6_bit_model_matches_codeword_oracle():
    with _gate("6 bit-model oracle") as info:
        for v in range(-1024, 1025):
            assert se_bits(v) == len(se_codeword(v))
        for n in range(0, 10**6 + 1):
            assert ue_bits(n) == len(ue_codeword(n))
        info["detail"] = "se |v|<=1024, ue codeNum<=1e6, exact"


def test_criterion_7_round_trip_and_candidate_symmetry():
    with _gate("7 round trip and symmetry") as info:
        rng = np.random.default_rng(2026)
        patterns = ["shift", "objects", "noise"]
        for k in range(100):
            pattern = patterns[k % 3]
            w, h = [(32, 32), (48, 32), (32, 48)][k % 3]
            frames = int(rng.integers(3, 7))
            qp = int(rng.integers(18, 39))
            amp = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            spec = SynthSpec(SynthPattern(pattern), w, h, frames, seed=k, amplitude=amp)
            stream, field = encode_sequence(synthesize(spec), RdParams(qp=qp))

            again = read_stream(write_stream(stream))
            assert again.header == stream.header
            assert again.records == stream.records
            assert reconstruct_mvs(again) == field  # decoder reproduces the encoder MV field
            for record, cands, mv in decode_walk(again):
                encoder_side = derive_candidates(
                    field, record.frame_index, record.block_x, record.block_y
                )
                assert cands == encoder_side
                assert mv == field.get(record.frame_index, record.block_x, record.block_y)
        info["detail"] = "100 randomized encodes, exact"


class _CountingRecords(list):
    def __init__(self, records):
        super().__init__(records)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_criterion_8_extraction_is_single_pass_and_cheap():
    with _gate("8 extraction cost") as info:
        spec = SynthSpec(SynthPattern.GLOBAL_SHIFT, 352, 288, 240, seed=0, amplitude=(1, 0))
        frames = synthesize(spec)
        t0 = time.perf_counter()
        stream, _ = encode_sequence(frames, RdParams(qp=25))
        encode_s = time.perf_counter() - t0

        counted = _CountingRecords(stream.records)
        t0 = time.perf_counter()  # the one pass over the records is the stream's conversion of them
        report = optimal_rate(stream_of(stream.header, counted))
        extract_s = time.perf_counter() - t0

        assert report.n_pus == (352 // 16) * (288 // 16) * 239
        assert report.verdict is Verdict.COVER
        assert counted.iterations == 1  # a single linear pass over the records
        assert extract_s <= encode_s
        info["detail"] = f"extract {extract_s:.2f}s vs encode {encode_s:.2f}s over {report.n_pus} PUs"


_CRITERIA = [
    test_criterion_1_cover_streams_score_exactly_100,
    test_criterion_2_parity_embedding_always_detected,
    test_criterion_3_index_threshold_blind_at_zero_detected_above,
    test_criterion_4_adaptive_embedding_detected_and_mv_preserving,
    test_criterion_5_worked_example_streams,
    test_criterion_6_bit_model_matches_codeword_oracle,
    test_criterion_7_round_trip_and_candidate_symmetry,
    test_criterion_8_extraction_is_single_pass_and_cheap,
]


def main() -> int:
    failures = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except BaseException as exc:  # the gate line was already printed
            failures += 1
            print(f"  -> {type(exc).__name__}: {exc}", file=sys.__stdout__, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
