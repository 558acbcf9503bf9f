"""Bit model against an independent codeword-construction oracle, plus value types."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mvpo import (
    CandidatePair,
    MotionVector,
    Mvd,
    PuRecord,
    RdParams,
    ZERO_MV,
    motion_lambda,
    rate_of,
    se_bits,
    ue_bits,
)
from mvpo import codec, core
from mvpo.core import MV_MAX, MV_MIN, MVD_MAX, MVD_MIN

from mvpo_testutil import se_code_num, se_codeword, ue_codeword


# ---------------------------------------------------------------- bit model

UE_KNOWN = {0: 1, 1: 3, 2: 3, 3: 5, 4: 5, 5: 5, 6: 5, 7: 7, 100: 13}
SE_KNOWN = {0: 1, 1: 3, -1: 3, 2: 5, -2: 5, 3: 5, -3: 5, 4: 7, -4: 7}


def test_ue_bits_known_values():
    for code_num, bits in UE_KNOWN.items():
        assert ue_bits(code_num) == bits


def test_se_bits_known_values():
    for value, bits in SE_KNOWN.items():
        assert se_bits(value) == bits


def test_ue_bits_matches_codeword_oracle_small():
    for n in range(0, 4096):
        assert ue_bits(n) == len(ue_codeword(n))


def test_se_bits_matches_codeword_oracle_small():
    for v in range(-2048, 2049):
        assert se_bits(v) == len(se_codeword(v))


def test_se_zigzag_mapping_is_standard():
    # positive values take the odd code numbers, negatives the even ones
    assert [se_code_num(v) for v in (0, 1, -1, 2, -2, 3)] == [0, 1, 2, 3, 4, 5]


@given(st.integers(min_value=0, max_value=2**40))
def test_ue_bits_matches_codeword_oracle(code_num):
    assert ue_bits(code_num) == len(ue_codeword(code_num))


@given(st.integers(min_value=-(2**30), max_value=2**30))
def test_se_bits_matches_codeword_oracle(value):
    assert se_bits(value) == len(se_codeword(value))


@given(st.integers(min_value=0, max_value=2**30))
def test_se_bits_symmetric(value):
    assert se_bits(value) == se_bits(-value)


@given(st.integers(min_value=-(2**20), max_value=2**20), st.integers(min_value=-(2**20), max_value=2**20))
def test_se_bits_monotone_in_magnitude(a, b):
    if abs(a) <= abs(b):
        assert se_bits(a) <= se_bits(b)
    else:
        assert se_bits(a) >= se_bits(b)


@given(st.integers(min_value=0, max_value=2**40))
def test_ue_bits_odd_lengths(code_num):
    assert ue_bits(code_num) % 2 == 1


def test_ue_bits_rejects_negative():
    with pytest.raises(ValueError):
        ue_bits(-1)


def test_bits_accept_numpy_integers():
    assert ue_bits(np.int64(6)) == 5
    assert se_bits(np.int32(-1)) == 3


def test_rate_of_known_values():
    assert rate_of(Mvd(0, 0)) == 3
    assert rate_of(Mvd(0, -1)) == 5
    assert rate_of(Mvd(0, 1)) == 5
    assert rate_of(Mvd(1, 1)) == 7


@given(st.integers(min_value=-1024, max_value=1024), st.integers(min_value=-1024, max_value=1024))
def test_rate_of_is_components_plus_index_bit(dx, dy):
    r = rate_of(Mvd(dx, dy))
    assert r == se_bits(dx) + se_bits(dy) + 1
    assert r >= 3
    assert r % 2 == 1  # two odd codeword lengths plus one index bit


def test_rate_table_is_se_bits_over_every_mvd_component():
    values = range(MVD_MIN, MVD_MAX + 1)
    expected = [se_bits(v) for v in values]
    assert core._SE_BITS == expected
    assert core._SE_BITS_TABLE.tolist() == expected and not core._SE_BITS_TABLE.flags.writeable
    assert [rate_of(Mvd(v, 0)) for v in values] == [b + 2 for b in expected]
    assert [rate_of(Mvd(0, v)) for v in values] == [b + 2 for b in expected]
    # the encoder's rate term reads a view of the same table, offset by its own limit
    lim = codec._RATE_LIMIT
    assert np.shares_memory(codec._RATE_BITS, core._SE_BITS_TABLE)
    assert codec._RATE_BITS.tolist() == [se_bits(v) for v in range(-lim, lim + 1)]


# ---------------------------------------------------------------- value types

def test_motion_vector_bounds():
    assert MotionVector(MV_MIN, MV_MAX) == MotionVector(MV_MIN, MV_MAX)
    with pytest.raises(ValueError):
        MotionVector(MV_MAX + 1, 0)
    with pytest.raises(ValueError):
        MotionVector(0, MV_MIN - 1)


def test_mvd_bounds_cover_any_candidate_difference():
    # a difference of two in-range vectors must always construct
    Mvd(MV_MAX - MV_MIN, MV_MIN - MV_MAX)
    with pytest.raises(ValueError):
        Mvd(MVD_MAX + 1, 0)
    with pytest.raises(ValueError):
        Mvd(0, MVD_MIN - 1)


def test_vector_types_coerce_numpy_ints():
    mv = MotionVector(np.int64(4), np.int16(-4))
    assert (mv.x, mv.y) == (4, -4)
    assert isinstance(mv.x, int)


# plain ints on both sides of every bound, and the integral types a caller may pass instead
_EDGES = sorted({b + d for b in (MV_MIN, MV_MAX, MVD_MIN, MVD_MAX, 0, 1) for d in (-1, 0, 1)})
_INTEGRALS = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64, bool, int]


def _as(kind, value: int):
    """`value` as `kind` where that type holds it exactly, else as a plain int."""
    if kind is bool:
        return bool(value) if value in (0, 1) else value
    if kind is int:
        return value
    info = np.iinfo(kind)
    return kind(value) if info.min <= value <= info.max else value


def _assert_coerces(cls, plain: tuple, passed: tuple):
    """`cls(*passed)` equals `cls(*plain)` with plain-int fields, or raises its exact error."""
    try:
        want = cls(*plain)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            cls(*passed)
        return
    got = cls(*passed)
    assert got == want and hash(got) == hash(want)
    fields = [getattr(got, f.name) for f in dataclasses.fields(got)]
    assert all(type(v) is int for v in fields if not isinstance(v, Mvd)), fields


@given(
    st.sampled_from([MotionVector, Mvd]),
    st.sampled_from(_EDGES),
    st.sampled_from(_EDGES),
    st.sampled_from(_INTEGRALS),
    st.sampled_from(_INTEGRALS),
)
def test_value_types_coerce_integrals_at_the_bounds(cls, a, b, kind_a, kind_b):
    _assert_coerces(cls, (a, b), (_as(kind_a, a), _as(kind_b, b)))


_U16_EDGES = [-1, 0, 1, 16, 0xFFFF, 0x10000]
_U32_EDGES = [-1, 0, 1, 0xFFFF, 0x10000, 0xFFFFFFFF, 0x100000000]


@given(
    st.tuples(
        st.sampled_from(_U32_EDGES), st.sampled_from(_U16_EDGES), st.sampled_from(_U16_EDGES), st.integers(-1, 2)
    ),
    st.lists(st.sampled_from(_INTEGRALS), min_size=4, max_size=4),
)
def test_pu_record_coerces_integrals_at_the_bounds(fields, kinds):
    mvd = Mvd(MVD_MIN, MVD_MAX)
    passed = tuple(_as(kind, v) for kind, v in zip(kinds, fields))
    _assert_coerces(PuRecord, (*fields, mvd), (*passed, mvd))


def test_hand_written_constructors_keep_dataclass_behaviour():
    mvd = Mvd(1, 2)
    values = [MotionVector(1, 2), mvd, CandidatePair(ZERO_MV, MotionVector(1, 2)), PuRecord(1, 16, 0, 1, mvd)]
    for value in values:
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        assert pickle.loads(pickle.dumps(value)) == value
        assert dataclasses.replace(value) == value and hash(dataclasses.replace(value)) == hash(value)
    assert MotionVector(1, 2) != Mvd(1, 2)
    assert repr(PuRecord(1, 16, 0, 1, mvd)) == "PuRecord(frame_index=1, block_x=16, block_y=0, idx=1, mvd=Mvd(dx=1, dy=2))"
    # replace builds through the constructor: it coerces and re-validates
    assert type(dataclasses.replace(mvd, dx=np.int16(-3)).dx) is int
    with pytest.raises(ValueError, match="motion vector component"):
        dataclasses.replace(MotionVector(1, 2), y=MV_MAX + 1)
    with pytest.raises(ValueError, match="mvd component"):
        dataclasses.replace(mvd, dx=MVD_MIN - 1)
    with pytest.raises(ValueError, match="idx 2"):
        dataclasses.replace(values[3], idx=2)


def test_vector_types_reject_floats():
    with pytest.raises(TypeError):
        MotionVector(1.0, 0)
    with pytest.raises(TypeError):
        Mvd(0, 0.5)


def test_candidate_pair_access():
    pair = CandidatePair(MotionVector(3, 9), MotionVector(3, 8))
    assert pair[0] == MotionVector(3, 9)
    assert pair[1] == MotionVector(3, 8)
    assert not pair.identical
    assert CandidatePair(ZERO_MV, ZERO_MV).identical
    with pytest.raises(ValueError):
        pair[2]
    with pytest.raises(ValueError):
        pair[-1]
    # iteration and unpacking give the two candidates, not the ValueError of index 2
    assert list(pair) == [MotionVector(3, 9), MotionVector(3, 8)]
    mvp0, mvp1 = pair
    assert (mvp0, mvp1) == (pair.mvp0, pair.mvp1)
    assert tuple(CandidatePair(ZERO_MV, ZERO_MV)) == (ZERO_MV, ZERO_MV)


MV_COMPONENT = st.one_of(st.sampled_from([MV_MIN, MV_MAX]), st.integers(MV_MIN, MV_MAX))
BOUND_MV = st.tuples(MV_COMPONENT, MV_COMPONENT)


@given(BOUND_MV, BOUND_MV, BOUND_MV)
@example((MV_MAX, MV_MIN), (MV_MIN, MV_MAX), (MV_MAX, MV_MIN))
def test_candidate_rates_match_codeword_oracle(mv, a, b):
    mv, a, b = MotionVector(*mv), MotionVector(*a), MotionVector(*b)
    expected = [len(se_codeword(mv.x - c.x)) + len(se_codeword(mv.y - c.y)) + 1 for c in (a, b)]
    # a difference of two in-bound vectors always fits the coded range, so no Mvd raises
    assert [rate_of(Mvd(mv.x - c.x, mv.y - c.y)) for c in (a, b)] == expected


def test_motion_lambda_reference_point():
    assert motion_lambda(12) == pytest.approx(math.sqrt(0.85))
    assert motion_lambda(30) > motion_lambda(20) > 0


def test_rd_params_validation():
    params = RdParams(qp=25)
    assert params.lambda_motion == pytest.approx(motion_lambda(25))
    assert RdParams(qp=25, lambda_motion=2.5).lambda_motion == 2.5
    with pytest.raises(ValueError):
        RdParams(qp=52)
    with pytest.raises(ValueError):
        RdParams(qp=-1)
    with pytest.raises(ValueError):
        RdParams(pu_size=12)
    with pytest.raises(ValueError):
        RdParams(search_range=0)
    with pytest.raises(ValueError):
        RdParams(lambda_motion=0.0)
