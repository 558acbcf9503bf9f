"""Binary stream format, YUV reader, and report rendering."""

import csv
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpo import (
    InputError,
    MalformedStreamError,
    Mvd,
    PuRecord,
    SequenceStream,
    StreamHeader,
    YuvSpec,
    iter_yuv_lumas,
    load_stream,
    optimal_rate,
    read_stream,
    read_yuv,
    report_to_csv,
    report_to_json,
    save_stream,
    write_stream,
)
from mvpo.formats import HEADER_SIZE, MAGIC, RECORD_SIZE, VERSION
from mvpo.stream import Plane

from mvpo_testutil import encode_synth, read_stream_oracle, scaffold_stream, valid_streams


# ---------------------------------------------------------------- layout

def test_header_is_25_bytes_and_records_16():
    assert HEADER_SIZE == 25
    assert RECORD_SIZE == 16


def test_empty_stream_serializes_to_header_only():
    header = StreamHeader(64, 48, 16, 30, frame_count=1)
    data = write_stream(SequenceStream(header, []))
    assert len(data) == 25
    assert data[:4] == b"MVPO"


def test_header_fields_at_documented_offsets():
    # independent parse: little-endian fields straight out of the byte string
    header = StreamHeader(352, 288, 16, 27, frame_count=9)
    stream = SequenceStream(header, [])
    data = write_stream(stream)
    assert data[0:4] == MAGIC
    assert int.from_bytes(data[4:6], "little") == VERSION
    assert int.from_bytes(data[6:8], "little") == 352
    assert int.from_bytes(data[8:10], "little") == 288
    assert data[10] == 16
    assert data[11] == 27
    assert data[12] == 0  # IPPP tag
    assert int.from_bytes(data[13:17], "little") == 9
    assert int.from_bytes(data[17:25], "little") == 0


def test_record_fields_at_documented_offsets():
    header = StreamHeader(32, 32, 16, 25, frame_count=3)
    record = PuRecord(2, 16, 16, 1, Mvd(-5, 7))
    stream = SequenceStream(header, [PuRecord(1, bx, by, 0, Mvd(0, 0)) for by in (0, 16) for bx in (0, 16)])
    stream.records.extend([PuRecord(2, bx, by, 0, Mvd(0, 0)) for by in (0, 16) for bx in (0, 16)])
    stream.records[-1] = record
    data = write_stream(stream)
    raw = data[HEADER_SIZE + 7 * RECORD_SIZE :]
    assert len(raw) == RECORD_SIZE
    assert int.from_bytes(raw[0:4], "little") == 2
    assert int.from_bytes(raw[4:6], "little") == 16
    assert int.from_bytes(raw[6:8], "little") == 16
    assert raw[8] == 1
    assert raw[9] == 0  # pad
    assert int.from_bytes(raw[10:12], "little", signed=True) == -5
    assert int.from_bytes(raw[12:14], "little", signed=True) == 7
    assert raw[14:16] == b"\x00\x00"  # reserved


# ---------------------------------------------------------------- round trips

def test_round_trip_scaffold_stream():
    stream = scaffold_stream(1, Mvd(0, 1))
    again = read_stream(write_stream(stream))
    assert again.header == stream.header
    assert again.records == stream.records


def test_round_trip_encoded_stream_and_reports_agree():
    stream, _, _ = encode_synth("objects", frames=5, amp=(2, 2), seed=3)
    again = read_stream(write_stream(stream))
    assert again.records == stream.records
    assert optimal_rate(again).optimal_rate_pct == optimal_rate(stream).optimal_rate_pct


def test_serialization_is_deterministic():
    stream, _, _ = encode_synth("noise", frames=4, seed=6)
    assert write_stream(stream) == write_stream(stream)


def test_save_and_load_files(tmp_path):
    stream, _, _ = encode_synth("shift", frames=4, seed=1)
    path = tmp_path / "seq.mvpo"
    save_stream(stream, path)
    assert path.stat().st_size == HEADER_SIZE + RECORD_SIZE * stream.n_records
    again = load_stream(path)
    assert again.records == stream.records


_mvds = st.integers(min_value=-32768, max_value=32767)


@given(
    st.lists(st.tuples(_mvds, _mvds, st.integers(min_value=0, max_value=1)), max_size=8),
    st.integers(min_value=0, max_value=51),
)
def test_round_trip_arbitrary_records(cells, qp):
    # one frame row of PUs per generated record keeps raster order trivial
    header = StreamHeader(16, 16, 16, qp, frame_count=len(cells) + 1)
    records = [
        PuRecord(f + 1, 0, 0, idx, Mvd(dx, dy))
        for f, (dx, dy, idx) in enumerate(cells)
    ]
    stream = SequenceStream(header, records)
    again = read_stream(write_stream(stream))
    assert again.header == stream.header
    assert again.records == stream.records


# ---------------------------------------------------------------- malformed input

def _valid_bytes() -> bytes:
    return write_stream(scaffold_stream(0, Mvd(0, 0)))


def test_read_rejects_truncated_header():
    with pytest.raises(MalformedStreamError, match="truncated"):
        read_stream(_valid_bytes()[: HEADER_SIZE - 1])


def test_read_rejects_bad_magic():
    data = bytearray(_valid_bytes())
    data[0] = ord("X")
    with pytest.raises(MalformedStreamError, match="magic"):
        read_stream(bytes(data))


def test_read_rejects_unknown_version():
    data = bytearray(_valid_bytes())
    data[4] = 99
    with pytest.raises(MalformedStreamError, match="version"):
        read_stream(bytes(data))


def test_read_rejects_invalid_header_fields():
    data = bytearray(_valid_bytes())
    data[10] = 7  # pu_size not a supported value
    with pytest.raises(MalformedStreamError, match="invalid header"):
        read_stream(bytes(data))
    data = bytearray(_valid_bytes())
    data[11] = 52  # qp out of range
    with pytest.raises(MalformedStreamError, match="invalid header"):
        read_stream(bytes(data))
    data = bytearray(_valid_bytes())
    data[12] = 1  # gop tag other than IPPP's 0
    with pytest.raises(MalformedStreamError, match="invalid header field: unknown gop tag 1"):
        read_stream(bytes(data))


def test_read_rejects_truncated_records():
    with pytest.raises(MalformedStreamError, match="truncated"):
        read_stream(_valid_bytes()[:-1])


def test_read_rejects_trailing_bytes():
    with pytest.raises(MalformedStreamError, match="trailing"):
        read_stream(_valid_bytes() + b"\x00")


def test_read_rejects_nonzero_pad_and_reserved():
    data = bytearray(_valid_bytes())
    data[HEADER_SIZE + 9] = 1
    with pytest.raises(MalformedStreamError, match="pad"):
        read_stream(bytes(data))
    data = bytearray(_valid_bytes())
    data[HEADER_SIZE + 14] = 1
    with pytest.raises(MalformedStreamError, match="reserved"):
        read_stream(bytes(data))


def test_read_rejects_frame_index_beyond_header():
    data = bytearray(_valid_bytes())
    data[HEADER_SIZE + 0] = 9  # frame_count in the scaffold header is 2
    with pytest.raises(MalformedStreamError, match="frame"):
        read_stream(bytes(data))


def test_read_rejects_off_grid_blocks():
    data = bytearray(_valid_bytes())
    data[HEADER_SIZE + 4] = 8  # block_x 8 is not a multiple of pu_size 16
    with pytest.raises(MalformedStreamError, match="grid"):
        read_stream(bytes(data))
    data = bytearray(_valid_bytes())
    struct.pack_into("<H", data, HEADER_SIZE + 4, 32)  # beyond the 32-wide frame
    with pytest.raises(MalformedStreamError, match="grid"):
        read_stream(bytes(data))


def test_read_names_the_first_bad_record_and_its_first_failing_check():
    # record 2 breaks every field check; clearing them one at a time walks
    # the checks in a reader's order, while record 3's bad pad never shows
    data = bytearray(_valid_bytes())
    struct.pack_into("<IHHBBhhH", data, HEADER_SIZE + 2 * RECORD_SIZE, 7, 8, 16, 2, 5, 0, 0, 9)
    data[HEADER_SIZE + 3 * RECORD_SIZE + 9] = 1
    for field, offset, size, message in [
        ("pad", 9, 1, "nonzero pad byte 5 in record 2"),
        ("reserved", 14, 2, "nonzero reserved field 9 in record 2"),
        ("frame", 0, 4, "record 2 frame 7 >= frame_count 2"),
        ("block_x", 4, 2, "record 2 block (8, 16) off the 32x32 grid"),
        ("idx", 8, 1, "invalid record 2: idx 2 not in {0, 1}"),
    ]:
        with pytest.raises(MalformedStreamError) as exc:
            read_stream(bytes(data))
        assert str(exc.value) == message, field
        start = HEADER_SIZE + 2 * RECORD_SIZE + offset
        data[start : start + size] = bytes(size) if field != "frame" else (1).to_bytes(4, "little")
    with pytest.raises(MalformedStreamError, match="nonzero pad byte 1 in record 3$"):
        read_stream(bytes(data))


def test_read_rejects_invalid_index():
    data = bytearray(_valid_bytes())
    data[HEADER_SIZE + 8] = 2
    with pytest.raises(MalformedStreamError, match="idx"):
        read_stream(bytes(data))


@st.composite
def _overwritten_streams(draw) -> bytes:
    """A decodable stream's bytes with 1-3 of its record bytes overwritten, often in one record."""
    data = bytearray(write_stream(draw(valid_streams())))
    n = (len(data) - HEADER_SIZE) // RECORD_SIZE
    first = draw(st.integers(0, n - 1))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.one_of(st.just(first), st.integers(0, n - 1)))
        offset = draw(st.integers(0, RECORD_SIZE - 1))
        data[HEADER_SIZE + k * RECORD_SIZE + offset] = draw(st.one_of(st.integers(0, 3), st.integers(0, 255)))
    return bytes(data)


@settings(max_examples=300)
@given(_overwritten_streams())
def test_read_stream_matches_record_by_record_oracle(data):
    # the columnwise checks name the record and the check the record-by-record reader names first
    try:
        want = read_stream_oracle(data)
    except MalformedStreamError as exc:
        with pytest.raises(MalformedStreamError) as got:
            read_stream(data)
        assert str(got.value) == str(exc)
        return
    got = read_stream(data)
    assert (got.header, got.records) == (want.header, want.records)
    assert all(type(v) is int for r in got.records for v in (r.frame_index, r.block_x, r.block_y, r.idx, r.mvd.dx))


def test_single_byte_corruption_never_crashes():
    base = _valid_bytes()
    for i in range(len(base)):
        data = bytearray(base)
        data[i] ^= 0xFF
        try:
            stream = read_stream(bytes(data))
        except MalformedStreamError:
            continue
        try:
            optimal_rate(stream)
        except MalformedStreamError:
            pass


# ---------------------------------------------------------------- YUV input

def _write_yuv(path, lumas):
    with open(path, "wb") as f:
        for luma in lumas:
            f.write(luma.tobytes())
            f.write(np.full(luma.size // 2, 128, dtype=np.uint8).tobytes())


def test_read_yuv_lumas(tmp_path):
    rng = np.random.default_rng(0)
    lumas = [rng.integers(0, 256, size=(16, 32), dtype=np.uint8) for _ in range(3)]
    path = tmp_path / "clip.yuv"
    _write_yuv(path, lumas)
    planes = read_yuv(path, YuvSpec(32, 16, 3))
    assert len(planes) == 3
    for plane, luma in zip(planes, lumas):
        assert plane == Plane(luma)


def test_read_yuv_rejects_wrong_size(tmp_path):
    path = tmp_path / "clip.yuv"
    _write_yuv(path, [np.zeros((16, 32), dtype=np.uint8)])
    with pytest.raises(InputError, match="size"):
        read_yuv(path, YuvSpec(32, 16, 2))


def test_iter_yuv_is_lazy(tmp_path):
    missing = tmp_path / "nope.yuv"
    it = iter_yuv_lumas(missing, YuvSpec(32, 16, 1))  # nothing touched yet
    with pytest.raises(OSError):
        next(it)
    path = tmp_path / "clip.yuv"
    _write_yuv(path, [np.full((16, 32), v, dtype=np.uint8) for v in (10, 20)])
    it = iter_yuv_lumas(path, YuvSpec(32, 16, 2))
    assert next(it).data[0, 0] == 10
    assert next(it).data[0, 0] == 20
    with pytest.raises(StopIteration):
        next(it)


def test_yuv_spec_validation():
    with pytest.raises(InputError):
        YuvSpec(0, 16, 1)
    with pytest.raises(InputError):
        YuvSpec(31, 16, 1)  # odd width cannot be 4:2:0
    with pytest.raises(InputError):
        YuvSpec(32, 16, 0)
    assert YuvSpec(32, 16, 2).frame_bytes == 32 * 16 * 3 // 2


# ---------------------------------------------------------------- reports

def test_report_json_contents():
    report = optimal_rate(scaffold_stream(1, Mvd(0, 1)))
    doc = json.loads(report_to_json(report, invocation={"command": "analyze"}))
    assert doc["n_pus"] == 4
    assert doc["n_optimal"] == 3
    assert doc["optimal_rate_pct"] == 75.0
    assert doc["verdict"] == "stego"
    assert doc["violations"] == [[1, 16, 16]]
    assert doc["per_frame"]["1"] == {"n_pus": 4, "n_optimal": 3}
    assert doc["invocation"] == {"command": "analyze"}


def test_report_csv_contents():
    report = optimal_rate(scaffold_stream(0, Mvd(0, 0)))
    rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    assert rows == [
        {"n_pus": "4", "n_optimal": "4", "optimal_rate_pct": "100.000000", "verdict": "cover"}
    ]
