"""Binary stream format, YUV reader, and report rendering."""

import csv
import dataclasses
import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvpo import (
    EmbedConfig,
    EmbedMethod,
    InputError,
    MalformedStreamError,
    Mvd,
    PuRecord,
    SequenceStream,
    StreamHeader,
    YuvSpec,
    embed,
    embed_mvd_parity,
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
from mvpo import cli
from mvpo import stream as stream_module
from mvpo.formats import HEADER_SIZE, MAGIC, RECORD_SIZE, VERSION
from mvpo.stream import Plane

from mvpo_testutil import (
    encode_synth,
    read_stream_oracle,
    scaffold_stream,
    stream_bytes,
    stream_of,
    synth_covers,
    valid_streams,
)


# ---------------------------------------------------------------- layout

def test_header_is_25_bytes_and_records_16():
    assert HEADER_SIZE == 25
    assert RECORD_SIZE == 16


def test_empty_stream_serializes_to_header_only():
    header = StreamHeader(64, 48, 16, 30, frame_count=1)
    data = write_stream(stream_of(header, []))
    assert len(data) == 25
    assert data[:4] == b"MVPO"


def test_header_fields_at_documented_offsets():
    # independent parse: little-endian fields straight out of the byte string
    header = StreamHeader(352, 288, 16, 27, frame_count=9)
    rows, cols = range(0, 288, 16), range(0, 352, 16)
    grid = [PuRecord(f, x, y, 0, Mvd(0, 0)) for f in range(1, 9) for y in rows for x in cols]
    data = write_stream(stream_of(header, grid))
    assert data[0:4] == MAGIC
    assert int.from_bytes(data[4:6], "little") == VERSION
    assert int.from_bytes(data[6:8], "little") == 352
    assert int.from_bytes(data[8:10], "little") == 288
    assert data[10] == 16
    assert data[11] == 27
    assert data[12] == 0  # IPPP tag
    assert int.from_bytes(data[13:17], "little") == 9
    assert int.from_bytes(data[17:25], "little") == 8 * 22 * 18 == len(grid)
    assert len(data) == HEADER_SIZE + len(grid) * RECORD_SIZE


def test_record_fields_at_documented_offsets():
    header = StreamHeader(32, 32, 16, 25, frame_count=3)
    record = PuRecord(2, 16, 16, 1, Mvd(-5, 7))
    records = [PuRecord(f, bx, by, 0, Mvd(0, 0)) for f in (1, 2) for by in (0, 16) for bx in (0, 16)]
    records[-1] = record
    data = write_stream(stream_of(header, records))
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


def test_a_read_stream_builds_its_records_only_when_they_are_read(monkeypatch, tmp_path, capsys):
    cover, _, _ = encode_synth("objects", frames=4, amp=(2, 2), seed=3)
    data = write_stream(cover)
    (tmp_path / "cover.mvpo").write_bytes(data)
    built = []
    init = PuRecord.__init__

    def counted(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(PuRecord, "__init__", counted)  # every PuRecord built anywhere
    stream = read_stream(data)
    report = optimal_rate(stream)
    assert write_stream(stream) == data and stream.n_records == cover.n_records
    tar1, _ = embed_mvd_parity(stream, EmbedConfig(EmbedMethod.MVD_PARITY, 0.5, rng_seed=1))
    write_stream(tar1)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "--in", "cover.mvpo"]) == 0
    assert cli.main(["embed", "--in", "cover.mvpo", "--method", "tar1", "--e", "1", "--out", "tar1.mvpo"]) == 0
    assert cli.main(["encode", "--synth", "pattern=objects,size=32x32,frames=3", "--out", "new.mvpo"]) == 0
    capsys.readouterr()
    encode_synth("shift", frames=3)
    # analyzing, writing, tar1, the CLI's analyze, tar1 embed and encode, and encode_sequence built no record
    assert built == []
    records = stream.records
    assert len(built) == cover.n_records
    assert stream.records is not records and len(built) == 2 * cover.n_records  # built on every read
    assert records == cover.records and stream == cover and optimal_rate(stream) == report
    # the records are a copy: an edit does not reach the stream
    records[0] = PuRecord(1, 0, 0, 1 - records[0].idx, records[0].mvd)
    assert write_stream(stream) == data and stream.records[0] != records[0]


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


@settings(max_examples=60)
@given(valid_streams() | synth_covers(), st.integers(0, 2**32))
@example(stream_of(StreamHeader(32, 32, 16, 25, frame_count=1), []), 0)
def test_every_stream_is_its_header_and_one_read_only_table(cover, seed):
    streams = [cover]
    methods = ((EmbedMethod.MVD_PARITY, 0.5), (EmbedMethod.INDEX_THRESHOLD, 5), (EmbedMethod.INDEX_ADAPTIVE, 0.5))
    for method, value in methods:
        try:
            streams.append(embed(cover, EmbedConfig(method, value, seed))[0])
        except MalformedStreamError:  # a tar1 nudge took a vector out of range
            assert method is EmbedMethod.MVD_PARITY
    for stream in streams:
        again = read_stream(write_stream(stream))
        assert again == stream
        assert stream_of(stream.header, stream.records) == stream
        for form in (stream, again):
            table = form.table
            assert form.table is table and table.dtype == stream_module.RECORD_DTYPE
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table["idx"][:] = 0


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
    stream = stream_of(header, records)
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
    data = bytearray(_valid_bytes())
    data[13:17] = bytes(4)  # no frame, not even the intra one
    with pytest.raises(MalformedStreamError, match=r"invalid header field: frame_count 0 outside \[1, 4294967295\]"):
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
    with pytest.raises(MalformedStreamError) as exc:
        read_stream(bytes(data))
    assert str(exc.value) == "record at (9, 0, 0) out of raster order, expected (1, 0, 0)"


def test_read_rejects_off_grid_blocks():
    data = bytearray(_valid_bytes())
    data[HEADER_SIZE + 4] = 8  # block_x 8 is not a multiple of pu_size 16
    with pytest.raises(MalformedStreamError) as exc:
        read_stream(bytes(data))
    assert str(exc.value) == "record at (1, 8, 0) out of raster order, expected (1, 0, 0)"
    data = bytearray(_valid_bytes())
    struct.pack_into("<H", data, HEADER_SIZE + 4, 32)  # beyond the 32-wide frame
    with pytest.raises(MalformedStreamError) as exc:
        read_stream(bytes(data))
    assert str(exc.value) == "record at (1, 32, 0) out of raster order, expected (1, 0, 0)"


def test_read_names_the_first_bad_record_and_its_first_failing_check():
    # record 2 breaks every field check; clearing them one at a time walks
    # the checks in a reader's order, while record 3's bad pad never shows
    data = bytearray(_valid_bytes())
    struct.pack_into("<IHHBBhhH", data, HEADER_SIZE + 2 * RECORD_SIZE, 7, 8, 16, 2, 5, 0, 0, 9)
    data[HEADER_SIZE + 3 * RECORD_SIZE + 9] = 1
    for field, offset, size, message in [
        ("pad", 9, 1, "nonzero pad byte 5 in record 2"),
        ("reserved", 14, 2, "nonzero reserved field 9 in record 2"),
        ("frame", 0, 4, "record at (7, 8, 16) out of raster order, expected (1, 0, 16)"),
        ("block_x", 4, 2, "record at (1, 8, 16) out of raster order, expected (1, 0, 16)"),
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


# ---------------------------------------------------------------- the one constructor

_U16, _U32 = 2**16 - 1, 2**32 - 1
_MVD_COMPONENTS = st.one_of(st.sampled_from((-(2**15), 2**15 - 1, 0)), st.integers(-(2**15), 2**15 - 1))


def _anywhere(header: StreamHeader) -> dict:
    """Values anywhere in each position field's u32/u16 bounds, often ones just off `header`'s grid."""
    ps = header.pu_size
    return {
        "frame_index": st.one_of(st.sampled_from((0, header.frame_count, _U32)), st.integers(0, _U32)),
        "block_x": st.one_of(st.sampled_from((header.width, _U16 - ps + 1, _U16)), st.integers(0, _U16)),
        "block_y": st.one_of(st.sampled_from((header.height, _U16 - ps + 1, _U16)), st.integers(0, _U16)),
    }


@st.composite
def _records_around_the_grid(draw) -> tuple[StreamHeader, list[PuRecord]]:
    """A header and 0-6 loose records or a whole raster grid of them, 0-2 then with a position moved anywhere.

    A loose record sits on the grid of an existing frame, the intra frame
    included; a whole grid holds one record per P-frame PU in raster order,
    so its records get past the count check to the record checks.
    """
    ps = draw(st.sampled_from((8, 16)))
    cols, rows, frames = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    header = StreamHeader(cols * ps, rows * ps, ps, qp=25, frame_count=frames)
    mvd = st.builds(Mvd, _MVD_COMPONENTS, _MVD_COMPONENTS)
    on_grid = [st.integers(0, n - 1).map(lambda c: c * ps) for n in (cols, rows)]
    loose = st.lists(st.builds(PuRecord, st.integers(0, frames - 1), *on_grid, st.integers(0, 1), mvd), max_size=6)
    raster = [(f, x * ps, y * ps) for f in range(1, frames) for y in range(rows) for x in range(cols)]
    whole = st.tuples(*(st.builds(PuRecord, *map(st.just, at), st.integers(0, 1), mvd) for at in raster)).map(list)
    records = draw(st.one_of(loose, whole))
    anywhere = _anywhere(header)
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        k, field = draw(st.integers(0, len(records) - 1)), draw(st.sampled_from(sorted(anywhere)))
        records[k] = dataclasses.replace(records[k], **{field: draw(anywhere[field])})
    return header, records


@settings(max_examples=300)
@given(_records_around_the_grid())
@example((StreamHeader(32, 32, 16, 25, frame_count=2), [PuRecord(9, 0, 0, 0, Mvd(0, 0))]))
@example((StreamHeader(32, 32, 16, 25, frame_count=2), [PuRecord(1, 8, 0, 0, Mvd(0, 0))]))
def test_a_stream_is_built_only_from_records_the_reader_accepts(case):
    # the constructor raises the reader's error on the same bytes, named by the record-by-record
    # oracle, or builds a stream that writes those bytes and reads back equal
    header, records = case
    data = stream_bytes(header, records)
    try:
        want = read_stream_oracle(data)
    except MalformedStreamError as exc:
        with pytest.raises(MalformedStreamError) as built:
            stream_of(header, records)
        with pytest.raises(MalformedStreamError) as read:
            read_stream(data)
        assert str(built.value) == str(read.value) == str(exc)
        return
    stream = stream_of(header, records)
    assert write_stream(stream) == data
    assert read_stream(write_stream(stream)) == stream == want


@settings(max_examples=200)
@given(valid_streams() | synth_covers(), st.sampled_from(("swap", "drop", "duplicate", "move")), st.data())
def test_a_record_off_its_raster_position_is_refused_by_the_reader_and_the_constructor(stream, damage, data):
    # every grid PU has one record at its raster position, so each damage leaves one misplaced or the count wrong
    records = stream.records
    k = data.draw(st.integers(0, len(records) - 1))
    if damage == "swap":
        assume(len(records) > 1)
        j = data.draw(st.integers(0, len(records) - 1).filter(lambda j: j != k))
        records[k], records[j] = records[j], records[k]
    elif damage == "drop":
        del records[k]
    elif damage == "duplicate":
        records.insert(k, records[k])
    else:
        field = data.draw(st.sampled_from(("frame_index", "block_x", "block_y")))
        value = data.draw(_anywhere(stream.header)[field].filter(lambda v: v != getattr(records[k], field)))
        records[k] = dataclasses.replace(records[k], **{field: value})
    raw = stream_bytes(stream.header, records)
    with pytest.raises(MalformedStreamError) as oracle:
        read_stream_oracle(raw)
    assert "out of raster order" in str(oracle.value) or "does not cover the grid" in str(oracle.value)
    with pytest.raises(MalformedStreamError) as read:
        read_stream(raw)
    with pytest.raises(MalformedStreamError) as built:
        stream_of(stream.header, records)
    assert str(read.value) == str(built.value) == str(oracle.value)


_DAMAGE = {"pad": st.integers(0, 255), "reserved": st.integers(0, _U16), "idx": st.integers(0, 255)}


@settings(max_examples=100)
@given(valid_streams(), st.sampled_from(sorted(_DAMAGE)), st.data())
def test_a_table_with_bad_pad_reserved_or_idx_is_refused_as_the_reader_refuses_it(stream, column, data):
    table = stream.table.copy()
    k = data.draw(st.integers(0, len(table) - 1))
    table[column][k] = data.draw(_DAMAGE[column])
    raw = write_stream(stream)[:HEADER_SIZE] + table.tobytes()
    try:
        want = read_stream_oracle(raw)
    except MalformedStreamError as exc:
        with pytest.raises(MalformedStreamError) as built:
            SequenceStream(stream.header, table)
        assert str(built.value) == str(exc)
        assert table.flags.writeable  # a refused table is left as it was
        return
    assert SequenceStream(stream.header, table) == want == read_stream(raw)


@pytest.mark.parametrize(
    "table",
    [
        np.zeros((1, 2), stream_module.RECORD_DTYPE),
        np.zeros(2, stream_module.RECORD_DTYPE.newbyteorder(">")),
        np.zeros(2, np.int64),
        [PuRecord(1, 0, 0, 0, Mvd(0, 0))],  # records are read through `stream_of`, not the constructor
    ],
    ids=["2-D", "big-endian", "int64", "records"],
)
def test_the_constructor_takes_only_a_1d_record_table(table):
    with pytest.raises(ValueError, match="a stream's table must be a 1-D RECORD_DTYPE array"):
        SequenceStream(StreamHeader(16, 16, 16, 25, frame_count=2), table)


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


def test_iter_yuv_refuses_a_file_cut_short_while_it_is_read(tmp_path):
    # the size is checked when the first frame is read; a cut after that shows as a short read.
    # 64x64 frames outrun the reader's 8 KiB buffer, so the cut is not hidden by buffered bytes
    path = tmp_path / "clip.yuv"
    _write_yuv(path, [np.full((64, 64), v, dtype=np.uint8) for v in (10, 20, 30)])
    spec = YuvSpec(64, 64, 3)
    it = iter_yuv_lumas(path, spec)
    assert next(it).data[0, 0] == 10
    os.truncate(path, spec.frame_bytes)
    with pytest.raises(InputError, match=r"clip\.yuv: short read, file changed underneath$"):
        next(it)
    with pytest.raises(StopIteration):
        next(it)


def test_plane_is_a_2d_uint8_array():
    with pytest.raises(ValueError, match=r"plane must be 2-D, got shape \(16,\)"):
        Plane(np.zeros(16, np.uint8))
    with pytest.raises(ValueError, match="plane must be uint8, got int16"):
        Plane(np.zeros((4, 4), np.int16))


def test_yuv_spec_validation():
    with pytest.raises(InputError, match=r"^size 0x16 must be positive$"):
        YuvSpec(0, 16, 1)
    with pytest.raises(InputError, match=r"^4:2:0 needs even dimensions, got 31x16$"):
        YuvSpec(31, 16, 1)
    with pytest.raises(InputError, match=r"^frame_count 0 must be >= 1$"):
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
