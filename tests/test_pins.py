"""Byte pins: a small seed-0 cover, its three embeds and their analyses, a small experiment CSV, and encodes
of small clips across the PU sizes, qps, search ranges and lambdas.

The first digests were taken from the code before the decode side moved to a
one-buffer record table and slotted value types, the encode grid's before the
search accepted exact candidates unscored.  Any change of stream
bytes, analysis JSON or embed report fails here, so a change that claims
the same bytes is checked on every test run, not only in the benchmark.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from mvpo import RdParams, SynthPattern, SynthSpec, encode_sequence, optimal_rate, synthesize
from mvpo.experiment import parse_plan, rows_to_csv, run_experiment
from mvpo.formats import read_stream, report_to_json, write_stream
from mvpo.stego import METHOD_TAGS, EmbedConfig, embed

# name -> (sha256 of the stream bytes, sha256 of report_to_json(optimal_rate(stream)))
STREAM_PINS = {
    "cover": (
        "db3f3ae8dbf5cf81830f608837dd10d5ba795c4415e3368cd194330da117d511",
        "3b890b65df947913a06fe038a009bf08fc7b3b713a61d659f55df09c4f4ba710",
    ),
    "tar1": (
        "e4b04d2875e9458283185f4bac63115bbab260f7c473460e4af4d6fc9f0c47ed",
        "3b890b65df947913a06fe038a009bf08fc7b3b713a61d659f55df09c4f4ba710",
    ),
    "tar2": (
        "7dc8aadabc28aa35adb760d918753b735763018e435f67f19039527473d462b2",
        "f09e5b1230b251282278eefbf87ab98f257f92742d66118d3ed61bd7b7bdc45e",
    ),
    "tar3": (
        "e4b717bb41fa126c3340eeec235259f71265aadf51cf8e19f400cc55fceef746",
        "3b890b65df947913a06fe038a009bf08fc7b3b713a61d659f55df09c4f4ba710",
    ),
}

# tag -> sha256 of the embed report's sorted-key JSON; re-pinned when the always-zero
# `pus_skipped` key was deleted (the report plus "pus_skipped": 0 hashed to the earlier pins)
EMBED_REPORT_PINS = {
    "tar1": "a7b2f5f5083851e38ce1d8cd1b6c89b8ad0713fa0abfa7686dba66e297a48814",
    "tar2": "c55f4bcd6f9902362d1e4a721e5bd501c0092e550f86f9b6570edc8afd777367",
    "tar3": "4f9db6c7eef62d87f42846fabb934378307325dbe8df0d1e3c38746c2b0e1af1",
}

EMBEDS = {"tar1": 0.3, "tar2": 5, "tar3": 0.3}


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.fixture(scope="module")
def outputs():
    frames = synthesize(SynthSpec(SynthPattern("objects"), 64, 48, 4, seed=0))
    cover, _ = encode_sequence(frames, RdParams(qp=25))
    streams, reports = {"cover": cover}, {}
    for tag, value in EMBEDS.items():
        streams[tag], reports[tag] = embed(cover, EmbedConfig(METHOD_TAGS[tag].method, value, 0))
    return streams, reports


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_stream_and_analysis_bytes_match_pins(outputs, name):
    stream = outputs[0][name]
    assert (_sha(write_stream(stream)), _sha(report_to_json(optimal_rate(stream)))) == STREAM_PINS[name]


@pytest.mark.parametrize("tag", sorted(EMBED_REPORT_PINS))
def test_embed_report_matches_pin(outputs, tag):
    assert _sha(json.dumps(outputs[1][tag].to_dict(), sort_keys=True)) == EMBED_REPORT_PINS[tag]


# sha256 of report_to_json(optimal_rate(stream)) for the cover's tar1 e=1.0 stego at seed 0, whose
# moved vectors leave 3 violations over 3 frames; taken while the analyzer still walked one PU at a time
TAR1_E1_ANALYSIS_PIN = "45f1205a3489fe4a9cf2117ec7442dbf3f01cd9702cb0b219f2215cacd894583"


def test_analysis_with_violations_matches_pin(outputs):
    stego, _ = embed(outputs[0]["cover"], EmbedConfig(METHOD_TAGS["tar1"].method, 1.0, 0))
    # in memory, and read back from bytes as `mvpo analyze` reads it
    for form in (stego, read_stream(write_stream(stego))):
        report = optimal_rate(form)
        assert len(report.violations) == len({f for f, _, _ in report.violations}) == 3
        assert _sha(report_to_json(report)) == TAR1_E1_ANALYSIS_PIN


# two 32x32 4-frame sequences at two qps, all four methods over their default grids;
# the digest was taken while every cell still decoded its cover on its own
EXPERIMENT_PLAN = (
    "sequences = pattern=objects,size=32x32,frames=4,seed=0 | pattern=noise,size=32x32,frames=4,seed=1\n"
    "qp = 20, 30\n"
    "methods = cover, tar1, tar2, tar3\n"
)
EXPERIMENT_CSV_PIN = "5f281a9e5d56556a52421574f50a0ca45fd4efda2b1f65266055229d715677b7"


def test_experiment_csv_matches_pin():
    rows, errors = run_experiment(parse_plan(EXPERIMENT_PLAN))
    assert errors == []
    assert _sha(rows_to_csv(rows)) == EXPERIMENT_CSV_PIN


def test_experiment_csv_matches_pin_with_grids_listed_out_of_order():
    # rows follow each grid in numeric order: 1000 comes after 20 and 5, as text would not sort them
    grids = "tar1_e = 0.5, 0.4, 0.3, 0.2, 0.1\ntar2_t = 1000, 20, 5, 1, 0\ntar3_bpap = 0.3, 0.1, 0.5, 0.2, 0.4\n"
    rows, errors = run_experiment(parse_plan(EXPERIMENT_PLAN + grids))
    assert errors == []
    assert _sha(rows_to_csv(rows)) == EXPERIMENT_CSV_PIN


# (pattern, pu_size) -> sha256 over the stream bytes of the clip's encodes at every qp in
# ENCODE_QPS, range in ENCODE_RANGES and lambda in ENCODE_LAMBDAS, in that nesting order;
# taken before the search accepted an exact candidate without scoring its window
ENCODE_GRID_PINS = {
    ("shift", 8): "105bcd803cf838d86e3fe7c305c728f736ac477aba0e3ebdd63972cbab71d326",
    ("shift", 16): "8cb150f63b29afe93843c044acf192bb7ad17ab37084bee2badd682d073b3a39",
    ("shift", 32): "ff1ce9226580f2223cd47eadc06fc7c04245f1848ac897e3668412372b9cd917",
    ("shift", 64): "f09c2553411ad27b4c06c9b60d4180f4941f8317f3ccb93a7334004989642fd1",
    ("objects", 8): "cd82f07c865a14e8d62cd61575140bc6b40ea3f24f4c5866d2e5480b11d9a308",
    ("objects", 16): "024e74dd27a9f19c032671e4a4f439d4deddf876954235bdd00a1bca613bccdb",
    ("objects", 32): "2a537866a41936a29fe251672fcc3bfac243d84aaae47393d1383de1dee5f52c",
    ("objects", 64): "1fe77c7edc84c80a85af7dd49ff4bde27652c6a48bca1769e5d11f014fa07d62",
    ("noise", 8): "bd5280d93c808e13e0f7b34860c15f8c4047d2a1437dd71c06fe33bbaf88df1b",
    ("noise", 16): "dc966d4682519d96315b58d937579391b8ea804b17a393f89b9300af8bf71a3d",
    ("noise", 32): "62e6b34cf2306240d28ed545f81be21374fec871d30c60449aa3dae23d94cde3",
    ("noise", 64): "fbe948a991aa55f5f6dc377f24e83fe54687c0127367c6884399a20f18a89718",
}
ENCODE_QPS, ENCODE_RANGES, ENCODE_LAMBDAS = (0, 25, 51), (1, 8, 16), (None, 1.0, float("inf"))
# frame size and count per PU size: PU 64 is 128 wide and tall, so at range 16 its
# 33 x 33 window exceeds one search call's byte budget and is searched in bands of rows
ENCODE_CLIPS = {8: (32, 24, 4), 16: (64, 48, 4), 32: (96, 64, 3), 64: (128, 128, 3)}


def _grid_clip(pattern: str, ps: int):
    """The pattern's clip for PU size `ps`, its bottom PU row flat from half a PU in.

    On the flat run every displacement along it has SAD 0, so at lambda = inf,
    where every cost is infinite, the least |d| wins, not an exact candidate.
    """
    w, h, n = ENCODE_CLIPS[ps]
    frames = synthesize(SynthSpec(SynthPattern(pattern), w, h, n, seed=4, amplitude=(2, -1)))
    for plane in frames:
        plane.data[h - ps :, ps // 2 :] = 128
    return frames


@pytest.mark.parametrize("pattern, ps", sorted(ENCODE_GRID_PINS))
def test_encode_grid_matches_pins(pattern, ps):
    frames = _grid_clip(pattern, ps)
    digest = hashlib.sha256()
    for qp in ENCODE_QPS:
        for reach in ENCODE_RANGES:
            for lam in ENCODE_LAMBDAS:
                params = RdParams(qp=qp, lambda_motion=lam, search_range=reach, pu_size=ps)
                digest.update(write_stream(encode_sequence(frames, params)[0]))
    assert digest.hexdigest() == ENCODE_GRID_PINS[pattern, ps]
