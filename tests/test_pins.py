"""Byte pins: a small seed-0 cover, its three embeds and their analyses, and a small experiment CSV.

The digests were taken from the code before the decode side moved to a
one-buffer record table and slotted value types.  Any change of stream
bytes, analysis JSON or embed report fails here, so a change that claims
the same bytes is checked on every test run, not only in the benchmark.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from mvpo import RdParams, SynthPattern, SynthSpec, encode_sequence, optimal_rate, synthesize
from mvpo.experiment import parse_plan, rows_to_csv, run_experiment
from mvpo.formats import report_to_json, write_stream
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
