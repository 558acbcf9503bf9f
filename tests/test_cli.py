"""CLI harness: exit codes, artifacts, determinism, report rendering."""

import contextlib
import functools
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvpo.experiment
from mvpo import StreamHeader, SynthPattern, SynthSpec, read_stream, synthesize, write_stream
from mvpo import cli, formats
from mvpo.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from mvpo.experiment import parse_plan, run_experiment
from mvpo.formats import HEADER_SIZE
from mvpo.stego import METHOD_TAGS
from mvpo_testutil import encode_synth, stream_bytes, stream_of

SYNTH = "pattern=objects,size=64x64,frames=6,seed=5,amp=2x2"


def _encode(tmp_path, name="cover.mvpo", synth=SYNTH, extra=()):
    out = tmp_path / name
    code = main(["encode", "--synth", synth, "--out", str(out), *extra])
    assert code == EXIT_OK
    return out


def test_encode_writes_stream_and_sidecar(tmp_path, capsys):
    out = _encode(tmp_path)
    assert out.exists()
    meta = json.loads((tmp_path / "cover.mvpo.meta.json").read_text())
    assert meta["command"] == "encode"
    assert meta["args"]["synth"] == SYNTH
    assert "pus=80" in capsys.readouterr().out


def test_encode_is_deterministic(tmp_path):
    a = _encode(tmp_path, "a.mvpo")
    b = _encode(tmp_path, "b.mvpo")
    assert a.read_bytes() == b.read_bytes()
    # sidecars carry no timestamps, so reruns are byte-identical too
    assert (tmp_path / "a.mvpo.meta.json").read_text() == (tmp_path / "b.mvpo.meta.json").read_text()


def test_encode_accepts_yuv(tmp_path, capsys):
    rng = np.random.default_rng(3)
    clip = tmp_path / "clip.yuv"
    with open(clip, "wb") as f:
        for _ in range(3):
            f.write(rng.integers(0, 256, size=32 * 32, dtype=np.uint8).tobytes())
            f.write(bytes(32 * 32 // 2))
    out = tmp_path / "clip.mvpo"
    code = main(["encode", "--yuv", str(clip), "--size", "32x32", "--out", str(out)])
    assert code == EXIT_OK
    assert "pus=8" in capsys.readouterr().out  # frame count derived from size


def _record_opens(monkeypatch) -> list:
    """Every file `formats` opens from now on, to check that each one was closed."""
    files = []

    def _open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(formats, "open", _open, raising=False)
    return files


def test_a_yuv_encode_that_fails_after_its_reader_started_leaves_nothing(tmp_path, monkeypatch, capsys):
    # a whole 40x64 clip, which no grid of 16-pel PUs covers: the encode reads its first two
    # planes, refuses their geometry, writes no output or sidecar and closes the clip at once
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(range(256)) * (40 * 64 * 3 // 2 * 3 // 256))
    files = _record_opens(monkeypatch)
    argv = ["encode", "--yuv", str(clip), "--size", "40x64", "--pu-size", "16", "--out", str(tmp_path / "out.mvpo")]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == (
        "mvpo: error: 40x64 frames do not fit a stream: width 40 not a multiple of pu_size 16\n"
    )
    assert [f.name for f in files] == [str(clip)] and files[0].closed  # the reader started, and was closed
    assert [p.name for p in tmp_path.iterdir()] == ["clip.yuv"]


def test_analyze_cover_prints_verdict(tmp_path, capsys):
    out = _encode(tmp_path)
    code = main(["analyze", "--in", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "optimal_rate_pct=100.0000" in text
    assert "verdict=cover" in text


def test_analyze_writes_json_report(tmp_path, capsys):
    out = _encode(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(["analyze", "--in", str(out), "--format", "json", "--out", str(report_path)])
    assert code == EXIT_OK
    doc = json.loads(report_path.read_text())
    assert doc["verdict"] == "cover"
    assert doc["invocation"]["command"] == "analyze"


def test_analyze_stdout_csv(tmp_path, capsys):
    out = _encode(tmp_path)
    capsys.readouterr()  # drop the encode line
    code = main(["analyze", "--in", str(out), "--format", "csv", "--out", "-"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("n_pus,n_optimal,optimal_rate_pct,verdict")
    assert ",cover" in text


def test_analyze_csv_file_gets_a_sidecar(tmp_path, capsys):
    out = _encode(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--format", "csv", "--out", "-"]) == EXIT_OK
    printed = capsys.readouterr().out
    report_path = tmp_path / "report.csv"
    assert main(["analyze", "--in", str(out), "--format", "csv", "--out", str(report_path)]) == EXIT_OK
    # the CSV bytes are the ones printed to stdout; how they were made is in the sidecar
    assert report_path.read_text() == printed
    meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert meta["command"] == "analyze"
    assert meta["args"] == {"in": str(out), "format": "csv"}
    # a JSON report records its invocation inline, so it gets no sidecar
    assert main(["analyze", "--in", str(out), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert not (tmp_path / "report.json.meta.json").exists()


def test_embed_then_analyze_flags_stego(tmp_path, capsys):
    cover = _encode(tmp_path)
    stego = tmp_path / "stego.mvpo"
    code = main([
        "embed", "--in", str(cover), "--method", "tar1", "--e", "0.4",
        "--seed", "3", "--out", str(stego),
    ])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "stego.mvpo.report.json").read_text())
    assert report["method"] == "mvd-parity"
    assert report["pus_modified"] >= 1
    assert report["invocation"]["args"]["e"] == 0.4
    code = main(["analyze", "--in", str(stego)])
    assert code == EXIT_OK
    assert "verdict=stego" in capsys.readouterr().out


def test_embed_strength_zero_keeps_bytes(tmp_path):
    cover = _encode(tmp_path)
    stego = tmp_path / "stego.mvpo"
    code = main(["embed", "--in", str(cover), "--method", "tar1", "--e", "0", "--out", str(stego)])
    assert code == EXIT_OK
    assert stego.read_bytes() == cover.read_bytes()


def test_embed_tar2_and_tar3_run(tmp_path):
    cover = _encode(tmp_path)
    for method, flag, value in (("tar2", "--T", "0"), ("tar3", "--bpap", "0.2")):
        out = tmp_path / f"{method}.mvpo"
        code = main(["embed", "--in", str(cover), "--method", method, flag, value, "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()


def test_missing_parameter_for_method_is_usage_error(tmp_path, capsys):
    cover = _encode(tmp_path)
    code = main(["embed", "--in", str(cover), "--method", "tar1", "--out", str(tmp_path / "x.mvpo")])
    assert code == EXIT_USAGE
    assert "needs --e" in capsys.readouterr().err
    assert not (tmp_path / "x.mvpo").exists()


@pytest.mark.parametrize(
    "method, params, flag",
    [
        ("tar1", ["--e", "0.3", "--T", "5", "--bpap", "0.9"], "--T"),
        ("tar2", ["--T", "5", "--bpap", "0.9"], "--bpap"),
        ("tar3", ["--e", "0.3", "--bpap", "0.3"], "--e"),
    ],
)
def test_another_methods_parameter_is_usage_error_before_reading(tmp_path, capsys, method, params, flag):
    # the sidecar records every method's parameter, so an ignored one would read as applied;
    # the input does not exist, so the usage error comes before the stream is read
    out = tmp_path / "x.mvpo"
    code = main(["embed", "--in", str(tmp_path / "absent.mvpo"), "--method", method, *params, "--out", str(out)])
    assert code == EXIT_USAGE
    assert f"mvpo: error: --method {method} takes no {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rejected_parameter_values_are_usage_errors(tmp_path, capsys):
    # RdParams and the method config reject these values: exit 1 with their own message
    out = tmp_path / "x.mvpo"
    assert main(["encode", "--synth", SYNTH, "--qp", "99", "--out", str(out)]) == EXIT_USAGE
    assert "mvpo: error: qp 99 outside [0, 51]" in capsys.readouterr().err
    cover = _encode(tmp_path)
    code = main(["embed", "--in", str(cover), "--method", "tar1", "--e", "1.5", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "mvpo: error: e 1.5 must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_negative_embed_seed_is_usage_error_without_output(tmp_path, capsys):
    # random.Random(-1) seeds like Random(1): --seed -1 would write the --seed 1 stego
    cover = _encode(tmp_path)
    out = tmp_path / "x.mvpo"
    code = main(["embed", "--in", str(cover), "--method", "tar1", "--e", "0.5", "--seed", "-1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "mvpo: error: rng_seed -1 must be >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cover.mvpo", "cover.mvpo.meta.json"]


def test_a_fault_inside_the_program_is_an_internal_error_not_a_usage_error(tmp_path, monkeypatch, capsys):
    def _broken(frames, params):
        raise ValueError("index 7 out of range")

    monkeypatch.setattr(mvpo.experiment, "encode_sequence", _broken)
    code = main(["encode", "--synth", SYNTH, "--out", str(tmp_path / "x.mvpo")])
    assert code == EXIT_INTERNAL != EXIT_USAGE
    err = capsys.readouterr().err
    assert "mvpo: internal error: ValueError: index 7 out of range" in err
    assert "Traceback" in err and "mvpo: error:" not in err
    assert list(tmp_path.iterdir()) == []


def test_missing_input_is_io_error_without_partial_output(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["analyze", "--in", str(tmp_path / "absent.mvpo"), "--out", str(target)])
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err
    assert not target.exists()


def test_malformed_stream_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.mvpo"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    code = main(["analyze", "--in", str(bad)])
    assert code == EXIT_MALFORMED
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["swapped", "short"])
def test_records_out_of_order_or_short_are_exit_3_for_every_reader(tmp_path, capsys, damage):
    cover = read_stream(_encode(tmp_path, synth="pattern=shift,size=32x32,frames=3").read_bytes())
    records = list(cover.records)
    if damage == "swapped":
        records[0], records[1] = records[1], records[0]
    else:
        records.pop()
    bad = tmp_path / "bad.mvpo"
    bad.write_bytes(stream_bytes(cover.header, records))
    message = {
        "swapped": "record at (1, 16, 0) out of raster order, expected (1, 0, 0)",
        "short": "record count 7 does not cover the grid (expected 8)",
    }[damage]
    before = sorted(tmp_path.iterdir())
    for command in (
        ["embed", "--method", "tar1", "--e", "0.5"],
        ["embed", "--method", "tar2", "--T", "4"],
        ["embed", "--method", "tar3", "--bpap", "0.5"],
        ["analyze", "--format", "json"],
    ):
        code = main([*command, "--in", str(bad), "--out", str(tmp_path / "out.mvpo")])
        assert code == EXIT_MALFORMED, command
        err = capsys.readouterr().err
        assert "malformed" in err and message in err
        assert sorted(tmp_path.iterdir()) == before  # no artifact, no sidecar


def test_a_huge_frame_count_without_records_is_exit_3(tmp_path, capsys):
    # the record count is checked before anything is sized by the frame count
    huge = tmp_path / "huge.mvpo"
    huge.write_bytes(stream_bytes(StreamHeader(64, 64, 16, 25, frame_count=2**32 - 1), []))
    assert main(["analyze", "--in", str(huge)]) == EXIT_MALFORMED
    assert "record count 0 does not cover the grid (expected 68719476704)" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.mvpo"]


def test_analyze_of_a_stream_without_inter_pus_warns_and_exits_0(tmp_path, capsys):
    empty = tmp_path / "empty.mvpo"
    empty.write_bytes(write_stream(stream_of(StreamHeader(32, 32, 16, 25, frame_count=1), [])))
    assert main(["analyze", "--in", str(empty), "--format", "csv", "--out", "-"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "warning: stream carries no inter PUs, verdict is indeterminate\n"
    assert out.splitlines()[1] == "0,0,,indeterminate"
    assert [p.name for p in tmp_path.iterdir()] == ["empty.mvpo"]


def test_the_module_entry_point_exits_with_the_command_s_code(tmp_path):
    # `python -m mvpo.cli` runs what the `mvpo` console script runs, `cli.run`, in a process of its own
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def mvpo(*argv):
        command = [sys.executable, "-m", "mvpo.cli", *argv]
        return subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)

    encoded = mvpo("encode", "--synth", "pattern=shift,size=16x16,frames=2", "--out", "s.mvpo")
    assert (encoded.returncode, encoded.stdout.split()[0]) == (EXIT_OK, "pus=1")
    assert (tmp_path / "s.mvpo").is_file()
    bare = mvpo()
    assert bare.returncode == EXIT_USAGE and "the following arguments are required: command" in bare.stderr
    missing = mvpo("analyze", "--in", "absent.mvpo")
    assert missing.returncode == EXIT_IO and "absent.mvpo" in missing.stderr


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["encode", "--synth", SYNTH])  # --out is required
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["embed", "--in", "x", "--method", "tar9", "--out", "y"])
    assert info.value.code == EXIT_USAGE


def test_verbose_flag_is_an_unknown_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["-v", "analyze", "--in", "x"])
    assert info.value.code == EXIT_USAGE
    assert "unrecognized arguments: -v" in capsys.readouterr().err


@pytest.mark.parametrize("size", [1000, 0])
def test_yuv_frame_count_needs_a_whole_number_of_frames(tmp_path, capsys, size):
    # without --frames the count comes from the file size; 32x16 4:2:0 frames are 768 bytes
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(size))
    code = main(["encode", "--yuv", str(clip), "--size", "32x16", "--out", str(tmp_path / "x.mvpo")])
    assert code == EXIT_IO
    assert f"size {size} is not a whole number of 32x16 4:2:0 frames" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["clip.yuv"]


def test_yuv_without_size_is_usage_error(tmp_path, capsys):
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(32 * 16 * 3 // 2))
    code = main(["encode", "--yuv", str(clip), "--out", str(tmp_path / "x.mvpo")])
    assert code == EXIT_USAGE
    assert "--yuv needs --size WxH" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["clip.yuv"]


def test_encode_without_source_is_usage_error(tmp_path, capsys):
    code = main(["encode", "--out", str(tmp_path / "x.mvpo")])
    assert code == EXIT_USAGE
    assert "--synth or --yuv" in capsys.readouterr().err



@pytest.mark.parametrize(
    "extra, message",
    [
        (["--yuv", "CLIP", "--size", "32x32"], "--synth or --yuv"),
        # the spec sets size and frames; the sidecar would record an ignored flag as applied
        (["--size", "32x32"], "not --size or --frames"),
        (["--frames", "2"], "not --size or --frames"),
        (["--size", "32x32", "--frames", "2"], "not --size or --frames"),
    ],
)
def test_encode_with_both_sources_is_usage_error(tmp_path, capsys, monkeypatch, extra, message):
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(32 * 32 * 3 // 2 * 2))
    out = tmp_path / "x.mvpo"

    def _no_synth(*args):
        raise AssertionError("synthesized before the usage check")

    monkeypatch.setattr(mvpo.experiment, "synthesize", _no_synth)
    argv = [str(clip) if arg == "CLIP" else arg for arg in extra]
    code = main(["encode", "--synth", SYNTH, *argv, "--out", str(out)])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.yuv"]


def test_bad_size_is_input_error_like_bad_synth_size(tmp_path, capsys):
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(32 * 32 * 3 // 2 * 2))
    code = main(["encode", "--yuv", str(clip), "--size", "32by32", "--out", str(tmp_path / "a.mvpo")])
    assert code == EXIT_IO
    assert "bad size '32by32'" in capsys.readouterr().err
    synth = "pattern=shift,size=32by32,frames=3"
    code = main(["encode", "--synth", synth, "--out", str(tmp_path / "b.mvpo")])
    assert code == EXIT_IO
    assert "bad size '32by32'" in capsys.readouterr().err


def test_failed_stream_write_leaves_no_stream(tmp_path, monkeypatch, capsys):
    real_replace = os.replace

    def _replace(src, dst):
        if str(dst).endswith(".mvpo"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", _replace)
    code = main(["encode", "--synth", SYNTH, "--out", str(tmp_path / "cover.mvpo")])
    assert code == EXIT_IO
    assert "disk full" in capsys.readouterr().err
    # the new sidecar is taken back; neither the stream nor a temp file is left
    assert list(tmp_path.iterdir()) == []


def test_failed_stream_overwrite_keeps_old_sidecar(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cover.mvpo"
    assert main(["encode", "--synth", SYNTH, "--qp", "20", "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_replace = os.replace

    def _replace(src, dst):
        if str(dst).endswith(".mvpo"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", _replace)
    code = main(["encode", "--synth", SYNTH, "--qp", "30", "--out", str(out)])
    assert code == EXIT_IO
    assert "disk full" in capsys.readouterr().err
    # the old stream still sits next to the record that describes it
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_experiment_runs_plan(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    results = tmp_path / "results.csv"
    plan.write_text(
        "# two tiny sequences, cover plus one embedder\n"
        "sequences = pattern=shift,size=32x32,frames=4,seed=1,amp=1x0 | "
        "pattern=noise,size=32x32,frames=4,seed=2\n"
        "qp = 25,30\n"
        "methods = cover,tar2\n"
        "tar2_t = 0,1000\n"
        f"out = {results}\n"
    )
    code = main(["experiment", "--plan", str(plan), "--jobs", "2"])
    assert code == EXIT_OK
    lines = results.read_text().strip().splitlines()
    assert lines[0] == "method,qp,param,value,n_sequences,n_errors,mean_optimal_rate_pct,prop_at_100_pct"
    cover_rows = [l for l in lines if l.startswith("cover,")]
    assert len(cover_rows) == 2
    for row in cover_rows:
        assert row.endswith(",100.0000,100.0000")
    assert len([l for l in lines if l.startswith("tar2,")]) == 4
    assert (tmp_path / "results.csv.meta.json").exists()
    assert "cells=6" in capsys.readouterr().out


@pytest.mark.parametrize("yuv", ["missing", "wrong size"])
def test_experiment_records_a_yuv_it_cannot_load_as_an_encode_error(tmp_path, capsys, yuv):
    # the synth sequence's cells still run and the CSV is written; the yuv's are counted as errors
    clip = tmp_path / "clip.yuv"
    if yuv == "wrong size":
        clip.write_bytes(bytes(100))
    results = tmp_path / "results.csv"
    plan = tmp_path / "plan.txt"
    plan.write_text(f"sequences = {SYNTH} | yuv={clip},size=32x32,frames=3\nqp = 20, 30\nout = {results}\n")
    assert main(["experiment", "--plan", str(plan)]) == EXIT_OK
    out, err = capsys.readouterr()
    warnings = err.splitlines()
    assert len(warnings) == 2 and out == f"cells=2 errors=2 out={results}\n"
    for line, qp in zip(warnings, (20, 30)):
        assert line.startswith(f"warning: encode clip.yuv qp={qp}: ") and str(clip) in line
    rows = results.read_text().splitlines()[1:]
    assert [row.split(",")[:6] for row in rows] == [["cover", str(qp), "", "", "1", "1"] for qp in (20, 30)]
    assert (tmp_path / "results.csv.meta.json").is_file()


def test_encode_yuv_writes_the_bytes_of_the_experiments_cover(tmp_path, monkeypatch):
    # `mvpo encode` and the experiment code a source through one path, so one clip at one qp is one stream
    clip = tmp_path / "clip.yuv"
    with open(clip, "wb") as f:
        for plane in synthesize(SynthSpec(SynthPattern.MULTI_OBJECT, 64, 64, 6, seed=5, amplitude=(2, 2))):
            f.write(plane.data.tobytes() + bytes(64 * 64 // 2))
    cli_streams = []
    for qp in (20, 30):
        out = tmp_path / f"qp{qp}.mvpo"
        assert main(["encode", "--yuv", str(clip), "--size", "64x64", "--qp", str(qp), "--out", str(out)]) == EXIT_OK
        cli_streams.append(out.read_bytes())
    covers = []  # the stream each cover cell scores, in qp order
    real_optimal_rate = mvpo.experiment.optimal_rate

    def recording(stream):
        covers.append(write_stream(stream))
        return real_optimal_rate(stream)

    monkeypatch.setattr(mvpo.experiment, "optimal_rate", recording)
    plan = parse_plan(f"sequences = yuv={clip},size=64x64,frames=6\nqp = 20, 30\n")
    assert run_experiment(plan)[1] == []
    assert covers == cli_streams and cli_streams[0] != cli_streams[1]


def test_experiment_closes_a_yuv_reader_its_encode_stopped(tmp_path, monkeypatch, capsys):
    # a whole 32x32 clip that no 64-pel PU covers: each encode reads two planes and refuses them.
    # Its file is closed when the encode fails, not when a collection frees the failed encode's frames
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(32 * 32 * 3 // 2 * 3))
    files = _record_opens(monkeypatch)
    plan = tmp_path / "plan.txt"
    plan.write_text(f"sequences = yuv={clip},size=32x32,frames=3\npu_size = 64\nqp = 20, 30\nout = {tmp_path / 'r.csv'}\n")
    gc.disable()
    try:
        assert main(["experiment", "--plan", str(plan), "--jobs", "2"]) == EXIT_OK
        assert [f.closed for f in files if f.name == str(clip)] == [True, True]
    finally:
        gc.enable()
    assert capsys.readouterr().err.splitlines() == [
        f"warning: encode clip.yuv qp={qp}: 32x32 frames do not fit a stream: width 32 not a multiple of pu_size 64"
        for qp in (20, 30)
    ]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_is_usage_error_before_encoding(tmp_path, monkeypatch, capsys, jobs):
    def _no_encode(*args):
        raise AssertionError("encoded with no worker to run it")

    monkeypatch.setattr(mvpo.experiment, "encode_sequence", _no_encode)
    (tmp_path / "plan.txt").write_text(f"sequences = {SYNTH}\nout = {tmp_path / 'results.csv'}\n")
    with pytest.raises(SystemExit) as info:
        main(["experiment", "--plan", str(tmp_path / "plan.txt"), "--jobs", jobs])
    assert info.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"mvpo experiment: error: argument --jobs: {jobs} is not at least 1\n")
    # no CSV or sidecar: the plan is all the directory holds
    assert [p.name for p in tmp_path.iterdir()] == ["plan.txt"]


def test_experiment_missing_plan_is_io_error(tmp_path):
    code = main(["experiment", "--plan", str(tmp_path / "absent.txt")])
    assert code == EXIT_IO


def test_experiment_plan_that_is_not_utf8_is_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the plan's default out is results.csv here
    plan = tmp_path / "plan.txt"
    plan.write_bytes(f"sequences = {SYNTH}\n".encode() + b"# caf\xe9\n")  # a Latin-1 comment
    assert main(["experiment", "--plan", str(plan)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"mvpo: error: plan {plan} is not UTF-8 text: ")
    assert [p.name for p in tmp_path.iterdir()] == ["plan.txt"]


@pytest.mark.parametrize(
    "target", ["missing directory", "empty", "trailing separator", "directory", "sidecar is a directory"]
)
@pytest.mark.parametrize("command", ["encode", "embed", "analyze", "experiment --out", "experiment plan out"])
def test_output_in_a_missing_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, target):
    # and every other output path whose final rename would fail: one that names no file, or a directory,
    # or whose sidecar (`<out>.meta.json`, embed's `<out>.report.json`) is a directory
    cover = _encode(tmp_path)
    missing = tmp_path / "missing"
    (tmp_path / "folder").mkdir()
    sidecar = tmp_path / ("out.report.json" if command == "embed" else "out.meta.json")  # of the last target
    out, message = {
        "missing directory": (str(missing / "out"), f"output directory {missing} does not exist"),
        "empty": ("", "output path '' names no file"),
        "trailing separator": (str(tmp_path) + os.sep, f"output path {str(tmp_path) + os.sep!r} names no file"),
        "directory": (str(tmp_path / "folder"), f"output {tmp_path / 'folder'} is a directory"),
        "sidecar is a directory": (str(tmp_path / "out"), f"output {sidecar} is a directory"),
    }[target]
    if target == "sidecar is a directory":
        sidecar.mkdir()
    plan = tmp_path / "plan.txt"
    # the plan's out is another path, so an empty --out that fell back to it would show
    plan_out = str(missing / "results.csv") if command == "experiment --out" else out
    plan.write_text(f"sequences = {SYNTH}\nout = {plan_out}\n")
    argv = {
        "encode": ["encode", "--synth", SYNTH, "--out", out],
        "embed": ["embed", "--in", str(cover), "--method", "tar2", "--T", "5", "--out", out],
        # a CSV report's invocation goes in a sidecar, a JSON report's inline
        "analyze": ["analyze", "--in", str(cover), "--format", "csv" if sidecar.is_dir() else "json", "--out", out],
        "experiment --out": ["experiment", "--plan", str(plan), "--out", out],
        "experiment plan out": ["experiment", "--plan", str(plan)],
    }[command]

    def _no_work(*args):
        raise AssertionError("read or encoded before the output directory was checked")

    for module, name in ((cli, "load_stream"), (mvpo.experiment, "encode_sequence")):
        monkeypatch.setattr(module, name, _no_work)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""  # no verdict or summary line for an output that cannot be written
    assert err == f"mvpo: error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_a_json_analysis_writes_no_sidecar_so_its_path_is_not_checked(tmp_path, capsys):
    # a JSON report holds its invocation inline: a directory where a CSV report's sidecar would go is no obstacle
    cover = _encode(tmp_path)
    (tmp_path / "r.json.meta.json").mkdir()
    assert main(["analyze", "--in", str(cover), "--format", "json", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    assert json.loads((tmp_path / "r.json").read_text())["invocation"]["command"] == "analyze"
    assert (tmp_path / "r.json.meta.json").is_dir()


@pytest.mark.parametrize("command", ["encode", "embed", "experiment"])
def test_dash_names_a_file_outside_analyze(tmp_path, monkeypatch, capsys, command):
    # only analyze writes "-" to stdout; to the other commands it is a path, checked as any other
    cover = _encode(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").mkdir()
    (tmp_path / "plan.txt").write_text(f"sequences = {SYNTH}\n")
    argv = {
        "encode": ["encode", "--synth", SYNTH],
        "embed": ["embed", "--in", str(cover), "--method", "tar2", "--T", "5"],
        "experiment": ["experiment", "--plan", "plan.txt"],
    }[command]

    def _no_work(*args):
        raise AssertionError("read or encoded before the output path was checked")

    for module, name in ((cli, "load_stream"), (mvpo.experiment, "encode_sequence")):
        monkeypatch.setattr(module, name, _no_work)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == EXIT_IO
    assert capsys.readouterr().err == "mvpo: error: output - is a directory\n"
    assert sorted(tmp_path.iterdir()) == before


def test_experiment_bad_grid_value_is_input_error_before_encoding(tmp_path, monkeypatch, capsys):
    def _no_encode(*args):
        raise AssertionError("encoded before the plan was validated")

    monkeypatch.setattr(mvpo.experiment, "encode_sequence", _no_encode)
    plan = tmp_path / "plan.txt"
    results = tmp_path / "results.csv"
    plan.write_text(f"sequences = {SYNTH}\nmethods = cover,tar1\ntar1_e = 0.1, 1.5\nout = {results}\n")
    code = main(["experiment", "--plan", str(plan)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "tar1_e" in err and "1.5" in err
    assert not results.exists()


_BAD_FIELDS = [
    ("synth", "pattern=shift,size=64x64,frames=abc", "frames"),
    ("synth", "pattern=shift,size=64x64,frames=3,seed=x", "seed"),
    ("synth", "pattern=shift,size=64x64,frames=3,seed=-1", "seed"),
    ("plan", f"sequences = {SYNTH}\npu_size = 12\n", "pu_size"),
    ("plan", f"sequences = {SYNTH}\nsearch_range = 0\n", "search_range"),
    ("plan", f"sequences = {SYNTH}\nqp = 25, abc\n", "qp"),
    ("plan", f"sequences = {SYNTH}\nqp = 25, 99\n", "qp"),
    ("plan", f"sequences = {SYNTH}\nseed = x\n", "seed"),
    ("plan", f"sequences = {SYNTH}\nmethods = cover,tar1\nseed = -1\n", "seed"),
    ("plan", "sequences = pattern=shift,size=64x64,frames=x\n", "frames"),
    ("plan", "sequences = yuv=clip.yuv,size=64x64,frames=x\n", "frames"),
    ("plan", f"sequences = {SYNTH}\nqp =\n", "qp"),
    ("plan", f"sequences = {SYNTH}\nmethods = ,\n", "methods"),
    ("plan", f"sequences = {SYNTH}\ntar1_e =\n", "tar1_e"),
    # a repeated list value would run its cells twice
    ("plan", f"sequences = {SYNTH}\nqp = 25, 25\n", "qp"),
    ("plan", f"sequences = {SYNTH}\nmethods = cover, cover\n", "methods"),
    ("plan", f"sequences = {SYNTH}\nmethods = cover, tar2\ntar2_t = 5, 5\n", "tar2_t"),
    ("plan", f"sequences = {SYNTH}\nmethods = tar1\ntar1_e = 0.1, 0.10\n", "tar1_e"),
    ("synth", "pattern=shift,size=32x32,frames=3,amp=abc", "amp"),
    # a larger motion than a vector carries; an object's velocity was drawn in numpy's int64 and overflowed
    ("synth", "pattern=objects,size=32x32,frames=3,amp=99999999999999999999x1", "amp 99999999999999999999x1 exceeds"),
    # a repeated sequence would be encoded and counted twice in every cell
    ("plan", f"sequences = {SYNTH} | {SYNTH}\n", "sequences"),
    # a key given twice would silently keep its last value
    ("plan", f"sequences = {SYNTH}\nqp = 20\nqp = 30\n", "qp"),
    ("synth", "pattern=shift,size=32x32,frames=3,frames=5", "frames"),
    ("plan", "sequences = yuv=clip.yuv,size=64x64,frames=3,size=32x32\n", "size"),
    # an unknown key or field would be ignored: the plan would run only cover at qp 25
    ("plan", f"sequences = {SYNTH}\nmethod = tar1\nqps = 30\n", "['method', 'qps']"),
    ("plan", "sequences = yuv=a.yuv,size=64x64,frames=3,seed=5\n", "['seed']"),
    ("plan", "sequences = yuv=a\0.yuv,size=64x64,frames=3\n", "yuv path 'a\\x00.yuv' holds a NUL byte"),
    ("synth", "pattern=shift,size=64x64,frames=3,colour=red", "['colour']"),
    # a field that is no key=value, a missing or unknown pattern, a missing size or frames
    ("synth", "pattern=shift,size=64x64,frames=3,quick", "bad spec field 'quick', expected key=value"),
    ("synth", "size=64x64,frames=3", "synth spec needs pattern= one of ['shift', "),
    ("synth", "pattern=spiral,size=64x64,frames=3", "'pattern=spiral,size=64x64,frames=3'"),
    ("synth", "pattern=shift,size=64x64", "synth spec needs size= and frames="),
    ("plan", "sequences = yuv=clip.yuv,size=64x64\n", "yuv source needs size= and frames="),
    # a size or frame count no sequence has is named by its key, with the spec it is in
    ("synth", "pattern=shift,size=64x64,frames=0", "frames 0 must be >= 1: 'pattern=shift,size=64x64,frames=0'"),
    ("synth", "pattern=shift,size=0x0,frames=3", "size 0x0 must be positive: 'pattern=shift,size=0x0,frames=3'"),
    ("plan", "sequences = yuv=clip.yuv,size=64x64,frames=0\n", "frames 0 must be >= 1: 'yuv=clip.yuv,size=64x64,frames=0'"),
    ("plan", "sequences = yuv=clip.yuv,size=0x0,frames=3\n", "size 0x0 must be positive: 'yuv=clip.yuv,size=0x0,frames=3'"),
    ("plan", f"sequences = {SYNTH} | pattern=noise,size=32x32,frames=0\n",
     "frames 0 must be >= 1: 'pattern=noise,size=32x32,frames=0'"),
    ("plan", f"sequences = {SYNTH} | yuv=clip.yuv,size=0x0,frames=3\n",
     "size 0x0 must be positive: 'yuv=clip.yuv,size=0x0,frames=3'"),
    # a plan line that is no key = value, no sequences, an unknown method
    ("plan", f"sequences = {SYNTH}\nqp 25\n", "plan line 2: expected key = value"),
    ("plan", "qp = 25\n", "plan needs a sequences= line"),
    ("plan", "sequences = | \n", "plan lists no sequences"),
    ("plan", f"sequences = {SYNTH}\nmethods = cover, tar9\n", "unknown method 'tar9', expected cover/tar1/tar2/tar3"),
]


@pytest.mark.parametrize("kind, text, key", _BAD_FIELDS)
def test_malformed_synth_and_plan_fields_exit_2_before_encoding(tmp_path, monkeypatch, capsys, kind, text, key):
    def _no_encode(*args):
        raise AssertionError("encoded before the input was validated")

    monkeypatch.setattr(mvpo.experiment, "encode_sequence", _no_encode)
    if kind == "synth":
        argv = ["encode", "--synth", text, "--out", str(tmp_path / "out.mvpo")]
    else:
        (tmp_path / "plan.txt").write_text(text)
        argv = ["experiment", "--plan", str(tmp_path / "plan.txt"), "--out", str(tmp_path / "results.csv")]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("mvpo: error: ") and key in err
    # no stream, CSV or sidecar: the plan is all the directory holds
    assert [p.name for p in tmp_path.iterdir()] == ([] if kind == "synth" else ["plan.txt"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--synth", "pattern=shift,size=32x32,frames=3,amp=abc"], "bad amp 'abc', expected WxH"),
        (["--synth", "pattern=shift,size=abc,frames=3"], "bad size 'abc', expected WxH"),
        (["--yuv", "clip.yuv", "--size", "abc"], "bad size 'abc', expected WxH"),
        # the geometry is checked before the file size is divided by a frame's size
        (["--yuv", "clip.yuv", "--size", "0x16"], "--size 0x16 must be positive"),
        (["--yuv", "clip.yuv", "--size", "16x16", "--frames", "0"], "--frames 0 must be >= 1"),
        (["--yuv", "clip.yuv", "--size", "3x3"], "4:2:0 needs even dimensions, got 3x3"),
    ],
)
def test_bad_size_names_the_field_it_parses(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clip.yuv").write_bytes(bytes(768))
    assert main(["encode", *argv, "--out", "out.mvpo"]) == EXIT_IO
    assert capsys.readouterr().err == f"mvpo: error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["clip.yuv"]


# ---------------------------------------------------------------- embed over any flag text and input

# flag texts at and past every edge: NaN, infinities, negative zero, overflow, hex, fractions, and
# integers past 64 bits, past a float and past the interpreter's 4300-digit conversion limit
_FLAG_TEXTS = ("nan", "inf", "-inf", "-0", "1e400", "0x10", "1.5", "-1", "0", "1", "0.3", "5",
               str(2**64 + 1), "9" * 400, "9" * 5000)
_SOURCES = ("cover", "truncated", "damaged idx", "far vector", "missing")


@functools.cache
def _small_cover() -> bytes:
    stream, _, _ = encode_synth("objects", size=(32, 32), frames=3, amp=(2, 2))
    return write_stream(stream)


def _converts(convert, text: str) -> bool:
    """Whether argparse hands `text` to its flag and `convert` takes it: a leading '-' must read as a number."""
    if text.startswith("-") and not re.fullmatch(r"-\d+|-\d*\.\d+", text):
        return False  # argparse reads it as an option, so the flag misses its argument
    try:
        convert(text)
    except ValueError:
        return False
    return True


def _run(argv: list[str]) -> tuple[int, str]:
    """`main(argv)`'s exit code, an argparse exit included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _files(root: str) -> set[str]:
    return {os.path.join(folder, name) for folder, _, names in os.walk(root) for name in names}


# each draw leans towards a valid choice, so that a fair share of the runs reach the input and succeed
_TEXTS = st.sampled_from(("0", "1", "-0", "0.3", "5", str(2**64 + 1))) | st.sampled_from(_FLAG_TEXTS)


@settings(max_examples=200)
@given(
    st.sampled_from(sorted(METHOD_TAGS)),
    _TEXTS | st.none(),
    st.just({}) | st.dictionaries(st.sampled_from(sorted(METHOD_TAGS)), _TEXTS, max_size=1),
    st.none() | _TEXTS,
    st.just("cover") | st.sampled_from(_SOURCES),
    st.just(True) | st.booleans(),
)
def test_embed_exits_by_the_first_fault_in_its_flags_and_files(method, own, others, seed, source, out_dir):
    tag = METHOD_TAGS[method]
    flags = {tag.param: own} if own is not None else {}
    flags.update({METHOD_TAGS[m].param: text for m, text in others.items() if m != method})
    with tempfile.TemporaryDirectory() as root:
        stream = os.path.join(root, "in.mvpo")
        data = bytearray(_small_cover())
        if source == "truncated":
            del data[-5:]
        if source == "damaged idx":
            data[HEADER_SIZE + 8] = 2  # record 0's idx byte, after frame (u32), bx and by (u16)
        if source == "far vector":  # a whole stream whose decode refuses it: record 0's dx, after idx and pad
            data[HEADER_SIZE + 10 : HEADER_SIZE + 12] = (2**15 - 1).to_bytes(2, "little")
        if source != "missing":
            with open(stream, "wb") as f:
                f.write(data)
        out = os.path.join(root, "stego", "out.mvpo")
        if out_dir:
            os.mkdir(os.path.dirname(out))
        argv = ["embed", "--in", stream, "--method", method, "--out", out]
        for flag, text in flags.items():
            argv += [f"--{flag}", text]
        if seed is not None:
            argv += ["--seed", seed]
        before = _files(root)
        code, err = _run(argv)
        after = _files(root)

    # the checks run in this order: argparse's conversions, the output directory, the values, the input
    converts = {t.param: t.convert for t in METHOD_TAGS.values()}
    unparsed = [f"--{flag}" for flag, text in flags.items() if not _converts(converts[flag], text)]
    if seed is not None and not _converts(int, seed):
        unparsed.append("--seed")
    refused = [f"--{flag}" for flag in flags if flag != tag.param]
    if own is None:
        refused.append(f"--{tag.param}")
    elif not unparsed and not tag.low <= tag.convert(own) <= tag.high:  # NaN fails too
        refused.append(f"error: {tag.param} ")
    if seed is not None and not unparsed and int(seed) < 0:
        refused.append("error: rng_seed ")
    if unparsed or (out_dir and refused):
        assert code == EXIT_USAGE, err
        assert any(name in err for name in unparsed or refused), err
    elif not out_dir:
        assert (code, err) == (EXIT_IO, f"mvpo: error: output directory {os.path.dirname(out)} does not exist\n")
    elif source == "missing":
        assert code == EXIT_IO and err.startswith("mvpo: error: ") and stream in err, err
    elif source != "cover":
        # the reader's refusal and the decode's both name the file, once
        assert code == EXIT_MALFORMED and err.startswith(f"mvpo: malformed stream: {stream}: "), err
        assert err.count(stream) == 1, err
    else:
        assert (code, err) == (EXIT_OK, "")
        assert after - before == {out, out + ".report.json"}
    if code != EXIT_OK:
        assert after == before


# ---------------------------------------------------------------- experiment and analyze over any plan and input

# values that parse, fail to parse, leave a range, overflow or repeat; no larger than a few frames of 64x64
_PLAN_VALID = {
    "qp": ("25", "20, 30"),
    "methods": ("cover", "cover, tar2", "tar1, tar3", "tar2"),
    "tar1_e": ("0.5",),
    "tar2_t": ("0, 5",),
    "tar3_bpap": ("0.3",),
    "pu_size": ("16", "8"),
    "search_range": ("4",),
    "seed": ("0", "7"),
}
_PLAN_HOSTILE = ("", "abc", "-1", "0", "1.5", "nan", "1e400", "0x10", "99", "25, 25", str(2**64 + 1), "9" * 5000)
_SPEC_VALID = {
    "pattern": ("objects", "noise", "shift"),
    "size": ("16x16", "32x32", "64x32"),
    "frames": ("2", "3"),
    "seed": ("1",),
    "amp": ("2x2", "1x0"),
}
_SPEC_HOSTILE = {
    "pattern": ("spiral", ""),
    "size": ("", "abc", "0x0", "-16x16", "16", "40x40", "4x64"),
    "frames": ("", "abc", "0", "-1", "1", "1.5"),
    "seed": ("-1", "abc", str(2**64 + 1), "9" * 5000),
    "amp": ("abc", "1", "-3x3", "3000x0", "9" * 20 + "x1"),
}
_YUV_STATES = ("whole", "short", "missing")


@st.composite
def _plans(draw):
    """(plan text, its hostile (key, value) pair if any, the state of its yuv source or None).

    Every value is valid but at most one, which is drawn from the hostile ones of its key.
    """
    specs = []
    for i in range(draw(st.integers(1, 2))):
        specs.append({key: draw(st.sampled_from(valid)) for key, valid in _SPEC_VALID.items()})
        specs[i]["seed"] = str(i + 1)  # two sources never repeat
    keys = draw(st.lists(st.sampled_from(sorted(_PLAN_VALID)), unique=True, max_size=3))
    lines = {key: draw(st.sampled_from(_PLAN_VALID[key])) for key in keys}
    slots = [(spec, key, _SPEC_HOSTILE[key]) for spec in specs for key in spec]
    slots += [(lines, key, _PLAN_HOSTILE) for key in lines]
    culprits = []
    hostile = draw(st.none() | st.integers(0, len(slots)))
    if hostile == len(slots):  # a field no synth spec has
        specs[0]["colour"] = "red"
        culprits.append(("colour", "red"))
    elif hostile is not None:
        values, key, choices = slots[hostile]
        values[key] = draw(st.sampled_from(choices))
        culprits.append((key, values[key]))
    sources = [",".join(f"{key}={value}" for key, value in spec.items()) for spec in specs]
    yuv = draw(st.none() | st.sampled_from(_YUV_STATES))
    if yuv is not None:
        sources.append("yuv={clip},size=32x32,frames=3")
    text = f"sequences = {' | '.join(sources)}\n" + "".join(f"{key} = {value}\n" for key, value in lines.items())
    return text, culprits, yuv


def _names_one(err: str, culprits: list[tuple[str, str]]) -> bool:
    """Whether `err` names one culprit: its key, or one of its comma-separated values; plan keys read lower-case."""
    err = err.lower()
    for key, value in culprits:
        if key.lower() in err or any(item.strip() and item.strip().lower() in err for item in value.split(",")):
            return True
    return False


@settings(max_examples=150)
@given(
    _plans(),
    st.just("none") | st.sampled_from(("mutated", "not utf-8", "out missing", "out is a directory")),
    st.integers(0, 2**16),
    st.integers(0, 255),
)
def test_experiment_exits_by_the_first_fault_in_its_plan_sources_and_output(plan_case, fault, at, byte):
    text, culprits, yuv = plan_case
    with tempfile.TemporaryDirectory() as root:
        clip, plan = os.path.join(root, "clip.yuv"), os.path.join(root, "plan.txt")
        if yuv != "missing" and yuv is not None:
            with open(clip, "wb") as f:
                f.write(bytes(range(256)) * 18 if yuv == "whole" else bytes(100))  # 3 frames of 32x32 4:2:0
        data = bytearray(text.replace("{clip}", clip).encode())
        if fault == "mutated":  # one byte replaced; a value it makes can only be as large as the ones drawn
            k = at % len(data)
            n = data[:k].count(b"\n") + 1
            data[k] = byte
            # the message may name the key of the line hit, its line (or the next, if a newline moved) or
            # something near it, or the plan file itself, if the byte is no UTF-8
            near = data.decode("utf-8", "replace").splitlines()[max(n - 2, 0) : n + 1]
            culprits = culprits + [(text.splitlines()[n - 1].split("=")[0].strip(), ""), (f"line {n}", ""),
                                   (f"line {n + 1}", ""), (plan, "")]
            tokens = [t for line in near for t in re.split(r"[\s,=|#]+", line) if t]
            # a token as such if it is not a lone character, or quoted as a message quotes it
            culprits += [(name, "") for t in tokens for name in (t, repr(t)) if len(name) > 1]
        if fault == "not utf-8":
            data += b"# caf\xe9\n"
        with open(plan, "wb") as f:
            f.write(data)
        out = os.path.join(root, "results.csv")
        if fault == "out missing":
            out = os.path.join(root, "missing", "results.csv")
        if fault == "out is a directory":
            os.mkdir(out)
        before = _files(root)
        code, err = _run(["experiment", "--plan", plan, "--out", out])
        after = _files(root)

    assert code in (EXIT_OK, EXIT_IO), err  # never an internal error: the plan reads no stream and no flag is bad
    if code == EXIT_OK:
        assert after - before == {out, out + ".meta.json"}
        warnings = err.splitlines()
        assert all(line.startswith("warning: ") for line in warnings), err
        if yuv in ("short", "missing") and fault == "none":  # its encodes fail, and name the file
            assert any(clip in line for line in warnings), err
        return
    assert after == before  # no CSV, no sidecar, no temp file
    assert err.startswith("mvpo: error: ") and err.count("\n") == 1, err
    if fault == "out missing":  # checked before the plan is read
        assert err == f"mvpo: error: output directory {os.path.dirname(out)} does not exist\n"
    elif fault == "out is a directory":  # so is this
        assert err == f"mvpo: error: output {out} is a directory\n"
    elif fault == "not utf-8":
        assert err.startswith(f"mvpo: error: plan {plan} is not UTF-8 text: ")
    else:
        assert culprits, err
        assert _names_one(err, culprits), err


@settings(max_examples=100)
@given(
    st.sampled_from(_SOURCES) | st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
    st.sampled_from(("json", "csv")),
    st.sampled_from(("none", "-", "file", "missing directory", "directory")),
)
def test_analyze_exits_by_the_first_fault_in_its_input_and_output(source, fmt, out_kind):
    with tempfile.TemporaryDirectory() as root:
        stream = os.path.join(root, "in.mvpo")
        data = bytearray(_small_cover())
        if source == "truncated":
            del data[-5:]
        if source == "damaged idx":
            data[HEADER_SIZE + 8] = 2
        if source == "far vector":
            data[HEADER_SIZE + 10 : HEADER_SIZE + 12] = (2**15 - 1).to_bytes(2, "little")
        if isinstance(source, tuple):  # one byte of the header or a record replaced
            data[source[0] % len(data)] = source[1]
        if source != "missing":
            with open(stream, "wb") as f:
                f.write(data)
        out = {"none": None, "-": "-", "file": os.path.join(root, "report")}.get(out_kind)
        if out_kind == "missing directory":
            out = os.path.join(root, "missing", "report")
        if out_kind == "directory":
            out = os.path.join(root, "folder")
            os.mkdir(out)
        argv = ["analyze", "--in", stream, "--format", fmt] + (["--out", out] if out else [])
        before = _files(root)
        code, err = _run(argv)
        after = _files(root)

    if out_kind == "missing directory":
        assert (code, err) == (EXIT_IO, f"mvpo: error: output directory {os.path.dirname(out)} does not exist\n")
    elif out_kind == "directory":  # refused, like a missing directory, before the input is read
        assert (code, err) == (EXIT_IO, f"mvpo: error: output {out} is a directory\n")
    elif source == "missing":
        assert code == EXIT_IO and err.startswith("mvpo: error: ") and stream in err, err
    elif code == EXIT_MALFORMED:  # the reader's refusal or the decode's, naming the file once
        assert source != "cover", err
        assert err.startswith(f"mvpo: malformed stream: {stream}: ") and err.count(stream) == 1, err
    else:
        assert code == EXIT_OK and (source == "cover" or isinstance(source, tuple)), (code, err)
        assert err == "", err
        written = {out} | ({out + ".meta.json"} if fmt == "csv" else set()) if out_kind == "file" else set()
        assert after - before == written
    if code != EXIT_OK:
        assert after == before
