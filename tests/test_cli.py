"""CLI harness: exit codes, artifacts, determinism, report rendering."""

import json
import os

import numpy as np
import pytest

from mvpo import SequenceStream, read_stream, write_stream
from mvpo import cli
from mvpo.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

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

    monkeypatch.setattr(cli, "encode_sequence", _broken)
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
    bad.write_bytes(write_stream(SequenceStream(cover.header, records)))
    before = sorted(tmp_path.iterdir())
    for command in (
        ["embed", "--method", "tar1", "--e", "0.5"],
        ["embed", "--method", "tar2", "--T", "4"],
        ["embed", "--method", "tar3", "--bpap", "0.5"],
        ["analyze", "--format", "json"],
    ):
        code = main([*command, "--in", str(bad), "--out", str(tmp_path / "out.mvpo")])
        assert code == EXIT_MALFORMED, command
        assert "malformed" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before  # no artifact, no sidecar


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



def test_encode_with_both_sources_is_usage_error(tmp_path, capsys):
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(32 * 32 * 3 // 2 * 2))
    out = tmp_path / "x.mvpo"
    code = main(["encode", "--synth", SYNTH, "--yuv", str(clip), "--size", "32x32", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "--synth or --yuv" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_is_usage_error_before_encoding(tmp_path, monkeypatch, capsys, jobs):
    import mvpo.experiment

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


def test_experiment_bad_grid_value_is_input_error_before_encoding(tmp_path, monkeypatch, capsys):
    import mvpo.experiment

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
    # a repeated sequence would be encoded and counted twice in every cell
    ("plan", f"sequences = {SYNTH} | {SYNTH}\n", "sequences"),
    # a key given twice would silently keep its last value
    ("plan", f"sequences = {SYNTH}\nqp = 20\nqp = 30\n", "qp"),
    ("synth", "pattern=shift,size=32x32,frames=3,frames=5", "frames"),
    ("plan", "sequences = yuv=clip.yuv,size=64x64,frames=3,size=32x32\n", "size"),
    # an unknown key or field would be ignored: the plan would run only cover at qp 25
    ("plan", f"sequences = {SYNTH}\nmethod = tar1\nqps = 30\n", "['method', 'qps']"),
    ("plan", "sequences = yuv=a.yuv,size=64x64,frames=3,seed=5\n", "['seed']"),
]


@pytest.mark.parametrize("kind, text, key", _BAD_FIELDS)
def test_malformed_synth_and_plan_fields_exit_2_before_encoding(tmp_path, monkeypatch, capsys, kind, text, key):
    import mvpo.experiment

    def _no_encode(*args):
        raise AssertionError("encoded before the input was validated")

    monkeypatch.setattr(cli, "encode_sequence", _no_encode)
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
    ],
)
def test_bad_size_names_the_field_it_parses(tmp_path, capsys, argv, message):
    assert main(["encode", *argv, "--out", str(tmp_path / "out.mvpo")]) == EXIT_IO
    assert capsys.readouterr().err == f"mvpo: error: {message}\n"
