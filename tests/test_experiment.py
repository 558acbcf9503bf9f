"""Experiment plans and the per-cell table statistics."""

import gc
import weakref

import pytest

import mvpo.analyzer
import mvpo.codec
import mvpo.experiment
import mvpo.formats
import mvpo.stego
from mvpo import (
    EmbedConfig,
    EmbedMethod,
    InputError,
    MalformedStreamError,
    embed,
    optimal_rate,
    read_stream,
    write_stream,
)
from mvpo.experiment import _cells, parse_plan, run_experiment, summarize
from mvpo.stego import METHOD_TAGS

SEQ = "sequences = pattern=shift,size=32x32,frames=3\n"


@pytest.mark.parametrize(
    "reports, expected",
    [
        # each sequence's report is its (n_pus, n_optimal)
        ([], (None, None)),
        ([(0, 0)], (None, None)),
        ([(4, 4), (4, 2)], (75.0, 50.0)),
        # one violation in 10**17 PUs rounds to exactly 100.0 as a float
        ([(10**17, 10**17 - 1)], (100.0, 0.0)),
    ],
)
def test_summarize_counts_at_100_exactly(reports, expected):
    assert summarize(reports) == expected


def test_plan_grids_default_and_convert():
    plan = parse_plan(SEQ + "tar2_t = 3, 07\ntar3_bpap = 0.25\n")
    assert plan.grids["tar1"] == list(METHOD_TAGS["tar1"].grid)
    assert plan.grids["tar2"] == [3, 7]
    assert plan.grids["tar3"] == [0.25]


@pytest.mark.parametrize(
    "line, key, value",
    [
        ("tar1_e = 1.5", "tar1_e", "1.5"),
        ("tar2_t = 2, -1", "tar2_t", "-1"),
        ("tar2_t = 1.5", "tar2_t", "1.5"),
        ("tar3_bpap = lots", "tar3_bpap", "lots"),
    ],
)
def test_plan_rejects_bad_grid_values(line, key, value):
    with pytest.raises(InputError, match=f"{key} value '{value}'"):
        parse_plan(SEQ + line + "\n")


# ---------------------------------------------------------------- each cell scored as `mvpo analyze` does

TWO_SEQ = "sequences = pattern=objects,size=32x32,frames=3,seed=0 | pattern=noise,size=32x32,frames=3,seed=1\n"


def _count_decodes(monkeypatch) -> list[int]:
    """Count the per-PU decode walks started through the codec, the analyzer and the embedders."""
    calls = [0]
    for module in (mvpo.codec, mvpo.analyzer, mvpo.stego):
        def counted(stream, _walk=module.decode_walk):
            calls[0] += 1
            return _walk(stream)

        monkeypatch.setattr(module, "decode_walk", counted)
    return calls


@pytest.mark.parametrize(
    "methods, per_cover",
    [
        # the tar2 embeds of a cover share one walk of it; every analysis, tar1's output
        # check and tar3's slot choice decode the record table instead
        ("cover, tar1, tar2, tar3", 1),
        ("tar2", 1),
        # no tar2 embed, so no walk
        ("tar3", 0),
        ("cover, tar1", 0),
    ],
)
def test_each_cover_is_decoded_once_for_its_cells(monkeypatch, methods, per_cover):
    calls = _count_decodes(monkeypatch)
    plan = parse_plan(TWO_SEQ + f"methods = {methods}\n")
    rows, errors = run_experiment(plan)
    assert errors == [] and all(r.n_sequences == 2 for r in rows)
    assert calls[0] == per_cover * len(plan.sequences) * len(plan.qps)


@pytest.mark.parametrize(
    "methods, per_cover",
    [
        # the cover cell decodes and rates the cover; each tar1 stego is decoded by its
        # embed's output check and rated by its analysis; every tar2 and tar3 stego inherits
        ("cover, tar1, tar2, tar3", 1 + 5),
        ("tar3, tar2", 1),
        ("tar2", 1),
        ("tar1", 5),
    ],
)
def test_each_stream_is_decoded_and_rated_at_most_once(monkeypatch, methods, per_cover):
    counts = {"decode": 0, "rates": 0}
    real_decode, real_rates = mvpo.codec.decode, mvpo.analyzer.pu_rates

    def decode(stream):
        counts["decode"] += stream._decoded is None  # a call that finds the stream's decode kept computes none
        return real_decode(stream)

    def pu_rates(*args):
        counts["rates"] += 1
        return real_rates(*args)

    for module in (mvpo.codec, mvpo.analyzer, mvpo.stego):
        monkeypatch.setattr(module, "decode", decode)
    monkeypatch.setattr(mvpo.analyzer, "pu_rates", pu_rates)
    plan = parse_plan(TWO_SEQ + f"methods = {methods}\n")
    rows, errors = run_experiment(plan)
    assert errors == [] and all(r.n_sequences == 2 for r in rows)
    n_covers = len(plan.sequences) * len(plan.qps)
    assert counts == {"decode": per_cover * n_covers, "rates": per_cover * n_covers}


def test_every_cell_scores_its_streams_as_analyze_does(monkeypatch):
    scored = []  # each cell's (n_pus, n_optimal) per sequence, in cell order
    real_summarize = mvpo.experiment.summarize

    def recording(tallies):
        scored.append(list(tallies))
        return real_summarize(scored[-1])

    monkeypatch.setattr(mvpo.experiment, "summarize", recording)
    plan = parse_plan(TWO_SEQ + "qp = 20, 30\nmethods = cover, tar1, tar2, tar3\n")
    rows, errors = run_experiment(plan)
    assert errors == [] and all((r.n_sequences, r.n_errors) == (2, 0) for r in rows)

    # the CLI's path: each stream embedded with no walk handed in, written, read back and analyzed
    params = plan.rd_params()
    covers = {(source, qp): source.encode(params[qp]) for source in plan.sequences for qp in plan.qps}
    expected = []
    for method, qp, _, value in _cells(plan):
        tallies = []
        for source in plan.sequences:
            stream = covers[(source, qp)]
            if method != "cover":
                stream = embed(stream, EmbedConfig(METHOD_TAGS[method].method, value, plan.seed))[0]
            report = optimal_rate(read_stream(write_stream(stream)))
            tallies.append((report.n_pus, report.n_optimal))
        expected.append(tallies)
    assert scored == expected
    assert len(expected) == 2 * (1 + sum(len(plan.grids[m]) for m in ("tar1", "tar2", "tar3")))


def test_errors_come_encodes_first_then_by_cell_then_by_sequence(tmp_path, monkeypatch):
    short = tmp_path / "short.yuv"
    short.write_bytes(b"\0" * 100)
    real_embed = mvpo.experiment.embed

    def failing(stream, cfg, checks=None):
        if (cfg.method, cfg.value) in ((EmbedMethod.INDEX_THRESHOLD, 5), (EmbedMethod.MVD_PARITY, 0.3)):
            raise MalformedStreamError("refused")
        return real_embed(stream, cfg, checks)

    monkeypatch.setattr(mvpo.experiment, "embed", failing)
    plan = parse_plan(TWO_SEQ.rstrip("\n") + f" | yuv={short},size=32x32,frames=3\nmethods = tar2, tar1\n")
    rows, errors = run_experiment(plan)
    objects, noise = (s.name for s in plan.sequences[:2])
    assert [e.split(":")[0] for e in errors] == [
        "encode short.yuv qp=25",
        f"tar2 T=5 qp=25 {objects}",
        f"tar2 T=5 qp=25 {noise}",
        f"tar1 e=0.3 qp=25 {objects}",
        f"tar1 e=0.3 qp=25 {noise}",
    ]
    failed = {(r.method, r.value): (r.n_sequences, r.n_errors) for r in rows if r.n_errors > 1}
    assert failed == {("tar2", "5"): (0, 3), ("tar1", "0.3"): (0, 3)}


def test_a_failed_encode_leaves_none_of_its_planes_alive(tmp_path, monkeypatch):
    # a whole 32x32 clip that no 64-pel PU covers: each encode reads two planes and refuses them.
    # They go when the encode fails, not when a collection frees a cycle through its exception
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(bytes(32 * 32 * 3 // 2 * 3))
    alive = []  # a weak reference to each plane the reader yielded
    real_reader = mvpo.formats.iter_yuv_lumas

    def reader(path, spec):
        for plane in real_reader(path, spec):
            alive.append(weakref.ref(plane))
            yield plane

    monkeypatch.setattr(mvpo.formats, "iter_yuv_lumas", reader)
    plan = parse_plan(f"sequences = yuv={clip},size=32x32,frames=3\npu_size = 64\nqp = 20, 30\n")
    gc.disable()
    try:
        rows, errors = run_experiment(plan)
        assert len(alive) == 4 and [ref() for ref in alive] == [None] * 4
    finally:
        gc.enable()
    assert [e.split(":")[0] for e in errors] == ["encode clip.yuv qp=20", "encode clip.yuv qp=30"]
    assert [(r.n_sequences, r.n_errors) for r in rows] == [(0, 1), (0, 1)]


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_experiment_needs_at_least_one_job(monkeypatch, jobs):
    def _no_encode(*args):
        raise AssertionError("encoded with no worker to run it")

    monkeypatch.setattr(mvpo.experiment, "encode_sequence", _no_encode)
    with pytest.raises(ValueError, match=f"jobs {jobs} must be at least 1"):
        run_experiment(parse_plan(SEQ), jobs)
