"""Experiment plans and the per-cell table statistics."""

import pytest

import mvpo.analyzer
import mvpo.experiment
import mvpo.stego
from mvpo import EmbedMethod, InputError, MalformedStreamError
from mvpo.experiment import parse_plan, run_experiment, summarize
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


# ---------------------------------------------------------------- one held decode per cover

TWO_SEQ = "sequences = pattern=objects,size=32x32,frames=3,seed=0 | pattern=noise,size=32x32,frames=3,seed=1\n"


def _count_decodes(monkeypatch) -> list[int]:
    """Count the decode walks started through the analyzer and the embedders."""
    calls = [0]
    for module in (mvpo.analyzer, mvpo.stego):
        def counted(stream, _walk=module.decode_walk):
            calls[0] += 1
            return _walk(stream)

        monkeypatch.setattr(module, "decode_walk", counted)
    return calls


@pytest.mark.parametrize(
    "methods, per_cover",
    [
        # 1 held decode + 5 tar1 output checks + 4 tar1 analyses.  tar2 and tar3 stegos are
        # analyzed from the held decode, and so is tar1's e=0.1 stego: on these 8-PU covers it
        # selects one PU whose parity already holds its bit, so it changes no record.  Holding
        # no decode made 31, and decoding every stego's analysis 21.
        ("cover, tar1, tar2, tar3", 10),
        # 5 tar1 output checks + 5 stego analyses; no cell reads the held decode, so none is built
        ("tar1", 10),
    ],
)
def test_each_cover_is_decoded_once_for_its_cells(monkeypatch, methods, per_cover):
    calls = _count_decodes(monkeypatch)
    plan = parse_plan(TWO_SEQ + f"methods = {methods}\n")
    rows, errors = run_experiment(plan)
    assert errors == [] and all(r.n_sequences == 2 for r in rows)
    assert calls[0] == per_cover * len(plan.sequences) * len(plan.qps)


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


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_experiment_needs_at_least_one_job(monkeypatch, jobs):
    def _no_encode(*args):
        raise AssertionError("encoded with no worker to run it")

    monkeypatch.setattr(mvpo.experiment, "encode_sequence", _no_encode)
    with pytest.raises(ValueError, match=f"jobs {jobs} must be at least 1"):
        run_experiment(parse_plan(SEQ), jobs)
