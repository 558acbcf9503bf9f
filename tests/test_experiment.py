"""Experiment plans and the per-cell table statistics."""

import pytest

from mvpo import InputError, Verdict
from mvpo.analyzer import FeatureReport
from mvpo.experiment import parse_plan, summarize
from mvpo.stego import METHOD_TAGS

SEQ = "sequences = pattern=shift,size=32x32,frames=3\n"


@pytest.mark.parametrize(
    "reports, expected",
    [
        ([], (None, None)),
        ([FeatureReport(0, 0, Verdict.INDETERMINATE)], (None, None)),
        ([FeatureReport(4, 4, Verdict.COVER), FeatureReport(4, 2, Verdict.STEGO)], (75.0, 50.0)),
        # one violation in 10**17 PUs rounds to exactly 100.0 as a float
        ([FeatureReport(10**17, 10**17 - 1, Verdict.STEGO)], (100.0, 0.0)),
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
