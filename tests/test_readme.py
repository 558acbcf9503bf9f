"""The README's examples: the "Library use" code runs and prints what its comments promise,
and the experiment plan parses and shows the defaults it says it shows."""

import ast
import re
from pathlib import Path

from mvpo.experiment import ExperimentPlan, parse_plan
from mvpo.stego import METHOD_TAGS

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_prints_what_its_comments_promise(capsys):
    block = _library_use_block()
    # each print line ends in a comment holding the value it prints, as a Python literal
    promised = [
        str(ast.literal_eval(line.split("#", 1)[1].strip()))
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert promised == ["100.0", "stego"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == promised


def _plan_block() -> str:
    section = README.read_text().split("### Experiments", 1)[1]
    return re.search(r"```text\n(.*?)```", section, re.S).group(1)


def test_readme_plan_parses_and_shows_the_defaults():
    block = _plan_block()
    plan = parse_plan(block)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line.split("#", 1)[0]]
    # each grid line is in the block, so its values are read from it, not filled in by default
    for name, tag in METHOD_TAGS.items():
        assert f"{name}_{tag.param.lower()}" in keys
        assert plan.grids[name] == list(tag.grid)
    for key in ("pu_size", "search_range", "seed", "out"):
        assert key in keys
        assert getattr(plan, key) == getattr(ExperimentPlan, key)
