"""The README's "Library use" example runs and prints what its comments promise."""

import ast
import re
from pathlib import Path

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
