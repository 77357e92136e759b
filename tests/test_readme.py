"""The public surface the README shows: its Python example runs and prints
what its comments say, and every exported name resolves."""

import contextlib
import io
import re
from pathlib import Path

import ringroots

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_prints_its_commented_outputs():
    source = _python_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    commented = [(got, line.split("#", 1)[1].strip())
                 for got, line in zip(printed, prints) if "#" in line]
    assert [got for got, _ in commented] == ["(1)*x^2 + (1)", "False", "True"]
    # a comment may add a parenthetical note after the printed value
    assert all(c == got or c.startswith(got + " (") for got, c in commented)


def test_every_exported_name_resolves():
    assert len(set(ringroots.__all__)) == len(ringroots.__all__)
    for name in ringroots.__all__:
        assert getattr(ringroots, name) is not None, name
    namespace = {}
    exec("from ringroots import *", namespace)
    assert set(ringroots.__all__) <= namespace.keys()
