"""The public surface the README shows: its Python example runs and prints
what its comments say, its command-line examples print what they printed
when recorded, and every exported name resolves."""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import ringroots

from helpers import run_cli

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


# (argv, exit code, stdout) of each `echo '...' | ringroots ...` example,
# in README order; the long cross-check stdout is pinned by its sha256.
CLI_EXAMPLES = [
    (["construct", "--verify", "--trace"], 0,
     '{"polynomial":{"ring":{"kind":"quaternion"},"coefficients":[["1","0","0","0"],'
     '["0","0","0","0"],["1","0","0","0"]]},"trace":{"steps":[{"index":1,'
     '"evaluation_value":["0","-1","1","0"],"branch":"conjugate",'
     '"conjugated_root":["0","-1","0","0"]}],"result":{"ring":{"kind":"quaternion"},'
     '"coefficients":[["1","0","0","0"],["0","0","0","0"],["1","0","0","0"]]}},'
     '"residuals":[["0","0","0","0"],["0","0","0","0"]]}\n'),
    (["quadratic", "--a1", "[[0,0],[0,0]]"], 0,
     '{"n":2,"exists":true,"rank":1,"rank_augmented":1,"coefficients":[[["0","0"],'
     '["0","0"]]],"a0":[["-1","0"],["0","-1"]],"solution_space_dim":2}\n'),
    (["degree-n", "--n", "3"], 0,
     '{"n":3,"exists":true,"rank":2,"rank_augmented":2,"coefficients":[[["0","0"],'
     '["0","-1"]],[["0","0"],["0","0"]]],"a0":[["0","0"],["0","0"]],'
     '"solution_space_dim":4}\n'),
    (["verify"], 0, '{"residuals":[["0","0","0","0"]],"all_zero":true}\n'),
    (["cross-check"], 0,
     "sha256:e5f418fa26ad7a29925ab12949764b6f097dd4848eb614880b34edc5dcb88e06"),
]
CROSS_CHECK_SUMMARY = (
    '{"ring": {"kind": "matrix", "k": 2, "field": {"kind": "prime", "p": 2}}, '
    '"n": 2, "pairs_checked": 240, "exists_count": 168, "disagreements": 0}\n'
)


def _cli_examples() -> list:
    """(stdin document, argv) of each `echo '...' | ringroots ...` block."""
    text = README.read_text(encoding="utf-8")
    commands = [c for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for c in re.split(r"\n\s*\n", block) if "| ringroots" in c]
    examples = []
    for command in commands:
        words = shlex.split(command.replace("\\\n", " "))
        assert words[0] == "echo" and words[2:4] == ["|", "ringroots"], words
        examples.append((words[1], words[4:]))
    return examples


def test_readme_cli_examples_print_their_recorded_output(monkeypatch, capsys):
    examples = _cli_examples()
    assert [argv for _, argv in examples] == [argv for argv, _, _ in CLI_EXAMPLES]
    for (document, argv), (_, code, expected) in zip(examples, CLI_EXAMPLES):
        got, out, err = run_cli(monkeypatch, capsys, argv, text=document + "\n")  # echo's newline
        assert got == code, argv
        if expected.startswith("sha256:"):
            assert len(out) == 29664
            assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected
            assert err == CROSS_CHECK_SUMMARY
        else:
            assert out == expected, argv
            assert err == ""


def test_every_exported_name_resolves():
    assert len(set(ringroots.__all__)) == len(ringroots.__all__)
    for name in ringroots.__all__:
        assert getattr(ringroots, name) is not None, name
    namespace = {}
    exec("from ringroots import *", namespace)
    assert set(ringroots.__all__) <= namespace.keys()
    assert set(ringroots.__all__) <= set(dir(ringroots))
