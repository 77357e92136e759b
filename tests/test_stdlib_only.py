"""The runtime needs nothing outside the standard library: every absolute
import in the package names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringroots"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_in_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in files
    outside = [(path.name, name) for path in files for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
