"""The runtime depends on numpy only: every import in ``src/mereo`` is stdlib, numpy or relative.

The imports are read with ``ast``, so a dependency that happens to be
installed (scipy, orjson) still fails the check.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mereo").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_packages(path):
    """``(line, top-level package)`` of every absolute import in the module, nested ones included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "search.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = [f"{path.name}:{line} imports {name}" for line, name in imported_packages(path)
               if name not in ALLOWED]
    assert not foreign, foreign


def test_the_check_catches_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom . import io\n\ndef f():\n    import scipy.linalg\n")
    assert [name for _, name in imported_packages(module) if name not in ALLOWED] == ["scipy"]
