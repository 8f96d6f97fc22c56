"""The dependencies that ``pyproject.toml`` declares are exactly the
third-party packages that ``src/connmatch`` imports, at module level or
inside a function."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "connmatch"


def _imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_the_imports():
    imported = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        imported |= _imported_top_levels(path)
    third_party = {
        name for name in imported if name not in sys.stdlib_module_names and name != "connmatch"
    }
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in project["dependencies"]}
    assert third_party == declared
