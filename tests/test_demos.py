"""Every demo runs to the end: the demos call internals such as
``treewidth_solver._walk``, so a change of table shape or of a private name
must not break them silently. No test or demo builds DP tables itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_no_second_dp_walk():
    offenders = [
        path.name
        for path in sorted((ROOT / "tests").rglob("*.py")) + DEMOS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "connmatch.treewidth_solver"
        and "_node_table" in [alias.name for alias in node.names]
    ]
    assert not offenders, f"iterate treewidth_solver._walk instead of importing _node_table: {offenders}"
