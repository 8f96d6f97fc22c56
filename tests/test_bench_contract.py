"""The benchmark in ``perfbench/`` still fits the program.

``perfbench/layers.py`` wraps program functions by name; a name that no
longer resolves turns every traced metric it feeds into an ``absent`` one.
The run checks read the result line the way a benchmark driver does: the
last line of standard output, as strict JSON, holding every metric that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        missing = [
            f"{module}:{path}"
            for module, path, _ in layers.SPANS
            if layers._resolve(module, path) is None
        ]
    finally:
        sys.modules.pop("layers", None)
    assert not missing, f"span targets gone from the program: {missing}"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize(
    "workload, trace",
    [
        pytest.param("ktree-dp", 0, id="0"),
        pytest.param("ktree-dp", 1, id="1"),
        # the traced run wraps the parse, component and tree-solver names
        pytest.param("tree-cli", 1, id="tree-cli-1"),
        # ... and the chordal solver's build_gp and max_weight_perfect_matching
        pytest.param("mixed-components", 1, id="mixed-components-1"),
    ],
)
def test_run_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert {"correct", "attempted", "failed", "metrics"} <= result.keys()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
        assert not metric.get("absent", False), f"{name} is absent"
    assert result["correct"] is True
    assert result["failed"] == 0
