"""A tiny-size pass of the benchmark's gated workloads, in process.

Every op of the `expanded` and `bracket-lift` workloads, built at smoke size,
is prepared, run and checked the way the harness's check pass does it, so a
change that breaks an op's output fails here and not only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    """perfbench/workloads.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["expanded", "bracket-lift"])
def test_smoke_pass_of_a_gated_workload_checks_clean(tmp_path, monkeypatch, workload):
    workloads = load_workloads(monkeypatch)
    ops = workloads.build(workload, 1, tmp_path, smoke=True)
    assert ops
    problems = {}
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        found = op.check(op.run())
        if found:
            problems[op.label] = found
    assert problems == {}
