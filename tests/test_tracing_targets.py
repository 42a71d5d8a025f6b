"""Every per-layer tracing target of the benchmark names a live function.

A rename in the package would otherwise leave its tracer target unresolved
and silently zero that layer's metric.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Targets whose functions are gone from the package; the harness still lists
# them, and they are to be dropped from it together.
DEAD_TARGETS = {"linalg.rref", "linalg.ScalarMatrix.from_rows"}


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, without installing its tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, qualname: str) -> bool:
    holder = importlib.import_module(module_name)
    for part in qualname.split("."):
        holder = getattr(holder, part, None)
        if holder is None:
            return False
    return callable(holder)


def test_every_tracing_target_resolves_but_the_known_dead_ones(monkeypatch):
    tracing = load_tracing(monkeypatch)
    unresolved = {
        f"{t.module.removeprefix(tracing.PACKAGE + '.')}.{t.qualname}"
        for t in tracing.TARGETS
        if not resolves(t.module, t.qualname)
    }
    assert unresolved == DEAD_TARGETS
