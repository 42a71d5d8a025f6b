#!/usr/bin/env python3
"""List the functions of the package that no CLI call enters.

A sweep of CLI calls runs in process under ``sys.settrace``: every
subcommand, every option value, on every builtin matroid.  Then the
benchmark's op lists (at smoke size, with their checks) and the two example
scripts run under a second trace.  Each function defined in
``src/pavingideals`` that the CLI sweep never entered is printed with its
mark: ``library`` when a benchmark or script call entered it, ``unreached``
when nothing did.  Only the standard library is used.

Usage: PYTHONPATH=src python3 scripts/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

import pavingideals
from pavingideals import cli
from pavingideals.generators import builtin_graph_data
from pavingideals.matroids import builtin_matroid, builtin_matroid_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(pavingideals.__file__).resolve().parent


def package_functions() -> dict[tuple[str, int], str]:
    """(file, first line) of each ``def`` in the package -> ``module.qualname``.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    out: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def entered(run) -> set[tuple[str, int]]:
    """(file, first line) of every Python function that ``run()`` calls.

    The package's memo caches are emptied first, so a function whose result
    an earlier call cached is still entered."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("pavingideals."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    codes: set[tuple[str, int]] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        codes.add((code.co_filename, code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(os.path.realpath(name), line) for name, line in codes}


def call(*argv, codes=(0,)) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code not in codes:
        raise RuntimeError(f"{' '.join(map(str, argv))} exited {code}: {err.getvalue().strip()}")


def cli_sweep(work: Path) -> None:
    """Every subcommand and option value: each builtin is validated, checked,
    sampled, generated at every --q form and verified at every --q form."""
    for name in builtin_matroid_names():
        rank = builtin_matroid(name).rank
        explicit = ",".join(str(i) for i in range(1, rank + 1))
        call("validate", "--matroid", name)
        call("liftcheck", "--matroid", name)
        sample = work / f"{name}.json"
        call("sample", "--family", name, "--seed", 7, "--out", sample)
        for q in ("symbolic", "canonical", explicit):
            polys = work / f"{name}-{q}.txt"
            call("generate", "--matroid", name, "--which", "all", "--q", q, "--out", polys)
            for verify_q in ("canonical", explicit) if q == "symbolic" else ("canonical",):
                call("verify", "--polys", polys, "--realization", sample, "--q", verify_q, "--out", work / "v.jsonl")
    matroid = work / "qs-matroid.json"
    matroid.write_text(builtin_matroid("qs").to_json())
    graph_data = work / "qs-graph.json"
    graph_data.write_text(json.dumps(builtin_graph_data("qs").to_json_dict()))
    call("validate", "--matroid", matroid)
    call("sample", "--matroid", matroid)
    call("generate", "--matroid", matroid, "--which", "all", "--budget-minor", 3)
    for which in ("lifting", "graph"):
        call("generate", "--matroid", "qs", "--which", which)
    qs = ["--realization", work / "qs.json"]
    call("generate", "--matroid", "qs", "--which", "circuits", "--out", work / "c.txt")
    call("verify", "--polys", work / "c.txt", *qs)
    call("generate", "--matroid", "qs", "--which", "graph", "--graph-data", graph_data, "--out", work / "g.txt")
    call("verify", "--polys", work / "g.txt", *qs, "--q", "canonical")
    # On a grid3x3 sample qs's graph polynomial leaves a nonzero residual in q.
    call("verify", "--polys", work / "g.txt", "--realization", work / "grid3x3.json", "--q", "canonical", codes=(3,))
    call("verify", "--polys", work / "g.txt", *qs, "--q", "0,0,1", "--expect", "nonzero", codes=(0, 3))
    call("verify", "--polys", work / "qs-symbolic.txt", *qs, "--q", "canonical", "--expect", "nonzero", codes=(0, 3))
    call("gc", "meet", "3,4", "1,2", "--join", "5,6", "--dim", 3)
    call("gc", "join", "1", "2", "3", "--dim", 3)
    call("gc", "join", "1", "2", "--join", "q", "--dim", 4)
    call("gc", "meet", "1,2", "3,4", "--dim", 3)
    call("gc", "meet", "1,2", "1,2", "--dim", 3)


def library_sweep(work: Path) -> None:
    """The benchmark's op lists at smoke size, checks included, and the two
    example scripts."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for name in ("expanded", "bracket-lift"):
        for op in workloads.build(name, 1, work, smoke=True):
            if op.prepare:
                op.prepare()
            problems = op.check(op.run())
            if problems:
                raise RuntimeError(f"{op.label}: {problems}")
    for script, *args in ("reproduce_examples.py", "--seeds", "1"), ("lifting_roundtrip.py", "--family", "qs"):
        namespace = runpy.run_path(str(ROOT / "scripts" / script), run_name="example")
        argv = sys.argv
        sys.argv = [script, *args]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if namespace["main"]() != 0:
                    raise RuntimeError(f"{script} failed")
        finally:
            sys.argv = argv


def sweep() -> dict[str, str]:
    """Each package function the CLI sweep never entered -> its mark,
    ``library`` or ``unreached``."""
    functions = package_functions()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "cli").mkdir()
        (work / "library").mkdir()
        by_cli = entered(lambda: cli_sweep(work / "cli"))
        by_library = entered(lambda: library_sweep(work / "library"))
    return {
        name: "library" if key in by_library else "unreached"
        for key, name in sorted(functions.items(), key=lambda item: item[1])
        if key not in by_cli
    }


def main() -> int:
    marks = sweep()
    total = len(package_functions())
    for name, mark in marks.items():
        print(f"{mark:9}  {name}")
    library = sum(1 for mark in marks.values() if mark == "library")
    print(f"{total} functions; the CLI sweep enters {total - len(marks)}, "
          f"{library} more only a benchmark or script call, {len(marks) - library} none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
