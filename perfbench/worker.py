"""One workload in one fresh interpreter: passes, checks and traces.

Run by ``run.py``; prints one JSON object on its last stdout line.  With
``--probe`` it stops once the first op is ready and reports the import
time, which ``run.py`` uses for the set-up measurement.

The first pass is the check pass: every op's output is checked outside its
timed region and its digest kept.  Later passes only compare digests with
the checked ones, so an op counts as correct in a later pass exactly when
it reproduces checked output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3


def import_program() -> float:
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "pavingideals" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {src / 'pavingideals'}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import pavingideals.cli  # noqa: F401

    elapsed = perf_counter() - t0
    origin = Path(sys.modules["pavingideals"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"pavingideals imported from {origin}, not from {src}")
    return elapsed


def run_pass(ops, checked: dict | None, tracer=None):
    """Run every op once.  Returns (per-op seconds, failures, digests).

    With ``checked`` None this is the check pass; otherwise each op must
    reproduce the digest it had there.  An installed tracer records only
    inside the timed region of each op.
    """
    times: list[float] = []
    failures: list[tuple[str, str]] = []
    digests: dict[str, str] = {}
    for op in ops:
        result = None
        error = None
        if op.prepare is not None:
            op.prepare()
        if tracer is not None:
            tracer.on = True
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a harness crash
            error = f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.on = False
        if error is not None:
            failures.append((op.label, error))
            continue
        digest = op.digest(result)
        digests[op.label] = digest
        if checked is None:
            try:
                problems = op.check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            failures.extend((op.label, p) for p in problems)
        elif op.label not in checked:
            failures.append((op.label, "failed in the check pass"))
        elif checked[op.label] != digest:
            failures.append((op.label, "output differs from the checked pass"))
    return times, failures, digests


def measure(ops, seconds: float, trace: bool) -> dict:
    from tracing import Tracer

    cold_times, failures, digests = run_pass(ops, None)
    failed_labels = {label for label, _ in failures}
    checked = {k: v for k, v in digests.items() if k not in failed_labels}
    attempted = len(ops)
    failed = len(failed_labels)

    untraced: list[list[float]] = []
    traced: list[float] = []
    trace_counts: list[dict] = []
    trace_self: list[dict] = []
    tracer = Tracer() if trace else None
    start = perf_counter()
    while True:
        times, fails, _ = run_pass(ops, checked)
        untraced.append(times)
        if tracer is not None:
            tracer.install()
            try:
                traced_times, traced_fails, _ = run_pass(ops, checked, tracer)
            finally:
                tracer.uninstall()
            traced.append(sum(traced_times))
            fails += traced_fails
            attempted += len(ops)
            trace_counts.append(tracer.counts())
            trace_self.append(tracer.self_times())
        attempted += len(ops)
        failed += len(fails)
        failures.extend(fails)
        elapsed = perf_counter() - start
        rounds = len(untraced)
        if rounds >= (1 if trace else MIN_PASSES) and elapsed * (rounds + 1) / rounds > seconds:
            break

    out = {
        "labels": [op.label for op in ops],
        "kinds": [op.kind for op in ops],
        "cold_pass_s": sum(cold_times),
        "op_times": untraced,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = {
            "traced_pass_s": traced,
            "counts": trace_counts[0],
            "counts_repeat": all(c == trace_counts[0] for c in trace_counts),
            "self_s": {k: statistics.median(t[k] for t in trace_self) for k in trace_self[0]},
            "missing": tracer.missing,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_program()
    import workloads

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, work, args.smoke)
    if args.probe:
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    result = measure(ops, args.seconds, bool(args.trace))
    result["import_s"] = import_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
