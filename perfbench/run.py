#!/usr/bin/env python3
"""pavingideals benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload expanded --seed 1 --seconds 30 --trace 0

Workloads: ``expanded`` and ``bracket-lift`` (see ``BENCHMARK.json`` for
why each exists) and ``certify`` (sample only; see ``README.md`` for why it
is not in ``BENCHMARK.json``).  Each runs in a fresh interpreter
(``worker.py``) against ``src/pavingideals`` of this checkout, single
threaded with CLI defaults.  Set-up time is measured separately, before and
after the passes, in fresh interpreters that stop once the first op is
ready.

With ``--trace 0`` the passes run untraced and the result carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the result carries the per-layer metrics plus the tracing overhead.
The full run record (per-op medians, ROADMAP baseline rows, output digests,
failures, environment) is printed on the line before the result and saved
under ``.bench_work/records/``.  The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("expanded", "certify", "bracket-lift")
TIME_LIMIT_S = 170
SETUP_PROBES = 8

# Per-phase end-to-end metrics of each workload, beyond the gated ones
# (setup_s, pass_max_s, peak_rss_mb); reported in the record.
PHASES = {
    "expanded": ("generate", "verify"),
    "certify": ("sample",),
    "bracket-lift": ("verify", "sample", "lift"),
}
BASELINE_OPS = (
    "generate --matroid qs --which lifting",
    "verify qs-lifting.txt on qs#1 --q canonical",
    "sample --family grid4x6",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_cmd(args, work: Path, probe: bool) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(work),
    ]
    return cmd + (["--smoke"] if args.smoke else []) + (["--probe"] if probe else [])


def start(cmd: list[str], timeout: float) -> tuple[subprocess.Popen, threading.Timer]:
    # A fixed hash seed gives every run the same dict and set layouts.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(timeout, 1), proc.kill)
    timer.start()
    return proc, timer


def finish(proc: subprocess.Popen, timer: threading.Timer) -> int:
    try:
        proc.stdout.read()
        return proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()


def last_json(line: str) -> dict:
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise RuntimeError(f"worker printed no result: {line[:200]!r}")


def measure_setup(args, work: Path, deadline: float, count: int, warm_up: bool) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up: spawn until the first op is ready.

    With ``warm_up`` one unmeasured probe comes first, so compiled bytecode
    exists for every measured one."""
    walls, imports = [], []
    for i in range(count + warm_up):
        t0 = perf_counter()
        proc, timer = start(worker_cmd(args, work, probe=True), deadline - perf_counter())
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        if finish(proc, timer) != 0:
            raise RuntimeError("set-up probe failed")
        if i or not warm_up:
            walls.append(wall)
            imports.append(last_json(line)["import_s"])
    return walls, imports


def run_worker(args, work: Path, deadline: float) -> dict:
    proc, timer = start(worker_cmd(args, work, probe=False), deadline - perf_counter())
    try:
        lines = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if rc != 0 or not lines:
        raise RuntimeError(f"worker exited with {rc}")
    return last_json(lines[-1])


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of this checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values) -> float:
    return statistics.median(values)


def timing(values) -> dict:
    return {"median_s": median(values), "n": len(values)}


def summarize(args, spec: dict, walls, imports, res: dict) -> tuple[dict, dict]:
    """(record, result line) from the set-up probes and the worker result."""
    labels, kinds, passes = res["labels"], res["kinds"], res["op_times"]
    pass_s = [sum(p) for p in passes]
    phase = {
        kind: [sum(t for t, k in zip(p, kinds) if k == kind) for p in passes]
        for kind in sorted(set(kinds))
    }
    per_op = {label: median(p[i] for p in passes) for i, label in enumerate(labels)}

    measured = {
        "setup_s": median(walls),
        "pass_s": median(pass_s),
        # Gated instead of the median: on a shared host identical passes
        # run tens of percent faster while neighbours idle, and those spells
        # come and go over minutes, while the contended speed is a steady
        # ceiling.  A slower program moves every pass, the slowest too.
        "pass_max_s": max(pass_s),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_failed": res["failed"] / res["attempted"],
    }
    for kind in PHASES[args.workload]:
        measured[f"{kind}_s"] = median(phase[kind])
    if "trace" in res:
        measured.update(layer_metrics(res, passes, phase))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"pass_s": "s", "ops_failed": "ratio", "generate_s": "s", "verify_s": "s", "sample_s": "s", "lift_s": "s"})
    baseline = {"import pavingideals.cli": timing(imports)}
    baseline.update({label: timing([p[labels.index(label)] for p in passes]) for label in BASELINE_OPS if label in labels})
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in measured.items()},
        "setup_s": walls,
        "pass_s": pass_s,
        "cold_pass_s": res["cold_pass_s"],
        "phase_s": {k: timing(v) for k, v in phase.items()},
        "baseline_rows": baseline,
        "per_op_median_s": per_op,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "digests": res["digests"],
    }
    if "trace" in res:
        record["trace"] = res["trace"]
        record["layers_by_self_time"] = layer_table(res)
    return record, result


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(res: dict, passes, phase) -> dict:
    tr = res["trace"]
    counts, self_s = tr["counts"], tr["self_s"]
    out: dict[str, float] = {}
    out.update(counts)
    out.update({f"{k}_s": v for k, v in self_s.items()})
    out["samplers.accept_ratio"] = ratio(counts["samplers.sample_calls"], counts["realizations.certify_calls"])
    out["generators.nonzero_ratio"] = ratio(counts["generators.nonzero"], counts["generators.emitted"])
    out["lifting.lift_ok_ratio"] = ratio(counts["lifting.lift_ok"], counts["lifting.lift_calls"])
    out["trace.overhead_s"] = median(tr["traced_pass_s"]) - median(sum(p) for p in passes)
    for kind in ("generate", "sample", "verify", "lift"):
        out[f"ops.{kind}_s"] = median(phase[kind]) if kind in phase else 0.0
    return out


def layer_table(res: dict) -> list:
    """Self time per span, largest first, as a share of the traced pass."""
    tr = res["trace"]
    total = median(tr["traced_pass_s"])
    rows = sorted(tr["self_s"].items(), key=lambda kv: -kv[1])
    table = [{"span": k, "self_s": v, "share": ratio(v, total)} for k, v in rows]
    rest = total - sum(tr["self_s"].values())
    table.append({"span": "(outside traced spans)", "self_s": rest, "share": ratio(rest, total)})
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest-size ops, for the benchmark's own tests")
    args = parser.parse_args(argv)

    deadline = perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "pavingideals" / "__init__.py").is_file():
        return fail(f"no program source under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    bench = ROOT / ".bench_work"
    work = bench / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        # Half the set-up probes before the passes and half after, so that
        # their median spans the host's slow and fast spells like the passes.
        walls, imports = measure_setup(args, work, deadline, SETUP_PROBES // 2, warm_up=True)
        res = run_worker(args, work, deadline)
        after = measure_setup(args, work, deadline, SETUP_PROBES - SETUP_PROBES // 2, warm_up=False)
        walls, imports = walls + after[0], imports + after[1]
        record, result = summarize(args, spec, walls, imports, res)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = bench / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (records / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
