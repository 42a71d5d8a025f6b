"""The benchmark's workloads: seeded operation lists with their checks.

A workload is an ordered list of ops.  Each op has an untimed ``prepare``,
a timed ``run`` and, outside the timed region, a ``check`` that decides
whether the output is correct and a ``digest`` of the output bytes.  Ops
are CLI invocations through ``cli.main`` (in process) or a few documented
library calls.  Later ops read the files earlier ops of the same pass
wrote, as a user's shell session would.

Every input derives from the workload seed except the ROADMAP baseline
rows, which reproduce the baseline table at the CLI's own defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pavingideals import brackets, cli, generators, lifting, linalg, matroids, realizations, verify

@dataclass
class CliResult:
    rc: int | None
    stdout: str
    stderr: str


@dataclass
class Op:
    kind: str  # generate | sample | verify | lift | family | gc | liftcheck
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]
    prepare: Callable[[], None] | None = None


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_op(kind: str, label: str, argv: list[str], out: Path | None, checks=()) -> Op:
    """A CLI invocation expected to exit 0; ``checks`` inspect its output."""
    full = argv + (["--out", str(out)] if out is not None else [])

    def read(res: CliResult) -> bytes:
        return out.read_bytes() if out is not None and out.exists() else b""

    def check(res: CliResult) -> list[str]:
        if res.rc != 0:
            return [f"exit code {res.rc}, expected 0: {res.stderr.strip()[:200]}"]
        problems = []
        for fn in checks:
            problems.extend(fn(res, read(res)))
        return problems

    return Op(kind, label, lambda: call_cli(full), check, lambda res: _sha(res.rc, res.stdout, read(res)))


# -- output checks -------------------------------------------------------------


def _all_pass(res: CliResult, data: bytes) -> list[str]:
    lines = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
    if not lines:
        return ["verify wrote no checks"]
    bad = [line["poly_id"] for line in lines if line.get("pass") is not True]
    return [f"{len(bad)} of {len(lines)} checks fail, first {bad[0]!r}"] if bad else []


def _recertifies(res: CliResult, data: bytes) -> list[str]:
    r = realizations.Realization.from_json(data.decode())
    if not realizations.in_realization_space(r.vectors, r.matroid):
        return ["sampled realization does not re-certify"]
    return []


def _nonempty(res: CliResult, data: bytes) -> list[str]:
    return [] if data.strip() else ["empty output"]


def sample_op(family: str, seed: int | None, out: Path) -> Op:
    argv = ["sample", "--family", family] + ([] if seed is None else ["--seed", str(seed)])
    label = " ".join(argv)
    return cli_op("sample", label, argv, out, (_recertifies,))


def generate_op(label: str, argv: list[str], out: Path) -> Op:
    return cli_op("generate", label, ["generate"] + argv, out, (_nonempty,))


def verify_op(label: str, polys: Path, realization: Path, out: Path, extra: list[str]) -> Op:
    argv = ["verify", "--polys", str(polys), "--realization", str(realization)] + extra
    return cli_op("verify", label, argv, out, (_all_pass,))


# -- library ops ------------------------------------------------------------------


def family_op(name: str, realization: Path) -> Op:
    """finite_generating_family; every member must vanish on a realization."""

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return generators.finite_generating_family(matroids.builtin_matroid(name))

    def check(fam) -> list[str]:
        if not fam.polynomials:
            return ["empty generating family"]
        r = realizations.Realization.from_json(realization.read_text())
        bad = [p.label for p in fam.polynomials if verify.evaluate_poly(p.polynomial, r, {}) != 0]
        return [f"{len(bad)} family members do not vanish, first {bad[0]!r}"] if bad else []

    def digest(fam) -> str:
        return _sha(fam.truncated, *(f"{p.label}\t{p.polynomial.to_text()}" for p in fam.polynomials))

    return Op("family", f"finite_generating_family({name})", run, check, digest)


def _draw_projection(rng: random.Random, vectors: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Hyperplane normal and center in dimension 3 (every round-trip family
    has rank 3) with the center off the hyperplane and no point on the line
    through the center, so projection succeeds."""
    while True:
        normal = tuple(rng.randint(-7, 7) for _ in range(3))
        center = tuple(rng.randint(-7, 7) for _ in range(3))
        if not any(normal) or sum(a * b for a, b in zip(normal, center)) == 0:
            continue
        if all(any(_cross(v, center)) for v in vectors.values()):
            return normal, center


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def lift_op(label: str, source: Path, rng_seed: str) -> Op:
    """Project a sampled realization from a seeded center onto a seeded
    hyperplane, then lift it back (lifting.project -> lifting.lift)."""
    state: dict = {}

    def prepare():
        r = realizations.Realization.from_json(source.read_text())
        normal, center = _draw_projection(random.Random(rng_seed), r.vectors)
        state.update(r=r, hyperplane=lifting.Hyperplane(normal), center=center)

    def run():
        flat = lifting.project(state["r"], state["hyperplane"], state["center"])
        return lifting.lift(flat, state["center"])

    def check(lifted) -> list[str]:
        if lifted is None:
            return ["no non-degenerate lift"]
        m = lifted.matroid
        problems = []
        if linalg.matrix_rank(list(lifted.vectors.values())) != m.rank:
            problems.append("lift is not full rank")
        if not realizations.in_circuit_variety(lifted.vectors, m):
            problems.append("lift is outside the circuit variety")
        return problems

    def digest(lifted) -> str:
        if lifted is None:
            return _sha(None)
        return _sha(*(f"{p}:{v}" for p, v in sorted(lifted.vectors.items())))

    return Op("lift", label, run, check, digest, prepare)


def _det3(a, b, c) -> int:
    return sum(x * y for x, y in zip(a, _cross(b, c)))


def gc_op(rng: random.Random) -> Op:
    """meet of two lines joined with a third pair, checked against the
    Grassmann-Cayley expansion [a b d][c e f] - [a b c][d e f] at random
    points (the printed form may differ from it by a sign)."""
    a, b, c, d, e, f = rng.sample(range(1, 10), 6)
    argv = ["gc", "meet", f"{a},{b}", f"{c},{d}", "--join", f"{e},{f}", "--dim", "3"]
    expected = 0
    while expected == 0:
        points = {p: tuple(rng.randint(-9, 9) for _ in range(3)) for p in (a, b, c, d, e, f)}
        pa, pb, pc, pd, pe, pf = (points[p] for p in (a, b, c, d, e, f))
        expected = _det3(pa, pb, pd) * _det3(pc, pe, pf) - _det3(pa, pb, pc) * _det3(pd, pe, pf)

    def printed_value(res: CliResult, data: bytes) -> list[str]:
        text = res.stdout.strip().replace("⟨", "<").replace("⟩", ">")
        value = brackets.BracketPolynomial.from_text(text).evaluate(points)
        if value not in (expected, -expected):
            return [f"gc printed {res.stdout.strip()!r}, value {value}, expected +-{expected}"]
        return []

    return cli_op("gc", " ".join(argv), argv, None, (printed_value,))


def liftcheck_op(name: str) -> Op:
    pattern = re.compile(r"^(?:liftable: certified \(\|M\| >= k\+n: (\d+) >= (\d+)\)|inconclusive \((\d+) < (\d+)\))$")
    size = matroids.builtin_matroid(name).size

    def verdict(res: CliResult, data: bytes) -> list[str]:
        m = pattern.match(res.stdout.strip())
        if not m:
            return [f"unexpected liftcheck output {res.stdout.strip()!r}"]
        if m.group(1):
            ok = int(m.group(1)) == size and int(m.group(1)) >= int(m.group(2))
        else:
            ok = int(m.group(3)) == size and int(m.group(3)) < int(m.group(4))
        return [] if ok else [f"inconsistent liftcheck verdict {res.stdout.strip()!r}"]

    argv = ["liftcheck", "--matroid", name]
    return cli_op("liftcheck", " ".join(argv), argv, None, (verdict,))


def collinear_pascal_witness(rng: random.Random) -> dict:
    """Nine distinct points on one line on which the Pascal hexagon graph
    polynomial with every extra vector e3 does not vanish (criterion 5)."""
    while True:
        xs = {p: rng.randint(-40, 40) for p in range(1, 10)}
        if len(set(xs.values())) != 9:
            continue
        lhs = (xs[1] - xs[9]) * (xs[6] - xs[8]) * (xs[5] - xs[7]) * (xs[4] - xs[9]) * (xs[3] - xs[8]) * (xs[2] - xs[7])
        rhs = (xs[6] - xs[9]) * (xs[5] - xs[8]) * (xs[4] - xs[7]) * (xs[3] - xs[9]) * (xs[2] - xs[8]) * (xs[1] - xs[7])
        if lhs != rhs:
            return {"matroid": "pascal", "points": {str(p): [x, 1, 0] for p, x in xs.items()}}


# -- workloads ----------------------------------------------------------------------


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 1_000_000) for _ in range(count)]


def expanded(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    families = ["qs", "concurrent3"] if smoke else ["qs", "fig2r", "fig2c", "concurrent3", "grid3x4"]
    per_family = 1 if smoke else 2
    ops: list[Op] = []
    samples: dict[str, list[Path]] = {}
    for fam in families:
        for i, seed in enumerate(_seeds(rng, per_family), start=1):
            path = work / f"{fam}-{i}.json"
            samples.setdefault(fam, []).append(path)
            ops.append(sample_op(fam, seed, path))
    gens = [
        ("qs-lifting-canonical", "qs", ["--matroid", "qs", "--which", "lifting", "--q", "canonical"]),
        ("concurrent3-all", "concurrent3", ["--matroid", "concurrent3", "--which", "all"]),
    ]
    if not smoke:
        gens += [
            ("qs-lifting", "qs", ["--matroid", "qs", "--which", "lifting"]),
            ("qs-all", "qs", ["--matroid", "qs", "--which", "all"]),
            ("fig2r-all", "fig2r", ["--matroid", "fig2r", "--which", "all"]),
            ("fig2c-all", "fig2c", ["--matroid", "fig2c", "--which", "all"]),
            ("grid3x4-lifting", "grid3x4", ["--matroid", "grid3x4", "--which", "lifting"]),
        ]
    for name, _, argv in gens:
        ops.append(generate_op("generate " + " ".join(argv), argv, work / f"{name}.txt"))
    for name, fam, _ in gens:
        for i, real in enumerate(samples[fam], start=1):
            label = f"verify {name}.txt on {fam}#{i} --q canonical"
            ops.append(verify_op(label, work / f"{name}.txt", real, work / f"v-{name}-{i}.jsonl", ["--q", "canonical"]))
    for fam in ["qs"] if smoke else ["qs", "fig2r"]:
        ops.append(family_op(fam, samples[fam][0]))
    return ops


def certify(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    if smoke:
        plan = [("qs", 1), ("grid3x4", 1), ("uniform(3,8)", 1)]
    else:
        plan = [
            ("grid3x4", 3), ("grid3x5", 3), ("grid3x6", 3),
            ("pascal", 5), ("fig2c", 5), ("fig2r", 5), ("qs", 5), ("concurrent3", 5),
            ("uniform(3,8)", 3), ("uniform(4,8)", 3),
        ]
    ops: list[Op] = []
    if not smoke:
        # ROADMAP baseline row: the CLI's default seed, not the workload seed.
        ops.append(sample_op("grid4x6", None, work / "grid4x6.json"))
    for fam, count in plan:
        for i, seed in enumerate(_seeds(rng, count), start=1):
            ops.append(sample_op(fam, seed, work / f"{fam}-{i}.json"))
    return ops


def bracket_lift(rng: random.Random, work: Path, smoke: bool) -> list[Op]:
    graph = ["fig2c"] if smoke else ["pascal", "grid3x4", "fig2c"]
    per_graph = 1 if smoke else 3
    round_trip = ["qs", "fig2c"] if smoke else ["qs", "fig2r", "fig2c", "pascal", "concurrent3", "grid3x4", "grid3x5", "grid3x6"]
    trips = 1 if smoke else 4
    ops: list[Op] = []
    for m in graph + (["pascal"] if smoke else []):
        argv = ["--matroid", m, "--which", "graph"]
        ops.append(generate_op("generate " + " ".join(argv), argv, work / f"graph-{m}.txt"))
    for m in graph:
        for i, seed in enumerate(_seeds(rng, per_graph), start=1):
            real = work / f"{m}-{i}.json"
            ops.append(sample_op(m, seed, real))
            label = f"verify graph-{m}.txt on {m}#{i} --q canonical"
            ops.append(verify_op(label, work / f"graph-{m}.txt", real, work / f"v-{m}-{i}.jsonl", ["--q", "canonical"]))
    # Non-membership: a verifier that wrongly returns 0 fails this op.
    witness = work / "pascal-collinear-witness.json"
    witness.write_text(json.dumps(collinear_pascal_witness(rng), sort_keys=True))
    ops.append(
        verify_op(
            "verify graph-pascal.txt on the collinear witness --q 0,0,1 --expect nonzero",
            work / "graph-pascal.txt", witness, work / "v-witness.jsonl",
            ["--q", "0,0,1", "--expect", "nonzero"],
        )
    )
    for fam in round_trip:
        source = work / f"rt-{fam}.json"
        ops.append(sample_op(fam, _seeds(rng, 1)[0], source))
        for t in range(1, trips + 1):
            ops.append(lift_op(f"project/lift {fam} #{t}", source, str(rng.randrange(2**32))))
    ops.append(gc_op(rng))
    ops.append(liftcheck_op(rng.choice(["qs", "concurrent3", "pascal", "fig2c", "fig2r", "grid3x3", "grid3x4"])))
    return ops


WORKLOADS = {"expanded": expanded, "certify": certify, "bracket-lift": bracket_lift}


def build(workload: str, seed: int, work: Path, smoke: bool = False) -> list[Op]:
    rng = random.Random(f"pavingideals-bench/{workload}/{seed}")
    return WORKLOADS[workload](rng, work, smoke)
