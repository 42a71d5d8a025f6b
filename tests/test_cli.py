"""CLI surface: subcommands, exit codes, file formats, determinism."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pavingideals
from oracles import expand_records, gaussian_pivot_product, liftability_matrix
from pavingideals import cli
from pavingideals import poly as poly_module
from pavingideals.cli import main
from pavingideals.polyfiles import parse_polynomials, render_polynomials
from pavingideals.realizations import Realization, in_realization_space
from pavingideals.samplers import sample_family
from pavingideals.generators import (
    ExtraVector,
    LabeledPolynomial,
    LiftingMinors,
    builtin_graph_data,
    lifting_polynomials,
)
from pavingideals.matroids import builtin_matroid, builtin_matroid_names
from pavingideals.polymatrix import MinorEngine
from pavingideals.brackets import BracketPolynomial
from pavingideals.variables import parse_variable


# The circuit polynomial <1 2 3> in coordinates, which vanishes on qs samples.
C123 = BracketPolynomial.bracket([1, 2, 3]).expand(3)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run python with argv in a fresh interpreter that imports this package."""
    src = str(Path(pavingideals.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_cli_import_pulls_in_no_networkx():
    proc = run_fresh("-c", "import sys, pavingideals.cli; print('networkx' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_package_root_imports_no_module_and_the_cli_no_lifting():
    proc = run_fresh("-c", (
        "import sys, pavingideals\n"
        "print(sorted(m for m in sys.modules if m.startswith('pavingideals.')))\n"
        "import pavingideals.cli\n"
        "print('pavingideals.lifting' in sys.modules)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "False", ""]


def test_cli_import_builds_no_parser():
    proc = run_fresh("-c", (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import pavingideals.cli\n"
        "print(len(built))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_reusing_the_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    """Call sequences through the shared parser give the same exit codes and
    output as through a parser built afresh for every call."""
    polys = tmp_path / "qs_lifting.txt"
    assert main(["generate", "--matroid", "qs", "--which", "lifting", "--out", str(polys)]) == 0
    real = sample_qs(tmp_path, capsys)
    verify = ["verify", "--polys", str(polys), "--realization", str(real)]
    meet = ["gc", "meet", "1,2", "3,4", "--dim", "3"]
    sequences = (
        (["generate", "--matroid", "qs", "--which", "bogus"], ["generate", "--matroid", "qs", "--which", "circuits"]),
        (meet + ["--join", "5,6"], meet),
        (verify + ["--q", "0,0,1"], verify + ["--q", "canonical"]),
    )
    codes = []
    for sequence in sequences:
        shared = [run_cli(capsys, *argv) for argv in sequence]
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_shared_parser", cli.build_parser)
            fresh = [run_cli(capsys, *argv) for argv in sequence]
        assert shared == fresh, sequence
        assert shared[0] != shared[1], sequence
        codes.append([code for code, _, _ in shared])
    assert codes == [[1, 0], [0, 0], [0, 0]]
    assert cli._shared_parser.cache_info().currsize == 1


# -- validate ----------------------------------------------------------------


def test_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "validate", "--matroid", "qs")
    assert code == 0
    assert "3-paving" in out


def test_validate_rejects_overlap(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 3, "ground_set": 5, "hyperplanes": [[1, 2, 3], [1, 2, 4]]}))
    code, _, err = run_cli(capsys, "validate", "--matroid", str(bad))
    assert code == 2
    assert "[1, 2, 3]" in err.replace("(", "[").replace(")", "]")


MALFORMED_MATROIDS = (
    "{not json",
    json.dumps({"rank": 3, "ground_set": 6, "hyperplanes": [[1, 2, "x"]]}),
    json.dumps({"rank": 3, "hyperplanes": [[1, 2, 3]]}),
)


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in MALFORMED_MATROIDS:
        bad.write_text(text)
        for command in ("validate", "generate", "liftcheck", "sample"):
            code, out, err = run_cli(capsys, command, "--matroid", str(bad))
            assert code == 1, (text, command)
            assert out == ""
            assert err.startswith("parse error: ")
            assert "Traceback" not in err


NOT_JSON = "parse error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
OVERLAP = "hyperplanes (1, 2, 3) and (1, 2, 4) share more than 1 points"
UNKNOWN = "unknown matroid name: 'widget'"
LOADER_EXITS = {
    "validate": [(1, NOT_JSON), (2, f"invalid: {OVERLAP}"), (2, f"invalid: {UNKNOWN}")],
    "generate": [
        (1, NOT_JSON), (2, f"invalid matroid: {OVERLAP}"), (2, f"invalid matroid: {UNKNOWN}"),
    ],
    "liftcheck": [(1, NOT_JSON), (2, f"invalid: {OVERLAP}"), (2, f"invalid: {UNKNOWN}")],
    "sample": [
        (1, NOT_JSON),
        (2, f"invalid matroid: {OVERLAP}"),
        (1, f"error: unknown realization family: 'widget' ({UNKNOWN})"),
    ],
}


@pytest.mark.parametrize("command", sorted(LOADER_EXITS))
@pytest.mark.parametrize("case", [0, 1, 2], ids=["not-json", "overlap", "unknown-name"])
def test_every_matroid_load_failure_exits_with_one_stderr_line(tmp_path, capsys, command, case):
    not_json = tmp_path / "not.json"
    not_json.write_text("{not json")
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"rank": 3, "ground_set": 6, "hyperplanes": [[1, 2, 3], [1, 2, 4]]}))
    spec = [str(not_json), str(overlap), "widget"][case]
    code, out, err = run_cli(capsys, command, "--matroid", spec)
    assert (code, err) == (LOADER_EXITS[command][case][0], LOADER_EXITS[command][case][1] + "\n")
    assert out == ""


def test_verify_realization_with_malformed_matroid_is_usage_error(tmp_path, capsys):
    real = tmp_path / "real.json"
    real.write_text(json.dumps({
        "matroid": {"rank": 3, "ground_set": 6, "hyperplanes": [[1, 2, "x"]]},
        "points": {str(p): ["1", "2", str(p)] for p in range(1, 7)},
    }))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    code, _, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("command", ["generate", "sample", "verify"])
def test_an_unwritable_out_is_one_error_line(tmp_path, capsys, command, where):
    polys, real = tmp_path / "polys.txt", tmp_path / "real.json"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    assert main(["sample", "--family", "qs", "--seed", "7", "--out", str(real)]) == 0
    argv = {
        "generate": ["generate", "--matroid", "qs", "--which", "circuits"],
        "sample": ["sample", "--family", "qs"],
        "verify": ["verify", "--polys", str(polys), "--realization", str(real)],
    }[command]
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    reason = os.strerror(errno.EISDIR if where == "directory" else errno.ENOENT)
    capsys.readouterr()
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: cannot write {out}: {reason}\n")


# -- generate ----------------------------------------------------------------


def test_generate_circuits_qs(tmp_path, capsys):
    out = tmp_path / "polys.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "circuits", "--out", str(out)
    )
    assert code == 0
    polys = parse_polynomials(out.read_text())
    assert len(polys) == 4
    assert polys[0].polynomial == C123


def test_generate_lifting_qs_symbolic(tmp_path, capsys):
    out = tmp_path / "lift.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "lifting",
        "--q", "symbolic", "--out", str(out),
    )
    assert code == 0
    records = parse_polynomials(out.read_text())
    # All hyperplane-union submatroids of the quadrilateral give the whole
    # matroid or undersized minors; the whole matroid's record yields
    # exactly its 15 maximal minors.
    maximal = [r for r in records if "N=[1, 2, 3, 4, 5, 6]" in r.label]
    assert len(maximal) == 1 and isinstance(maximal[0], LiftingMinors)
    expected = lifting_polynomials(builtin_matroid("qs"), ExtraVector.symbolic("q"))
    assert len(expected) == 15
    assert maximal[0].minors() == expected


def test_symbolic_lifting_generate_expands_no_minor(tmp_path, capsys, monkeypatch):
    calls = 0
    minor = MinorEngine.minor

    def counted(self, rows, cols):
        nonlocal calls
        calls += 1
        return minor(self, rows, cols)

    monkeypatch.setattr(MinorEngine, "minor", counted)
    out = tmp_path / "lift.txt"
    code, _, _ = run_cli(capsys, "generate", "--matroid", "qs", "--which", "lifting", "--out", str(out))
    assert code == 0
    assert calls == 0
    assert len(out.read_bytes()) < 1024


def test_generate_graph_qs_and_grid(tmp_path, capsys):
    out = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "graph", "--out", str(out)
    )
    assert code == 0
    polys = parse_polynomials(out.read_text())
    assert len(polys) == 1
    assert not isinstance(polys[0].polynomial, BracketPolynomial)

    out2 = tmp_path / "graph_grid.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "grid3x4", "--which", "graph", "--out", str(out2)
    )
    assert code == 0
    polys2 = parse_polynomials(out2.read_text())
    assert len(polys2) == 1
    assert isinstance(polys2[0].polynomial, BracketPolynomial)
    assert "# form: bracket" in out2.read_text()


def test_generate_graph_data_file(tmp_path, capsys):
    data = builtin_graph_data("qs")
    payload = json.dumps(data.to_json_dict())
    gd = tmp_path / "data.json"
    gd.write_text(payload)
    out = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "graph",
        "--graph-data", str(gd), "--out", str(out),
    )
    assert code == 0
    assert len(parse_polynomials(out.read_text())) == 1


def _qs_graph_data(**changes) -> str:
    payload = builtin_graph_data("qs").to_json_dict()
    payload.update(changes)
    return json.dumps({k: v for k, v in payload.items() if v is not None})


BAD_GRAPH_DATA = [
    ("missing-file", None, 1, "parse error: "),
    ("invalid-json", '{"J": [1, 5', 1, "parse error: "),
    ("not-an-object", "[1, 2]", 1, "parse error: "),
    ("no-P", _qs_graph_data(P=None), 1, "parse error: "),
    ("string-point", _qs_graph_data(P=[4, "3", 2]), 1, "parse error: "),
    ("float-extra", _qs_graph_data(extra=[{"concrete": [1.5, 0, 1]}] * 3), 1, "parse error: "),
    ("unknown-extra", _qs_graph_data(extra=[{"vector": "q"}] * 3), 1, "parse error: "),
    ("non-ascii-extra", _qs_graph_data(extra=[{"symbolic": "qé"}] * 3), 1, "parse error: "),
    ("point-off-its-circuit", _qs_graph_data(C=[[2, 4, 6], [2, 4, 6], [1, 2, 3]]), 2, "invalid graph data: "),
    ("short-extra", _qs_graph_data(extra=[{"concrete": ["1", "0"]}] * 3), 2, "invalid graph data: "),
    ("zero-extra", _qs_graph_data(extra=[{"concrete": ["0", "0", "0"]}] * 3), 1, "parse error: extra vector is zero"),
]


@pytest.mark.parametrize(
    "text, code, prefix", [case[1:] for case in BAD_GRAPH_DATA], ids=[case[0] for case in BAD_GRAPH_DATA]
)
def test_generate_rejects_bad_graph_data(tmp_path, capsys, text, code, prefix):
    gd = tmp_path / "data.json"
    if text is not None:
        gd.write_text(text)
    got, out, err = run_cli(capsys, "generate", "--matroid", "qs", "--which", "graph", "--graph-data", str(gd))
    assert got == code
    assert out == ""
    assert err.startswith(prefix)
    assert "Traceback" not in err


# sha256 of `generate` output for the worked examples, so that any change in
# the written bytes shows up here, not only run-to-run differences.
GOLDEN_DIGESTS = [
    (("qs", "all", "symbolic"), "0af086f00436ee7625de62f4a2be7c98c0b6b9c865b5218ede8e7ffd0509d047"),
    (("qs", "all", "canonical"), "f0430be60fb5a415567c25d75f77be118264191c7034c49012eddd6e7da38d2f"),
    (("concurrent3", "all", "symbolic"), "8240ef5882c400dd8d84c5502ee9a2d2955cd1535d8108c33f5abfb571cd8dd4"),
    (("concurrent3", "all", "canonical"), "8240ef5882c400dd8d84c5502ee9a2d2955cd1535d8108c33f5abfb571cd8dd4"),
    (("fig2r", "all", "symbolic"), "aeba5778aacb56a6cd65152593b9cba33fe29cd82cd35fa7de35acb90279ce2a"),
    (("fig2r", "all", "canonical"), "aeba5778aacb56a6cd65152593b9cba33fe29cd82cd35fa7de35acb90279ce2a"),
    (("fig2c", "all", "symbolic"), "1df780921e04e3d3e3b13c997c94e7b8a72c355fd6b84b87e7b746acd7a2842e"),
    (("fig2c", "all", "canonical"), "1df780921e04e3d3e3b13c997c94e7b8a72c355fd6b84b87e7b746acd7a2842e"),
    (("pascal", "graph", "symbolic"), "32c65f766ec6759251286fec5d587430bd35eb003f56546ad2fda70c5379a1fe"),
    (("grid3x4", "graph", "symbolic"), "32bdef853b4896f7f5a2f7e01bd907079284ffdfdfe8a4c333a640cf9a6a0ec9"),
    (("grid3x4", "lifting", "symbolic"), "e3ef9a35de0dfd0432f5f8c5e1edab5f22427bf33a86769376217202e174552b"),
    (("pascal", "all", "symbolic"), "3cfad8e7d2780de1e87d752e8de5d2be390ac057a255f2195ee8a8f84f01ea9e"),
    (("paving4_9", "all", "symbolic"), "3cd5f686e83fa22eb212987d59eb2297da57ca778e072b5a37e3d2b98fd499c5"),
    (("grid3x3", "all", "symbolic"), "8c872c863ef54e31b18998db30939ffeff0c2c6de4cee8009c93c6beb9f2839e"),
]


@pytest.mark.parametrize(
    "run, digest", GOLDEN_DIGESTS, ids=["-".join(run) for run, _ in GOLDEN_DIGESTS]
)
def test_generate_matches_recorded_digest(tmp_path, capsys, run, digest):
    matroid, which, q = run
    out = tmp_path / "polys.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", matroid, "--which", which, "--q", q, "--out", str(out)
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest



# sha256 and line count of `generate --which graph` on qs's builtin graph data
# with the concrete extra vectors e1, e2, e3, which is always written in
# coordinates.
CONCRETE_GRAPH_DIGEST = ("7dd7b67df308390b7e682e554ea3391e5dc8856010bf79c40a7d2895dd4eb176", 2)


def test_concrete_extra_graph_data_matches_recorded_digest(tmp_path, capsys):
    payload = builtin_graph_data("qs").to_json_dict()
    payload["extra"] = [ExtraVector.basis(b, 3).to_json_dict() for b in (1, 2, 3)]
    gd = tmp_path / "data.json"
    gd.write_text(json.dumps(payload))
    out = tmp_path / "graph.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "graph", "--graph-data", str(gd), "--out", str(out)
    )
    assert code == 0
    text = out.read_bytes()
    assert (hashlib.sha256(text).hexdigest(), text.count(b"\n")) == CONCRETE_GRAPH_DIGEST


# sha256 of the files with minors records before records were written: the
# same files with each record expanded back into its minors.
EXPANDED_DIGESTS = [
    (("qs", "all", "symbolic"), "33816c2919139db72a1117a4213e804ea58ff5732b282efde86c0c1d7e2fd480"),
    (("grid3x4", "lifting", "symbolic"), "af9a2d1e062fada9a1466bb104383e673dfc480044d4e312bae1efb1e1f2cc64"),
]


@pytest.mark.parametrize(
    "run, digest", EXPANDED_DIGESTS, ids=["-".join(run) for run, _ in EXPANDED_DIGESTS]
)
def test_records_expand_to_the_recorded_expanded_digest(tmp_path, capsys, run, digest):
    matroid, which, q = run
    out = tmp_path / "polys.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", matroid, "--which", which, "--q", q, "--out", str(out)
    )
    assert code == 0
    assert "# form: minors " in out.read_text()
    assert hashlib.sha256(expand_records(out.read_text()).encode()).hexdigest() == digest


@pytest.mark.parametrize("run", [run for run, _ in GOLDEN_DIGESTS], ids="-".join)
def test_generated_polynomials_parse_back_equal(tmp_path, capsys, monkeypatch, run):
    matroid, which, q = run
    rendered = []

    def capture(items):
        rendered.extend(items)
        return render_polynomials(items)

    monkeypatch.setattr(cli, "render_polynomials", capture)
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", matroid, "--which", which, "--q", q,
        "--out", str(tmp_path / "polys.txt"),
    )
    assert code == 0
    assert rendered
    for item in rendered:
        if isinstance(item, LiftingMinors):
            assert parse_polynomials(render_polynomials([item])) == [item], item.label
            continue
        poly = item.polynomial
        assert type(poly).from_text(poly.to_text()) == poly, item.label


def test_parsing_names_each_distinct_factor_once_per_file(monkeypatch):
    text = render_polynomials(lifting_polynomials(builtin_matroid("qs"), ExtraVector.symbolic("q")))
    per_line = occurrences = 0
    in_file = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        factors = [
            f.strip() for term in re.split(" [+-] ", line) for f in term.split("*")[1:]
        ]
        per_line += len(set(factors))
        occurrences += len(factors)
        in_file.update(factors)
    calls = 0

    def counting(factor):
        nonlocal calls
        calls += 1
        return parse_variable(factor)

    monkeypatch.setattr(poly_module, "parse_variable", counting)
    for points in (None, sample_family("qs", 7).assignment()):
        calls = 0
        parsed = parse_polynomials(text, points)
        # 48 distinct factor texts in the file, 540 summed line by line,
        # against 188,280 occurrences.
        assert 0 < calls <= len(in_file) < per_line // 10 < occurrences // 1000
        if points is None:
            assert render_polynomials(parsed) == text


def test_generate_is_deterministic_across_runs(tmp_path, capsys):
    outs = []
    for run in ("1", "2"):
        path = tmp_path / f"out{run}.txt"
        code, _, _ = run_cli(
            capsys, "generate", "--matroid", "pascal", "--which", "all", "--out", str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# -- sample + verify -----------------------------------------------------------


def test_sample_then_verify_circuits(tmp_path, capsys):
    real = tmp_path / "real.json"
    code, _, _ = run_cli(capsys, "sample", "--family", "qs", "--seed", "7", "--out", str(real))
    assert code == 0
    polys = tmp_path / "polys.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "circuits", "--out", str(polys)
    )
    assert code == 0
    report = tmp_path / "report.jsonl"
    code, _, _ = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real),
        "--out", str(report),
    )
    assert code == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert all(l["pass"] and l["value"] == "0" for l in lines)


def test_verify_with_canonical_sweep(tmp_path, capsys):
    real = tmp_path / "real.json"
    run_cli(capsys, "sample", "--family", "qs", "--seed", "3", "--out", str(real))
    polys = tmp_path / "polys.txt"
    run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "graph", "--out", str(polys)
    )
    code, out, _ = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", "canonical"
    )
    assert code == 0
    assert out.count('"pass": true') == 27  # three symbolic vectors, 3^3 assignments


def test_generate_q_is_the_lifting_vector_and_leaves_graph_extras_alone(tmp_path, capsys):
    # The qs graph polynomial keeps its graph data's q1, q2, q3 at every --q.
    outs = {q: run_cli(capsys, "generate", "--matroid", "qs", "--which", "graph", "--q", q)
            for q in ("symbolic", "canonical", "1,2,3")}
    assert len(set(outs.values())) == 1 and outs["symbolic"][0] == 0
    polys = tmp_path / "all.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "all", "--q", "1,2,3", "--out", str(polys)
    )
    assert code == 0
    real = sample_qs(tmp_path, capsys)
    code, _, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1 and "x[1,q1]" in err
    code, _, _ = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", "1,2,3"
    )
    assert code == 0


def test_verify_missing_binding_is_usage_error(tmp_path, capsys):
    real = tmp_path / "real.json"
    run_cli(capsys, "sample", "--family", "qs", "--seed", "3", "--out", str(real))
    polys = tmp_path / "polys.txt"
    run_cli(capsys, "generate", "--matroid", "qs", "--which", "graph", "--out", str(polys))
    code, _, err = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real)
    )
    assert code == 1
    assert "unbound" in err.lower()


def sample_qs(tmp_path, capsys) -> Path:
    real = tmp_path / "real.json"
    code, _, _ = run_cli(capsys, "sample", "--family", "qs", "--seed", "0", "--out", str(real))
    assert code == 0
    return real


def test_verify_rejects_vectors_longer_than_the_rank(tmp_path, capsys):
    real = sample_qs(tmp_path, capsys)
    payload = json.loads(real.read_text())
    for vec in payload["points"].values():
        vec.append("5")
    real.write_text(json.dumps(payload))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("coordinate", [1.5, True, "1/0"], ids=["float", "bool", "zero-denominator"])
def test_verify_rejects_coordinates_that_are_not_rationals(tmp_path, capsys, coordinate):
    real = sample_qs(tmp_path, capsys)
    payload = json.loads(real.read_text())
    payload["points"]["1"][0] = coordinate
    real.write_text(json.dumps(payload))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")


def _assert_parse_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: "), err
    assert "Traceback" not in err


def test_verify_zero_denominator_coefficient_is_a_parse_error(tmp_path, capsys):
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text("# source: bad\n1/0 * x[1,1] + 1 * x[2,2]\n")
    _assert_parse_error(
        *run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    )


def test_verify_zero_denominator_q_is_a_parse_error(tmp_path, capsys):
    for form, (polys, real) in verify_q_files(tmp_path, capsys).items():
        code, out, err = run_cli(
            capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", "1/0,1,1"
        )
        _assert_parse_error(code, out, err)
        assert "zero denominator" in err, form


@pytest.mark.parametrize("exponent", ["-1", "0", "x"])
def test_verify_rejects_exponents_below_one(tmp_path, capsys, exponent):
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text(f"# source: bad\n1 * x[1,1]^{exponent} + 1 * x[2,2]\n")
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    _assert_parse_error(code, out, err)
    assert "exponent must be a positive integer" in err


# Numerals in the text grammar are ASCII digits: int() alone also takes
# other Unicode digits, '_' separators, a '+' and inner spaces.
NON_ASCII_LINES = {
    "coefficient": "1_0 * x[1,1] + 1 * x[2,2]",
    "signed-coefficient": "+1 * x[1,1]",
    "fraction": "1/ 2 * x[1,1]",
    "exponent": "1 * x[1,1]^2_0 + 1 * x[2,2]",
    "row": "1 * x[\u0661,1] + 1 * x[2,2]",
    "column": "1 * x[1,\u0661] + 1 * x[2,2]",
}


@pytest.mark.parametrize("line", NON_ASCII_LINES.values(), ids=list(NON_ASCII_LINES))
def test_verify_rejects_numerals_that_are_not_ascii_in_polynomials(tmp_path, capsys, line):
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text(f"# source: bad\n{line}\n", encoding="utf-8")
    for q in ([], ["--q", "canonical"]):
        _assert_parse_error(
            *run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real), *q)
        )


def test_a_term_without_a_coefficient_is_named_as_not_a_rational(tmp_path, capsys):
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text("# source: bad\nx[1,7]\n")
    for q in ([], ["--q", "canonical"]):
        assert run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real), *q) == (
            1, "", "parse error: not an ASCII rational: 'x[1,7]'\n"
        )


@pytest.mark.parametrize("coordinate", ["1_0", "+1", "\u0661"], ids=["underscore", "plus", "arabic-indic"])
def test_numerals_that_are_not_ascii_are_parse_errors_in_every_input(tmp_path, capsys, coordinate):
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text("# source: ok\n1 * x[1,1] * x[2,q]\n")
    # --q of verify and of generate
    q = f"{coordinate},0,0"
    _assert_parse_error(*run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", q))
    _assert_parse_error(*run_cli(capsys, "generate", "--matroid", "qs", "--q", q))
    # a string coordinate of a realization
    payload = json.loads(real.read_text())
    payload["points"]["1"][0] = coordinate
    real.write_text(json.dumps(payload))
    _assert_parse_error(*run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real)))
    # a concrete extra vector of graph data
    data = tmp_path / "graph.json"
    payload = builtin_graph_data("qs").to_json_dict()
    payload["extra"][0] = {"concrete": [coordinate, "0", "0"]}
    data.write_text(json.dumps(payload))
    _assert_parse_error(
        *run_cli(capsys, "generate", "--matroid", "qs", "--which", "graph", "--graph-data", str(data))
    )


@pytest.mark.parametrize("number", ["1_0", "\u0664"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--family", "qs", "--seed"],
        ["generate", "--matroid", "qs", "--budget-minor"],
        ["gc", "meet", "1,2", "3,4", "--dim"],
    ],
    ids=["seed", "budget-minor", "dim"],
)
def test_integer_options_are_ascii_digits(capsys, argv, number):
    code, out, err = run_cli(capsys, *argv, number)
    assert code == 1
    assert out == ""
    assert argv[-1] in err and repr(number) in err
    assert "Traceback" not in err


def test_realization_point_ids_are_ascii_digits(tmp_path, capsys):
    real = sample_qs(tmp_path, capsys)
    payload = json.loads(real.read_text())
    payload["points"]["\u0661"] = payload["points"].pop("1")
    real.write_text(json.dumps(payload))
    polys = tmp_path / "polys.txt"
    polys.write_text("# source: ok\n1 * x[1,1] * x[2,q]\n")
    _assert_parse_error(*run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real)))


BAD_REALIZATION = '{"matroid": "qs", "points": '


def test_verify_reports_a_malformed_polynomial_file_before_a_malformed_realization(tmp_path, capsys):
    polys, real = tmp_path / "polys.txt", tmp_path / "real.json"
    polys.write_text("# source: a\n1 * x[1,1] * x[2,q]\n# source: b\n2 * x[1,2]^0\n")
    real.write_text(BAD_REALIZATION)
    for q in ([], ["--q", "canonical"]):
        code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real), *q)
        assert (code, out, err) == (1, "", "parse error: exponent must be a positive integer: 'x[1,2]^0'\n")
    polys.write_text("# source: a\n1 * x[1,1] * x[2,q]\n")
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert (code, out, err) == (1, "", "parse error: Expecting value: line 1 column 29 (char 28)\n")


def test_verify_reads_every_line_before_naming_unbound_variables(tmp_path, capsys):
    real = sample_qs(tmp_path, capsys)
    polys, out_file = tmp_path / "polys.txt", tmp_path / "checks.jsonl"
    unbound = "# source: a\n1 * x[1,99] * x[2,q] + 1 * x[1,1]\n# source: b\n1 * x[1,2]\n"
    polys.write_text(unbound + "# source: c\n3 * x[1,3] * y[1,1]\n")
    argv = ["verify", "--polys", str(polys), "--realization", str(real), "--out", str(out_file)]
    for q in ([], ["--q", "canonical"]):
        assert run_cli(capsys, *argv, *q) == (1, "", "parse error: bad variable syntax: 'y[1,1]'\n")
    polys.write_text(unbound)
    assert run_cli(capsys, *argv) == (1, "", "error: unbound variables: x[1,99], x[2,q]\n")
    assert run_cli(capsys, *argv, "--q", "canonical") == (1, "", "error: unbound variables: x[1,99]\n")
    assert not out_file.exists()


def _vector_not_a_list(payload):
    payload["points"]["1"] = 5
    return payload


def _points_as_a_list(payload):
    payload["points"] = list(payload["points"].values())
    return payload


@pytest.mark.parametrize(
    "reshape",
    [_vector_not_a_list, _points_as_a_list, lambda payload: [payload]],
    ids=["vector-not-a-list", "points-list", "top-level-list"],
)
def test_verify_rejects_realizations_of_the_wrong_shape(tmp_path, capsys, reshape):
    real = sample_qs(tmp_path, capsys)
    real.write_text(json.dumps(reshape(json.loads(real.read_text()))))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")
    assert "Traceback" not in err



def _verify_c123(tmp_path, capsys, payload) -> tuple[int, str, str]:
    real = tmp_path / "edited.json"
    real.write_text(json.dumps(payload))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    return run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))


def test_verify_rejects_a_realization_that_names_a_point_twice(tmp_path, capsys):
    payload = json.loads(sample_qs(tmp_path, capsys).read_text())
    payload["points"]["01"] = ["0", "0", "1"]
    assert _verify_c123(tmp_path, capsys, payload) == (1, "", "parse error: point 1 is given twice\n")


@pytest.mark.parametrize("seed", ["7", [7], True, 7.0], ids=["string", "list", "bool", "float"])
def test_verify_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys, seed):
    payload = json.loads(sample_qs(tmp_path, capsys).read_text())
    payload["seed"] = seed
    assert _verify_c123(tmp_path, capsys, payload) == (
        1, "", f"parse error: seed must be an integer or null, got {seed!r}\n"
    )


@pytest.mark.parametrize("seed", [None, "absent"], ids=["null", "absent"])
def test_verify_accepts_a_null_or_absent_seed(tmp_path, capsys, seed):
    payload = json.loads(sample_qs(tmp_path, capsys).read_text())
    if seed == "absent":
        del payload["seed"]
    else:
        payload["seed"] = seed
    code, out, err = _verify_c123(tmp_path, capsys, payload)
    assert (code, err) == (0, "")


def test_verify_rejects_brackets_of_the_wrong_size(tmp_path, capsys):
    # A 2-bracket would otherwise evaluate a 2x2 minor of rank-3 vectors,
    # and a 4-bracket would index past their last coordinate.
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    for text in ("<1 2>", "<1 2 3 4>"):
        polys.write_text(f"# form: bracket\n{text}\n")
        code, out, err = run_cli(
            capsys, "verify", "--polys", str(polys), "--realization", str(real)
        )
        assert code == 1, text
        assert out == ""
        assert err.startswith("error: bracket "), err


@pytest.mark.parametrize("text, message", [
    ("# source: unbound\n1 * x[1,q]\n", "error: unbound variables: x[1,q]\n"),
    ("# form: bracket\n<1 2 77>\n", "error: bracket <1 2 77> has no vector for label 77\n"),
])
def test_verify_names_what_is_unbound(tmp_path, capsys, text, message):
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize("line", ["1<1 2 -3>", "1<1 2 q1,>", "<>", "<1 2 0>"])
def test_verify_rejects_bracket_labels_that_are_not_points_or_identifiers(tmp_path, capsys, line):
    real = tmp_path / "real.json"
    code, _, _ = run_cli(capsys, "sample", "--family", "grid3x4", "--seed", "0", "--out", str(real))
    assert code == 0
    polys = tmp_path / "polys.txt"
    polys.write_text(f"# form: bracket\n{line}\n")
    _assert_parse_error(*run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", "canonical"
    ))


@pytest.mark.parametrize("line", ["-", "<1 2 3> +  - <1 2 3>"])
def test_verify_rejects_an_empty_bracket_term(tmp_path, capsys, line):
    # Every term has a coefficient or a bracket; the two spaces of the second
    # line leave an empty term between its signs.
    real = sample_qs(tmp_path, capsys)
    polys = tmp_path / "polys.txt"
    polys.write_text(f"# form: bracket\n{line}\n")
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    _assert_parse_error(code, out, err)
    assert err.count("\n") == 1 and "bad bracket term: ''" in err, err


def verify_q_files(tmp_path, capsys) -> dict[str, tuple[Path, Path]]:
    """An expanded qs lifting minor and the bracket-form pascal graph polynomial."""
    qs_polys = tmp_path / "qs_lifting.txt"
    matrix = liftability_matrix(builtin_matroid("qs"), ExtraVector.symbolic("q"))
    minor = MinorEngine(matrix).minor((0, 1), (0, 1))
    qs_polys.write_text(render_polynomials([LabeledPolynomial("qs lifting 2x2 minor", minor)]))
    pascal_polys = tmp_path / "pascal_graph.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "pascal", "--which", "graph", "--out", str(pascal_polys)
    )
    assert code == 0
    assert "# form: bracket" in pascal_polys.read_text()
    pascal_real = tmp_path / "pascal.json"
    code, _, _ = run_cli(capsys, "sample", "--family", "pascal", "--out", str(pascal_real))
    assert code == 0
    return {"expanded": (qs_polys, sample_qs(tmp_path, capsys)), "bracket": (pascal_polys, pascal_real)}


@pytest.mark.parametrize("q", ["0,0,1,5", "0,1"])
def test_verify_rejects_q_of_the_wrong_length(tmp_path, capsys, q):
    for form, (polys, real) in verify_q_files(tmp_path, capsys).items():
        code, out, err = run_cli(
            capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", q
        )
        assert code == 1, form
        assert out == ""
        assert err.startswith("parse error: expected 3 coordinates"), (form, err)


def test_verify_expect_nonzero(tmp_path, capsys):
    # A generic line: the quadrilateral circuit polynomials do not vanish on
    # generic points, so expect=nonzero passes with a non-realization input.
    real = tmp_path / "real.json"
    run_cli(capsys, "sample", "--family", "qs", "--seed", "1", "--out", str(real))
    payload = json.loads(real.read_text())
    # Perturb one point off its lines.
    payload["points"]["1"] = ["1", "0", "0"]
    payload["points"]["2"] = ["0", "1", "0"]
    payload["points"]["3"] = ["0", "0", "1"]
    real.write_text(json.dumps(payload))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", C123)]))
    code, _, _ = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real),
        "--expect", "nonzero",
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real),
        "--expect", "zero",
    )
    assert code == 3


def _exact_text(value: int) -> str:
    """``str(value)`` with the interpreter's int-to-str digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _verify_values(capsys, tmp_path, polys, real, *extra) -> dict[str, str]:
    out = tmp_path / "checks.jsonl"
    limit = sys.get_int_max_str_digits()
    code, _, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real), "--out", str(out), *extra)
    assert (code, err) == (3, "")
    assert sys.get_int_max_str_digits() == limit
    return {check["poly_id"]: check["value"] for check in map(json.loads, out.read_text().splitlines())}


def test_verify_writes_values_past_the_int_to_str_digit_limit(tmp_path, capsys):
    # Coordinates of 1,502 digits, "d" then 1,500 zeros then "e"; point 3 is
    # point 1 + point 2, so <1 2 3> fails --expect nonzero and the other
    # circuits take about 4,504 digits.
    digits = {
        1: [(1, 1), (2, 1), (1, 2)], 2: [(3, 2), (1, 4), (2, 1)], 3: [(4, 3), (3, 5), (3, 3)],
        4: [(7, 1), (1, 9), (5, 2)], 5: [(2, 6), (8, 1), (3, 7)], 6: [(5, 8), (4, 3), (9, 1)],
    }
    vectors = {p: [d * 10**1501 + e for d, e in row] for p, row in digits.items()}
    real = tmp_path / "real.json"
    real.write_text(json.dumps({"matroid": "uniform(3,6)", "points": {
        str(p): [f"{d}{'0' * 1500}{e}" for d, e in row] for p, row in digits.items()
    }}))
    polys = tmp_path / "polys.txt"
    assert run_cli(capsys, "generate", "--matroid", "qs", "--which", "circuits", "--out", str(polys))[0] == 0
    values = _verify_values(capsys, tmp_path, polys, real, "--expect", "nonzero")
    for circuit in ([1, 2, 3], [1, 5, 6], [2, 4, 6], [3, 4, 5]):
        assert values[f"circuit B={circuit}"] == _exact_text(gaussian_pivot_product([vectors[p] for p in circuit]))
    assert values["circuit B=[1, 2, 3]"] == "0"
    assert min(len(v) for v in values.values() if v != "0") > 4300


def test_verify_writes_a_power_past_the_int_to_str_digit_limit(tmp_path, capsys):
    real = tmp_path / "real.json"
    assert run_cli(capsys, "sample", "--family", "qs", "--seed", "11", "--out", str(real))[0] == 0
    assert json.loads(real.read_text())["points"]["2"][0] == "-42"
    polys = tmp_path / "polys.txt"
    polys.write_text("# source: p\n1 * x[1,2]^3000\n")
    assert _verify_values(capsys, tmp_path, polys, real) == {"p": _exact_text((-42) ** 3000)}


def test_verify_reads_values_past_the_int_to_str_digit_limit(tmp_path, capsys):
    # Point 2 of a qs sample scaled by a 5,001-digit int is still a qs
    # realization; its file and a 5,001-digit coefficient read back whole.
    big = 10**5000 + 7
    sample = tmp_path / "sample.json"
    assert run_cli(capsys, "sample", "--family", "qs", "--seed", "11", "--out", str(sample))[0] == 0
    r = Realization.from_json(sample.read_text())
    vectors = {**r.vectors, 2: tuple(big * c for c in r.vectors[2])}
    real = tmp_path / "real.json"
    real.write_text(Realization(r.matroid, vectors).to_json())
    assert Realization.from_json(real.read_text()).vectors == vectors
    circuits = tmp_path / "circuits.txt"
    assert run_cli(capsys, "generate", "--matroid", "qs", "--which", "circuits", "--out", str(circuits))[0] == 0
    assert run_cli(capsys, "verify", "--polys", str(circuits), "--realization", str(real))[:3:2] == (0, "")
    polys = tmp_path / "polys.txt"
    polys.write_text(f"# source: p\n{_exact_text(big)} * x[1,2]\n")
    assert _verify_values(capsys, tmp_path, polys, real) == {"p": _exact_text(big * vectors[2][0])}


def test_verify_refuses_a_power_past_the_bit_budget(tmp_path, capsys):
    real = tmp_path / "real.json"
    assert run_cli(capsys, "sample", "--family", "qs", "--seed", "11", "--out", str(real))[0] == 0
    polys = tmp_path / "polys.txt"
    polys.write_text("# source: p\n1 * x[1,2]^300000\n")
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    _assert_parse_error(code, out, err)
    assert err.count("\n") == 1 and "evaluation budget" in err


def test_generate_rejects_a_zero_q(capsys):
    for which in ("lifting", "graph"):
        code, out, err = run_cli(capsys, "generate", "--matroid", "qs", "--which", which, "--q", "0,0,0")
        _assert_parse_error(code, out, err)
        assert err == "parse error: extra vector is zero: '0,0,0'\n"


def test_verify_rejects_a_zero_q(tmp_path, capsys):
    for form, (polys, real) in verify_q_files(tmp_path, capsys).items():
        code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", "0,0/1,-0")
        _assert_parse_error(code, out, err)
        assert err == "parse error: extra vector is zero: '0,0/1,-0'\n", form


def test_unknown_family_exit(capsys):
    code, _, err = run_cli(capsys, "sample", "--family", "widget")
    assert code == 1
    assert "unknown" in err.lower()


@pytest.mark.parametrize("family", ["grid2x2", "grid3x2", "uniform(1,3)"])
def test_sample_invalid_family_parameters_exit_cleanly(family):
    proc = run_fresh("-m", "pavingideals.cli", "sample", "--family", family)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", builtin_matroid_names())
def test_sample_family_and_matroid_spell_one_option(tmp_path, capsys, name):
    outputs = []
    for option in ("--family", "--matroid"):
        real = tmp_path / f"{option[2:]}.json"
        code, _, _ = run_cli(capsys, "sample", option, name, "--seed", "2", "--out", str(real))
        assert code == 0
        outputs.append(real.read_text())
    assert outputs[0] == outputs[1]
    r = Realization.from_json(outputs[0])
    assert r.matroid == builtin_matroid(name)
    assert in_realization_space(r.vectors, r.matroid)


@pytest.mark.parametrize("family", ["uniform(2,24)", "uniform(2,40)"])
def test_sample_finds_many_points_on_a_line_at_every_seed(tmp_path, capsys, family):
    # A draw bound fixed at 9 ran out of distinct directions on most seeds.
    real = tmp_path / "real.json"
    for seed in range(10):
        code, _, err = run_cli(capsys, "sample", "--family", family, "--seed", str(seed), "--out", str(real))
        assert (code, err) == (0, ""), seed
        r = Realization.from_json(real.read_text())
        assert in_realization_space(r.vectors, r.matroid), seed


# Not a builtin: point 8 lies on three lines, every other point on one or two.
CONSTRUCTIBLE_MATROID = {
    "rank": 3, "ground_set": 9,
    "hyperplanes": [[1, 2, 3], [1, 7, 8], [2, 6, 8], [3, 4, 5], [4, 8, 9], [5, 6, 7]],
}


def test_sample_matroid_file_recertifies_and_verifies(tmp_path, capsys):
    matroid = tmp_path / "m9.json"
    matroid.write_text(json.dumps(CONSTRUCTIBLE_MATROID))
    real = tmp_path / "real.json"
    code, _, _ = run_cli(capsys, "sample", "--matroid", str(matroid), "--seed", "1", "--out", str(real))
    assert code == 0
    data = json.loads(real.read_text())
    assert data["matroid"] == CONSTRUCTIBLE_MATROID
    r = Realization.from_json(real.read_text())
    assert in_realization_space(r.vectors, r.matroid)
    polys = tmp_path / "polys.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", str(matroid), "--which", "circuits", "--out", str(polys)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 0
    assert out.count('"pass": true') == 6


def test_sample_embeds_a_file_matroid_that_borrows_a_builtin_name(tmp_path, capsys):
    # Named "qs" but not the quadrilateral: writing the name alone would
    # make the realization file describe the wrong matroid.
    impostor = dict(CONSTRUCTIBLE_MATROID, name="qs")
    matroid = tmp_path / "impostor.json"
    matroid.write_text(json.dumps(impostor))
    real = tmp_path / "real.json"
    code, _, _ = run_cli(capsys, "sample", "--matroid", str(matroid), "--out", str(real))
    assert code == 0
    r = Realization.from_json(real.read_text())
    assert json.loads(real.read_text())["matroid"] == impostor
    assert in_realization_space(r.vectors, r.matroid)


def test_generate_ignores_graph_data_of_a_borrowed_builtin_name(tmp_path, capsys):
    # The quadrilateral's graph polynomial does not vanish on this matroid.
    matroid = tmp_path / "impostor.json"
    matroid.write_text(json.dumps(dict(CONSTRUCTIBLE_MATROID, name="qs")))
    real = tmp_path / "real.json"
    assert run_cli(capsys, "sample", "--matroid", str(matroid), "--out", str(real))[0] == 0
    polys = tmp_path / "polys.txt"
    code, _, err = run_cli(capsys, "generate", "--matroid", str(matroid), "--out", str(polys))
    assert code == 0
    assert err.startswith("note: ") and "skipped" in err
    labels = [p.label for p in parse_polynomials(polys.read_text())]
    assert labels and not any(label.startswith("graph") for label in labels)
    code, out, _ = run_cli(
        capsys, "verify", "--polys", str(polys), "--realization", str(real), "--q", "canonical"
    )
    assert code == 0
    assert '"pass": false' not in out


@pytest.mark.parametrize("which", ["lifting", "all"])
def test_a_budget_that_skips_every_restriction_is_noted(tmp_path, capsys, which):
    # paving4_9's restrictions of k <= 4 have no minors; its k = 6 one has.
    out = tmp_path / "p49.txt"
    code, stdout, err = run_cli(capsys, "generate", "--matroid", "paving4_9", "--which", which, "--out", str(out))
    assert code == 0 and stdout == ""
    assert err == (
        "note: --budget-minor 4 skipped every restriction with minors (smallest k = 6); "
        "no lifting polynomials written\n"
    )
    if which == "lifting":
        assert out.read_bytes() == b"\n"
    code, _, err = run_cli(capsys, "generate", "--matroid", "paving4_9", "--which", "lifting", "--budget-minor", "6")
    assert code == 0 and err == ""
    # A matroid whose restrictions have no minors at any budget gets no note.
    assert run_cli(capsys, "generate", "--matroid", "uniform(3,6)", "--which", "lifting") == (0, "\n", "")


def test_verify_of_an_empty_file_notes_that_nothing_was_checked(tmp_path, capsys):
    real, polys = tmp_path / "qs.json", tmp_path / "empty.txt"
    assert run_cli(capsys, "sample", "--family", "qs", "--seed", "1", "--out", str(real))[0] == 0
    polys.write_text("")
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert (code, out) == (0, "\n")
    assert err == f"note: {polys} holds no polynomials; nothing was checked\n"


@pytest.mark.parametrize("spec", ["grid3x3", "file"])
def test_generate_all_without_graph_data_skips_the_graph_family(tmp_path, capsys, spec):
    if spec == "file":
        spec = str(tmp_path / "m9.json")
        Path(spec).write_text(json.dumps(CONSTRUCTIBLE_MATROID))
    polys = tmp_path / "polys.txt"
    code, _, err = run_cli(capsys, "generate", "--matroid", spec, "--out", str(polys))
    assert code == 0
    assert err.count("\n") == 1 and err.startswith("note: ") and "graph" in err
    expected = []
    for which in ("circuits", "lifting"):
        code, out, _ = run_cli(capsys, "generate", "--matroid", spec, "--which", which)
        assert code == 0
        expected += parse_polynomials(out)
    assert expected
    assert parse_polynomials(polys.read_text()) == expected
    code, out, err = run_cli(capsys, "generate", "--matroid", spec, "--which", "graph")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and repr(spec) in err
    assert "Traceback" not in err


ALL_COLLINEAR = {"rank": 3, "ground_set": 4, "hyperplanes": [[1, 2, 3, 4]]}


@pytest.mark.parametrize("command", ["validate", "sample", "generate"])
def test_all_collinear_matroid_is_not_full_rank(tmp_path, command):
    matroid = tmp_path / "collinear.json"
    matroid.write_text(json.dumps(ALL_COLLINEAR))
    proc = run_fresh("-m", "pavingideals.cli", command, "--matroid", str(matroid))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "whole ground set" in proc.stderr
    assert "Traceback" not in proc.stderr


PAPPUS = {
    "rank": 3, "ground_set": 9,
    "hyperplanes": [
        [1, 2, 3], [4, 5, 6], [1, 5, 7], [2, 4, 7], [1, 6, 8],
        [3, 4, 8], [2, 6, 9], [3, 5, 9], [7, 8, 9],
    ],
}


def test_sample_without_constructible_order_exits_cleanly(tmp_path):
    matroid = tmp_path / "pappus.json"
    matroid.write_text(json.dumps(PAPPUS))
    proc = run_fresh("-m", "pavingideals.cli", "sample", "--matroid", str(matroid))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "constructible order" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sample_invalid_matroid_file_is_a_validation_failure(tmp_path, capsys):
    matroid = tmp_path / "bad.json"
    matroid.write_text(json.dumps({"rank": 3, "ground_set": 6, "hyperplanes": [[1, 2, 3], [1, 2, 4]]}))
    code, out, err = run_cli(capsys, "sample", "--matroid", str(matroid))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid matroid: ")


@pytest.mark.parametrize(
    "script", [["reproduce_examples.py"], ["lifting_roundtrip.py", "--family", "grid3x4"]]
)
def test_scripts_run_clean(script):
    path = Path(__file__).resolve().parents[1] / "scripts" / script[0]
    proc = run_fresh(str(path), *script[1:])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# -- gc and liftcheck ------------------------------------------------------------


def test_gc_meet_prints_bracket_identity(capsys):
    code, out, _ = run_cli(
        capsys, "gc", "meet", "3,4", "1,2", "--join", "5,6", "--dim", "3"
    )
    assert code == 0
    assert out.strip() in (
        "⟨1 2 3⟩⟨4 5 6⟩ - ⟨1 2 4⟩⟨3 5 6⟩",
        "-⟨1 2 3⟩⟨4 5 6⟩ + ⟨1 2 4⟩⟨3 5 6⟩",
    )


def test_gc_join_top_grade(capsys):
    code, out, _ = run_cli(capsys, "gc", "join", "1", "2", "3", "--dim", "3")
    assert code == 0
    assert out.strip() == "⟨1 2 3⟩"


def test_gc_join_repeated_point_is_zero(capsys):
    code, out, _ = run_cli(capsys, "gc", "join", "1", "1", "--dim", "3")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("argv", [
    ("join", "1,2", "--dim", "0"),
    ("meet", "1,2,3,4", "1,2", "--dim", "3"),
])
def test_gc_rejects_operands_above_dim(capsys, argv):
    code, out, err = run_cli(capsys, "gc", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("labels", ["1,,2", "1,x y,z", "1,-2,3", "0,1,2"])
def test_gc_rejects_labels_that_are_not_points_or_identifiers(capsys, labels):
    code, out, err = run_cli(capsys, "gc", "join", labels, "--dim", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad point label ")


@pytest.mark.parametrize("argv, first", [
    (("join", "1,2,3,4", "--join", "x!"), "4 points exceed dimension 3"),
    (("meet", "1,2", "3,4", "--join", "1,2,3,4", "--join", "x!"), "4 points exceed dimension 3"),
    (("meet", "1,2", "3,4", "--join", "x!", "--join", "1,2,3,4"), "bad point label 'x!'"),
])
def test_gc_reports_the_first_fault_of_the_fold(capsys, argv, first):
    code, out, err = run_cli(capsys, "gc", *argv, "--dim", "3")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {first}")


def test_liftcheck_grid_and_qs(capsys):
    code, out, _ = run_cli(capsys, "liftcheck", "--matroid", "grid3x3")
    assert code == 0
    assert "certified" in out and "9 >= 9" in out
    code, out, _ = run_cli(capsys, "liftcheck", "--matroid", "qs")
    assert code == 0
    assert "inconclusive" in out and "6 < 7" in out


# -- polynomial file round trips ----------------------------------------------------


def test_polyfile_round_trip_both_forms():
    items = [
        LabeledPolynomial("expanded", BracketPolynomial.bracket([1, 2, "q1"]).expand(3)),
        LabeledPolynomial("bracketed", BracketPolynomial.bracket((1, 2, "q1"))
                          * BracketPolynomial.bracket((3, 4, "q2"))),
    ]
    text = render_polynomials(items)
    back = parse_polynomials(text)
    assert back[0].label == "expanded"
    assert back[0].polynomial == items[0].polynomial
    assert back[1].polynomial == items[1].polynomial
