"""CLI surface: subcommands, exit codes, file formats, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pavingideals
from pavingideals.cli import main
from pavingideals.polyfiles import parse_polynomials, render_polynomials
from pavingideals.generators import (
    ExtraVector,
    LabeledPolynomial,
    bracket,
    builtin_graph_data,
    lifting_polynomials,
)
from pavingideals.matroids import builtin_matroid
from pavingideals.brackets import BracketPolynomial


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
        for command in ("validate", "generate", "liftcheck"):
            code, out, err = run_cli(capsys, command, "--matroid", str(bad))
            assert code == 1, (text, command)
            assert out == ""
            assert err.startswith("parse error: ")
            assert "Traceback" not in err


def test_verify_realization_with_malformed_matroid_is_usage_error(tmp_path, capsys):
    real = tmp_path / "real.json"
    real.write_text(json.dumps({
        "matroid": {"rank": 3, "ground_set": 6, "hyperplanes": [[1, 2, "x"]]},
        "points": {str(p): ["1", "2", str(p)] for p in range(1, 7)},
    }))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", bracket([1, 2, 3], 3))]))
    code, _, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


# -- generate ----------------------------------------------------------------


def test_generate_circuits_qs(tmp_path, capsys):
    out = tmp_path / "polys.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "circuits", "--out", str(out)
    )
    assert code == 0
    polys = parse_polynomials(out.read_text())
    assert len(polys) == 4
    assert polys[0].polynomial == bracket([1, 2, 3], 3)


def test_generate_lifting_qs_symbolic(tmp_path, capsys):
    out = tmp_path / "lift.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--matroid", "qs", "--which", "lifting",
        "--q", "symbolic", "--out", str(out),
    )
    assert code == 0
    polys = parse_polynomials(out.read_text())
    # All hyperplane-union submatroids of the quadrilateral give the whole
    # matroid or undersized minors; the 15 maximal minors must be present.
    maximal = [p for p in polys if "N=[1, 2, 3, 4, 5, 6]" in p.label]
    assert len(maximal) == 15


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
    ("point-off-its-circuit", _qs_graph_data(C=[[2, 4, 6], [2, 4, 6], [1, 2, 3]]), 2, "invalid graph data: "),
    ("short-extra", _qs_graph_data(extra=[{"concrete": ["1", "0"]}] * 3), 2, "invalid graph data: "),
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
    (("qs", "all", "symbolic"), "33816c2919139db72a1117a4213e804ea58ff5732b282efde86c0c1d7e2fd480"),
    (("qs", "all", "canonical"), "f0430be60fb5a415567c25d75f77be118264191c7034c49012eddd6e7da38d2f"),
    (("concurrent3", "all", "symbolic"), "8240ef5882c400dd8d84c5502ee9a2d2955cd1535d8108c33f5abfb571cd8dd4"),
    (("concurrent3", "all", "canonical"), "8240ef5882c400dd8d84c5502ee9a2d2955cd1535d8108c33f5abfb571cd8dd4"),
    (("fig2r", "all", "symbolic"), "aeba5778aacb56a6cd65152593b9cba33fe29cd82cd35fa7de35acb90279ce2a"),
    (("fig2r", "all", "canonical"), "aeba5778aacb56a6cd65152593b9cba33fe29cd82cd35fa7de35acb90279ce2a"),
    (("fig2c", "all", "symbolic"), "1df780921e04e3d3e3b13c997c94e7b8a72c355fd6b84b87e7b746acd7a2842e"),
    (("fig2c", "all", "canonical"), "1df780921e04e3d3e3b13c997c94e7b8a72c355fd6b84b87e7b746acd7a2842e"),
    (("pascal", "graph", "symbolic"), "32c65f766ec6759251286fec5d587430bd35eb003f56546ad2fda70c5379a1fe"),
    (("grid3x4", "graph", "symbolic"), "32bdef853b4896f7f5a2f7e01bd907079284ffdfdfe8a4c333a640cf9a6a0ec9"),
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
    polys.write_text(render_polynomials([LabeledPolynomial("c123", bracket([1, 2, 3], 3))]))
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("coordinate", [1.5, True], ids=["float", "bool"])
def test_verify_rejects_coordinates_that_are_not_rationals(tmp_path, capsys, coordinate):
    real = sample_qs(tmp_path, capsys)
    payload = json.loads(real.read_text())
    payload["points"]["1"][0] = coordinate
    real.write_text(json.dumps(payload))
    polys = tmp_path / "polys.txt"
    polys.write_text(render_polynomials([LabeledPolynomial("c123", bracket([1, 2, 3], 3))]))
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")


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
    polys.write_text(render_polynomials([LabeledPolynomial("c123", bracket([1, 2, 3], 3))]))
    code, out, err = run_cli(capsys, "verify", "--polys", str(polys), "--realization", str(real))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


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


def verify_q_files(tmp_path, capsys) -> dict[str, tuple[Path, Path]]:
    """An expanded qs lifting minor and the bracket-form pascal graph polynomial."""
    qs_polys = tmp_path / "qs_lifting.txt"
    minors = lifting_polynomials(builtin_matroid("qs"), ExtraVector.symbolic("q"), minor_size=2)
    qs_polys.write_text(render_polynomials(minors[:1]))
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
    polys.write_text(render_polynomials([LabeledPolynomial("c123", bracket([1, 2, 3], 3))]))
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
        LabeledPolynomial("expanded", bracket([1, 2, "q1"], 3)),
        LabeledPolynomial("bracketed", BracketPolynomial.bracket((1, 2, "q1"))
                          * BracketPolynomial.bracket((3, 4, "q2"))),
    ]
    text = render_polynomials(items)
    back = parse_polynomials(text)
    assert back[0].label == "expanded"
    assert back[0].polynomial == items[0].polynomial
    assert back[1].polynomial == items[1].polynomial
