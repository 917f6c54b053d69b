import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jkpencil import cli
from jkpencil.errors import ValidationError
from jkpencil.pencil import (
    INFINITY,
    JKInvariants,
    canonical_pencil,
    congruence_transform,
)
from jkpencil.structure import direct_sum, get_algebra
from jkpencil.unipoly import UniPoly

from conftest import random_unimodular


def write_pencil_doc(path, pencil):
    doc = {
        "dimension": pencil.n,
        "A": [[str(v) for v in row] for row in pencil.a],
        "B": [[str(v) for v in row] for row in pencil.b],
    }
    path.write_text(json.dumps(doc))
    return path


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- catalog -------------------------------------------------------------------


def test_catalog_lists_names(capsys):
    code, out, err = run(capsys, ["catalog"])
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) >= 8
    assert "so3" in names and err == ""


def test_catalog_document_roundtrip(capsys, tmp_path):
    for name in ("so3", "heisenberg3", "e3", "aff1_abelian2"):
        code, out, _ = run(capsys, ["catalog", name])
        assert code == 0
        doc = json.loads(out)
        g, _, _ = cli.load_lie_document(doc)
        assert g.dim == doc["dimension"]


def test_catalog_e3_has_six_generators(capsys):
    code, out, _ = run(capsys, ["catalog", "e3"])
    assert code == 0
    assert json.loads(out)["dimension"] == 6


def test_catalog_unknown_name_exit_2(capsys):
    code, out, err = run(capsys, ["catalog", "nope"])
    assert code == 2
    assert out == ""
    assert "unknown" in err


# -- pencil analyze -------------------------------------------------------------


def test_pencil_analyze_jordan_block(capsys, tmp_path):
    spec = JKInvariants.from_blocks([], [(UniPoly.linear(7), (2,))])
    path = write_pencil_doc(tmp_path / "j.json", canonical_pencil(spec))
    code, out, err = run(capsys, ["pencil", "analyze", str(path), "--format", "json"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["schema_version"] == 2
    assert "reparametrization" not in rep["jk_invariants"]
    assert rep["char_poly"]["polynomial"] == "lambda^2 - 14*lambda + 49"
    assert rep["char_poly"]["rational_roots"] == [{"root": "7", "multiplicity": 2}]
    assert rep["jk_invariants"]["jordan"] == [
        {"descriptor": "lambda - 7", "degree": 1, "half_sizes": [2]}
    ]
    assert rep["jk_invariants"]["kronecker"] == []


def test_pencil_analyze_zero_pencil(capsys, tmp_path):
    doc = {"dimension": 3, "A": [["0"] * 3] * 3, "B": [[0] * 3] * 3}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["pencil", "analyze", str(path), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["jk_invariants"]["kronecker"] == [1, 1, 1]
    assert rep["core"]["dimension"] == 3


def test_pencil_analyze_scrambled_matches_canonical(capsys, tmp_path):
    spec = JKInvariants.from_blocks(
        [2], [(UniPoly.linear(1), (1,)), (INFINITY, (1,))]
    )
    p = canonical_pencil(spec)
    q = congruence_transform(p, random_unimodular(p.n, random.Random(3)))
    path_p = write_pencil_doc(tmp_path / "p.json", p)
    path_q = write_pencil_doc(tmp_path / "q.json", q)
    reports = []
    for path in (path_p, path_q):
        code, out, _ = run(capsys, ["pencil", "analyze", str(path), "--format", "json"])
        assert code == 0
        reports.append(json.loads(out))
    a, b = reports
    assert a["jk_invariants"]["kronecker"] == b["jk_invariants"]["kronecker"]
    assert a["jk_invariants"]["jordan"] == b["jk_invariants"]["jordan"]
    assert a["char_poly"]["status"] == b["char_poly"]["status"] == "INFINITE_EIGENVALUE"


def test_pencil_analyze_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2, "A": [[0, 1], [-1, 0]],')
    code, out, err = run(capsys, ["pencil", "analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "line" in err and "column" in err


def test_pencil_analyze_non_skew_exit_2(capsys, tmp_path):
    doc = {"dimension": 2, "A": [[0, 1], [1, 0]], "B": [[0, 0], [0, 0]]}
    path = tmp_path / "nonskew.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["pencil", "analyze", str(path)])
    assert code == 2
    assert "skew" in err


def test_pencil_analyze_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["pencil", "analyze", "/nonexistent.json"])
    assert code == 2
    assert err


def assert_one_line_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err, err


def test_pencil_analyze_non_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dimension": 1, "name": "\u00e9"}'.encode("latin-1"))
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], "not UTF-8")


def test_pencil_analyze_overlong_integer_exit_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"dimension": 1, "A": [[' + "7" * 5000 + ']], "B": [[0]]}')
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], "unreadable JSON")


def test_lie_analyze_deep_nesting_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert_one_line_exit_2(capsys, ["lie", "analyze", str(path)], "nested too deeply")


@pytest.mark.parametrize(
    "kind, raw, message",
    [
        ("pencil", '{"dimension": 1, "name": "\u00e9"}'.encode("latin-1"), "document is not UTF-8: "),
        ("pencil", b'{"dimension": 2, "A": [[0, 1], [-1, 0]],', "malformed JSON at line 1, column 41: "),
        ("pencil", b'{"dimension": 1, "A": [[' + b"7" * 5000 + b']], "B": [[0]]}', "unreadable JSON: "),
        ("lie", b"[" * 100000 + b"]" * 100000, "unreadable JSON: nested too deeply"),
        # an empty list once fell back to sampled points
        ("lie", b'{"dimension": 1, "points": []}', "points: expected at least one point"),
    ],
    ids=["non-utf8", "malformed", "overlong-integer", "deep-nesting", "empty-points"],
)
def test_report_functions_raise_what_main_prints(capsys, tmp_path, kind, raw, message):
    """The report functions read bytes, so they meet unreadable documents
    themselves and raise the ValidationError whose text `main` prints."""
    with pytest.raises(ValidationError) as info:
        {"pencil": cli.pencil_report, "lie": cli.lie_report}[kind](raw)
    assert str(info.value).startswith(message)
    path = tmp_path / "document.json"
    path.write_bytes(raw)
    assert run(capsys, [kind, "analyze", str(path)]) == (2, "", f"error: {info.value}\n")


def test_pencil_analyze_directory_exit_2(capsys, tmp_path):
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(tmp_path)], "Is a directory")


def test_exponent_rationals_exit_2(capsys, tmp_path):
    path = tmp_path / "exponent.json"
    path.write_text('{"dimension": 1, "A": [["1e10000000"]], "B": [[0]]}')
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], "exponent notation")
    lie = _catalog_doc(capsys, tmp_path, "heisenberg3")
    argv = ["lie", "analyze", str(lie), "--point", "1,2,3E4000000"]
    assert_one_line_exit_2(capsys, argv, "exponent notation")


def test_rationals_parse_as_int_or_fraction():
    assert [cli._parse_rational(v, "x") for v in (7, -7, "12", "-012", "3/4", "-6/4")] == [
        7, -7, 12, -12, Fraction(3, 4), Fraction(-3, 2),
    ]
    assert [type(cli._parse_rational(v, "x")) for v in (7, "12", "4/2")] == [int, int, Fraction]


def _one_entry_pencil(tmp_path, entry):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"dimension": 1, "A": [[entry]], "B": [[0]]}))
    return path


# Fraction(str) reads each of the first six as a rational; a document may not.
@pytest.mark.parametrize(
    "entry", ["0.5", "1_0", " 3 ", "3 ", "+3", "\u0663", "1/+2", "1/-2", "", "-", "1/", "/2", "0x10"]
)
def test_rational_outside_the_grammar_exit_2(capsys, tmp_path, entry):
    path = _one_entry_pencil(tmp_path, entry)
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], f"A[0][0]: bad rational {entry!r}")


@pytest.mark.parametrize(
    "entry, message",
    [("1/0", "bad rational '1/0'"), ("7" * 5000, "bad rational")],
    ids=["zero-denominator", "overlong-digit-string"],
)
def test_rational_in_the_grammar_but_unreadable_exit_2(capsys, tmp_path, entry, message):
    path = _one_entry_pencil(tmp_path, entry)
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], message)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("0.5", "B[1][2]: bad rational '0.5' (expected an integer or p/q)"),
        ("1e3", "B[1][2]: bad rational '1e3' (exponent notation is not accepted)"),
        ("1/0", "B[1][2]: bad rational '1/0'"),
        (True, "B[1][2]: boolean is not a rational"),
        (0.5, "B[1][2]: expected integer or rational string, got 0.5"),
    ],
    ids=["grammar", "exponent", "zero-denominator", "boolean", "float"],
)
def test_bad_b_entry_names_its_location(capsys, tmp_path, entry, message):
    """The location of a bad entry is built only when the entry is bad, and
    still names it: row 1, column 2 of B, past good entries of A and B."""
    b = [["0", "1", "2"], ["-1", "0", entry], ["-2", "3", "0"]]
    path = tmp_path / "bad_b.json"
    path.write_text(json.dumps({"dimension": 3, "A": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], "B": b}))
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], message)


def test_every_lie_document_rational_uses_the_grammar(capsys, tmp_path):
    doc = json.loads(_catalog_doc(capsys, tmp_path, "heisenberg3").read_text())
    path = tmp_path / "bad.json"
    for where, edit in (
        ("brackets[0].coeffs[3]", lambda d: d["brackets"][0]["coeffs"].update({"3": "0.5"})),
        ("a[0]", lambda d: d.update(a=["0.5", "0", "1"])),
        ("points[0][2]", lambda d: d.update(points=[["1", "1", "0.5"]])),
    ):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        path.write_text(json.dumps(bad))
        assert_one_line_exit_2(capsys, ["lie", "analyze", str(path)], f"{where}: bad rational '0.5'")
    argv = ["lie", "analyze", str(_catalog_doc(capsys, tmp_path, "heisenberg3")), "--point", "1,+2,3"]
    assert_one_line_exit_2(capsys, argv, "--point: bad rational '+2'")


def test_pencil_analyze_boolean_dimension_exit_2(capsys, tmp_path):
    path = tmp_path / "booldim.json"
    path.write_text('{"dimension": true, "A": [[0]], "B": [[0]]}')
    assert_one_line_exit_2(capsys, ["pencil", "analyze", str(path)], "dimension: expected a positive integer")


def test_lie_analyze_boolean_dimension_exit_2(capsys, tmp_path):
    path = tmp_path / "booldim.json"
    path.write_text('{"dimension": true, "brackets": []}')
    assert_one_line_exit_2(capsys, ["lie", "analyze", str(path)], "dimension: expected a positive integer")


def run_process(*args):
    """`python -m jkpencil.cli ARGS` in a fresh interpreter that imports
    the package from this checkout's src."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "jkpencil.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cli_process_exit_codes_and_streams(tmp_path):
    golden = Path(__file__).resolve().parent / "golden"
    done = run_process("pencil", "analyze", str(golden / "infinite_jordan.pencil.json"), "--format", "json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (golden / "infinite_jordan.report.json").read_text()
    path = tmp_path / "booldim.json"
    path.write_text('{"dimension": true, "A": [[0]], "B": [[0]]}')
    done = run_process("pencil", "analyze", str(path))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")


@pytest.mark.parametrize(
    "entry, message",
    [
        ('{"i": true, "j": 2}', "brackets[0].i: expected an integer index"),
        ('{"i": 1, "j": true}', "brackets[0].j: expected an integer index"),
    ],
    ids=["i", "j"],
)
def test_lie_analyze_boolean_index_exit_2(capsys, tmp_path, entry, message):
    path = tmp_path / "boolindex.json"
    path.write_text('{"dimension": 2, "brackets": [' + entry + "]}")
    assert_one_line_exit_2(capsys, ["lie", "analyze", str(path)], message)


def test_lie_document_dimension_limit():
    assert cli.MAX_LIE_DIMENSION == 64
    g, _, _ = cli.load_lie_document({"dimension": 64, "brackets": []})
    assert g.dim == 64
    with pytest.raises(ValidationError, match="exceeds the limit of 64"):
        cli.load_lie_document({"dimension": 65, "brackets": []})


# -- lie analyze ------------------------------------------------------------------


def _catalog_doc(capsys, tmp_path, name):
    _, out, _ = run(capsys, ["catalog", name])
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    return path


def test_lie_analyze_heisenberg(capsys, tmp_path):
    path = _catalog_doc(capsys, tmp_path, "heisenberg3")
    code, out, err = run(capsys, ["lie", "analyze", str(path), "--format", "json"])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["fa"]["verdict"] == "INCOMPLETE"
    assert rep["ftilde"]["verdict"] == "INCOMPLETE"
    assert "dp_0 in K" in rep["ftilde"]["witnesses"]
    assert rep["fundamental_semiinvariant"]["polynomial"] == "x3"
    assert all(cert["passed"] for cert in rep["involution_certificates"])


def test_lie_analyze_so3(capsys, tmp_path):
    path = _catalog_doc(capsys, tmp_path, "so3")
    code, out, _ = run(capsys, ["lie", "analyze", str(path), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["fa"]["verdict"] == "COMPLETE"
    assert rep["ftilde"]["verdict"] == "COMPLETE"
    assert rep["generic_invariants"]["invariants"]["kronecker"] == [2]
    assert rep["generic_invariants"]["invariants"]["jordan"] == []


def test_lie_analyze_aff1(capsys, tmp_path):
    path = _catalog_doc(capsys, tmp_path, "aff1")
    code, out, _ = run(capsys, ["lie", "analyze", str(path), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ftilde"]["verdict"] == "COMPLETE"


def test_lie_analyze_with_frozen_point_and_override(capsys, tmp_path):
    _, out, _ = run(capsys, ["catalog", "heisenberg3"])
    doc = json.loads(out)
    doc["a"] = ["0", "0", "1"]
    path = tmp_path / "h3a.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        ["lie", "analyze", str(path), "--format", "json", "--point", "1,1,1"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["frozen_point"] == {"a": ["0", "0", "1"], "regular": True, "sampled": False}
    assert rep["ftilde"]["points"][0]["point"] == ["1", "1", "1"]
    assert rep["eigenvalue_lemma"][0]["checks"][0]["root"] == "1"


def test_lie_analyze_uses_document_points(capsys, tmp_path):
    _, out, _ = run(capsys, ["catalog", "aff1"])
    doc = json.loads(out)
    doc["a"] = ["0", "1"]
    doc["points"] = [["2", "3"], ["1", "1"]]
    path = tmp_path / "aff1pts.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["lie", "analyze", str(path), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert [p["point"] for p in rep["ftilde"]["points"]] == [["2", "3"], ["1", "1"]]
    assert rep["ftilde"]["verdict"] == "COMPLETE"


@pytest.mark.parametrize(
    "summands, seed, fa, ftilde",
    [
        # the semi-invariant certificate draws x = 0, a degree jump
        (("sl2",), 517691, "COMPLETE", "COMPLETE"),
        # a degree jump at a nonzero non-generic x
        (("e3", "aff1"), 90551, "INCOMPLETE", "COMPLETE"),
        # a generic-invariants sample with rank(B) < rank, which drew
        # mu0 = 0 under the former Moebius reparametrization
        (("e3", "heisenberg3"), 772828, "INCOMPLETE", "INCOMPLETE"),
    ],
)
def test_lie_analyze_seeds_that_exited_3(capsys, tmp_path, summands, seed, fa, ftilde):
    g = get_algebra(summands[0])
    for name in summands[1:]:
        g = direct_sum(g, get_algebra(name))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(cli.lie_document(g)))
    code, out, err = run(capsys, ["lie", "analyze", str(path), "--seed", str(seed), "--format", "json"])
    assert code == 0, err
    rep = json.loads(out)
    assert (rep["fa"]["verdict"], rep["ftilde"]["verdict"]) == (fa, ftilde)


def test_lie_analyze_jacobi_violation_exit_2(capsys, tmp_path):
    doc = {
        "dimension": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": "1"}},
            {"i": 1, "j": 3, "coeffs": {"1": "1"}},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["lie", "analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "(1, 2, 3, 3)" in err


def test_lie_analyze_bad_indices_exit_2(capsys, tmp_path):
    doc = {"dimension": 2, "brackets": [{"i": 2, "j": 1, "coeffs": {"1": "1"}}]}
    path = tmp_path / "badidx.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["lie", "analyze", str(path)])
    assert code == 2
    assert "brackets[0]" in err


@pytest.mark.parametrize(
    "dimension, coeffs",
    [
        (11, {"1_0": "1"}),  # int() reads it as 10
        (3, {" +3 ": "1"}),  # and this as 3
        (3, {"\u0663": "1"}),  # ARABIC-INDIC DIGIT THREE, also 3
        (3, {"3": "1", "03": "5"}),  # a second key for index 3 overwrote the first
    ],
    ids=["underscore", "sign-and-spaces", "non-ascii-digit", "leading-zero"],
)
def test_lie_analyze_noncanonical_coefficient_index_exit_2(capsys, tmp_path, dimension, coeffs):
    doc = {"dimension": dimension, "brackets": [{"i": 1, "j": 2, "coeffs": coeffs}]}
    path = tmp_path / "index.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["lie", "analyze", str(path)])
    assert code == 2
    assert out == ""
    assert "brackets[0].coeffs: bad index" in err


def test_internal_consistency_maps_to_exit_3(capsys, monkeypatch):
    from jkpencil.errors import InternalConsistencyError

    def boom(raw, seed):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli, "pencil_report", boom)
    document = Path(__file__).resolve().parent / "golden" / "zero.pencil.json"
    code, out, err = run(capsys, ["pencil", "analyze", str(document)])
    assert code == 3
    assert out == ""
    assert "internal consistency" in err


# -- determinism --------------------------------------------------------------------


def test_json_reports_are_byte_identical_for_same_seed(capsys, tmp_path):
    spec = JKInvariants.from_blocks([2], [(UniPoly.linear(3), (1,))])
    pencil_path = write_pencil_doc(tmp_path / "det.json", canonical_pencil(spec))
    lie_path = _catalog_doc(capsys, tmp_path, "heisenberg3")
    for argv in (
        ["pencil", "analyze", str(pencil_path), "--format", "json", "--seed", "99"],
        ["lie", "analyze", str(lie_path), "--format", "json", "--seed", "99"],
    ):
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert first.encode() == second.encode()


def test_different_seed_still_same_invariants(capsys, tmp_path):
    """Regular values are taken in a fixed order, so pencil reports under
    --seed 1 and --seed 2 differ in their seed key alone."""
    spec = JKInvariants.from_blocks([2], [(UniPoly.linear(3), (1,))])
    documents = [write_pencil_doc(tmp_path / "seeds.json", canonical_pencil(spec))]
    documents += sorted(GOLDEN.glob("*.pencil.json"))
    for path in documents:
        outs = []
        for seed in ("1", "2"):
            _, out, _ = run(
                capsys, ["pencil", "analyze", str(path), "--format", "json", "--seed", seed]
            )
            outs.append(json.loads(out))
        assert [out.pop("seed") for out in outs] == [1, 2]
        assert outs[0] == outs[1], path.name


def test_main_builds_the_parser_once(capsys, monkeypatch):
    """The argparse parser is built on the first main call and kept; a bad
    argument still exits 2 with a usage message on stderr."""
    import argparse

    built = []
    original = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        if kwargs.get("prog") == "jkpencil":
            built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli._build_parser.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, ["catalog"])
        assert code == 0
        assert "heisenberg3" in out.split()
        with pytest.raises(SystemExit) as exc:
            cli.main(["pencil", "analyze"])
        assert exc.value.code == 2
        assert "usage: jkpencil pencil analyze" in capsys.readouterr().err
    assert len(built) == 1


# -- work done once per analysis ---------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def record_calls(monkeypatch, name, modules, unless=lambda: False):
    """Wraps `name` wherever one of `modules` binds it; returns the list of
    positional-argument tuples of the calls made while `unless()` is false."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        if not unless():
            calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


def test_pencil_analyze_computes_the_pencil_rank_once(capsys, monkeypatch):
    """The pencil rank is computed by the one RegularValueSampler that the
    pencil keeps, and pencil_rank is not called."""
    import jkpencil.pencil

    documents = sorted(GOLDEN.glob("*.pencil.json"))
    assert len(documents) == 6
    for document in documents:
        samplers = record_calls(monkeypatch, "RegularValueSampler", [jkpencil.pencil])
        ranks = record_calls(monkeypatch, "pencil_rank", [jkpencil.pencil])
        code, _, _ = run(capsys, ["pencil", "analyze", str(document), "--format", "json"])
        assert code == 0
        assert len(samplers) == 1 and ranks == [], document.name
        monkeypatch.undo()


def test_pencil_analyze_eliminates_each_regular_value_candidate_once(capsys, monkeypatch):
    """linalg.rank runs on B alone.  The pencil rank and the regular-value
    draws read one member table: each member A + mu*B, mu = 0, 1, -1, 2,
    ..., is eliminated at most once per analysis, with kernel_basis, and
    the members eliminated are a prefix of that order."""
    import jkpencil.linalg
    import jkpencil.pencil
    from jkpencil.pencil import _member_value, _scaled_member

    for document in sorted(GOLDEN.glob("*.pencil.json")):
        p = cli.load_pencil_document(json.loads(document.read_text()))
        modules = [jkpencil.pencil, jkpencil.cli, jkpencil.linalg]
        ranks = record_calls(monkeypatch, "rank", modules)
        kernels = record_calls(monkeypatch, "kernel_basis", modules)
        code, _, _ = run(capsys, ["pencil", "analyze", str(document), "--format", "json"])
        assert code == 0
        assert ranks == [(p._scaled[1],)], document.name
        # Past the members, only the dim K x n matrix whose kernel is the
        # mantle is eliminated, once, when the core K has dim K < n.
        members = [args[0] for args in kernels if len(args[0]) == p.n]
        assert len(kernels) - len(members) <= 1, document.name
        assert members, document.name
        assert members == [_scaled_member(p._scaled, _member_value(i)) for i in range(len(members))], document.name
        monkeypatch.undo()


def test_lie_analyze_analyses_each_evaluation_point_once(capsys, monkeypatch):
    """The pointwise char poly and Jordan data are read from one Smith
    form, the pencil rank is computed once, and the invariants, the core
    and the involution certificate read one kernel stream, per evaluation
    point: the certificate eliminates no member and reports the values the
    point's stream drew for its invariants and core.
    The factors of each Smith form are refined once, for its Jordan groups;
    the completeness test reads those groups rather than factoring the
    char poly again.

    The Smith form of a point reads the integer scaling of its pencil
    restricted to M/K, its Jordan part, here 2 x 2.
    The generic invariants are read from the analyses of the three pairs
    that certify the fundamental semi-invariant, and the first F~_a point
    is the x of the first of them, on its pencil, so the document builds
    four samplers and runs four Smith forms: the three pairs' and the
    second point's.
    """
    import jkpencil.linalg
    import jkpencil.pencil
    import jkpencil.poisson
    import jkpencil.smith
    import jkpencil.unipoly
    from jkpencil.liealg import lie_pencil
    from jkpencil.pencil import _lambda_rows
    from jkpencil.structure import get_algebra

    smith_calls = record_calls(monkeypatch, "smith_normal_form", [jkpencil.smith, jkpencil.pencil])
    refined_calls = record_calls(
        monkeypatch, "refined_factors", [jkpencil.unipoly, jkpencil.pencil, jkpencil.poisson]
    )
    sampler_calls = record_calls(monkeypatch, "RegularValueSampler", [jkpencil.pencil])
    certifying = []
    certified = []
    original_involution = jkpencil.poisson.PointAnalysis.involution.func

    def involution(pa):
        certifying.append(True)
        certified.append(pa)
        try:
            return original_involution(pa)
        finally:
            certifying.pop()

    monkeypatch.setattr(jkpencil.poisson.PointAnalysis, "involution", property(involution))
    certificate_kernels = record_calls(
        monkeypatch, "kernel_basis", [jkpencil.linalg, jkpencil.pencil], unless=lambda: not certifying
    )
    document = GOLDEN / "heisenberg3.lie.json"
    code, out, _ = run(capsys, ["lie", "analyze", str(document), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    pencil = lie_pencil(get_algebra("heisenberg3"), report["frozen_point"]["a"]).pencil
    points = [p["point"] for p in report["ftilde"]["points"]]
    assert len(points) == 2
    assert len(refined_calls) == len(smith_calls) == len(sampler_calls) == 4
    for x0, cert, pa in zip(points, report["involution_certificates"], certified, strict=True):
        at_point = jkpencil.poisson.evaluate_at(pencil, x0)
        jordan_part = pa.pencil._jordan_part
        assert len(jordan_part[0]) == 2
        assert sum(args[0] == _lambda_rows(*jordan_part) for args in smith_calls) == 1
        assert sum(args[0] == at_point for args in sampler_calls) == 1
        assert pa.pencil == at_point
        drawn = [str(mu) for mu, _ in pa.pencil._sampler.drawn]
        assert cert["kernel_samples"] == drawn[: len(cert["kernel_samples"])]
    assert certificate_kernels == []


def test_sampled_points_specialise_the_generic_polynomial_once(capsys, monkeypatch):
    """A sampled F~_a point is specialised once: the first, the x of the
    first certified pair, when its PointAnalysis is built, and the second
    by the search that admits it, whose PointAnalysis takes that
    polynomial rather than evaluating the generic one there again."""
    from jkpencil.poisson import GenericCharPoly

    calls = []
    original = GenericCharPoly.specialise

    def specialise(gcp, x0):
        calls.append(x0)
        return original(gcp, x0)

    monkeypatch.setattr(GenericCharPoly, "specialise", specialise)
    code, out, _ = run(capsys, ["lie", "analyze", str(GOLDEN / "so3.lie.json"), "--format", "json"])
    assert code == 0
    points = json.loads(out)["ftilde"]["points"]
    assert [[str(v) for v in x0] for x0 in calls] == [p["point"] for p in points]


@pytest.mark.parametrize("stem", ["so3", "heisenberg3_rational"])
def test_each_specialisation_evaluates_the_denominator_once(stem, capsys, monkeypatch):
    """GenericCharPoly.specialise evaluates the denominator once
    at its point, at the two sampled F~_a points of so3 and at the two
    explicit rational points of heisenberg3_rational: the evaluation that
    finds it nonzero is the one the coefficients are divided by.  Over the
    whole analysis the denominator and every numerator are evaluated once
    per point: the gradients of the extended core read the same values.
    Every evaluation of a MultiPoly goes through MultiPoly.scaled_value."""
    from jkpencil.multipoly import MultiPoly
    from jkpencil.poisson import GenericCharPoly

    evaluated = []
    original_value = MultiPoly.scaled_value

    def scaled_value(self, *args):
        evaluated.append(self)
        return original_value(self, *args)

    monkeypatch.setattr(MultiPoly, "scaled_value", scaled_value)
    per_point = []
    original = GenericCharPoly.specialise

    polys = set()

    def specialise(gcp, x0):
        polys.add(gcp)
        start = len(evaluated)
        try:
            return original(gcp, x0)
        finally:
            per_point.append(sum(f is gcp.denominator for f in evaluated[start:]))

    monkeypatch.setattr(GenericCharPoly, "specialise", specialise)
    code, out, _ = run(capsys, ["lie", "analyze", str(GOLDEN / f"{stem}.lie.json"), "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / f"{stem}.report.json").read_text()
    assert per_point == [1, 1]
    [gcp] = polys
    for f in (gcp.denominator, *gcp.numerators):
        assert sum(e is f for e in evaluated) == 2


@pytest.mark.parametrize("document", sorted(GOLDEN.glob("*.lie.json")), ids=lambda p: p.name.split(".")[0])
def test_lie_analyze_analyses_each_pair_and_point_once(document, capsys, monkeypatch):
    """One RegularValueSampler per pair (x, a) the semi-invariant
    certificate reads and per F~_a point, one per pencil: the generic
    invariants (--samples 3), the sampled frozen point and, when a is
    sampled and no point is given, the first F~_a point are read from the
    pairs that certify p_g, so they analyse no pair of their own, and the
    pencil at an F~_a point is built from the structure constants, not by
    evaluating polynomial entries."""
    import jkpencil.liealg
    import jkpencil.pencil
    import jkpencil.poisson

    modules = [jkpencil.pencil, jkpencil.poisson, jkpencil.liealg, jkpencil.cli]
    samplers = record_calls(monkeypatch, "RegularValueSampler", modules)
    evaluations = record_calls(monkeypatch, "evaluate_at", modules[1:])
    read, certified = [], []
    original_certify = jkpencil.liealg._certify

    def certify(lines, *args):
        def counted():
            for line in lines:
                read.append(line[0])
                yield line

        certified.append(original_certify(counted(), *args))
        return certified[-1]

    monkeypatch.setattr(jkpencil.liealg, "_certify", certify)
    code, out, _ = run(capsys, ["lie", "analyze", str(document), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["generic_invariants"]["samples"] == 3
    assert len(report["ftilde"]["points"]) == 2
    assert len(certified) == 1 and len(certified[0]) == 3
    assert len(read) == len(set(read)) >= 3
    reused = report["frozen_point"]["sampled"] and "points" not in json.loads(document.read_text())
    assert len(samplers) == len(read) + 2 - reused
    assert evaluations == []


def test_lie_analyze_ranks_only_a_given_frozen_point(capsys, monkeypatch):
    """A sampled a is the a of a pair that certified p_g, whose rank the
    certificate already read, so liealg ranks A(a) only when the document
    gives a."""
    import jkpencil.liealg

    g = get_algebra("heisenberg3")
    for stem, expected in (("heisenberg3", []), ("heisenberg3_frozen", [[0, 0, 1]])):
        rank_calls = record_calls(monkeypatch, "rank", [jkpencil.liealg])
        document = GOLDEN / f"{stem}.lie.json"
        code, out, _ = run(capsys, ["lie", "analyze", str(document), "--format", "json"])
        assert code == 0
        assert out == (GOLDEN / f"{stem}.report.json").read_text()
        assert rank_calls == [(g.frozen_matrix(a),) for a in expected], stem
        monkeypatch.undo()


def _patch_lie_char_poly(monkeypatch, change):
    """Makes ftilde_completeness search with change(gcp) for the pencil's
    generic characteristic polynomial gcp."""
    import dataclasses

    import jkpencil.liealg

    original = jkpencil.liealg._lie_char_poly

    def changed(*args):
        gcp = original(*args)
        return dataclasses.replace(gcp, **change(gcp))

    monkeypatch.setattr(jkpencil.liealg, "_lie_char_poly", changed)


def _given_a_document(tmp_path) -> Path:
    """heisenberg3_frozen.lie.json without its evaluation points: its
    given a runs both F~_a searches, as no certified pair shares it."""
    doc = json.loads((GOLDEN / "heisenberg3_frozen.lie.json").read_text())
    del doc["points"]
    document = tmp_path / "heisenberg3_given_a.lie.json"
    document.write_text(json.dumps(doc))
    return document


def test_lie_analyze_exits_2_on_the_tenth_degree_jump(capsys, monkeypatch, tmp_path):
    _patch_lie_char_poly(
        monkeypatch, lambda gcp: {"degree": gcp.degree - 1, "numerators": gcp.numerators[1:]}
    )
    code, out, err = run(capsys, ["lie", "analyze", str(_given_a_document(tmp_path))])
    assert (code, out) == (2, "")
    assert err.startswith("error: pointwise degree 1 exceeds generic degree 0 at ")


def test_lie_analyze_exits_3_when_no_generic_point_is_found(capsys, monkeypatch, tmp_path):
    _patch_lie_char_poly(monkeypatch, lambda gcp: {"rank": gcp.rank + 2})
    code, out, err = run(capsys, ["lie", "analyze", str(_given_a_document(tmp_path))])
    assert (code, out) == (3, "")
    assert err == "internal consistency failure: found 0 of 1 generic points in 80 draws\n"


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda gcp: {"rank": gcp.rank + 2}, "rank 2 at the point differs from generic rank 4"),
        (
            lambda gcp: {"degree": gcp.degree - 1, "numerators": gcp.numerators[1:]},
            "char degree 1 at the point exceeds generic 0",
        ),
    ],
    ids=["rank", "degree"],
)
def test_lie_analyze_exits_3_when_the_first_certified_pair_is_not_generic(change, reason, capsys, monkeypatch):
    """With a sampled a, the first F~_a point is the x of the first pair
    that certified p_g against monic(p_g(x - lambda*a)).  If it is not
    generic for the polynomial read off the same p_g, the two routes
    disagree: exit 3 before any search runs, not exit 2."""
    import jkpencil.liealg
    import jkpencil.poisson

    _patch_lie_char_poly(monkeypatch, change)
    searches = record_calls(monkeypatch, "_sample_generic", [jkpencil.poisson, jkpencil.liealg])
    code, out, err = run(capsys, ["lie", "analyze", str(GOLDEN / "heisenberg3.lie.json")])
    assert (code, out) == (3, "")
    assert err == f"internal consistency failure: the first certified pair is not generic at a = a1: {reason}\n"
    assert searches == []


def test_sampled_ftilde_is_the_same_for_every_samples_count(capsys):
    """The first F~_a point is the x of the first certified pair, which a
    larger --samples does not change (the certificate keeps the pairs in
    stream order), and the second comes from a search of its own, so the
    F~_a section and the certificates read at its points are the same for
    --samples 1, 3 and 10."""
    for stem in ("heisenberg3", "so3", "aff1_abelian2"):
        sections = set()
        for samples in (1, 3, 10):
            argv = ["lie", "analyze", str(GOLDEN / f"{stem}.lie.json"), "--format", "json", "--samples", str(samples)]
            code, out, _ = run(capsys, argv)
            assert code == 0
            report = json.loads(out)
            keys = ("ftilde", "involution_certificates", "eigenvalue_lemma", "frozen_point")
            sections.add(json.dumps([report[k] for k in keys], sort_keys=True))
        assert len(sections) == 1, stem


def test_given_a_and_explicit_point_reports_keep_their_goldens(capsys, monkeypatch):
    """Only a sampled a with sampled F~_a points reads its first point off
    the certified pairs: heisenberg3_frozen (given a, explicit points) and
    heisenberg3_rational (rational a and points) do not, and their reports
    are byte-identical to their goldens."""
    import jkpencil.liealg

    for stem in ("heisenberg3_frozen", "heisenberg3_rational"):
        reused = record_calls(monkeypatch, "_certified_point", [jkpencil.liealg])
        code, out, _ = run(capsys, ["lie", "analyze", str(GOLDEN / f"{stem}.lie.json"), "--format", "json"])
        assert code == 0
        assert out == (GOLDEN / f"{stem}.report.json").read_text(), stem
        assert reused == [], stem
        monkeypatch.undo()


def test_analyze_factors_each_pencil_analysis_once(capsys, monkeypatch):
    """The characteristic polynomial, its squarefree parts and its rational
    roots are read from the Jordan groups: neither `pencil analyze` nor
    `lie analyze` runs squarefree_decompose or rational_roots, and each
    pencil, which builds one RegularValueSampler, refines its Smith
    factors at most once."""
    import jkpencil.liealg
    import jkpencil.pencil
    import jkpencil.poisson
    import jkpencil.unipoly

    modules = [jkpencil.unipoly, jkpencil.pencil, jkpencil.poisson, jkpencil.liealg, jkpencil.cli]
    for document in (GOLDEN / "kronecker_jordan.pencil.json", GOLDEN / "heisenberg3.lie.json"):
        squarefree_calls = record_calls(monkeypatch, "squarefree_decompose", modules)
        root_calls = record_calls(monkeypatch, "rational_roots", modules)
        refined_calls = record_calls(monkeypatch, "refined_factors", modules)
        samplers = record_calls(monkeypatch, "RegularValueSampler", modules[1:])
        kind = document.name.split(".")[1]
        code, out, _ = run(capsys, [kind, "analyze", str(document), "--format", "json"])
        assert code == 0
        assert out == (GOLDEN / document.name.replace(f".{kind}.", ".report.")).read_text()
        assert squarefree_calls == [] and root_calls == [], document.name
        assert samplers and len(refined_calls) <= len(samplers), document.name
        monkeypatch.undo()


def test_analyze_reads_each_pencil_through_the_public_functions(capsys, monkeypatch):
    """Both commands read a pencil's invariants and characteristic
    polynomial through jk_invariants and characteristic_polynomial: one
    `pencil analyze` calls each once, and one `lie analyze` reads the
    invariants of the three certified pairs and of each F~_a point, and
    the characteristic polynomial of every pencil it ranks as generic."""
    import jkpencil.liealg
    import jkpencil.pencil
    import jkpencil.poisson

    modules = [jkpencil.pencil, jkpencil.poisson, jkpencil.liealg, jkpencil.cli]
    documents = sorted(GOLDEN.glob("*.pencil.json")) + sorted(GOLDEN.glob("*.lie.json"))
    for document in documents:
        invariants = record_calls(monkeypatch, "jk_invariants", modules)
        char_polys = record_calls(monkeypatch, "characteristic_polynomial", modules)
        kind = document.name.split(".")[1]
        code, out, _ = run(capsys, [kind, "analyze", str(document), "--format", "json"])
        assert code == 0
        assert out == (GOLDEN / document.name.replace(f".{kind}.", ".report.")).read_text()
        if kind == "pencil":
            assert len(invariants) == len(char_polys) == 1, document.name
        else:
            points = json.loads(out)["ftilde"]["points"]
            assert len(invariants) == 3 + len(points), document.name
            assert len(char_polys) >= 3 + len(points), document.name
        monkeypatch.undo()


def test_core_growing_after_stabilization_exits_3(capsys, monkeypatch):
    """RegularValueSampler.core() checks the second stabilization: when the
    kernel of the (D + 2)-th regular value adds a vector to the kernel sum,
    pencil_report raises InternalConsistencyError and `pencil analyze`
    exits 3."""
    from jkpencil.errors import InternalConsistencyError
    from jkpencil.linalg import Subspace, subspace_sum
    from jkpencil.pencil import RegularValueSampler

    document = GOLDEN / "kronecker_jordan.pencil.json"
    raw = document.read_bytes()
    pencil = cli.load_pencil_document(json.loads(raw))
    n, d, core = pencil.n, len(pencil._sampler.growth), pencil._sampler.core()
    extra = next(e for e in ([int(i == j) for j in range(n)] for i in range(n)) if not core.contains(e))
    original = RegularValueSampler.regular

    def regular(self, t):
        mu, kernel = original(self, t)
        if t == d + 1:
            kernel = subspace_sum(kernel, Subspace.from_vectors(n, [extra]))
        return mu, kernel

    monkeypatch.setattr(RegularValueSampler, "regular", regular)
    with pytest.raises(InternalConsistencyError, match="core dimension"):
        cli.pencil_report(raw)
    code, out, err = run(capsys, ["pencil", "analyze", str(document)])
    assert code == 3 and out == ""
    assert "core dimension" in err


def test_pencil_analyze_builds_one_skew_pencil(capsys, monkeypatch):
    """The reversed pencil B - mu*A of a pencil with infinite Jordan blocks
    is read off the integer scaling of the document's pencil; no second
    SkewPencil (and no second skew check) is built for it."""
    from jkpencil.pencil import SkewPencil

    built = []
    original = SkewPencil.__init__

    def init(self, a, b):
        built.append(self)
        original(self, a, b)

    monkeypatch.setattr(SkewPencil, "__init__", init)
    code, out, _ = run(
        capsys, ["pencil", "analyze", str(GOLDEN / "infinite_jordan.pencil.json"), "--format", "json"]
    )
    assert code == 0
    assert any(group["descriptor"] == "INFINITY" for group in json.loads(out)["jk_invariants"]["jordan"])
    assert len(built) == 1


def test_lie_analyze_computes_each_lie_quantity_once(capsys, monkeypatch):
    """One Jacobi check (on the structure constants, not on the Poisson
    matrices), one generic rank of the Lie-Poisson matrix and one Pfaffian
    gcd, for the fundamental semi-invariant, per analysis; the generic
    characteristic polynomial is read off the semi-invariant, so neither
    generic_char_poly nor the pencil's generic rank runs."""
    import jkpencil.liealg
    import jkpencil.linalg
    import jkpencil.multipoly
    import jkpencil.pencil
    import jkpencil.poisson
    from jkpencil.structure import get_algebra

    modules = [jkpencil.poisson, jkpencil.liealg]
    jacobi_calls = record_calls(monkeypatch, "jacobi_check", modules)
    compatibility_calls = record_calls(monkeypatch, "compatibility_check", modules)
    gcp_calls = record_calls(monkeypatch, "generic_char_poly", modules)
    gcd_calls = record_calls(monkeypatch, "multi_gcd_list", [jkpencil.multipoly, *modules])
    rank_calls = record_calls(
        monkeypatch, "fraction_free_rank", [jkpencil.linalg, jkpencil.liealg, jkpencil.pencil, jkpencil.poisson]
    )
    generic_rank_calls = []
    original_generic_rank = jkpencil.poisson.PolyPoissonPencil.generic_rank

    def generic_rank(self):
        generic_rank_calls.append(self)
        return original_generic_rank(self)

    monkeypatch.setattr(jkpencil.poisson.PolyPoissonPencil, "generic_rank", generic_rank)
    code, _, _ = run(capsys, ["lie", "analyze", str(GOLDEN / "heisenberg3.lie.json"), "--format", "json"])
    assert code == 0
    assert len(jacobi_calls) == 0
    assert len(compatibility_calls) == 0
    assert len(gcp_calls) == 0
    assert len(generic_rank_calls) == 0
    assert len(gcd_calls) == 1
    lie_poisson = get_algebra("heisenberg3").poisson_matrix()
    assert sum(args[0] == lie_poisson for args in rank_calls) == 1


def test_lie_analyze_samples_below_one_exit_2(capsys):
    for samples in ("0", "-3"):
        code, out, err = run(
            capsys, ["lie", "analyze", str(GOLDEN / "aff1.lie.json"), "--samples", samples]
        )
        assert code == 2, samples
        assert out == ""
        assert f"samples must be at least 1, got {samples}" in err


def test_lie_analyze_samples_up_to_the_cap(capsys):
    """--samples is capped at cli.MAX_LIE_SAMPLES: the cap is analysed like
    any count, with the golden's first certified pair, and one more exits 2
    before any pair is drawn, so a huge count cannot hang the command."""
    document = str(GOLDEN / "aff1.lie.json")
    cap = cli.MAX_LIE_SAMPLES
    code, out, err = run(capsys, ["lie", "analyze", document, "--samples", str(cap), "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["samples"] == report["generic_invariants"]["samples"] == cap
    golden = json.loads((GOLDEN / "aff1.report.json").read_text())
    report["samples"] = report["generic_invariants"]["samples"] = golden["samples"]
    assert report == golden
    code, out, err = run(capsys, ["lie", "analyze", document, "--samples", str(cap + 1)])
    assert (code, out) == (2, "")
    assert err == f"error: samples: {cap + 1} exceeds the limit of {cap}\n"


def test_lie_analyze_samples_from_one_to_a_hundred(capsys):
    """--samples 1 compares one certified pair and --samples 100 a hundred:
    the certificate's draw budget grows with the pairs it is asked for (80
    per three), so neither exits 3.  The first certified pair, the
    representative and the frozen point, does not depend on --samples, so
    the report differs from the golden in its two samples fields alone."""
    document = GOLDEN / "aff1.lie.json"
    golden = json.loads((GOLDEN / "aff1.report.json").read_text())
    for samples in (1, 100):
        code, out, err = run(
            capsys, ["lie", "analyze", str(document), "--samples", str(samples), "--format", "json"]
        )
        assert (code, err) == (0, ""), samples
        report = json.loads(out)
        assert report["samples"] == report["generic_invariants"]["samples"] == samples
        assert report["generic_invariants"]["stable"]
        report["samples"] = report["generic_invariants"]["samples"] = golden["samples"]
        assert report == golden, samples


def test_lie_analyze_heisenberg3_seed_2_represents_a_generic_pair(capsys):
    """At --seed 2 the first raw pair of heisenberg3 of full pencil rank has
    rank A(a) below the generic rank, so it has an infinite Jordan block;
    the generic invariants are read from certified pairs only, where the
    eigenvalue is finite."""
    code, out, _ = run(
        capsys, ["lie", "analyze", str(GOLDEN / "heisenberg3.lie.json"), "--seed", "2", "--format", "json"]
    )
    assert code == 0
    generic = json.loads(out)["generic_invariants"]
    assert generic["stable"] and generic["max_rank"] == 2
    [group] = generic["invariants"]["jordan"]
    assert group["descriptor"] != "INFINITY" and group["half_sizes"] == [1]


def test_lie_analyze_so3_seed_451812_is_stable(tmp_path, capsys):
    """At --seed 451812 a raw pair of so3 of full pencil rank is not generic
    and splits the Kronecker block; the certified pairs agree, so F_a is
    COMPLETE, not INDETERMINATE."""
    document = tmp_path / "so3.lie.json"
    document.write_text(json.dumps(cli.lie_document(get_algebra("so3"))))
    code, out, _ = run(capsys, ["lie", "analyze", str(document), "--seed", "451812", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["generic_invariants"]["stable"]
    assert report["generic_invariants"]["invariants"]["kronecker"] == [2]
    assert report["fa"]["verdict"] == "COMPLETE"
