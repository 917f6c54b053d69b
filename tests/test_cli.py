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
from jkpencil.liealg import direct_sum, get_algebra
from jkpencil.pencil import (
    INFINITY,
    JKInvariants,
    canonical_pencil,
    congruence_transform,
    random_unimodular,
)
from jkpencil.unipoly import UniPoly


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
    ],
    ids=["non-utf8", "malformed", "overlong-integer", "deep-nesting"],
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
    """The pencil rank is computed by the one RegularValueSampler of the
    analysis, and pencil_rank, which builds a sampler of its own, is not
    called."""
    import jkpencil.pencil

    documents = sorted(GOLDEN.glob("*.pencil.json"))
    assert len(documents) == 5
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
    from jkpencil.pencil import _member_value

    for document in sorted(GOLDEN.glob("*.pencil.json")):
        p = cli.load_pencil_document(json.loads(document.read_text()))
        modules = [jkpencil.pencil, jkpencil.cli, jkpencil.linalg]
        ranks = record_calls(monkeypatch, "rank", modules)
        kernels = record_calls(monkeypatch, "kernel_basis", modules)
        code, _, _ = run(capsys, ["pencil", "analyze", str(document), "--format", "json"])
        assert code == 0
        assert ranks == [(p._scaled[1],)], document.name
        members = [args[0] for args in kernels]
        assert members, document.name
        assert members == [p._scaled_member(_member_value(i)) for i in range(len(members))], document.name
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

    The Smith form of a point reads the integer scaling of its pencil.
    The certificate of the fundamental semi-invariant reads the analyses
    of the generic samples, so its work is counted with theirs.
    """
    import jkpencil.linalg
    import jkpencil.pencil
    import jkpencil.poisson
    import jkpencil.smith
    import jkpencil.unipoly
    from jkpencil.liealg import get_algebra, lie_pencil
    from jkpencil.pencil import _lambda_rows

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
    assert len(refined_calls) == len(smith_calls) == 9
    for x0, cert, pa in zip(points, report["involution_certificates"], certified, strict=True):
        at_point = jkpencil.poisson.evaluate_at(pencil, x0)
        assert sum(args[0] == _lambda_rows(*at_point._scaled) for args in smith_calls) == 1
        assert sum(args[0] == at_point for args in sampler_calls) == 1
        assert pa.analysis.p == at_point and pa.analysis.stream.p == at_point
        drawn = [str(mu) for mu, _ in pa.analysis.stream.drawn]
        assert cert["kernel_samples"] == drawn[: len(cert["kernel_samples"])]
    assert certificate_kernels == []


@pytest.mark.parametrize("document", sorted(GOLDEN.glob("*.lie.json")), ids=lambda p: p.name.split(".")[0])
def test_lie_analyze_analyses_each_pair_and_point_once(document, capsys, monkeypatch):
    """One _PencilAnalysis per sampled pair (x, a) and per F~_a point: the
    generic invariants, the semi-invariant certificate and the sampled
    frozen point read one stream of pairs, whose first 7 (--samples)
    certify p_g on every golden document, and the pencil at an F~_a point
    is built from the structure constants, not by evaluating polynomial
    entries."""
    import jkpencil.liealg
    import jkpencil.pencil
    import jkpencil.poisson

    modules = [jkpencil.pencil, jkpencil.poisson, jkpencil.liealg, jkpencil.cli]
    analyses = record_calls(monkeypatch, "_PencilAnalysis", modules)
    evaluations = record_calls(monkeypatch, "evaluate_at", modules[1:])
    code, out, _ = run(capsys, ["lie", "analyze", str(document), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["generic_invariants"]["samples"] == 7
    assert len(report["ftilde"]["points"]) == 2
    assert len(analyses) == 7 + 2
    assert evaluations == []


def test_lie_analyze_factors_char_polys_only_at_ftilde_points(capsys, monkeypatch):
    """The generic Jordan-Kronecker samples and the certificate points read
    only the degree and the polynomial of their characteristic polynomials;
    its squarefree parts and rational roots are computed at the F~_a points
    alone, once each."""
    import jkpencil.pencil
    import jkpencil.poisson
    import jkpencil.unipoly
    from jkpencil.liealg import get_algebra, lie_pencil
    from jkpencil.pencil import characteristic_polynomial

    modules = [jkpencil.unipoly, jkpencil.pencil]
    squarefree_calls = record_calls(monkeypatch, "squarefree_decompose", modules)
    root_calls = record_calls(monkeypatch, "rational_roots", modules)
    code, out, _ = run(capsys, ["lie", "analyze", str(GOLDEN / "heisenberg3.lie.json"), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    pencil = lie_pencil(get_algebra("heisenberg3"), report["frozen_point"]["a"]).pencil
    points = [p["point"] for p in report["ftilde"]["points"]]
    assert len(points) == 2
    expected = sorted(
        (characteristic_polynomial(jkpencil.poisson.evaluate_at(pencil, x0)).poly for x0 in points),
        key=UniPoly.sort_key,
    )
    for calls in (squarefree_calls, root_calls):
        assert sorted((args[0] for args in calls), key=UniPoly.sort_key) == expected


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
    from jkpencil.liealg import get_algebra

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
