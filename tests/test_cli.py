import json
import random
from pathlib import Path

from jkpencil import cli
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
    assert rep["schema_version"] == 1
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


def test_internal_consistency_maps_to_exit_3(capsys, monkeypatch):
    from jkpencil.errors import InternalConsistencyError

    def boom(path, seed):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli, "cmd_pencil_analyze", boom)
    code, out, err = run(capsys, ["pencil", "analyze", "whatever.json"])
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
    spec = JKInvariants.from_blocks([2], [(UniPoly.linear(3), (1,))])
    path = write_pencil_doc(tmp_path / "seeds.json", canonical_pencil(spec))
    outs = []
    for seed in ("1", "2"):
        _, out, _ = run(
            capsys, ["pencil", "analyze", str(path), "--format", "json", "--seed", seed]
        )
        outs.append(json.loads(out))
    assert outs[0]["jk_invariants"]["jordan"] == outs[1]["jk_invariants"]["jordan"]
    assert outs[0]["jk_invariants"]["kronecker"] == outs[1]["jk_invariants"]["kronecker"]


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
    import jkpencil.linalg
    import jkpencil.pencil

    modules = [jkpencil.linalg, jkpencil.pencil]
    documents = sorted(GOLDEN.glob("*.pencil.json"))
    assert len(documents) == 5
    for document in documents:
        calls = record_calls(monkeypatch, "fraction_free_rank", modules)
        code, _, _ = run(capsys, ["pencil", "analyze", str(document), "--format", "json"])
        assert code == 0
        assert len(calls) == 1, document.name
        monkeypatch.undo()


def test_lie_analyze_analyses_each_evaluation_point_once(capsys, monkeypatch):
    """The pointwise char poly and Jordan data are read from one Smith
    form, and the pencil rank is computed once, per evaluation point.

    The degree certificate inside generic_char_poly draws random points
    of its own, which may hit an evaluation point; its work is not counted.
    """
    import jkpencil.liealg
    import jkpencil.linalg
    import jkpencil.pencil
    import jkpencil.poisson
    import jkpencil.smith
    from jkpencil.liealg import get_algebra, lie_pencil

    inside = []
    original_gcp = jkpencil.poisson.generic_char_poly

    def generic_char_poly(*args, **kwargs):
        inside.append(True)
        try:
            return original_gcp(*args, **kwargs)
        finally:
            inside.pop()

    for module in (jkpencil.poisson, jkpencil.liealg):
        if getattr(module, "generic_char_poly", None) is original_gcp:
            monkeypatch.setattr(module, "generic_char_poly", generic_char_poly)
    smith_calls = record_calls(
        monkeypatch, "smith_normal_form", [jkpencil.smith, jkpencil.pencil], unless=lambda: bool(inside)
    )
    rank_calls = record_calls(
        monkeypatch,
        "fraction_free_rank",
        [jkpencil.linalg, jkpencil.pencil, jkpencil.poisson],
        unless=lambda: bool(inside),
    )
    document = GOLDEN / "heisenberg3.lie.json"
    code, out, _ = run(capsys, ["lie", "analyze", str(document), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    pencil = lie_pencil(get_algebra("heisenberg3"), report["frozen_point"]["a"]).pencil
    points = [p["point"] for p in report["ftilde"]["points"]]
    assert len(points) == 2
    for x0 in points:
        at_point = jkpencil.poisson.evaluate_at(pencil, x0)
        assert sum(args[0] == at_point.lambda_matrix(sign=-1) for args in smith_calls) == 1
        assert sum(args[0] == at_point.lambda_matrix() for args in rank_calls) == 1


def test_lie_analyze_computes_each_lie_quantity_once(capsys, monkeypatch):
    """One Jacobi check (on the structure constants, not on the Poisson
    matrices), one generic rank of the Lie-Poisson matrix and one generic
    characteristic polynomial per analysis."""
    import jkpencil.liealg
    import jkpencil.linalg
    import jkpencil.pencil
    import jkpencil.poisson
    from jkpencil.liealg import get_algebra

    modules = [jkpencil.poisson, jkpencil.liealg]
    jacobi_calls = record_calls(monkeypatch, "jacobi_check", modules)
    compatibility_calls = record_calls(monkeypatch, "compatibility_check", modules)
    gcp_calls = record_calls(monkeypatch, "generic_char_poly", modules)
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
    assert len(gcp_calls) == 1
    assert len(generic_rank_calls) == 1
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
