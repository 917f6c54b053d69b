"""Reports compared byte for byte with frozen JSON and text.

Each document `tests/golden/<name>.<kind>.json` is analysed with
`jkpencil <kind> analyze --format json` at the default seed, and stdout
must equal `tests/golden/<name>.report.json` exactly; so must the JSON of
`cli.pencil_report` or `cli.lie_report` on the document's bytes.  The
default text format must equal `tests/golden/<name>.report.txt`.  The
pencils cover a pure Jordan pencil, a scrambled Kronecker+Jordan pencil,
a corank-2 pencil with two eigenvalues, the zero pencil, a pencil with
infinite Jordan blocks (read from the reversed pencil) and a scrambled
pencil with a Kronecker block of parameter 2, a companion block of
x^2 - 2, the eigenvalue 3 and an infinite block (its Smith forms run on
the restriction to the mantle modulo the core); the Lie documents
are catalog algebras, one of them (heisenberg3_frozen) with a given
frozen point and evaluation points, and heisenberg3_rational, whose
structure constant, frozen point and evaluation points are rationals.
To refresh after an intended report change, rerun the command in both
formats on each document and review the diff:

    for doc in tests/golden/*.json; do
      case $doc in *.report.json) continue;; esac
      stem=${doc%%.*}; kind=$(basename "$doc" | cut -d. -f2)
      PYTHONPATH=src python -m jkpencil.cli "$kind" analyze "$doc" --format json > "$stem.report.json"
      PYTHONPATH=src python -m jkpencil.cli "$kind" analyze "$doc" > "$stem.report.txt"
    done
    git diff tests/golden
"""

import json
from pathlib import Path

import pytest

from jkpencil import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DOCUMENTS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".report.json"))


def test_golden_set_is_complete():
    names = {p.name for p in DOCUMENTS}
    for stem in (
        "pure_jordan",
        "kronecker_jordan",
        "corank2_two_eigenvalues",
        "zero",
        "infinite_jordan",
        "kronecker_companion",
    ):
        assert f"{stem}.pencil.json" in names
    for stem in (
        "heisenberg3",
        "heisenberg3_frozen",
        "heisenberg3_rational",
        "aff1",
        "aff1_abelian2",
        "abelian3",
        "so3",
    ):
        assert f"{stem}.lie.json" in names
    for document in DOCUMENTS:
        stem = document.name.split(".")[0]
        assert (GOLDEN / f"{stem}.report.json").is_file() and (GOLDEN / f"{stem}.report.txt").is_file(), stem


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name.rsplit(".", 1)[0])
def test_report_matches_golden(document, capsys):
    stem, kind = document.name.split(".")[:2]
    golden = (GOLDEN / f"{stem}.report.json").read_text()
    code = cli.main([kind, "analyze", str(document), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == golden
    report = {"pencil": cli.pencil_report, "lie": cli.lie_report}[kind](document.read_bytes())
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name.rsplit(".", 1)[0])
def test_text_report_matches_golden(document, capsys):
    stem, kind = document.name.split(".")[:2]
    code = cli.main([kind, "analyze", str(document)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{stem}.report.txt").read_text()
