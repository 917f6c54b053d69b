"""Reports compared byte for byte with frozen JSON.

Each document `tests/golden/<name>.<kind>.json` is analysed with
`jkpencil <kind> analyze --format json` at the default seed, and stdout
must equal `tests/golden/<name>.report.json` exactly; so must the JSON of
`cli.pencil_report` or `cli.lie_report` on the document's bytes.  The
pencils cover a pure Jordan pencil, a scrambled Kronecker+Jordan pencil,
a corank-2 pencil with two eigenvalues, the zero pencil and a pencil with
infinite Jordan blocks (read from the reversed pencil); the Lie documents
are catalog algebras.  To refresh after an intended report change, rerun the
command on each document and review the diff:

    for doc in tests/golden/*.json; do
      case $doc in *.report.json) continue;; esac
      stem=${doc%%.*}; kind=$(basename "$doc" | cut -d. -f2)
      PYTHONPATH=src python -m jkpencil.cli "$kind" analyze "$doc" --format json > "$stem.report.json"
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
    for stem in ("pure_jordan", "kronecker_jordan", "corank2_two_eigenvalues", "zero", "infinite_jordan"):
        assert f"{stem}.pencil.json" in names
    for stem in ("heisenberg3", "aff1", "aff1_abelian2", "abelian3", "so3"):
        assert f"{stem}.lie.json" in names


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
