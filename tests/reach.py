"""The library functions that no report reaches.

Runs what the commands run, under sys.setprofile from the import of
jkpencil on: `jkpencil <kind> analyze` on every document under
tests/golden/ in json and in text format, `jkpencil catalog` and
`jkpencil catalog <name>` for each catalog name, all through cli.main,
and the seed 1-3 decks of the benchmark's three workloads through
cli.pencil_report and cli.lie_report, as tests/deck_digest.py does
(perfbench/workloads.py is only read).  It prints each function and
method defined in src/jkpencil that none of them called, with its line
count (decorators included), then the totals:

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DECKS  # noqa: E402

SEEDS = (1, 2, 3)
PACKAGE = Path(importlib.util.find_spec("jkpencil").origin).resolve().parent


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, line count) for every def in
    the package; the first line is that of the first decorator, as in
    co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(str(path), first)] = (f"{path.stem}.{name}", child.end_lineno - first + 1)
                visit(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def run_commands() -> None:
    from jkpencil import cli  # here, so that the import runs under the profile

    reports = {"pencil": cli.pencil_report, "lie": cli.lie_report}
    for doc in sorted((ROOT / "tests" / "golden").glob("*.json")):
        if doc.name.endswith(".report.json"):
            continue
        kind = doc.name.split(".")[1]
        for fmt in ("json", "text"):
            cli.main([kind, "analyze", str(doc), "--format", fmt])
    cli.main(["catalog"])
    for name in cli.cmd_catalog(None)["algebras"]:
        cli.main(["catalog", name])
    for deck in DECKS.values():
        for seed in SEEDS:
            for case in deck(seed):
                reports[case.kind](json.dumps(case.doc, indent=1).encode(), case.seed)


def main() -> int:
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_commands()
    finally:
        sys.setprofile(None)
    reached = {(str(Path(filename).resolve()), line) for filename, line in reached}
    unreached = [entry for key, entry in sorted(defined_functions().items()) if key not in reached]
    for name, lines in unreached:
        print(f"{name}  {lines}")
    total = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    print(
        f"{len(unreached)} functions, {sum(lines for _, lines in unreached)} lines, "
        f"reached by no report, of {total} lines in src/jkpencil"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
