"""One sha256 over every report of the benchmark decks.

Builds the seed 1-3 decks of the three workloads with perfbench/workloads.py,
which it only reads, and analyses each document as the benchmark does:
`jkpencil <kind> analyze <doc> --seed <seed> --format json` on the bytes
perfbench/run.py writes for it, through cli.pencil_report and
cli.lie_report.  It prints the sha256 of all reports, in deck order, as
one line.  A change that must keep every report byte-identical keeps that
line equal to tests/golden/deck_reports.sha256:

    PYTHONPATH=src python tests/deck_digest.py | diff tests/golden/deck_reports.sha256 -

A change that alters reports on purpose rewrites that file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import DECKS  # noqa: E402

from jkpencil.cli import lie_report, pencil_report  # noqa: E402

SEEDS = (1, 2, 3)
REPORTS = {"pencil": pencil_report, "lie": lie_report}


def main() -> int:
    digest = hashlib.sha256()
    for workload, deck in DECKS.items():
        for seed in SEEDS:
            for case in deck(seed):
                raw = json.dumps(case.doc, indent=1).encode()
                report = REPORTS[case.kind](raw, case.seed)
                digest.update((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
