"""One sha256 per benchmark workload over every report of its decks.

Builds the seed 1-3 decks of the three workloads with perfbench/workloads.py,
which it only reads, and analyses each document as the benchmark does:
`jkpencil <kind> analyze <doc> --seed <seed> --format json` on the bytes
perfbench/run.py writes for it, through cli.pencil_report and
cli.lie_report.  For each workload it prints one line, the workload's
name and the sha256 of its reports in deck order.  A change that must
keep every report byte-identical keeps those lines equal to
tests/golden/deck_reports.sha256:

    PYTHONPATH=src python tests/deck_digest.py | diff tests/golden/deck_reports.sha256 -

A change that alters reports on purpose rewrites that file, and the line
of each workload whose reports it leaves alone stays as it was.
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
    for workload, deck in DECKS.items():
        digest = hashlib.sha256()
        for seed in SEEDS:
            for case in deck(seed):
                raw = json.dumps(case.doc, indent=1).encode()
                report = REPORTS[case.kind](raw, case.seed)
                digest.update((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
        print(workload, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
