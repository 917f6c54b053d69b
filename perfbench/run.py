"""jkpencil benchmark: exact analyses of seeded pencil and Lie-algebra documents.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pencil-mixed --seed 1 --seconds 40 --trace 0

One client in one process runs one analysis at a time (a closed loop).  Each
analysis is one JSON document fed to `jkpencil.cli.main` in-process, exactly
as `jkpencil pencil analyze FILE --format json` or `jkpencil lie analyze`
would run it, with stdout captured.  Every report is checked against the
answer the benchmark knows by construction (gate.py); a wrong answer, a
nonzero exit, an exception or an exhausted time budget fails the analysis.

--trace 0 cycles through the workload's deck for --seconds and reports the
end-to-end metrics, scaled to a reference machine speed (see reference()).  --trace 1 runs a fixed prefix of the deck once
untraced and once with the listed jkpencil functions wrapped (spans.py),
and reports per-module calls, self and total seconds and the tracing
overhead.  The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from gate import CHECKS  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DECKS, known_defects  # noqa: E402

SETUP_SPAWNS = 9
CATALOG = ["abelian3", "abelian4", "heisenberg3", "aff1", "aff1_abelian2", "so3", "sl2", "e3", "so4"]
# Deck prefix replayed by a traced run: three cycles of pencil-mixed sizes
# and of pencil-corank shapes, two cycles of the Lie algebras.  Untraced,
# each takes about 11 to 16 s on the 2-core machine where the benchmark was
# defined, so the untraced and traced passes fit in one run together.
TRACE_CASES = {"pencil-mixed": 27, "pencil-corank": 18, "lie-algebras": 32}
# The digest covers the reports of this many leading cases of the deck,
# which every run at the defining commit completes.
DIGEST_CASES = 4
# Seconds after start at which a run stops waiting for analyses, so that a
# hang cannot stall it; the process has to exit within 180 s.
RUN_BUDGET_S = 165.0
BUDGET_EXHAUSTED = "time budget exhausted"
# The shared machine the benchmark was defined on changes speed by up to 30%
# from one minute to the next, for every process alike (DESIGN.md, "Noise").
# So a fixed reference computation runs between the analyses, and each
# analysis time is scaled by REFERENCE_S over the mean of the reference
# times just before and just after it: it reads as seconds on that machine
# at its usual speed, where the reference takes REFERENCE_S.  The unscaled
# metrics are printed beside the scaled ones.  setup_s is not scaled:
# spawning interpreters slows the reference beside it unevenly, and scaling
# made its spread wider.
REFERENCE_TERMS = 2000
REFERENCE_S = 0.009


class BudgetExhausted(BaseException):
    """Raised by SIGALRM in an analysis still running when the budget ends."""


def _on_alarm(signum, frame):
    raise BudgetExhausted


class Result:
    __slots__ = ("case", "seconds", "problems", "report")

    def __init__(self, case, seconds, problems, report=None):
        self.case, self.seconds, self.problems, self.report = case, seconds, problems, report

    @property
    def timed_out(self) -> bool:
        return self.problems == [BUDGET_EXHAUSTED]


def analyze(cli, case, path: Path, deadline: float) -> Result:
    """One analysis through the CLI, checked against the case's ground truth."""
    argv = [case.kind, "analyze", str(path), "--seed", str(case.seed), "--format", "json"]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return Result(case, 0.0, [BUDGET_EXHAUSTED])
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except BudgetExhausted:
        return Result(case, time.perf_counter() - start, [BUDGET_EXHAUSTED])
    except Exception as exc:  # a crash fails this analysis, not the run
        return Result(case, time.perf_counter() - start, [f"exception {exc!r}"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    if code != 0:
        return Result(case, seconds, [f"exit code {code}: {err.getvalue().strip()}"])
    report = out.getvalue()
    try:
        problems = CHECKS[case.kind](json.loads(report), case.expect)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"malformed report: {exc!r}"]
    return Result(case, seconds, problems, report)


def reference() -> float:
    """Seconds for a fixed sum of small rationals, the kind of arithmetic
    jkpencil does.  It uses the Fraction class bound when this module was
    imported, before jkpencil, and no jkpencil code."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(REFERENCE_TERMS):
        total += Fraction(i % 13 + 1, i % 17 + 1)
    return time.perf_counter() - start


def closed_loop(cli, cases, paths, deadline: float, seconds: float):
    """Analyses back to back, cycling through the cases, with a reference()
    before the first and after each one, until `seconds` have passed.
    Returns the results and the reference times."""
    results, refs = [], [reference()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(results) % len(cases)
        results.append(analyze(cli, cases[i], paths[i], deadline))
        refs.append(reference())
        if results[-1].timed_out:
            break
    return results, refs


def one_pass(cli, cases, paths, deadline: float, tracer: Tracer | None = None):
    """Each case once, in order; returns the results and their wall time."""
    results = []
    start = time.perf_counter()
    for i, (case, path) in enumerate(zip(cases, paths)):
        if tracer is not None:
            tracer.analysis = i
        results.append(analyze(cli, case, path, deadline))
        if results[-1].timed_out:
            break
    return results, time.perf_counter() - start


def setup_seconds(deadline: float) -> tuple[float, list[str]]:
    """Median wall time of a fresh interpreter running `jkpencil catalog`:
    the import plus Jacobi validation of every bundled algebra."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, problems = [], []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "jkpencil.cli", "catalog"],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired:
            times.append(time.perf_counter() - start)
            problems.append(f"catalog: {BUDGET_EXHAUSTED}")
            break
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.split() != CATALOG:
            problems.append(f"catalog: exit {proc.returncode}, output {proc.stdout.split()}")
    return statistics.median(times), problems


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    analyses beyond it; the median when there are fewer than eleven."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def successes_per_s(results, wall: float) -> float:
    return sum(1 for r in results if not r.problems) / wall if wall > 0 else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def analysis_metrics(results, durations):
    tail_s, tail_pct = tail(durations)
    return {
        "analysis_p50_s": statistics.median(durations),
        "analysis_tail_s": tail_s,
        "analyses_per_s": successes_per_s(results, sum(durations)),
    }, tail_pct


def end_to_end(results, refs, setup_s: float):
    """The end-to-end metrics, with analysis i's time scaled by REFERENCE_S
    over the mean of refs[i] and refs[i + 1], and notes that give the
    analysis metrics unscaled."""
    durations = [r.seconds for r in results]
    scaled = [d * 2 * REFERENCE_S / (before + after) for d, before, after in zip(durations, refs, refs[1:])]
    raw, tail_pct = analysis_metrics(results, durations)
    analysis, _ = analysis_metrics(results, scaled)
    metrics = {"setup_s": metric(setup_s, "s")}
    metrics.update({name: metric(value, "1/s" if name == "analyses_per_s" else "s") for name, value in analysis.items()})
    metrics["peak_rss_mib"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    notes = [
        f"analysis_tail_s is p{tail_pct:.1f} of {len(durations)} analyses",
        f"distinct cases analysed: {len({r.case.name for r in results})}",
        f"reference median {statistics.median(refs):.6f} s (REFERENCE_S {REFERENCE_S} s)",
        "unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    return metrics, notes


def per_layer(cli, cases, paths, deadline: float, out_dir: Path):
    """An untraced, then a traced pass over the cases."""
    untraced, untraced_wall = one_pass(cli, cases, paths, deadline)
    tracer = Tracer()
    with tracer:
        traced, traced_wall = one_pass(cli, cases, paths, deadline, tracer)
    tracer.write(out_dir / "spans.jsonl")
    metrics = {}
    for name, (calls, self_s, total_s) in tracer.summary().items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
        metrics[f"{name}.total_s"] = metric(total_s, "s")
    base = successes_per_s(untraced, untraced_wall)
    ratio = successes_per_s(traced, traced_wall) / base if base else 0.0
    metrics["trace.overhead_ratio"] = metric(ratio, "ratio")
    return untraced + traced, metrics


def report_digest(results, cases) -> str:
    """sha256 over the report bytes of the first DIGEST_CASES cases."""
    first = {}
    for r in results:
        if r.report is not None:
            first.setdefault(r.case.name, r.report)
    h = hashlib.sha256()
    for case in cases[:DIGEST_CASES]:
        if case.name not in first:
            return f"incomplete: no report for {case.name}"
        h.update(first[case.name].encode())
    return "sha256:" + h.hexdigest()


def load_program():
    """jkpencil.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "jkpencil" / "cli.py").is_file():
        raise SystemExit(f"error: no jkpencil sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jkpencil.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported jkpencil from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(DECKS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    cli = load_program()

    cases = DECKS[args.workload](args.seed)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "docs").mkdir(parents=True)
    paths = []
    for case in cases:
        path = out_dir / "docs" / f"{case.name}.json"
        path.write_text(json.dumps(case.doc, indent=1))
        paths.append(path)

    # Untimed warm-up: lazy imports and first-call costs, checked like the rest.
    warmup = [analyze(cli, cases[0], paths[0], deadline)]
    if args.trace:
        setup_problems = []
        count = TRACE_CASES[args.workload]
        results, metrics = per_layer(cli, cases[:count], paths[:count], deadline, out_dir)
        notes = []
    else:
        setup_s, setup_problems = setup_seconds(deadline)
        results, refs = closed_loop(cli, cases, paths, deadline, args.seconds)
        metrics, notes = end_to_end(results, refs, setup_s)

    checked = warmup + results
    # Not part of the workload: whether each known defect still shows.
    defect_lines = []
    for name, _, case in known_defects():
        path = out_dir / "docs" / f"{case.name}.json"
        path.write_text(json.dumps(case.doc, indent=1))
        problems = analyze(cli, case, path, deadline).problems
        status = "still fails: " + "; ".join(problems) if problems else "fixed, put its inputs back into the decks"
        defect_lines.append(f"known defect {name}: {status}")
    failures = [r for r in checked if r.problems]
    reports_dir = out_dir / "reports"
    reports_dir.mkdir()
    for r in checked:
        target = reports_dir / f"{r.case.name}.json"
        if r.report is not None and not target.exists():
            target.write_text(r.report)

    with open(out_dir / "analyses.tsv", "w") as fh:
        for r in checked:
            fh.write(f"{r.case.name}\t{r.seconds:.6f}\t{'ok' if not r.problems else 'FAILED'}\n")
    failure_lines = [f"FAILED {r.case.name} (--seed {r.case.seed}): {'; '.join(r.problems)}" for r in failures]
    (out_dir / "failures.txt").write_text("".join(line + "\n" for line in failure_lines))
    for line in failure_lines[:10]:
        print(line)
    for problem in setup_problems:
        print(f"FAILED setup: {problem}")
    print(f"fail_ratio {len(failures) / len(checked):.6g} ratio ({len(failures)} of {len(checked)} analyses)")
    for name, m in metrics.items():
        if m["value"] or not args.trace:
            print(f"{name} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    for line in defect_lines:
        print(line)
    print(f"report digest ({args.workload}, seed {args.seed}): {report_digest(checked, cases)}")
    print(json.dumps({
        "correct": not failures and not setup_problems,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
