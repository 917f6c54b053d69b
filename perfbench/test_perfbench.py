"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from gate import check_lie, check_pencil, expected_char_poly, parse_linear_descriptor  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import DECKS, Case, known_defects, lie_algebras, lie_doc, pencil_case  # noqa: E402

cli = run.load_program()


@pytest.mark.parametrize("workload", sorted(DECKS))
def test_decks_are_deterministic_per_seed_and_differ_across_seeds(workload):
    first, again, other = DECKS[workload](3), DECKS[workload](3), DECKS[workload](4)
    assert first == again
    assert [c.doc for c in first] != [c.doc for c in other] or [c.seed for c in first] != [c.seed for c in other]


def test_lie_table_direct_sums_follow_their_summands():
    table = {g["name"]: g for g in lie_algebras()}
    assert (table["e3+aff1"]["fa"], table["e3+aff1"]["ftilde"]) == ("INCOMPLETE", "COMPLETE")
    assert table["e3+heisenberg3"]["ftilde"] == "INCOMPLETE"
    assert table["so3+so3+so3"]["fa"] == "COMPLETE"
    assert table["heisenberg9"]["dim"] == 9


def test_descriptor_parsing_and_char_poly():
    assert parse_linear_descriptor("lambda") == 0
    assert parse_linear_descriptor("lambda - 2") == 2
    assert parse_linear_descriptor("lambda + 1/2") == Fraction(-1, 2)
    assert parse_linear_descriptor("INFINITY") is None
    with pytest.raises(ValueError):
        parse_linear_descriptor("lambda^2 + 1")
    # (lambda - 2)^2 (lambda + 1) = lambda^3 - 3 lambda^2 + 4
    assert expected_char_poly({Fraction(2): [1, 1], Fraction(-1): [1], None: [2]}) == [4, 0, -3, 1]


def _report(case: Case, tmp_path: Path) -> dict:
    path = tmp_path / f"{case.name}.json"
    path.write_text(json.dumps(case.doc))
    result = run.analyze(cli, case, path, time.monotonic() + 60)
    assert result.problems == []
    return json.loads(result.report)


@pytest.fixture(scope="module")
def pencil_report(tmp_path_factory):
    case = pencil_case("small", [1, 2], {Fraction(2): [1, 1], Fraction(-1): [1]}, random.Random(5))
    return case, _report(case, tmp_path_factory.mktemp("pencil"))


@pytest.fixture(scope="module")
def lie_report(tmp_path_factory):
    g = {a["name"]: a for a in lie_algebras()}["aff1"]
    case = Case("aff1", "lie", lie_doc(g), 7, {"dimension": 2, "fa": g["fa"], "ftilde": g["ftilde"]})
    return case, _report(case, tmp_path_factory.mktemp("lie"))


def test_correct_reports_pass(pencil_report, lie_report):
    assert check_pencil(pencil_report[1], pencil_report[0].expect) == []
    assert check_lie(lie_report[1], lie_report[0].expect) == []


def test_dropped_jordan_block_fails(pencil_report):
    case, report = pencil_report
    bad = copy.deepcopy(report)
    group = next(g for g in bad["jk_invariants"]["jordan"] if len(g["half_sizes"]) > 1)
    group["half_sizes"].pop()
    assert check_pencil(bad, case.expect)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["jk_invariants"]["kronecker"].append(1),
        lambda r: r["core"].update(dimension=r["core"]["dimension"] + 1),
        lambda r: r["char_poly"]["coefficients"].__setitem__(0, "12345"),
        lambda r: r["isotropy_certificate"].update(passed=False),
        lambda r: r["jk_invariants"]["jordan"][0].update(descriptor="lambda - 99"),
    ],
)
def test_corrupted_pencil_report_fails(pencil_report, corrupt):
    case, report = pencil_report
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert check_pencil(bad, case.expect)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["fa"].update(verdict="COMPLETE"),
        lambda r: r["ftilde"].update(verdict="INCOMPLETE"),
        lambda r: r["generic_invariants"].update(stable=False),
        lambda r: r["involution_certificates"][0].update(passed=False),
        lambda r: r["eigenvalue_lemma"][0].update(status="FAIL"),
    ],
)
def test_corrupted_lie_report_fails(lie_report, corrupt):
    case, report = lie_report
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert check_lie(bad, case.expect)


def test_wrong_answer_counts_as_failed_analysis(tmp_path, pencil_report):
    case, _ = pencil_report
    wrong = Case(case.name, case.kind, case.doc, case.seed, dict(case.expect, kronecker=[1, 1]))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case.doc))
    assert run.analyze(cli, wrong, path, time.monotonic() + 60).problems


def test_exhausted_budget_fails_the_analysis(tmp_path):
    case = DECKS["pencil-corank"](1)[0]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case.doc))
    result = run.analyze(cli, case, path, time.monotonic() + 0.05)
    assert result.timed_out


def wrapped_leftovers() -> list[str]:
    """Names in loaded jkpencil modules (or their classes) still bound to a wrapper."""
    found = []
    for key, mod in list(sys.modules.items()):
        if key != "jkpencil" and not key.startswith("jkpencil."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, "__perfbench_original__"):
                        found.append(f"{key}.{attr}.{meth}")
    return found


def test_traced_run_restores_every_function(tmp_path, pencil_report):
    case, _ = pencil_report
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case.doc))
    originals = {name: getattr(sys.modules["jkpencil.pencil"], name) for name in ("pencil_rank", "jk_invariants")}
    tracer = Tracer()
    with tracer:
        assert wrapped_leftovers()
        assert run.analyze(cli, case, path, time.monotonic() + 60).problems == []
    assert wrapped_leftovers() == []
    for name, fn in originals.items():
        assert getattr(sys.modules["jkpencil.pencil"], name) is fn
        assert getattr(sys.modules["jkpencil"], name) is fn
    summary = tracer.summary()
    assert set(summary) == set(SPAN_NAMES)
    calls, self_s, total_s = summary["cli.main"]
    assert calls == 1 and 0 <= self_s <= total_s
    assert summary["pencil.pencil_rank"][0] == 5
    assert summary["multipoly.multi_gcd"] == (0, 0.0, 0.0)


# Wrong answers the gate catches at the commit that defined the benchmark.
# Each test passes once the program is fixed; then drop its xfail marker
# and put the inputs it stands for back into the decks.
KNOWN_DEFECTS = [
    pytest.param(case, marks=pytest.mark.xfail(strict=True, reason=reason), id=name)
    for name, reason, case in known_defects()
]


def test_pencil_mixed_has_no_infinite_eigenvalues():
    assert all(None not in case.expect["jordan"] for case in DECKS["pencil-mixed"](5))


@pytest.mark.parametrize("case", KNOWN_DEFECTS)
def test_known_defect(tmp_path, case):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case.doc))
    assert run.analyze(cli, case, path, time.monotonic() + 60).problems == []


def test_analysis_times_are_scaled_to_the_reference_speed():
    case = DECKS["lie-algebras"](1)[0]
    results = [run.Result(case, seconds, []) for seconds in (1.0, 2.0, 3.0)]
    usual, _ = run.end_to_end(results, [run.REFERENCE_S] * 4, 0.5)
    slow, _ = run.end_to_end(results, [2 * run.REFERENCE_S] * 4, 0.5)
    assert usual["analysis_p50_s"]["value"] == 2.0 and usual["analyses_per_s"]["value"] == 0.5
    assert slow["analysis_p50_s"]["value"] == 1.0 and slow["analyses_per_s"]["value"] == 1.0
    assert slow["setup_s"]["value"] == 0.5
    # Each analysis is scaled by the references just before and after it.
    r = run.REFERENCE_S
    local, _ = run.end_to_end(results, [r, 3 * r, r, r], 0.5)
    assert local["analysis_p50_s"]["value"] == 1.0 and local["analyses_per_s"]["value"] == 3 / 4.5
