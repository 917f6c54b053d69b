"""Correctness gate: checks one JSON report against the ground truth of its case.

Each check returns a list of problems; an empty list means the report is
right.  Any problem makes the analysis count as failed.
"""

from __future__ import annotations

from fractions import Fraction

VARIABLE = "lambda"


def parse_linear_descriptor(text: str):
    """Root of a monic linear descriptor such as 'lambda - 2' or 'lambda + 1/2';
    None for 'INFINITY'.  Raises ValueError for anything else."""
    if text == "INFINITY":
        return None
    if text == VARIABLE:
        return Fraction(0)
    head, sign, tail = text.partition(" ")
    if head != VARIABLE or not tail or tail[0] not in "+-" or tail[1:2] != " ":
        raise ValueError(f"not a monic linear descriptor: {text!r}")
    value = Fraction(tail[2:])
    return value if tail[0] == "-" else -value


def expected_char_poly(jordan: dict) -> list[Fraction]:
    """Coefficients, lowest degree first, of prod (lambda - e)^(sum of
    half-sizes) over the finite eigenvalues e."""
    coeffs = [Fraction(1)]
    for eig, halves in jordan.items():
        if eig is None:
            continue
        for _ in range(sum(halves)):
            shifted = [Fraction(0)] + coeffs
            coeffs = [s - eig * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
    return coeffs


def check_pencil(report: dict, expect: dict) -> list[str]:
    problems = []
    n = expect["dimension"]
    kron = expect["kronecker"]
    inv = report["jk_invariants"]
    if report["dimension"] != n:
        problems.append(f"dimension {report['dimension']} != {n}")
    if report["pencil_rank"] != n - len(kron):
        problems.append(f"pencil rank {report['pencil_rank']} != {n - len(kron)}")
    if sorted(inv["kronecker"]) != kron:
        problems.append(f"kronecker {inv['kronecker']} != {kron}")
    try:
        jordan = {parse_linear_descriptor(g["descriptor"]): sorted(g["half_sizes"]) for g in inv["jordan"]}
    except ValueError as exc:
        problems.append(str(exc))
    else:
        if len(jordan) != len(inv["jordan"]) or jordan != expect["jordan"]:
            problems.append(f"jordan groups {inv['jordan']} != {expect['jordan']}")
    if report["core"]["dimension"] != expect["core_dimension"]:
        problems.append(f"core dimension {report['core']['dimension']} != {expect['core_dimension']}")
    char = report["char_poly"]
    if char["status"] == "ok":
        got = [Fraction(c) for c in char["coefficients"]]
        if got != expected_char_poly(expect["jordan"]):
            problems.append(f"characteristic polynomial {char['polynomial']} is wrong")
    elif None not in expect["jordan"]:
        problems.append(f"char_poly status {char['status']} without infinite eigenvalues")
    if not report["isotropy_certificate"]["passed"]:
        problems.append("isotropy certificate failed")
    return problems


def check_lie(report: dict, expect: dict) -> list[str]:
    problems = []
    if report["algebra"]["dimension"] != expect["dimension"]:
        problems.append(f"dimension {report['algebra']['dimension']} != {expect['dimension']}")
    if report["fa"]["verdict"] != expect["fa"]:
        problems.append(f"F_a verdict {report['fa']['verdict']} != {expect['fa']}")
    if report["ftilde"]["verdict"] != expect["ftilde"]:
        problems.append(f"F~_a verdict {report['ftilde']['verdict']} != {expect['ftilde']}")
    if not report["generic_invariants"]["stable"]:
        problems.append("generic invariants unstable")
    certs = report["involution_certificates"]
    if not certs or not all(c["passed"] for c in certs):
        problems.append("involution certificate missing or failed")
    if any(ev["status"] == "FAIL" for ev in report["eigenvalue_lemma"]):
        problems.append("eigenvalue lemma check FAIL")
    return problems


CHECKS = {"pencil": check_pencil, "lie": check_lie}
