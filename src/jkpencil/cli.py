"""Command-line interface: pencil analyze, lie analyze, catalog.

`pencil_report` and `lie_report` map a document's bytes to its report, a
dict; both parse the bytes the same way and open with the same header
keys (`input_digest` is the SHA-256 of the bytes).  `main` parses the
arguments, reads the file, builds the report and writes it as text or
JSON.

Input documents are JSON with all rationals as integers or as strings
"-?[0-9]+" or "-?[0-9]+/[0-9]+" ("3", "-3/4"); reports are emitted as
human-readable text or as a stable JSON schema (schema_version 2) in
which rationals are always strings.
Version 2 drops the two `reparametrization` keys of version 1, which held
a parameter of the former Moebius route to infinite Jordan blocks; every
other key is unchanged.  Identical input and identical --seed produce
byte-identical JSON.  The seed drives Lie point sampling only: regular
values are taken in a fixed order, so a pencil report depends on it
through its `seed` key alone.  On the Lie path the semi-invariant
certificate reads one stream of pairs (x, a); the first `samples` pairs it
admits give the generic invariants, and the a of the first is a sampled
frozen point.

Exit codes: 0 success, 2 validation error (also 10 degree jumps in a
search for generic points), 3 internal-consistency failure (also too few
generic points among the draws of a search: 80, or 80 per three points
wanted past three).
Diagnostics go to stderr; the report alone goes to stdout.

Each command imports only the modules it runs; the imports sit in the
functions that need them.  `catalog` loads `cli`, `errors`, `rational`
and `structure` (the structure constants and the catalog).  `pencil
analyze` adds `pencil`, `linalg`, `smith` and `unipoly`, and never the
Lie and Poisson layers.  `lie analyze` loads every module.  Median wall
time of a spawned call on a 1-core VM with Python 3.11.7, when each
module was imported from source, before and after this split: `catalog`
0.143 -> 0.080 s, `pencil analyze` on the golden pencil documents
0.140-0.158 -> 0.108-0.125 s.  With bytecode: 0.115 -> 0.079 s and
0.113-0.122 -> 0.101-0.108 s.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    InfiniteEigenvalueError,
    InternalConsistencyError,
    JKPencilError,
    PairingViolationError,
    ValidationError,
)

if TYPE_CHECKING:
    from .pencil import SkewPencil
    from .structure import LieAlgebra

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 3

# Largest Lie algebra dimension a document may declare.  It bounds the
# size of a document, not the run time: the Jacobi check alone visits every
# triple i < j < k, so a 35-byte document could otherwise declare unbounded
# work, but the generic layer of a small algebra may still run for minutes
# (so(6), dimension 15, did not finish in 150 s, and so3+so3+so3 in a dense
# integer basis, dimension 9, takes 34 s on a 2-core VM).
MAX_LIE_DIMENSION = 64

# Most certified (x, a) pairs `lie analyze --samples` may ask for.  Each
# kept pair costs about 0.25 ms and 4 KB, and the search draws up to 80
# pairs per three wanted, so an unbounded count could hang the command or
# exhaust memory.  At 1,000, heisenberg3, so3 and so4 take 0.46, 0.42 and
# 0.74 s per spawned call, under 30 MiB (2-core Xeon VM, Python 3.11.7).
MAX_LIE_SAMPLES = 1000


# -- parsing ----------------------------------------------------------------


# A rational is a JSON integer, or a string "-?[0-9]+" (an int) or
# "-?[0-9]+/[0-9]+" (a Fraction).  Fraction(str) alone would also read
# "0.5", "1_0", " 3 ", "+3", non-ASCII digits and "1e10000000", which
# builds a ten-million-digit integer.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(value, where: str, *index) -> int | Fraction:
    """The rational that a JSON value or an argument holds.  An error names
    the value as `where` followed by one [k] per index, built only then:
    a document's entries are many, and few are bad."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{_location(where, index)}: boolean is not a rational")
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            why = "exponent notation is not accepted" if "e" in value.lower() else "expected an integer or p/q"
            raise ValidationError(f"{_location(where, index)}: bad rational {value!r} ({why})")
        try:
            return Fraction(value) if "/" in value else int(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{_location(where, index)}: bad rational {value!r} ({exc})") from exc
    raise ValidationError(f"{_location(where, index)}: expected integer or rational string, got {value!r}")


def _location(where: str, index) -> str:
    return where + "".join(f"[{k}]" for k in index)


def _parse_matrix(doc, key: str, n: int):
    raw = doc.get(key)
    if not isinstance(raw, list) or len(raw) != n:
        raise ValidationError(f"{key}: expected {n} rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{key}[{i}]: expected {n} entries")
        rows.append([_parse_rational(v, key, i, j) for j, v in enumerate(row)])
    return rows


def _parse_document(raw: bytes):
    """The parsed value of a JSON document's bytes.  Bytes that are not
    UTF-8 JSON within the interpreter's integer-size and nesting limits
    raise ValidationError."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"document is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise ValidationError(f"unreadable JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("unreadable JSON: nested too deeply") from exc


def _document_dimension(doc) -> int:
    """The `dimension` of a document whose root is a JSON object."""
    if not isinstance(doc, dict):
        raise ValidationError("document root must be a JSON object")
    n = doc.get("dimension")
    if type(n) is not int or n < 1:  # a JSON boolean is a Python int
        raise ValidationError("dimension: expected a positive integer")
    return n


def load_pencil_document(doc) -> SkewPencil:
    from .pencil import SkewPencil

    n = _document_dimension(doc)
    a = _parse_matrix(doc, "A", n)
    b = _parse_matrix(doc, "B", n)
    return SkewPencil(a, b)


def load_lie_document(doc) -> tuple[LieAlgebra, list | None, list | None]:
    """Returns (algebra, frozen point or None, evaluation points or None)."""
    from .structure import LieAlgebra

    n = _document_dimension(doc)
    if n > MAX_LIE_DIMENSION:
        raise ValidationError(f"dimension: {n} exceeds the limit of {MAX_LIE_DIMENSION}")
    brackets_raw = doc.get("brackets", [])
    if not isinstance(brackets_raw, list):
        raise ValidationError("brackets: expected a list")
    table: dict = {}
    for t, entry in enumerate(brackets_raw):
        where = f"brackets[{t}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        i, j = entry.get("i"), entry.get("j")
        for key, index in (("i", i), ("j", j)):
            if type(index) is not int:
                raise ValidationError(f"{where}.{key}: expected an integer index")
        if not 1 <= i < j <= n:
            raise ValidationError(f"{where}: need 1-based indices with i < j <= {n}")
        coeffs_raw = entry.get("coeffs", {})
        if not isinstance(coeffs_raw, dict):
            raise ValidationError(f"{where}.coeffs: expected an object")
        coeffs = {}
        for k_str, c in coeffs_raw.items():
            # a canonical ASCII decimal, since int() also reads "1_0" as 10,
            # " +3 " and non-ASCII digits as 3, and "03" as a second key for 3
            try:
                if not (k_str.isascii() and k_str.isdecimal()) or k_str[0] == "0":
                    raise ValueError
                k = int(k_str)
            except ValueError:
                raise ValidationError(f"{where}.coeffs: bad index {k_str!r}") from None
            if not 1 <= k <= n:
                raise ValidationError(f"{where}.coeffs: index {k} out of range")
            coeffs[k - 1] = _parse_rational(c, f"{where}.coeffs", k_str)
        if (i - 1, j - 1) in table:
            raise ValidationError(f"{where}: duplicate bracket ({i}, {j})")
        table[(i - 1, j - 1)] = coeffs
    g = LieAlgebra(n, table, name=str(doc.get("name", "")))
    a = None
    if "a" in doc:
        raw = doc["a"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ValidationError(f"a: expected {n} entries")
        a = [_parse_rational(v, "a", k) for k, v in enumerate(raw)]
    points = None
    if "points" in doc:
        raw = doc["points"]
        if not isinstance(raw, list):
            raise ValidationError("points: expected a list of points")
        if not raw:
            raise ValidationError("points: expected at least one point")
        points = []
        for t, p in enumerate(raw):
            if not isinstance(p, list) or len(p) != n:
                raise ValidationError(f"points[{t}]: expected {n} entries")
            points.append([_parse_rational(v, "points", t, k) for k, v in enumerate(p)])
    return g, a, points


def lie_document(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.table):
        coeffs = {str(k + 1): str(c) for k, c in sorted(g.table[(i, j)].items())}
        brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    return {"dimension": g.dim, "name": g.name, "brackets": brackets}


# -- serialization helpers ---------------------------------------------------


def _vec(v) -> list[str]:
    return [str(x) for x in v]


def _poly_str(p) -> str:
    return p.to_string("lambda")


def _charpoly_dict(cp) -> dict:
    return {
        "status": "ok",
        "polynomial": _poly_str(cp.poly),
        "degree": cp.degree,
        "coefficients": [str(c) for c in cp.poly.coeffs],
        "squarefree_parts": [
            {"factor": _poly_str(f), "multiplicity": m} for f, m in cp.squarefree_parts
        ],
        "rational_roots": [
            {"root": str(r), "multiplicity": m} for r, m in cp.rational_roots
        ],
    }


def _invariants_dict(inv) -> dict:
    from .pencil import INFINITY

    jordan = []
    for grp in inv.jordan:
        descriptor = "INFINITY" if grp.descriptor is INFINITY else _poly_str(grp.descriptor)
        jordan.append(
            {
                "descriptor": descriptor,
                "degree": grp.degree,
                "half_sizes": list(grp.half_sizes),
            }
        )
    return {
        "kronecker": list(inv.kronecker),
        "jordan": jordan,
        "rank": inv.rank,
        "corank": inv.corank,
        "core_dimension": inv.core_dim,
        "mantle_dimension": inv.mantle_dim,
    }


def _point_report(pa) -> tuple[dict, dict, dict]:
    """The F~_a entry, the involution certificate and the eigenvalue-lemma
    entry of one PointAnalysis; a failed involution certificate raises
    InternalConsistencyError."""
    rep = pa.completeness
    completeness = {
        "point": _vec(rep.point),
        "verdict": rep.verdict,
        "rank": rep.rank,
        "char_degree": rep.char_degree,
        "core_dimension": rep.core_dim,
        "extended_core_dimension": rep.extended_dim,
        "target_dimension": rep.target_dim,
        "jordan_blocks_2x2": rep.jordan_blocks_2x2,
        "distinct_eigenvalues": rep.distinct_eigenvalues,
        "factor_tests": [
            {"factor": _poly_str(t.factor), "multiplicity": t.multiplicity, "escapes_core": t.escapes}
            for t in rep.factor_tests
        ],
        "witnesses": list(rep.witnesses),
    }
    cert = pa.involution
    if not cert.passed:
        raise InternalConsistencyError(f"involution certificate failed at {_vec(pa.point)}: {cert.violation}")
    involution = {
        "point": _vec(cert.point),
        "family_size": cert.family_size,
        "kernel_samples": _vec(cert.kernel_samples),
        "pairings": cert.pairings,
        "passed": cert.passed,
    }
    ev = pa.eigenvalue_lemma
    checks = [
        {
            "root": str(c.root),
            "multiplicity": c.multiplicity,
            "status": c.status,
            "gradient": None if c.gradient is None else _vec(c.gradient),
        }
        for c in ev.checks
    ]
    return completeness, involution, {"point": _vec(ev.point), "status": ev.status, "checks": checks}


def _header(command: str, raw: bytes, seed: int) -> dict:
    """The keys every report opens with; `raw` is the document's bytes."""
    return {
        "schema_version": 2,
        "tool": "jkpencil",
        "version": __version__,
        "command": command,
        "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "conventions": {
            "eigenvalues": "roots of the characteristic polynomial of A - lambda*B",
            "degenerate_members": "A + lambda*B drops rank exactly at lambda = -(root)",
        },
    }


# -- pencil analyze ----------------------------------------------------------


def pencil_report(raw: bytes, seed: int = DEFAULT_SEED) -> dict:
    """The `pencil analyze` report of a pencil document's bytes."""
    from .pencil import characteristic_polynomial, jk_invariants

    pencil = load_pencil_document(_parse_document(raw))
    sampler = pencil._sampler
    inv = jk_invariants(pencil)
    core = sampler.core()
    cert = sampler.isotropy()
    if not cert.passed:
        raise InternalConsistencyError(f"isotropy certificate failed: {cert.violation}")
    try:
        char = _charpoly_dict(characteristic_polynomial(pencil))
    except InfiniteEigenvalueError as exc:
        char = {"status": "INFINITE_EIGENVALUE", "note": str(exc)}
    return {
        **_header("pencil analyze", raw, seed),
        "dimension": pencil.n,
        "pencil_rank": sampler.r,
        "corank": pencil.n - sampler.r,
        "rank_b": sampler.rank_b,
        "char_poly": char,
        "jk_invariants": _invariants_dict(inv),
        "core": {"dimension": core.dim, "basis": [_vec(v) for v in core.basis]},
        "isotropy_certificate": {
            "family_size": cert.family_size,
            "pairings": cert.pairings,
            "passed": cert.passed,
        },
    }


def _render_pencil_text(rep: dict) -> str:
    lines = [
        f"jkpencil {rep['version']} - pencil analysis",
        f"input digest: {rep['input_digest']}",
        f"seed: {rep['seed']}",
        "",
        f"dimension: {rep['dimension']}",
        f"pencil rank: {rep['pencil_rank']} (corank {rep['corank']}, rank B = {rep['rank_b']})",
        "conventions: eigenvalues are roots of char(A - lambda*B);",
        "             A + lambda*B drops rank at lambda = -(root)",
        "",
    ]
    char = rep["char_poly"]
    if char["status"] == "ok":
        lines.append(f"characteristic polynomial: {char['polynomial']} (degree {char['degree']})")
        for part in char["squarefree_parts"]:
            lines.append(f"  squarefree part: ({part['factor']})^{part['multiplicity']}")
        for root in char["rational_roots"]:
            lines.append(f"  rational root: {root['root']} (multiplicity {root['multiplicity']})")
    else:
        lines.append(f"characteristic polynomial: {char['status']} - {char['note']}")
    inv = rep["jk_invariants"]
    lines.append("")
    lines.append(f"kronecker parameters: {inv['kronecker'] or 'none'}")
    for grp in inv["jordan"]:
        lines.append(
            f"jordan group: descriptor {grp['descriptor']} (degree {grp['degree']}), "
            f"half-sizes {grp['half_sizes']}"
        )
    if not inv["jordan"]:
        lines.append("jordan groups: none")
    lines.append(
        f"rank {inv['rank']}, corank {inv['corank']}, core dim {inv['core_dimension']}, "
        f"mantle dim {inv['mantle_dimension']}"
    )
    core = rep["core"]
    lines.append("")
    lines.append(f"core subspace: dimension {core['dimension']}")
    for row in core["basis"]:
        lines.append("  [" + ", ".join(row) + "]")
    cert = rep["isotropy_certificate"]
    lines.append(
        f"isotropy certificate: {'PASS' if cert['passed'] else 'FAIL'} "
        f"({cert['pairings']} pairings over a family of {cert['family_size']})"
    )
    return "\n".join(lines) + "\n"


# -- lie analyze -------------------------------------------------------------


def lie_report(
    raw: bytes, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES, point: list | None = None
) -> dict:
    """The `lie analyze` report of a Lie algebra document's bytes; `point`
    replaces the document's evaluation points."""
    if samples > MAX_LIE_SAMPLES:
        raise ValidationError(f"samples: {samples} exceeds the limit of {MAX_LIE_SAMPLES}")
    from .liealg import (
        fa_completeness,
        ftilde_completeness,
        fundamental_semiinvariant,
        jk_invariants_generic,
        validate_lie_algebra,
    )

    g, frozen, doc_points = load_lie_document(_parse_document(raw))
    valid = validate_lie_algebra(g)
    if not valid:
        raise ValidationError(f"Jacobi identity fails at quadruple {valid.witness}")
    report = jk_invariants_generic(g, samples=samples, seed=seed)
    semi = fundamental_semiinvariant(g, seed=seed)
    fa = fa_completeness(g, report)

    explicit = [point] if point is not None else doc_points
    ftilde = ftilde_completeness(g, frozen, seed=seed, explicit_points=explicit)

    points = [_point_report(pa) for pa in ftilde.points]

    return {
        **_header("lie analyze", raw, seed),
        "samples": samples,
        "algebra": {"name": g.name, "dimension": g.dim, "jacobi_valid": True},
        "frozen_point": {
            "a": _vec(ftilde.frozen_point),
            "regular": ftilde.frozen_regular,
            "sampled": frozen is None,
        },
        "generic_invariants": {
            "samples": report.samples,
            "stable": report.stable,
            "max_rank": report.max_rank,
            "invariants": _invariants_dict(report.representative),
            "jordan_shape": [list(s) for s in report.shape[1]],
        },
        "fundamental_semiinvariant": {
            "polynomial": str(semi),
            "total_degree": max(semi.total_degree(), 0),
        },
        "fa": {"verdict": fa},
        "ftilde": {
            "verdict": ftilde.verdict,
            "witnesses": list(ftilde.witnesses),
            "warnings": list(ftilde.warnings),
            "points": [completeness for completeness, _, _ in points],
        },
        "involution_certificates": [involution for _, involution, _ in points],
        "eigenvalue_lemma": [lemma for _, _, lemma in points],
    }


def _render_lie_text(rep: dict) -> str:
    alg = rep["algebra"]
    lines = [
        f"jkpencil {rep['version']} - Lie algebra analysis",
        f"input digest: {rep['input_digest']}",
        f"seed: {rep['seed']} (samples: {rep['samples']})",
        "",
        f"algebra: {alg['name'] or '(unnamed)'} (dimension {alg['dimension']}, Jacobi valid)",
    ]
    fp = rep["frozen_point"]
    origin = "sampled" if fp["sampled"] else "given"
    regularity = "regular" if fp["regular"] else "IRREGULAR"
    lines.append(f"frozen point a = [{', '.join(fp['a'])}] ({origin}, {regularity})")
    gi = rep["generic_invariants"]
    inv = gi["invariants"]
    lines.append("")
    lines.append(
        f"generic invariants ({gi['samples']} samples, "
        f"{'stable' if gi['stable'] else 'UNSTABLE'}, max rank {gi['max_rank']}):"
    )
    lines.append(f"  kronecker parameters: {inv['kronecker'] or 'none'}")
    if inv["jordan"]:
        lines.append(
            f"  jordan shape (half-size multisets per eigenvalue): {gi['jordan_shape']}"
        )
        for grp in inv["jordan"]:
            lines.append(
                f"  representative sample group: descriptor {grp['descriptor']} "
                f"(degree {grp['degree']}), half-sizes {grp['half_sizes']} "
                f"(eigenvalues move with the sample)"
            )
    else:
        lines.append("  jordan groups: none (Kronecker type)")
    lines.append(
        f"fundamental semi-invariant: {rep['fundamental_semiinvariant']['polynomial']}"
    )
    lines.append("")
    lines.append(f"F_a verdict: {rep['fa']['verdict']}")
    ft = rep["ftilde"]
    lines.append(f"F~_a verdict: {ft['verdict']}")
    for w in ft["warnings"]:
        lines.append(f"  warning: {w}")
    for w in ft["witnesses"]:
        lines.append(f"  witness: {w}")
    for pt in ft["points"]:
        lines.append(
            f"  point [{', '.join(pt['point'])}]: {pt['verdict']} "
            f"(dim K = {pt['core_dimension']}, dim K^ = {pt['extended_core_dimension']}, "
            f"target = {pt['target_dimension']})"
        )
    for cert in rep["involution_certificates"]:
        lines.append(
            f"involution certificate at [{', '.join(cert['point'])}]: "
            f"{'PASS' if cert['passed'] else 'FAIL'} ({cert['pairings']} pairings)"
        )
    for ev in rep["eigenvalue_lemma"]:
        lines.append(f"eigenvalue lemma at [{', '.join(ev['point'])}]: {ev['status']}")
    return "\n".join(lines) + "\n"


# -- catalog ----------------------------------------------------------------


def cmd_catalog(name: str | None) -> dict:
    from .structure import catalog_names, get_algebra

    if name is None:
        return {"algebras": catalog_names()}
    return lie_document(get_algebra(name))


def _render_catalog_text(rep: dict) -> str:
    return "\n".join(rep["algebras"]) + "\n"


# -- entry point -------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept."""
    parser = argparse.ArgumentParser(
        prog="jkpencil",
        description=(
            "Exact Jordan-Kronecker invariants and completeness analysis for "
            "skew-symmetric and Lie-Poisson pencils."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help=f"random seed for Lie point sampling (default {DEFAULT_SEED})",
        )
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )

    pencil = sub.add_parser("pencil", help="constant skew pencil commands")
    pencil_sub = pencil.add_subparsers(dest="pencil_command", required=True)
    pa = pencil_sub.add_parser("analyze", help="analyze a pencil document")
    pa.add_argument("file", help="JSON pencil document")
    add_common(pa)

    lie = sub.add_parser("lie", help="Lie algebra commands")
    lie_sub = lie.add_subparsers(dest="lie_command", required=True)
    la = lie_sub.add_parser("analyze", help="analyze a Lie algebra document")
    la.add_argument("file", help="JSON Lie algebra document")
    add_common(la)
    la.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_SAMPLES,
        help=(
            f"certified (x, a) pairs compared for the generic invariants "
            f"(default {DEFAULT_SAMPLES}, at most {MAX_LIE_SAMPLES})"
        ),
    )
    la.add_argument(
        "--point",
        type=str,
        default=None,
        help="evaluation point override: comma-separated rationals",
    )

    cat = sub.add_parser("catalog", help="print catalog algebras")
    cat.add_argument("name", nargs="?", default=None, help="algebra name")
    cat.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            report, render = cmd_catalog(args.name), _render_catalog_text
        else:
            point = None
            if args.command == "lie" and args.point is not None:
                point = [_parse_rational(tok.strip(), "--point") for tok in args.point.split(",")]
            try:
                with open(args.file, "rb") as fh:
                    raw = fh.read()
            except OSError as exc:
                raise ValidationError(str(exc)) from exc
            if args.command == "pencil":
                report, render = pencil_report(raw, args.seed), _render_pencil_text
            else:
                report, render = lie_report(raw, args.seed, args.samples, point), _render_lie_text
    except (InternalConsistencyError, PairingViolationError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except JKPencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a named catalog algebra is written as its JSON document in either format
    if args.format == "json" or args.command == "catalog" and args.name is not None:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
