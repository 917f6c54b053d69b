"""Lie-algebra front end: Lie-Poisson pencils on the dual space.

A Lie algebra is given by structure constants c_ij^k (stored for i < j,
antisymmetry implied).  The table, its Jacobi check and the catalog live
in `structure`, which imports no analysis module.  The Lie-Poisson
matrix A(x) = (sum_k c_ij^k x_k) together with a frozen-argument matrix
A(a) forms a compatible Poisson pencil; its generic Jordan-Kronecker
invariants, the fundamental semi-invariant, and the completeness
verdicts for the argument-shift family and its extension are computed
here.

One analysis checks the Jacobi identity once, on the structure constants
(which makes the pencil compatible, since A(x) + A(a) = A(x + a); the
Poisson-matrix check is its test oracle), and
keeps the generic rank of A(x) and the fundamental semi-invariant p_g
(one Pfaffian gcd) on the algebra.  The pencil's generic characteristic
polynomial is read off p_g: A(x) - lambda*A(a) = A(x - lambda*a), so
p(lambda) = monic(p_g(x - lambda*a)), and every sampled point is checked
against it.  The semi-invariant certificate reads the stream of pairs
(x, a) of a seed, each with its pencil, and keeps the pairs it admits,
which are generic: their pencils give the generic invariants, and the
first pair (x1, a1) gives the sampled frozen point a1 and the first F~_a
point x1, on the pencil (A(x1), A(a1)) it already analysed.  The F~_a
verdict is poisson's family_completeness, the pipeline of every Poisson
pencil; this module gives it the frozen point, the pencil at a point,
built from the structure constants, the characteristic polynomial read
off p_g and, for a sampled a, the analysis at x1.  Every other F~_a
point is sampled by poisson's one search, which also certifies p_g.

The arithmetic runs on integers.  Integral structure constants are kept
as ints and sample points are drawn as ints, and frozen_matrix keeps the
point's number type, so the pencil at a sampled pair or point is an
integer pencil (D = 1) as it is built.  p_g, content-normalised, is
restricted to each line x - lambda*a as an integer coefficient list, and
the generic characteristic polynomial read off it is held in the integer
form GenericCharPoly asks for.  A rational constant, frozen point or
evaluation point takes the same functions: a rational point is an
integer vector over a common denominator, and a Fraction is built only
for an output value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .errors import InternalConsistencyError, NonGenericPointError, ValidationError
from .linalg import Matrix, Vector, _common_denominator, rank, vector
from .multipoly import MultiPoly
from .pencil import JKInvariants, SkewPencil, jk_invariants
from .poisson import (
    COMPLETE,
    INCOMPLETE,
    INDETERMINATE,
    FamilyCompleteness,
    GenericCharPoly,
    PointAnalysis,
    PolyPoissonPencil,
    _certify,
    _pfaffian_gcd,
    family_completeness,
)
# The Jacobi check that an analysis runs first: cli.lie_report calls it as
# liealg.validate_lie_algebra, the name perfbench/spans.py traces.
from .structure import LieAlgebra, validate_lie_algebra  # noqa: F401
from .unipoly import _to_unipoly

# Pairs (x, a) at which the fundamental semi-invariant is certified.  The
# generic samples are the first of them; more samples certify more pairs.
CERTIFIED_PAIRS = 3


@dataclass(frozen=True)
class LiePencilSpec:
    """Lie-Poisson plus frozen-argument pencil on the dual space."""

    algebra: LieAlgebra
    frozen_point: Vector
    pencil: PolyPoissonPencil
    frozen_regular: bool
    warnings: tuple[str, ...]


def lie_pencil(g: LieAlgebra, a: Sequence) -> LiePencilSpec:
    """Builds the pencil (A(x), A(a)) of a Lie algebra g.

    g must satisfy the Jacobi identity (validate_lie_algebra); the pencil
    is then compatible without a further check: A(x) is Lie-Poisson,
    B = A(a) is constant, and A(x) + A(a) = A(x + a) is Lie-Poisson too.
    An irregular frozen point (rank A(a) below the generic rank) is
    recorded as a warning: the analysis may proceed but the completeness
    theorems do not apply there.
    """
    a = vector(a)
    n = g.dim
    frozen = g.frozen_matrix(a)
    b_rows = [[MultiPoly.constant(n, frozen[i][j]) for j in range(n)] for i in range(n)]
    pencil = PolyPoissonPencil(g.poisson_matrix(), b_rows)
    warnings = _irregularity(g, frozen)
    return LiePencilSpec(g, a, pencil, not warnings, warnings)


def _irregularity(g: LieAlgebra, frozen: Matrix) -> tuple[str, ...]:
    """The IRREGULAR_FROZEN_POINT warning if rank A(a) < generic rank."""
    r, generic = rank(frozen), g.generic_rank()
    return () if r == generic else (f"IRREGULAR_FROZEN_POINT: rank A(a) = {r} < generic rank {generic}",)


@dataclass(frozen=True)
class GenericJKReport:
    """Generic Jordan-Kronecker invariants of a Lie algebra, read at the
    pairs (x, a) that certify its fundamental semi-invariant; max_rank is
    the generic rank, which every certified pair has."""

    samples: int
    seed: int
    max_rank: int
    stable: bool
    representative: JKInvariants
    shape: tuple

    @property
    def has_jordan_blocks(self) -> bool:
        return bool(self.representative.jordan)


def jk_invariants_generic(g: LieAlgebra, samples: int = CERTIFIED_PAIRS, seed: int = 0) -> GenericJKReport:
    """Invariants of the constant pencil (A(x), A(a)) at the first
    `samples` pairs of g._pairs(seed) that certify p_g, read from the
    pencils the certificate kept.

    A certified pair is generic: the pencil there has the generic rank,
    rank A(a) equals it, and the pointwise characteristic polynomial is
    monic(p_g(x - lambda*a)).  Stability means all compared pairs agree
    on the eigenvalue-free shape (Kronecker multiset plus degree-expanded
    half-size multisets); an unstable report is not fatal, the caller may
    raise `samples`.  The representative is the first certified pair.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    certified = _certified(g, seed, max(CERTIFIED_PAIRS, samples))[:samples]
    results = [jk_invariants(pencil) for _, pencil in certified]
    shapes = {inv.shape() for inv in results}
    return GenericJKReport(
        samples=samples,
        seed=seed,
        max_rank=g.generic_rank(),
        stable=len(shapes) == 1,
        representative=results[0],
        shape=results[0].shape(),
    )


def fundamental_semiinvariant(g: LieAlgebra, seed: int = 0) -> MultiPoly:
    """Gcd of the Pfaffians of all principal r x r minors of A(x).

    Normalized to content 1 with positive lexicographically-leading
    coefficient.  Computed on the first call and kept on g; the first call
    at each seed certifies it at three pairs of g._pairs(seed) (_certified).
    """
    _certified(g, seed, CERTIFIED_PAIRS)
    return g._semiinvariant


def _certified(g: LieAlgebra, seed: int, count: int) -> tuple:
    """The first `count` (or more) pairs of g._pairs(seed) that certify
    the fundamental semi-invariant p_g, each as ((x, a), pencil).

    poisson._certify admits a pair (x, a) when, with eigenvalues read from
    A - lambda*B, the pencil characteristic polynomial there equals the
    monic normalization of p_g restricted to the line x - lambda*a, at the
    generic rank and with rank A(a) equal to it.  Only the admitted pairs
    are kept on g, with their pencils, so the certificate runs once per
    seed unless a later caller asks for more pairs; it then reads the
    stream again from the start, which gives the same pairs.  No command
    asks twice: lie_report asks for max(3, samples) first.  The first
    pairs are the generic samples of jk_invariants_generic, and the first
    pair (x1, a1) gives ftilde_completeness its sampled frozen point a1
    and its first F~_a point x1, with the pencil kept here.
    """
    kept = g._certified.get(seed, ())
    if len(kept) < count:
        r = g.generic_rank()
        if g._semiinvariant is None:
            g._semiinvariant = _pfaffian_gcd(g.poisson_matrix(), r)
        p_g = g._semiinvariant
        d = p_g.total_degree()
        lines = ((pair, pencil, _restricted(p_g, d, pair)) for pair, pencil in g._pairs(seed))
        kept = tuple((pair, pencil) for pair, pencil, _ in _certify(lines, r, d, count))
        g._certified[seed] = kept
    return kept


def _restricted(p_g: MultiPoly, d: int, pair: tuple[Vector, Vector]):
    """monic(p_g(x - lambda*a)) for the pair (x, a), from the integer
    coefficient list of the content-normalised p_g on that line, or None
    where its lambda^d coefficient, +-p_g(a), vanishes (a is irregular
    then, which _not_generic reports first)."""
    line, _ = p_g.eval_on_line(pair[0], tuple(-v for v in pair[1]))
    return _to_unipoly(line) if len(line) > d else None


def _lie_char_poly(g: LieAlgebra, a: Sequence, seed: int) -> GenericCharPoly:
    """Generic characteristic polynomial of the pencil (A(x), A(a)), read
    off the fundamental semi-invariant: A(x) - lambda*A(a) = A(x - lambda*a),
    so p(lambda) = monic(p_g(x - lambda*a)).

    By Taylor's formula the lambda^k coefficient of p_g(x - lambda*a) is
    (-1)^k/k! (a.grad)^k p_g.  Every principal r-Pfaffian of the linear
    A(x) is homogeneous of degree r/2, so their gcd p_g is homogeneous of
    some degree d, and the lambda^d coefficient is the constant
    (-1)^d p_g(a), the denominator.  It is nonzero at a regular a: some
    principal r-Pfaffian of A(a) is nonzero, and p_g divides it.

    In integers: with a = y/q over a common denominator, D_k = (y.grad)^k p_g
    has integer coefficients (p_g is content-normalised), and every
    coefficient times d! q^d is (-1)^k d!/k! q^(d-k) D_k, the integer form
    GenericCharPoly holds.
    """
    p_g = fundamental_semiinvariant(g, seed)
    y, q = _common_denominator(a)
    along = [p_g]
    for _ in range(p_g.total_degree()):
        terms = (along[-1].derivative(i).scale(c) for i, c in enumerate(y) if c)
        along.append(sum(terms, MultiPoly.zero(g.dim)))
    d = len(along) - 1
    coeffs = [f.scale((-1) ** k * factorial(d) // factorial(k) * q ** (d - k)) for k, f in enumerate(along)]
    return GenericCharPoly(g.dim, g.generic_rank(), d, tuple(coeffs[:-1]), coeffs[-1])


def fa_completeness(g: LieAlgebra, report: GenericJKReport) -> str:
    """Argument-shift family verdict: COMPLETE iff the generic invariants
    contain no Jordan blocks, checked against the equivalent test that the
    fundamental semi-invariant at the report's seed is constant."""
    if not report.stable:
        return INDETERMINATE
    no_jordan = not report.has_jordan_blocks
    if fundamental_semiinvariant(g, report.seed).is_constant != no_jordan:
        raise InternalConsistencyError(
            "Kronecker-type test disagrees with the semi-invariant degree"
        )
    return COMPLETE if no_jordan else INCOMPLETE


def _certified_point(pencil: SkewPencil, gcp: GenericCharPoly, x1: Vector) -> PointAnalysis:
    """The analysis at x1, the x of the first pair (x1, a1) that certified
    p_g, on the pencil (A(x1), A(a1)) that the certificate kept: it runs
    no search and analyses no pencil again.

    The certificate admitted the pair against monic(p_g(x1 - lambda*a1)),
    and gcp, read off the same p_g at a = a1, specialised at x1 is that
    polynomial.  A pair that is not generic for gcp means the two routes
    disagree, which raises InternalConsistencyError.
    """
    try:
        return PointAnalysis(pencil, gcp, x1, gcp.specialise(x1))
    except NonGenericPointError as exc:
        raise InternalConsistencyError(f"the first certified pair is not generic at a = a1: {exc}") from exc


@dataclass(frozen=True)
class FTildeReport(FamilyCompleteness):
    """The extended family's verdict on the pencil (A(x), A(a)) of a frozen
    point a (poisson.family_completeness)."""

    frozen_point: Vector
    frozen_regular: bool


def ftilde_completeness(
    g: LieAlgebra,
    a: Sequence | None,
    seed: int = 0,
    explicit_points: Sequence[Sequence] | None = None,
) -> FTildeReport:
    """Extended family verdict via the pointwise completeness criterion.

    The Lie parts of the verdict live here, and the rest in poisson's
    family_completeness: it reads the pencil at each point from
    pencil_at and the generic characteristic polynomial read off p_g
    (_lie_char_poly).  With a = None the first pair (x1, a1) that
    certified p_g at seed gives both the frozen point a1, which is
    regular (_certify admits a pair only when rank A(a) equals the
    generic rank), and, when no point is given, the first point x1, whose
    pencil (A(x1), A(a1)) the certificate kept (_certified_point); the
    second point is the search's at seed.  No certified pair shares a
    given a, so it takes two searches, at seed and seed + 31.  A given a
    is ranked, and an irregular one downgrades to INDETERMINATE.
    """
    sampled = a is None
    if sampled:
        (x1, a), pencil = _certified(g, seed, CERTIFIED_PAIRS)[0]
    else:
        a = vector(a)
    frozen = g.frozen_matrix(a)
    warnings = () if sampled else _irregularity(g, frozen)
    if warnings:
        return FTildeReport(INDETERMINATE, (), (), warnings, frozen_point=a, frozen_regular=False)
    gcp = _lie_char_poly(g, a, seed)

    def pencil_at(x0: Vector) -> SkewPencil:  # as the pair stream builds it
        return SkewPencil(g.frozen_matrix(x0), frozen)

    first = _certified_point(pencil, gcp, x1) if sampled and explicit_points is None else None
    family = family_completeness(pencil_at, gcp, seed, explicit_points, first)
    return FTildeReport(**vars(family), frozen_point=a, frozen_regular=True)
