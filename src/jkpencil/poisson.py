"""Polynomial Poisson pencils on coordinate space.

A pencil is a pair of n x n skew matrices whose entries are polynomials
in the coordinates x_1..x_n.  This module verifies the Jacobi identity
and compatibility, computes the generic characteristic polynomial over
Q(x), differentiates its coefficients, assembles the extended core
subspace at a point, certifies bi-involution of the covector family,
and decides the completeness criterion through two independent routes
(dimension count vs block structure) that must agree.  The generic
characteristic polynomial is computed once per pencil and seed; on a
Lie pencil it is the test oracle of liealg's route.  One certificate
checks a generic characteristic polynomial against pointwise analyses,
for it and for the fundamental semi-invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DegreeJumpError,
    DenominatorVanishesError,
    InfiniteEigenvalueError,
    InternalConsistencyError,
    NonGenericPointError,
    ValidationError,
)
from .linalg import (
    PfaffianCache,
    Subspace,
    Vector,
    _integer_rows,
    fraction_free_rank,
    subspace_sum,
    vector,
)
from .multipoly import (
    MultiPoly,
    coefficients_in,
    drop_last_variable,
    multi_gcd_list,
    normalize_content,
)
from .pencil import (
    CharPoly,
    JKInvariants,
    SkewPencil,
    _KernelStream,
    _pairings,
    _PencilAnalysis,
)
from .unipoly import UniPoly

COMPLETE = "COMPLETE"
INCOMPLETE = "INCOMPLETE"
INDETERMINATE = "INDETERMINATE"


class JacobiResult(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int, int]]
    residual: Optional[MultiPoly]

    def __bool__(self) -> bool:
        return self.ok


def _validate_poly_matrix(rows, n: int | None = None):
    mat = tuple(tuple(row) for row in rows)
    if not mat or any(len(r) != len(mat) for r in mat):
        raise ValidationError("polynomial matrix must be square and nonempty")
    if n is not None and len(mat) != n:
        raise ValidationError("matrix size mismatch")
    nvars = mat[0][0].nvars
    for row in mat:
        for e in row:
            if not isinstance(e, MultiPoly) or e.nvars != nvars:
                raise ValidationError("entries must be MultiPoly over one variable set")
    for i in range(len(mat)):
        for j in range(i, len(mat)):
            if mat[i][j] != -mat[j][i]:
                raise ValidationError(f"matrix not skew at ({i + 1},{j + 1})")
    return mat


def jacobi_check(rows) -> JacobiResult:
    """Jacobi identity for a skew polynomial matrix.

    For every i<j<k the cyclic sum over l of
    P[l][i] d_l P[j][k] + P[l][j] d_l P[k][i] + P[l][k] d_l P[i][j]
    must vanish identically; the first violating triple and its residual
    polynomial are returned on failure.
    """
    mat = _validate_poly_matrix(rows)
    n = len(mat)
    nvars = mat[0][0].nvars
    if nvars != n:
        raise ValidationError(
            f"jacobi_check needs entries in {n} coordinates, got {nvars}"
        )
    grads = [[mat[i][j].gradient() for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = MultiPoly.zero(nvars)
                for l in range(n):
                    total = total + mat[l][i] * grads[j][k][l]
                    total = total + mat[l][j] * grads[k][i][l]
                    total = total + mat[l][k] * grads[i][j][l]
                if not total.is_zero:
                    return JacobiResult(False, (i + 1, j + 1, k + 1), total)
    return JacobiResult(True, None, None)


class PolyPoissonPencil:
    """Pair of compatible skew polynomial matrices A(x), B(x).

    Skew-symmetry is validated on construction; the Jacobi identity for
    A, B and A+B is checked by compatibility_check on request (lie_pencil
    needs no check: a valid structure table makes its pencil compatible).
    Instances are immutable and cache the generic characteristic
    polynomial per seed; the Lie path never builds it here, it reads the
    polynomial off the fundamental semi-invariant (liealg).
    """

    def __init__(self, a_rows, b_rows):
        a = _validate_poly_matrix(a_rows)
        b = _validate_poly_matrix(b_rows, n=len(a))
        if a[0][0].nvars != b[0][0].nvars:
            raise ValidationError("A and B use different variable counts")
        if a[0][0].nvars != len(a):
            raise ValidationError("coordinate count must equal the matrix size")
        self.a = a
        self.b = b
        self.n = len(a)
        self._gcp_cache: dict[int, GenericCharPoly] = {}

    def sum_matrix(self):
        return tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.a, self.b)
        )

    def lambda_matrix(self, sign: int = 1) -> list[list[MultiPoly]]:
        """A + sign*lambda*B over Q[x_1..x_n, lambda], lambda last."""
        lam = MultiPoly.variable(self.n + 1, self.n)
        out = []
        for ra, rb in zip(self.a, self.b):
            row = []
            for x, y in zip(ra, rb):
                e = x.extend(1)
                if not y.is_zero:
                    yl = lam * y.extend(1)
                    e = e + yl if sign > 0 else e - yl
                row.append(e)
            out.append(row)
        return out

    def generic_rank(self) -> int:
        return fraction_free_rank(self.lambda_matrix())


def compatibility_check(p: PolyPoissonPencil) -> JacobiResult:
    """Whether A + B satisfies Jacobi; A and B must individually pass."""
    for name, mat in (("A", p.a), ("B", p.b)):
        res = jacobi_check(mat)
        if not res:
            raise ValidationError(
                f"{name} is not Poisson: Jacobi fails at {res.witness} with residual {res.residual}"
            )
    return jacobi_check(p.sum_matrix())


def evaluate_at(p: PolyPoissonPencil, x0: Sequence) -> SkewPencil:
    """Entrywise evaluation at a rational point (general pencils only)."""
    pt = vector(x0)
    if len(pt) != p.n:
        raise ValidationError(f"point has length {len(pt)}, expected {p.n}")
    a = [[e.evaluate(pt) for e in row] for row in p.a]
    b = [[e.evaluate(pt) for e in row] for row in p.b]
    return SkewPencil(a, b)


# -- generic characteristic polynomial ------------------------------------


@dataclass(frozen=True)
class GenericCharPoly:
    """Monic-in-lambda gcd of the principal Pfaffians of A(x) - lambda*B(x).

    Coefficients p_i(x) are rational functions numerators[i]/denominator
    with a common polynomial denominator (the leading lambda-coefficient
    of the primitive gcd, or of p_g(x - lambda*a) on the Lie path).
    """

    nvars: int
    rank: int
    degree: int
    numerators: tuple[MultiPoly, ...]
    denominator: MultiPoly

    def denominator_at(self, x0: Sequence) -> Fraction:
        return self.denominator.evaluate(vector(x0))

    def poly_at(self, x0: Sequence) -> UniPoly:
        """The pointwise monic characteristic polynomial, degree preserved."""
        x0 = vector(x0)
        den = self.denominator.evaluate(x0)
        if den == 0:
            raise DenominatorVanishesError(
                "characteristic denominator vanishes at the point",
                {"point": x0},
            )
        coeffs = [num.evaluate(x0) / den for num in self.numerators]
        return UniPoly(coeffs + [Fraction(1)])

    def gradients_at(self, x0: Sequence) -> list[Vector]:
        """Exact gradients dp_i(x0) via the quotient rule."""
        x0 = vector(x0)
        den = self.denominator.evaluate(x0)
        if den == 0:
            raise DenominatorVanishesError(
                "characteristic denominator vanishes at the point",
                {"point": x0},
            )
        dgrad = [g.evaluate(x0) for g in self.denominator.gradient()]
        out = []
        for num in self.numerators:
            nval = num.evaluate(x0)
            ngrad = [g.evaluate(x0) for g in num.gradient()]
            out.append(
                tuple((gn * den - nval * gd) / (den * den) for gn, gd in zip(ngrad, dgrad))
            )
        return out


def _pfaffian_gcd(rows, r: int) -> MultiPoly:
    """Gcd of the nonzero principal r x r Pfaffians of a skew polynomial
    matrix of rank r (1 when r = 0), normalized by multi_gcd."""
    nv = rows[0][0].nvars
    if r == 0:
        return MultiPoly.one(nv)
    cache = PfaffianCache(rows, MultiPoly.zero(nv), MultiPoly.one(nv))
    pfaffians = (cache.pfaffian(s) for s in combinations(range(len(rows)), r))
    g = multi_gcd_list((pf for pf in pfaffians if not pf.is_zero), nv)
    if g.is_zero:
        raise InternalConsistencyError(
            "all principal Pfaffians vanished at the claimed generic rank"
        )
    return g


def generic_char_poly(p: PolyPoissonPencil, seed: int = 0) -> GenericCharPoly:
    """Generic characteristic polynomial over Q(x)[lambda], certified by
    _certify at points drawn by Random(seed).

    The one route for general pencils; a Lie pencil's polynomial is read
    off the fundamental semi-invariant instead (liealg), and this route is
    its test oracle."""
    if seed in p._gcp_cache:
        return p._gcp_cache[seed]
    r = p.generic_rank()
    rank_b = fraction_free_rank([[e for e in row] for row in p.b])
    if rank_b < r:
        raise InfiniteEigenvalueError(
            f"generic rank(B) = {rank_b} < generic pencil rank {r}"
        )
    g = _pfaffian_gcd(p.lambda_matrix(sign=-1), r)
    lam_var = p.n
    lam_coeffs = coefficients_in(g, lam_var)
    content = multi_gcd_list(lam_coeffs, p.n + 1)
    g = normalize_content(g.exact_div(content))
    lam_coeffs = coefficients_in(g, lam_var)
    degree = len(lam_coeffs) - 1
    denominator = drop_last_variable(lam_coeffs[-1])
    numerators = tuple(drop_last_variable(c) for c in lam_coeffs[:-1])
    gcp = GenericCharPoly(p.n, r, degree, numerators, denominator)
    _certify(_points(p, gcp, random.Random(seed)), r, degree)
    p._gcp_cache[seed] = gcp
    return gcp


def _random_point(n: int, rng: random.Random) -> Vector:
    return tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))


def _points(p: PolyPoissonPencil, gcp: GenericCharPoly, rng: random.Random):
    """Random points x0 for _certify, analysed, with gcp specialised at x0."""
    while True:
        x0 = _random_point(p.n, rng)
        expected = None if gcp.denominator.evaluate(x0) == 0 else gcp.poly_at(x0)
        yield x0, _PencilAnalysis(evaluate_at(p, x0)), expected


def _certify(points: Iterator, rank: int, degree: int) -> tuple:
    """Certifies that a generic characteristic polynomial of this rank and
    degree equals the pointwise one at three of the first 80 points, and
    returns those three.

    points yields (point, the caller's analysis of the pencil there, the
    generic polynomial there or None where its denominator vanishes).  A
    point is skipped on a rank, rank(B) or denominator drop and on a
    pointwise degree jump (10 jumps raise DegreeJumpError); a lower degree
    or another polynomial raises InternalConsistencyError, as does running
    out of points.
    """
    certified, jumps = [], 0
    for x0, analysis, expected in islice(points, 80):
        if analysis.rank != rank or analysis.rank_b != rank or expected is None:
            continue
        if not _matches_generic(analysis.char_poly, degree, expected, x0):
            jumps += 1
            if jumps >= 10:
                raise DegreeJumpError(
                    f"pointwise degree {analysis.char_poly.degree} exceeds generic degree "
                    f"{degree} at {x0}"
                )
            continue
        certified.append(x0)
        if len(certified) == 3:
            return tuple(certified)
    raise InternalConsistencyError("could not certify the generic degree")


def _matches_generic(pointwise: CharPoly, degree: int, expected: UniPoly, x0) -> bool:
    """Whether the characteristic polynomial at x0, a point where the rank,
    rank(B) and the denominator are generic, is the generic one specialised
    there (expected, of the given degree); False on a higher degree.

    The generic polynomial divides every pointwise principal Pfaffian, so a
    lower degree, like another polynomial, raises InternalConsistencyError.
    """
    if pointwise.degree > degree:
        return False
    if pointwise.degree < degree or pointwise.poly != expected:
        raise InternalConsistencyError(
            f"pointwise characteristic polynomial disagrees with the generic one at {x0}"
        )
    return True


def coefficient_gradients(
    p: PolyPoissonPencil, x0: Sequence, seed: int = 0
) -> list[Vector]:
    """dp_i(x0) for the generic characteristic coefficients p_0..p_{N-1}."""
    return generic_char_poly(p, seed).gradients_at(x0)


# -- pointwise analyses ----------------------------------------------------


@dataclass(frozen=True)
class PointAnalysis:
    """Everything the completeness criterion needs at one generic point."""

    point: Vector
    pencil_at_point: SkewPencil
    invariants: JKInvariants
    char_at_point: CharPoly
    core: Subspace
    gradients: tuple[Vector, ...]
    extended: Subspace
    kernels: _KernelStream = field(compare=False, repr=False)

    @property
    def core_dim(self) -> int:
        return self.core.dim

    @property
    def extended_dim(self) -> int:
        return self.extended.dim


def _require_generic(at_point: SkewPencil, gcp: GenericCharPoly, x0: Vector) -> _PencilAnalysis:
    """Analysis of at_point, the pencil at x0, after checking that x0 is
    generic: rank, rank(B), denominator and char degree as at a generic
    point.  A higher degree raises NonGenericPointError; see _matches_generic."""
    analysis = _PencilAnalysis(at_point)
    r0 = analysis.rank
    if r0 != gcp.rank:
        raise NonGenericPointError(
            f"rank {r0} at the point differs from generic rank {gcp.rank}",
            {"point": x0, "rank": r0, "generic_rank": gcp.rank},
        )
    if analysis.rank_b != gcp.rank:
        raise NonGenericPointError(
            "rank(B) drops at the point (infinite eigenvalue pointwise)",
            {"point": x0},
        )
    if gcp.denominator.evaluate(x0) == 0:
        raise DenominatorVanishesError(
            "characteristic denominator vanishes at the point", {"point": x0}
        )
    pointwise = analysis.char_poly
    if not _matches_generic(pointwise, gcp.degree, gcp.poly_at(x0), x0):
        raise NonGenericPointError(
            f"char degree {pointwise.degree} at the point exceeds generic {gcp.degree}",
            {"point": x0, "degree": pointwise.degree, "generic_degree": gcp.degree},
        )
    return analysis


def _point_analysis(analysis: _PencilAnalysis, gcp: GenericCharPoly, x0: Vector) -> PointAnalysis:
    """Invariants, core (both from the analysis' kernel stream, which the
    PointAnalysis keeps for the involution certificate) and extended core
    at a point that passed _require_generic."""
    sp = analysis.p
    invariants = analysis.invariants()
    core = analysis.stream.core()
    grads = tuple(gcp.gradients_at(x0))
    extended = subspace_sum(core, Subspace.from_vectors(sp.n, grads))
    if extended.dim > core.dim + gcp.degree:
        raise InternalConsistencyError("extended core exceeds the dimension bound")
    return PointAnalysis(
        point=x0,
        pencil_at_point=sp,
        invariants=invariants,
        char_at_point=analysis.char_poly,
        core=core,
        gradients=grads,
        extended=extended,
        kernels=analysis.stream,
    )


def extended_core(p: PolyPoissonPencil, x0: Sequence, seed: int = 0) -> PointAnalysis:
    """Core plus the span of the coefficient gradients at a generic point."""
    x0 = vector(x0)
    gcp = generic_char_poly(p, seed)
    return _point_analysis(_require_generic(evaluate_at(p, x0), gcp, x0), gcp, x0)


@dataclass(frozen=True)
class FactorEscape:
    """Per-irreducible-factor witness data for the block-structure test."""

    factor: UniPoly
    multiplicity: int
    escapes: Optional[bool]  # None when the factor is repeated (test skipped)


@dataclass(frozen=True)
class CompletenessReport:
    verdict: str
    point: Vector
    n: int
    rank: int
    char_degree: int
    core_dim: int
    extended_dim: int
    target_dim: int
    jordan_blocks_2x2: bool
    distinct_eigenvalues: bool
    factor_tests: tuple[FactorEscape, ...]
    witnesses: tuple[str, ...]


def _factor_escapes(factor: UniPoly, gradients, core: Subspace) -> bool:
    """Whether the eigenvalue gradients of a simple irreducible factor
    escape the core.

    Reduces the gradient polynomial sum dp_i(x0) lambda^i modulo the
    factor; the factor's conjugate eigenvalue gradients lie in the
    complexified core iff every lambda-coefficient of the residue lies
    in the core (all-or-nothing per irreducible factor).
    """
    d = factor.degree
    n = core.ambient
    residue = [[Fraction(0)] * n for _ in range(d)]
    lam_power = UniPoly.one()
    for grad in gradients:
        for t in range(min(lam_power.degree, d - 1) + 1):
            c = lam_power.coefficient(t)
            if c:
                for col in range(n):
                    residue[t][col] += c * grad[col]
        lam_power = (lam_power * UniPoly.x()) % factor
    return any(not core.contains(row) for row in residue)


def completeness_check(p: PolyPoissonPencil, x0: Sequence, seed: int = 0) -> CompletenessReport:
    """Completeness of the extended core at a generic point.

    The dimension test (extended core reaches n - r/2) and the
    block-structure test (all Jordan blocks 2x2, eigenvalues distinct,
    every factor's gradient escapes the core) are both evaluated and
    must agree; a mismatch aborts with InternalConsistencyError.
    """
    pa = extended_core(p, x0, seed=seed)
    return _completeness(pa, generic_char_poly(p, seed))


def _completeness(pa: PointAnalysis, gcp: GenericCharPoly) -> CompletenessReport:
    n = gcp.nvars
    target = n - gcp.rank // 2
    verdict_dim = COMPLETE if pa.extended.dim == target else INCOMPLETE

    blocks_2x2 = all(
        s == 1 for g in pa.invariants.jordan for s in g.half_sizes
    )
    single_block_per_eigenvalue = all(
        len(g.half_sizes) == 1 for g in pa.invariants.jordan
    )
    distinct = pa.char_at_point.is_squarefree
    # two independent routes to "all blocks 2x2 with distinct eigenvalues":
    # Smith elementary divisors vs squarefree decomposition
    if (blocks_2x2 and single_block_per_eigenvalue) != distinct:
        raise InternalConsistencyError(
            "Smith block structure and squarefree test disagree"
        )

    factor_tests = []
    witnesses = []
    all_escape = True
    # each Jordan group is one factor of the char poly, to the power of
    # its summed half-sizes
    for q, mult in ((g.descriptor, sum(g.half_sizes)) for g in pa.invariants.jordan):
        if mult > 1:
            factor_tests.append(FactorEscape(q, mult, None))
            witnesses.append(f"repeated eigenvalue factor ({q.to_string('lambda')})^{mult}")
            all_escape = False
            continue
        escapes = _factor_escapes(q, pa.gradients, pa.core)
        factor_tests.append(FactorEscape(q, mult, escapes))
        if not escapes:
            witnesses.append(
                f"dlambda in K for factor {q.to_string('lambda')} (core characteristic number)"
            )
            all_escape = False
    if not blocks_2x2:
        witnesses.append("jordan block of size > 2x2 present")
    verdict_structure = (
        COMPLETE if (blocks_2x2 and distinct and all_escape) else INCOMPLETE
    )
    if verdict_dim != verdict_structure:
        raise InternalConsistencyError(
            f"dimension test says {verdict_dim} but block-structure test says {verdict_structure}"
        )
    if verdict_dim == INCOMPLETE:
        for i, grad in enumerate(pa.gradients):
            if pa.core.contains(grad):
                witnesses.append(f"dp_{i} in K")
    return CompletenessReport(
        verdict=verdict_dim,
        point=pa.point,
        n=n,
        rank=gcp.rank,
        char_degree=gcp.degree,
        core_dim=pa.core.dim,
        extended_dim=pa.extended.dim,
        target_dim=target,
        jordan_blocks_2x2=blocks_2x2,
        distinct_eigenvalues=distinct,
        factor_tests=tuple(factor_tests),
        witnesses=tuple(witnesses),
    )


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class InvolutionCertificate:
    point: Vector
    family_size: int
    kernel_samples: tuple[Fraction, ...]
    pairings: int
    passed: bool
    violation: Optional[tuple[int, int, str]] = None


def involution_check(
    p: PolyPoissonPencil,
    x0: Sequence,
    samples: int | None = None,
    seed: int = 0,
) -> InvolutionCertificate:
    """Exact bi-involution of the covector family at a generic point.

    The family is the union of kernel bases of A(x0) + mu_j B(x0) at
    the first `samples` regular values of the point's kernel stream
    (default D + 2, where 2D - 1 is the largest Kronecker block, which
    are the values its core was read from) and the coefficient gradients
    dp_i(x0).  Every pairing under A(x0) and under B(x0) must be exactly
    zero.  The theorem holds for any distinct regular values, so the
    certificate checks it on the family the point's analysis reports.
    """
    return _involution(extended_core(p, x0, seed=seed), samples)


def _involution(pa: PointAnalysis, samples: int | None) -> InvolutionCertificate:
    sp = pa.pencil_at_point
    if samples is None:
        samples = max(pa.invariants.kronecker, default=0) + 2
    draws = [pa.kernels.draw(t) for t in range(samples)]
    rows = [u for _, ker in draws for u in ker.rows] + _integer_rows(pa.gradients)
    pairings, violation = _pairings(rows, sp._scaled)
    return InvolutionCertificate(
        pa.point, len(rows), tuple(mu for mu, _ in draws), pairings, violation is None, violation
    )


@dataclass(frozen=True)
class EigenvalueRootCheck:
    root: Fraction
    multiplicity: int
    status: str  # "PASS", "FAIL", "MULTIPLE_ROOT"
    gradient: Optional[Vector] = None


@dataclass(frozen=True)
class EigenvalueLemmaCertificate:
    point: Vector
    status: str  # "PASS", "FAIL", "NO_RATIONAL_ROOT"
    checks: tuple[EigenvalueRootCheck, ...]


def eigenvalue_lemma_check(
    p: PolyPoissonPencil, x0: Sequence, seed: int = 0
) -> EigenvalueLemmaCertificate:
    """Verifies (A - lambda_j(x) B) dlambda_j(x) = 0 at rational roots.

    Simple rational roots only: dlambda = -grad_x p / d_lambda p by
    implicit differentiation; multiple roots are reported as skipped.
    """
    return _eigenvalue_lemma(extended_core(p, x0, seed=seed))


def _eigenvalue_lemma(pa: PointAnalysis) -> EigenvalueLemmaCertificate:
    pointwise = pa.char_at_point
    if not pointwise.rational_roots:
        return EigenvalueLemmaCertificate(pa.point, "NO_RATIONAL_ROOT", ())
    n = pa.pencil_at_point.n
    deriv = pointwise.poly.derivative()
    checks = []
    all_pass = True
    for root, mult in pointwise.rational_roots:
        if mult > 1:
            checks.append(EigenvalueRootCheck(root, mult, "MULTIPLE_ROOT"))
            continue
        slope = deriv(root)
        grad_lambda = tuple(
            -sum(g[col] * root**i for i, g in enumerate(pa.gradients)) / slope
            for col in range(n)
        )
        member = pa.pencil_at_point.member(-root)  # A - root*B
        image = [sum(row[c] * grad_lambda[c] for c in range(n)) for row in member]
        ok = all(v == 0 for v in image)
        checks.append(
            EigenvalueRootCheck(root, mult, "PASS" if ok else "FAIL", grad_lambda)
        )
        all_pass = all_pass and ok
    return EigenvalueLemmaCertificate(pa.point, "PASS" if all_pass else "FAIL", tuple(checks))


def sample_generic_point(
    p: PolyPoissonPencil, seed: int = 0, attempts: int = 50
) -> Vector:
    """A random small-integer point passing all genericity checks."""
    return _sample_generic(partial(evaluate_at, p), generic_char_poly(p, seed), seed, attempts)[0]


def _sample_generic(
    pencil_at: Callable[[Vector], SkewPencil], gcp: GenericCharPoly, seed: int, attempts: int = 50
) -> tuple[Vector, _PencilAnalysis]:
    """A point x0 drawn by Random(seed + 101) at which pencil_at(x0), the
    pencil there, passes _require_generic against gcp, with its analysis."""
    rng = random.Random(seed + 101)
    for _ in range(attempts):
        x0 = _random_point(gcp.nvars, rng)
        try:
            return x0, _require_generic(pencil_at(x0), gcp, x0)
        except NonGenericPointError:
            continue
    raise NonGenericPointError(f"no generic point found in {attempts} attempts")
