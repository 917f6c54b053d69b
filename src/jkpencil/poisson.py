"""Polynomial Poisson pencils on coordinate space.

A pencil is a pair of n x n skew matrices whose entries are polynomials
in the coordinates x_1..x_n.  This module verifies the Jacobi identity
and compatibility, computes the generic characteristic polynomial over
Q(x) and differentiates its coefficients.  The generic characteristic
polynomial is computed once per pencil and seed; on a Lie pencil it is
the test oracle of liealg's route.  One certificate checks a generic
characteristic polynomial against pointwise analyses, for it and for the
fundamental semi-invariant, and one rule (_not_generic) decides whether
a point is generic, for that certificate and for PointAnalysis.

A PointAnalysis is the one object for a generic point: the analysis of
the pencil there, the extended core subspace, the completeness criterion
decided through two independent routes (dimension count vs block
structure) that must agree, the bi-involution certificate of the
covector family and the eigenvalue-lemma certificate, each computed once,
when first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
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
    SkewPencil,
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


def _generic_poly_at(gcp: GenericCharPoly, x0: Vector) -> Optional[UniPoly]:
    """gcp specialised at x0, or None where its denominator vanishes."""
    return None if gcp.denominator.evaluate(x0) == 0 else gcp.poly_at(x0)


def _points(p: PolyPoissonPencil, gcp: GenericCharPoly, rng: random.Random):
    """Random points x0 for _certify, analysed, with gcp specialised at x0."""
    while True:
        x0 = _random_point(p.n, rng)
        yield x0, _PencilAnalysis(evaluate_at(p, x0)), _generic_poly_at(gcp, x0)


def _not_generic(
    analysis: _PencilAnalysis, rank: int, degree: int, expected: Optional[UniPoly], x0
) -> Optional[NonGenericPointError]:
    """None when x0 is a generic point, else the error that says why not.

    analysis is the pencil at x0, and expected the generic characteristic
    polynomial of this rank and degree specialised at x0 (None where its
    denominator vanishes).  The rank, rank(B), the denominator and the
    pointwise degree are checked in that order; a higher degree makes x0
    non-generic.  The generic polynomial divides every pointwise principal
    Pfaffian, so a lower degree, like another polynomial, raises
    InternalConsistencyError.
    """
    if analysis.rank != rank:
        return NonGenericPointError(
            f"rank {analysis.rank} at the point differs from generic rank {rank}",
            {"point": x0, "rank": analysis.rank, "generic_rank": rank},
        )
    if analysis.rank_b != rank:
        return NonGenericPointError(
            "rank(B) drops at the point (infinite eigenvalue pointwise)",
            {"point": x0},
        )
    if expected is None:
        return DenominatorVanishesError(
            "characteristic denominator vanishes at the point", {"point": x0}
        )
    pointwise = analysis.char_poly
    if pointwise.degree > degree:
        return NonGenericPointError(
            f"char degree {pointwise.degree} at the point exceeds generic {degree}",
            {"point": x0, "degree": pointwise.degree, "generic_degree": degree},
        )
    if pointwise.degree < degree or pointwise.poly != expected:
        raise InternalConsistencyError(
            f"pointwise characteristic polynomial disagrees with the generic one at {x0}"
        )
    return None


def _certify(points: Iterator, rank: int, degree: int) -> tuple:
    """Certifies that a generic characteristic polynomial of this rank and
    degree equals the pointwise one at three of the first 80 points, and
    returns those three.

    points yields (point, the caller's analysis of the pencil there, the
    generic polynomial there or None where its denominator vanishes).  A
    point that _not_generic rejects is skipped, and 10 pointwise degree
    jumps raise DegreeJumpError; running out of points raises
    InternalConsistencyError.
    """
    certified, jumps = [], 0
    for x0, analysis, expected in islice(points, 80):
        reason = _not_generic(analysis, rank, degree, expected, x0)
        if reason is None:
            certified.append(x0)
            if len(certified) == 3:
                return tuple(certified)
        elif "degree" in reason.details:  # only a degree jump reports the degree
            jumps += 1
            if jumps >= 10:
                raise DegreeJumpError(
                    f"pointwise degree {analysis.char_poly.degree} exceeds generic degree "
                    f"{degree} at {x0}"
                )
    raise InternalConsistencyError("could not certify the generic degree")


def coefficient_gradients(
    p: PolyPoissonPencil, x0: Sequence, seed: int = 0
) -> list[Vector]:
    """dp_i(x0) for the generic characteristic coefficients p_0..p_{N-1}."""
    return generic_char_poly(p, seed).gradients_at(x0)


# -- pointwise analyses ----------------------------------------------------


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


@dataclass(frozen=True)
class InvolutionCertificate:
    point: Vector
    family_size: int
    kernel_samples: tuple[Fraction, ...]
    pairings: int
    passed: bool
    violation: Optional[tuple[int, int, str]] = None


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


class PointAnalysis:
    """One generic point x0 of a pencil, with everything the paper reads
    there, each computed when first read.

    It is built from the pencil at x0 and the generic characteristic
    polynomial gcp, and raises the error of _not_generic when x0 is not a
    generic point.  `analysis` is the pencil's _PencilAnalysis: its Smith
    factors give the pointwise characteristic polynomial and Jordan data,
    and its sampler the core and the kernels of the involution family.
    """

    def __init__(self, at_point: SkewPencil, gcp: GenericCharPoly, x0: Vector):
        self.point = x0
        self.gcp = gcp
        self.analysis = _PencilAnalysis(at_point)
        reason = _not_generic(self.analysis, gcp.rank, gcp.degree, _generic_poly_at(gcp, x0), x0)
        if reason is not None:
            raise reason

    @property
    def core(self) -> Subspace:
        return self.analysis.stream.core()

    @cached_property
    def gradients(self) -> tuple[Vector, ...]:
        """dp_i(x0) for the generic characteristic coefficients."""
        return tuple(self.gcp.gradients_at(self.point))

    @cached_property
    def extended(self) -> Subspace:
        """Core plus the span of the coefficient gradients."""
        core = self.core
        extended = subspace_sum(core, Subspace.from_vectors(self.analysis.p.n, self.gradients))
        if extended.dim > core.dim + self.gcp.degree:
            raise InternalConsistencyError("extended core exceeds the dimension bound")
        return extended

    @cached_property
    def completeness(self) -> CompletenessReport:
        """Completeness of the extended core.

        The dimension test (extended core reaches n - r/2) and the
        block-structure test (all Jordan blocks 2x2, eigenvalues distinct,
        every factor's gradient escapes the core) are both evaluated and
        must agree; a mismatch aborts with InternalConsistencyError.
        """
        invariants = self.analysis.invariants()
        n = self.gcp.nvars
        target = n - self.gcp.rank // 2
        verdict_dim = COMPLETE if self.extended.dim == target else INCOMPLETE

        blocks_2x2 = all(
            s == 1 for g in invariants.jordan for s in g.half_sizes
        )
        single_block_per_eigenvalue = all(
            len(g.half_sizes) == 1 for g in invariants.jordan
        )
        distinct = self.analysis.char_poly.is_squarefree
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
        for q, mult in ((g.descriptor, sum(g.half_sizes)) for g in invariants.jordan):
            if mult > 1:
                factor_tests.append(FactorEscape(q, mult, None))
                witnesses.append(f"repeated eigenvalue factor ({q.to_string('lambda')})^{mult}")
                all_escape = False
                continue
            escapes = _factor_escapes(q, self.gradients, self.core)
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
            for i, grad in enumerate(self.gradients):
                if self.core.contains(grad):
                    witnesses.append(f"dp_{i} in K")
        return CompletenessReport(
            verdict=verdict_dim,
            point=self.point,
            n=n,
            rank=self.gcp.rank,
            char_degree=self.gcp.degree,
            core_dim=self.core.dim,
            extended_dim=self.extended.dim,
            target_dim=target,
            jordan_blocks_2x2=blocks_2x2,
            distinct_eigenvalues=distinct,
            factor_tests=tuple(factor_tests),
            witnesses=tuple(witnesses),
        )

    @cached_property
    def involution(self) -> InvolutionCertificate:
        """Exact bi-involution of the covector family.

        The family is the union of kernel bases of A(x0) + mu_j B(x0) at
        the first D + 2 regular values of the point's sampler, where D is
        the length of its growth sequence and 2D - 1 the largest Kronecker
        block (the values its core was read from), and the coefficient
        gradients dp_i(x0).  Every pairing under A(x0) and under B(x0) must
        be exactly zero.  The theorem holds for any distinct regular
        values, so the certificate checks it on the family the point's
        analysis reports.
        """
        stream = self.analysis.stream
        draws = [stream.regular(t) for t in range(len(stream.growth) + 2)]
        rows = [u for _, ker in draws for u in ker.rows] + _integer_rows(self.gradients)
        pairings, violation = _pairings(rows, self.analysis.p._scaled)
        return InvolutionCertificate(
            self.point, len(rows), tuple(mu for mu, _ in draws), pairings, violation is None, violation
        )

    @cached_property
    def eigenvalue_lemma(self) -> EigenvalueLemmaCertificate:
        """Verifies (A - lambda_j(x) B) dlambda_j(x) = 0 at rational roots.

        Simple rational roots only: dlambda = -grad_x p / d_lambda p by
        implicit differentiation; multiple roots are reported as skipped.
        """
        pointwise = self.analysis.char_poly
        if not pointwise.rational_roots:
            return EigenvalueLemmaCertificate(self.point, "NO_RATIONAL_ROOT", ())
        sp = self.analysis.p
        n = sp.n
        deriv = pointwise.poly.derivative()
        checks = []
        all_pass = True
        for root, mult in pointwise.rational_roots:
            if mult > 1:
                checks.append(EigenvalueRootCheck(root, mult, "MULTIPLE_ROOT"))
                continue
            slope = deriv(root)
            grad_lambda = tuple(
                -sum(g[col] * root**i for i, g in enumerate(self.gradients)) / slope
                for col in range(n)
            )
            member = sp.member(-root)  # A - root*B
            image = [sum(row[c] * grad_lambda[c] for c in range(n)) for row in member]
            ok = all(v == 0 for v in image)
            checks.append(
                EigenvalueRootCheck(root, mult, "PASS" if ok else "FAIL", grad_lambda)
            )
            all_pass = all_pass and ok
        return EigenvalueLemmaCertificate(self.point, "PASS" if all_pass else "FAIL", tuple(checks))


def extended_core(p: PolyPoissonPencil, x0: Sequence, seed: int = 0) -> PointAnalysis:
    """The analysis at a generic point x0, whose `extended` is the core
    plus the span of the coefficient gradients there."""
    x0 = vector(x0)
    gcp = generic_char_poly(p, seed)
    return PointAnalysis(evaluate_at(p, x0), gcp, x0)


def completeness_check(p: PolyPoissonPencil, x0: Sequence, seed: int = 0) -> CompletenessReport:
    """Completeness of the extended core at a generic point; see
    PointAnalysis.completeness."""
    return extended_core(p, x0, seed=seed).completeness


def involution_check(p: PolyPoissonPencil, x0: Sequence, seed: int = 0) -> InvolutionCertificate:
    """Exact bi-involution of the covector family at a generic point; see
    PointAnalysis.involution."""
    return extended_core(p, x0, seed=seed).involution


def eigenvalue_lemma_check(
    p: PolyPoissonPencil, x0: Sequence, seed: int = 0
) -> EigenvalueLemmaCertificate:
    """The eigenvalue lemma at the rational roots at a generic point; see
    PointAnalysis.eigenvalue_lemma."""
    return extended_core(p, x0, seed=seed).eigenvalue_lemma


def sample_generic_point(p: PolyPoissonPencil, seed: int = 0) -> Vector:
    """A random small-integer point passing all genericity checks."""
    return _sample_generic(partial(evaluate_at, p), generic_char_poly(p, seed), seed).point


def _sample_generic(
    pencil_at: Callable[[Vector], SkewPencil], gcp: GenericCharPoly, seed: int
) -> PointAnalysis:
    """The analysis at the first point x0, among 50 drawn by
    Random(seed + 101), at which pencil_at(x0), the pencil there, is
    generic for gcp."""
    rng = random.Random(seed + 101)
    for _ in range(50):
        x0 = _random_point(gcp.nvars, rng)
        try:
            return PointAnalysis(pencil_at(x0), gcp, x0)
        except NonGenericPointError:
            continue
    raise NonGenericPointError("no generic point found in 50 attempts")
