"""Polynomial Poisson pencils on coordinate space.

A pencil is a pair of n x n skew matrices whose entries are polynomials
in the coordinates x_1..x_n.  This module verifies the Jacobi identity
and compatibility, computes the generic characteristic polynomial over
Q(x) and differentiates its coefficients.  The generic characteristic
polynomial is computed and certified once per pencil; on a Lie pencil it
is the test oracle of liealg's route.  One rule (_not_generic) decides
whether a point is generic, and one search (_certify) draws points and
keeps the generic ones: it certifies a generic characteristic polynomial
against pointwise analyses, for it and for the fundamental
semi-invariant, and it finds the sampled points of PointAnalysis.
Sample points are drawn as small ints.  A GenericCharPoly is one integer
form, evaluated in integers at a point y/q over a common denominator
with one Fraction per output value; its gradient polynomials are derived
once per polynomial, and each specialisation (GenericCharPoly.specialise,
None where the denominator vanishes) evaluates its denominator and
numerators once, for the pointwise polynomial and the gradients.

A PointAnalysis is the one object for a generic point: the pencil there
with its analysis, the extended core subspace, the completeness criterion
decided through two independent routes (dimension count vs block
structure) that must agree, the bi-involution certificate of the
covector family and the eigenvalue-lemma certificate, each computed once,
when first read.

family_completeness is the one completeness pipeline: from the pencil at
a point (pencil_at), the generic characteristic polynomial and a seed it
chooses the points, explicit or sampled, analyses each, and aggregates
their verdicts and witnesses.  It reads nothing else of the pencil, so a
Lie pencil (liealg.ftilde_completeness) and a general polynomial pencil
(partial(evaluate_at, p) with generic_char_poly(p)) take the same route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, islice
from operator import mul
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
    _common_denominator,
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
from .pencil import SkewPencil, _pairings, characteristic_polynomial, jk_invariants
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
    Instances are immutable and keep the generic characteristic
    polynomial once generic_char_poly has computed it; the Lie path never
    builds it here, it reads the polynomial off the fundamental
    semi-invariant (liealg).
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
        self._generic: Optional[GenericCharPoly] = None

    def sum_matrix(self):
        return tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.a, self.b)
        )

    def lambda_matrix(self) -> list[list[MultiPoly]]:
        """A - lambda*B over Q[x_1..x_n, lambda], lambda last."""
        lam = MultiPoly.variable(self.n + 1, self.n)
        return [
            [x.extend(1) if y.is_zero else x.extend(1) - lam * y.extend(1) for x, y in zip(ra, rb)]
            for ra, rb in zip(self.a, self.b)
        ]

    def generic_rank(self) -> int:
        """Rank of A - lambda*B over Q(x)(lambda), the rank of A + lambda*B."""
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
    of the primitive gcd, or of p_g(x - lambda*a) on the Lie path).  They
    are held in one integer form: numerators and denominator carry one
    common factor that makes every coefficient an integer, and only their
    ratios are read.  Construction checks that every coefficient is an
    int.

    At a point x0 = y/q over a common denominator, every polynomial is
    evaluated in integers, homogenised to one degree h (q**h * f(y/q)),
    so the powers of q cancel in each ratio; each output value is one
    Fraction.  `specialise` makes these evaluations once per point, and
    the pointwise polynomial and the gradients both read its Specialisation.
    The gradient polynomials are derived once, when first read.
    """

    nvars: int
    rank: int
    degree: int
    numerators: tuple[MultiPoly, ...]
    denominator: MultiPoly

    def __post_init__(self):
        if any(type(c) is not int for f in (self.denominator, *self.numerators) for c in f.terms.values()):
            raise ValidationError("a generic characteristic polynomial needs integer coefficients")

    @cached_property
    def _height(self) -> int:
        """h: the largest total degree of the denominator and numerators."""
        return max(0, *(f.total_degree() for f in (self.denominator, *self.numerators)))

    @cached_property
    def _gradients(self) -> tuple[tuple[MultiPoly, ...], ...]:
        """The gradient of the denominator, then of each numerator."""
        return tuple(f.gradient() for f in (self.denominator, *self.numerators))

    def specialise(self, x0: Sequence) -> Optional["Specialisation"]:
        """The one evaluation of the denominator and the numerators at x0,
        or None where the denominator vanishes (_not_generic says why)."""
        y, q = _common_denominator(x0)
        h = self._height
        den = self.denominator.scaled_value(y, q, h)
        if den == 0:
            return None
        return Specialisation(self, y, q, den, tuple(num.scaled_value(y, q, h) for num in self.numerators))


@dataclass(frozen=True)
class Specialisation:
    """A GenericCharPoly at one point x0 = y/q: den = q**h * denominator(x0)
    and nums the numerators likewise, h the height, so that each ratio is
    the value of a coefficient."""

    gcp: GenericCharPoly
    y: list[int]
    q: int
    den: int
    nums: tuple[int, ...]

    @cached_property
    def poly(self) -> UniPoly:
        """The pointwise monic characteristic polynomial, degree preserved."""
        return UniPoly([Fraction(v, self.den) for v in self.nums] + [1])

    def gradients(self) -> list[Vector]:
        """Exact gradients dp_i(x0) via the quotient rule.  With N and D
        homogenised to degree h and their derivatives to h - 1, the powers
        of q leave dp_i = q*(dN*D - N*dD)/D**2."""
        y, q, den = self.y, self.q, self.den
        h = self.gcp._height
        dgrad, *ngrads = ([g.scaled_value(y, q, h - 1) for g in grad] for grad in self.gcp._gradients)
        return [
            tuple(Fraction(q * (gn * den - nval * gd), den * den) for gn, gd in zip(ngrad, dgrad))
            for nval, ngrad in zip(self.nums, ngrads)
        ]


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


def generic_char_poly(p: PolyPoissonPencil) -> GenericCharPoly:
    """Generic characteristic polynomial over Q(x)[lambda], computed on the
    first call, certified by _certify at points drawn by Random(0), and
    kept on p.

    The one route for general pencils; a Lie pencil's polynomial is read
    off the fundamental semi-invariant instead (liealg), and this route is
    its test oracle."""
    if p._generic is not None:
        return p._generic
    r = p.generic_rank()
    rank_b = fraction_free_rank([[e for e in row] for row in p.b])
    if rank_b < r:
        raise InfiniteEigenvalueError(
            f"generic rank(B) = {rank_b} < generic pencil rank {r}"
        )
    g = _pfaffian_gcd(p.lambda_matrix(), r)
    lam_var = p.n
    lam_coeffs = coefficients_in(g, lam_var)
    content = multi_gcd_list(lam_coeffs, p.n + 1)
    g = normalize_content(g.exact_div(content))
    lam_coeffs = coefficients_in(g, lam_var)
    degree = len(lam_coeffs) - 1
    denominator = drop_last_variable(lam_coeffs[-1])
    numerators = tuple(drop_last_variable(c) for c in lam_coeffs[:-1])
    gcp = GenericCharPoly(p.n, r, degree, numerators, denominator)
    _certify(_points(partial(evaluate_at, p), gcp, random.Random(0)), r, degree, 3)
    p._generic = gcp
    return gcp


def _random_point(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(-9, 9) for _ in range(n))


def _points(pencil_at: Callable[[Vector], SkewPencil], gcp: GenericCharPoly, rng: random.Random):
    """Random points x0 for _certify, each with pencil_at(x0), the pencil
    there, and gcp specialised at x0."""
    while True:
        x0 = _random_point(gcp.nvars, rng)
        yield x0, pencil_at(x0), gcp.specialise(x0)


def _not_generic(
    pencil: SkewPencil,
    rank: int,
    degree: int,
    expected: Optional[UniPoly | Specialisation],
    x0,
) -> Optional[NonGenericPointError]:
    """None when x0 is a generic point, else the error that says why not.

    pencil is the pencil at x0, and expected the generic characteristic
    polynomial of this rank and degree specialised at x0, or the
    Specialisation that holds it (None where its denominator vanishes).
    The rank, rank(B), the denominator and the pointwise degree are
    checked in that order; a higher degree makes x0 non-generic.  The
    generic polynomial divides every pointwise principal Pfaffian, so a
    lower degree, like another polynomial, raises InternalConsistencyError.
    """
    sampler = pencil._sampler
    if sampler.r != rank:
        return NonGenericPointError(
            f"rank {sampler.r} at the point differs from generic rank {rank}",
            {"point": x0, "rank": sampler.r, "generic_rank": rank},
        )
    if sampler.rank_b != rank:
        return NonGenericPointError(
            "rank(B) drops at the point (infinite eigenvalue pointwise)",
            {"point": x0},
        )
    if expected is None:
        return DenominatorVanishesError(
            "characteristic denominator vanishes at the point", {"point": x0}
        )
    pointwise = characteristic_polynomial(pencil)
    if pointwise.degree > degree:
        return NonGenericPointError(
            f"char degree {pointwise.degree} at the point exceeds generic {degree}",
            {"point": x0, "degree": pointwise.degree, "generic_degree": degree},
        )
    if isinstance(expected, Specialisation):
        expected = expected.poly
    if pointwise.degree < degree or pointwise.poly != expected:
        raise InternalConsistencyError(
            f"pointwise characteristic polynomial disagrees with the generic one at {x0}"
        )
    return None


def _certify(points: Iterator, rank: int, degree: int, count: int) -> tuple:
    """The first `count` points at which a generic characteristic
    polynomial of this rank and degree equals the pointwise one, each as
    the (point, pencil, expected) item points yielded, among the first
    80 points, or 80 per three points wanted when `count` exceeds three.

    This is the one search for generic points: the certificates read
    three (a Lie algebra's, more when more generic samples are asked
    for), the sampler one.  points yields (point, the pencil there, which
    keeps its analysis for the caller, the generic polynomial there or
    None where its denominator vanishes).  A point that _not_generic
    rejects is skipped, and 10 pointwise degree jumps raise
    DegreeJumpError; fewer than `count` generic points among the draws
    raise InternalConsistencyError.
    """
    draws = max(80, 80 * count // 3)
    certified, jumps = [], 0
    for x0, pencil, expected in islice(points, draws):
        reason = _not_generic(pencil, rank, degree, expected, x0)
        if reason is None:
            certified.append((x0, pencil, expected))
            if len(certified) == count:
                return tuple(certified)
        elif "degree" in reason.details:  # only a degree jump reports the degree
            jumps += 1
            if jumps >= 10:
                raise DegreeJumpError(
                    f"pointwise degree {reason.details['degree']} exceeds generic degree "
                    f"{degree} at {x0}"
                )
    raise InternalConsistencyError(f"found {len(certified)} of {count} generic points in {draws} draws")


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
    kernel_samples: tuple[int, ...]
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

    It is built from `pencil`, the pencil at x0, which keeps its analysis
    (the one _certify read for a sampled point), the generic
    characteristic polynomial gcp and `expected`, gcp.specialise(x0)
    (a sampled point passes the one _certify compared, so it is not
    evaluated twice, and the gradients read the same values), and raises
    the error of _not_generic when x0 is not a generic point.  The
    pencil's Smith factors give the pointwise characteristic polynomial
    and Jordan data, and its sampler the core and the kernels of the
    involution family.
    """

    def __init__(
        self, pencil: SkewPencil, gcp: GenericCharPoly, x0: Vector, expected: Optional[Specialisation]
    ):
        self.point = x0
        self.gcp = gcp
        self.pencil = pencil
        reason = _not_generic(pencil, gcp.rank, gcp.degree, expected, x0)
        if reason is not None:
            raise reason
        self.expected = expected

    @property
    def core(self) -> Subspace:
        return self.pencil._sampler.core()

    @cached_property
    def gradients(self) -> tuple[Vector, ...]:
        """dp_i(x0) for the generic characteristic coefficients."""
        return tuple(self.expected.gradients())

    @cached_property
    def extended(self) -> Subspace:
        """Core plus the span of the coefficient gradients."""
        core = self.core
        extended = subspace_sum(core, Subspace.from_vectors(self.pencil.n, self.gradients))
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
        invariants = jk_invariants(self.pencil)
        n = self.gcp.nvars
        target = n - self.gcp.rank // 2
        verdict_dim = COMPLETE if self.extended.dim == target else INCOMPLETE

        blocks_2x2 = all(
            s == 1 for g in invariants.jordan for s in g.half_sizes
        )
        # the char poly is read from the same Jordan groups, so it is
        # squarefree exactly when every group is one 2x2 block
        distinct = characteristic_polynomial(self.pencil).is_squarefree

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
        sampler = self.pencil._sampler
        draws = [sampler.regular(t) for t in range(len(sampler.growth) + 2)]
        rows = [u for _, ker in draws for u in ker.rows] + _integer_rows(self.gradients)
        pairings, violation = _pairings(rows, self.pencil._scaled)
        return InvolutionCertificate(
            self.point, len(rows), tuple(mu for mu, _ in draws), pairings, violation is None, violation
        )

    @cached_property
    def eigenvalue_lemma(self) -> EigenvalueLemmaCertificate:
        """Verifies (A - lambda_j(x) B) dlambda_j(x) = 0 at rational roots.

        Simple rational roots only: dlambda = -grad_x p / d_lambda p by
        implicit differentiation; multiple roots are reported as skipped.
        The check runs on the pencil's integer form D*(A, B): at a root p/q
        and with y = dlambda over the lcm of its denominators,
        (A - lambda B) dlambda is zero exactly when (q*DA - p*DB) y is.
        """
        pointwise = characteristic_polynomial(self.pencil)
        if not pointwise.rational_roots:
            return EigenvalueLemmaCertificate(self.point, "NO_RATIONAL_ROOT", ())
        sp = self.pencil
        n = sp.n
        da, db = sp._scaled
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
            y, _ = _common_denominator(grad_lambda)
            p, q = root.numerator, root.denominator
            ok = not any(
                q * sum(map(mul, ra, y)) - p * sum(map(mul, rb, y)) for ra, rb in zip(da, db)
            )
            checks.append(
                EigenvalueRootCheck(root, mult, "PASS" if ok else "FAIL", grad_lambda)
            )
            all_pass = all_pass and ok
        return EigenvalueLemmaCertificate(self.point, "PASS" if all_pass else "FAIL", tuple(checks))


def extended_core(p: PolyPoissonPencil, x0: Sequence) -> PointAnalysis:
    """The analysis at a generic point x0, whose `extended` is the core
    plus the span of the coefficient gradients there."""
    x0, gcp = vector(x0), generic_char_poly(p)
    return PointAnalysis(evaluate_at(p, x0), gcp, x0, gcp.specialise(x0))


def completeness_check(p: PolyPoissonPencil, x0: Sequence) -> CompletenessReport:
    """Completeness of the extended core at a generic point; see
    PointAnalysis.completeness."""
    return extended_core(p, x0).completeness


def involution_check(p: PolyPoissonPencil, x0: Sequence) -> InvolutionCertificate:
    """Exact bi-involution of the covector family at a generic point; see
    PointAnalysis.involution."""
    return extended_core(p, x0).involution


def eigenvalue_lemma_check(p: PolyPoissonPencil, x0: Sequence) -> EigenvalueLemmaCertificate:
    """The eigenvalue lemma at the rational roots at a generic point; see
    PointAnalysis.eigenvalue_lemma."""
    return extended_core(p, x0).eigenvalue_lemma


def sample_generic_point(p: PolyPoissonPencil, seed: int = 0) -> Vector:
    """The first small-integer point drawn by Random(seed + 101) that is generic."""
    return _sample_generic(partial(evaluate_at, p), generic_char_poly(p), seed).point


def _sample_generic(
    pencil_at: Callable[[Vector], SkewPencil], gcp: GenericCharPoly, seed: int
) -> PointAnalysis:
    """The analysis at the first point x0 drawn by Random(seed + 101) at
    which pencil_at(x0), the pencil there, is generic for gcp: one
    _certify search, which raises as it does."""
    points = _points(pencil_at, gcp, random.Random(seed + 101))
    [(x0, pencil, expected)] = _certify(points, gcp.rank, gcp.degree, 1)
    return PointAnalysis(pencil, gcp, x0, expected)


@dataclass(frozen=True)
class FamilyCompleteness:
    """The completeness verdict of the local Casimirs with the coefficients
    of the generic characteristic polynomial, read at generic points, with
    the analyses it read there."""

    verdict: str
    points: tuple[PointAnalysis, ...]
    witnesses: tuple[str, ...]
    warnings: tuple[str, ...]


def family_completeness(
    pencil_at: Callable[[Vector], SkewPencil],
    gcp: GenericCharPoly,
    seed: int,
    explicit_points: Optional[Sequence[Sequence]] = None,
    first: Optional[PointAnalysis] = None,
) -> FamilyCompleteness:
    """The family's verdict for the pencil that pencil_at(x0) gives at each
    point x0, whose generic characteristic polynomial is gcp.

    The points are the explicit ones, each analysed only after the verdict
    at the one before; or `first`, a point the caller has analysed, and the
    point of one search at seed; or the points of two searches, at seed and
    seed + 31.  By analyticity every generic point gives the same verdict,
    so a disagreement is reported as UNSTABLE_SAMPLES and downgrades the
    verdict to INDETERMINATE.  The witnesses of all points are merged in
    order, each once.
    """
    if explicit_points is not None:
        points = (PointAnalysis(pencil_at(x0), gcp, x0, gcp.specialise(x0)) for x0 in map(vector, explicit_points))
    elif first is not None:
        points = [first, _sample_generic(pencil_at, gcp, seed)]
    else:
        points = [_sample_generic(pencil_at, gcp, seed + 31 * i) for i in range(2)]
    analysed, verdicts = [], set()
    for pa in points:
        verdicts.add(pa.completeness.verdict)
        analysed.append(pa)
    if len(verdicts) == 1:
        [verdict], warnings = verdicts, ()
    else:
        verdict, warnings = INDETERMINATE, ("UNSTABLE_SAMPLES: pointwise verdicts disagree",)
    witnesses = dict.fromkeys(w for pa in analysed for w in pa.completeness.witnesses)
    return FamilyCompleteness(verdict, tuple(analysed), tuple(witnesses), warnings)
