"""Lie-algebra front end: Lie-Poisson pencils on the dual space.

A Lie algebra is given by structure constants c_ij^k (stored for i < j,
antisymmetry implied).  The Lie-Poisson matrix A(x) = (sum_k c_ij^k x_k)
together with a frozen-argument matrix A(a) forms a compatible Poisson
pencil; its generic Jordan-Kronecker invariants, the fundamental
semi-invariant, and the completeness verdicts for the argument-shift
family and its extension are computed here.

One analysis checks the Jacobi identity once, on the structure constants
(which makes the pencil compatible, since A(x) + A(a) = A(x + a); the
Poisson-matrix check is its test oracle), and
keeps the generic rank of A(x) and the fundamental semi-invariant p_g
(one Pfaffian gcd) on the algebra.  The pencil's generic characteristic
polynomial is read off p_g: A(x) - lambda*A(a) = A(x - lambda*a), so
p(lambda) = monic(p_g(x - lambda*a)), and every sampled point is checked
against it.  One stream of analysed pairs (x, a) per seed serves the
generic samples, the semi-invariant certificate and a sampled frozen
point.  The pencil at an F~_a point is built from the structure
constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import InternalConsistencyError, ValidationError
from .linalg import Matrix, Vector, fraction_free_rank, rank, vector
from .multipoly import MultiPoly
from .pencil import JKInvariants, SkewPencil, _PencilAnalysis
from .poisson import (
    COMPLETE,
    INCOMPLETE,
    INDETERMINATE,
    GenericCharPoly,
    PointAnalysis,
    PolyPoissonPencil,
    _certify,
    _pfaffian_gcd,
    _random_point,
    _sample_generic,
)
from .unipoly import _as_fraction


class LieAlgebra:
    """Structure constants of a finite-dimensional Lie algebra over Q.

    brackets maps (i, j) with 0 <= i < j < dim to {k: c} meaning
    [e_i, e_j] = sum_k c * e_k.  Instances are immutable by convention.
    """

    def __init__(self, dim: int, brackets: dict, name: str = ""):
        if dim < 1:
            raise ValidationError("dimension must be positive")
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValidationError(f"bracket indices ({i}, {j}) out of range")
            row = {}
            for k, c in coeffs.items():
                if not 0 <= k < dim:
                    raise ValidationError(f"target index {k} out of range")
                c = _as_fraction(c)
                if c != 0:
                    row[k] = c
            if row:
                table[(i, j)] = row
        self.dim = dim
        self.name = name
        self.table = table
        self._generic_rank: Optional[int] = None
        self._semiinvariant: Optional[MultiPoly] = None
        self._streams: dict[int, tuple[random.Random, list]] = {}
        self._certified: dict[int, tuple[tuple[Vector, Vector], ...]] = {}

    def c(self, i: int, j: int, k: int) -> Fraction:
        """Structure constant with antisymmetry in (i, j)."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.table.get((i, j), {}).get(k, Fraction(0))
        return -self.table.get((j, i), {}).get(k, Fraction(0))

    def poisson_matrix(self) -> list[list[MultiPoly]]:
        """The Lie-Poisson matrix A(x) with entries sum_k c_ij^k x_k."""
        n = self.dim
        rows = [[MultiPoly.zero(n) for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in self.table.items():
            entry = MultiPoly(n, {tuple(1 if t == k else 0 for t in range(n)): c
                                  for k, c in coeffs.items()})
            rows[i][j] = entry
            rows[j][i] = -entry
        return rows

    def frozen_matrix(self, a: Sequence) -> Matrix:
        """The frozen-argument matrix A(a) at a point a (or A(x) at x)."""
        a = vector(a)
        if len(a) != self.dim:
            raise ValidationError(f"point has length {len(a)}, expected {self.dim}")
        n = self.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), coeffs in self.table.items():
            val = sum(c * a[k] for k, c in coeffs.items())
            rows[i][j] = val
            rows[j][i] = -val
        return tuple(tuple(r) for r in rows)

    def generic_rank(self) -> int:
        """Rank of A(x) over Q(x), computed on the first call and kept."""
        if self._generic_rank is None:
            self._generic_rank = fraction_free_rank(self.poisson_matrix())
        return self._generic_rank

    def _pairs(self, seed: int) -> Iterator[tuple[tuple[Vector, Vector], _PencilAnalysis]]:
        """The pairs (x, a) drawn by Random(seed), each with the analysis of
        its pencil (A(x), A(a)), drawn when first read and kept: the generic
        samples, the semi-invariant certificate and the sampled frozen
        point read one stream per seed and analyse each pair once."""
        rng, drawn = self._streams.setdefault(seed, (random.Random(seed), []))
        for t in count():
            if t == len(drawn):
                x0 = _random_point(self.dim, rng)
                a0 = _random_point(self.dim, rng)
                # A third draw, once a seed for regular values and now
                # unused, keeps the pairs of every seed as they were.
                rng.randrange(1 << 30)
                at_pair = SkewPencil(self.frozen_matrix(x0), self.frozen_matrix(a0))
                drawn.append(((x0, a0), _PencilAnalysis(at_pair)))
            yield drawn[t]

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label})"


class LieValidation(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int, int, int]]

    def __bool__(self) -> bool:
        return self.ok


def validate_lie_algebra(g: LieAlgebra) -> LieValidation:
    """Exact Jacobi identity of the structure constants.

    For each i < j < k the Jacobiator [[e_i,e_j],e_k] + cyclic is formed
    once from the bracket table.  The witness is the 1-based (i, j, k, l)
    of the lexicographically first failing triple and the smallest index l
    of a nonzero component of its Jacobiator.
    """
    brackets = dict(g.table)
    for (i, j), coeffs in g.table.items():
        brackets[(j, i)] = {k: -c for k, c in coeffs.items()}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                total: dict[int, Fraction] = {}
                for p, q, s in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c_pq in brackets.get((p, q), {}).items():
                        for l, c_ms in brackets.get((m, s), {}).items():
                            total[l] = total.get(l, 0) + c_pq * c_ms
                nonzero = [l for l, v in total.items() if v != 0]
                if nonzero:
                    return LieValidation(False, (i + 1, j + 1, k + 1, min(nonzero) + 1))
    return LieValidation(True, None)


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
    """Generic Jordan-Kronecker invariants of a Lie algebra by sampling."""

    samples: int
    seed: int
    max_rank: int
    stable: bool
    representative: JKInvariants
    shape: tuple

    @property
    def has_jordan_blocks(self) -> bool:
        return bool(self.representative.jordan)


def jk_invariants_generic(g: LieAlgebra, samples: int = 7, seed: int = 0) -> GenericJKReport:
    """Invariants of the constant pencil (A(x), A(a)) at the first
    `samples` pairs of g._pairs(seed), which the semi-invariant certificate
    reads too, keeping those achieved at maximal pencil rank.

    Stability means all max-rank samples agree on the eigenvalue-free
    shape (Kronecker multiset plus degree-expanded half-size multisets);
    an unstable report is not fatal, the caller may raise `samples`.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    results = [analysis.invariants() for _, analysis in islice(g._pairs(seed), samples)]
    max_rank = max(inv.rank for inv in results)
    top = [inv for inv in results if inv.rank == max_rank]
    shapes = {inv.shape() for inv in top}
    return GenericJKReport(
        samples=samples,
        seed=seed,
        max_rank=max_rank,
        stable=len(shapes) == 1,
        representative=top[0],
        shape=top[0].shape(),
    )


def fundamental_semiinvariant(g: LieAlgebra, seed: int = 0) -> MultiPoly:
    """Gcd of the Pfaffians of all principal r x r minors of A(x).

    Normalized to content 1 with positive lexicographically-leading
    coefficient.  Computed on the first call and kept on g; the first call
    at each seed certifies the defining identity with poisson._certify
    over the analysed pairs (x, a) of g._pairs(seed), the generic samples'
    pairs, which it reads past the samples only when fewer than three of
    them certify: with eigenvalues read from A - lambda*B, the pencil
    characteristic polynomial at (x, a) equals the monic normalization of
    p_g restricted to the line x - lambda*a.
    """
    if seed not in g._certified:
        r = g.generic_rank()
        if g._semiinvariant is None:
            g._semiinvariant = _pfaffian_gcd(g.poisson_matrix(), r)
        p_g = g._semiinvariant
        lines = (
            (pair, analysis, p_g.eval_on_line(pair[0], tuple(-v for v in pair[1])).monic())
            for pair, analysis in g._pairs(seed)
        )
        g._certified[seed] = _certify(lines, r, p_g.total_degree())
    return g._semiinvariant


def _sampled_frozen_point(g: LieAlgebra, seed: int) -> Vector:
    """The a of the first pair (x, a) that certified p_g at seed: regular,
    since _certify admits only pairs with rank A(a) = the generic rank."""
    fundamental_semiinvariant(g, seed)
    return g._certified[seed][0][1]


def _lie_char_poly(g: LieAlgebra, a: Vector, seed: int) -> GenericCharPoly:
    """Generic characteristic polynomial of the pencil (A(x), A(a)), read
    off the fundamental semi-invariant: A(x) - lambda*A(a) = A(x - lambda*a),
    so p(lambda) = monic(p_g(x - lambda*a)).

    By Taylor's formula the lambda^k coefficient of p_g(x - lambda*a) is
    (-1)^k/k! (a.grad)^k p_g.  Every principal r-Pfaffian of the linear
    A(x) is homogeneous of degree r/2, so their gcd p_g is homogeneous of
    some degree d, and the lambda^d coefficient is the constant
    (-1)^d p_g(a), the denominator.  It is nonzero at a regular a: some
    principal r-Pfaffian of A(a) is nonzero, and p_g divides it.
    """
    p_g = fundamental_semiinvariant(g, seed)
    coeffs = [p_g]
    for k in range(1, p_g.total_degree() + 1):
        along_a = (coeffs[-1].derivative(i).scale(c) for i, c in enumerate(a) if c)
        coeffs.append(sum(along_a, MultiPoly.zero(g.dim)).scale(Fraction(-1, k)))
    degree = len(coeffs) - 1
    return GenericCharPoly(g.dim, g.generic_rank(), degree, tuple(coeffs[:-1]), coeffs[-1])


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


@dataclass(frozen=True)
class FTildeReport:
    """Aggregated extended-family completeness verdict over the analyses
    of the sample points."""

    verdict: str
    frozen_point: Vector
    frozen_regular: bool
    points: tuple[PointAnalysis, ...]
    witnesses: tuple[str, ...]
    warnings: tuple[str, ...]


def ftilde_completeness(
    g: LieAlgebra,
    a: Sequence,
    seed: int = 0,
    explicit_points: Sequence[Sequence] | None = None,
) -> FTildeReport:
    """Extended family verdict via the pointwise completeness criterion.

    Reads the completeness verdict of the PointAnalysis at two sampled
    generic points of the pencil (A(x), A(a)), or at the explicitly
    supplied points, and keeps those analyses; by analyticity all generic
    points must agree, so disagreement is reported as UNSTABLE_SAMPLES
    and the verdict is downgraded.  An irregular frozen point downgrades
    to INDETERMINATE.
    """
    a = vector(a)
    frozen = g.frozen_matrix(a)
    warnings = _irregularity(g, frozen)
    if warnings:
        return FTildeReport(
            verdict=INDETERMINATE,
            frozen_point=a,
            frozen_regular=False,
            points=(),
            witnesses=(),
            warnings=warnings,
        )
    gcp = _lie_char_poly(g, a, seed)

    def pencil_at(x0: Vector) -> SkewPencil:  # as the pair stream builds it
        return SkewPencil(g.frozen_matrix(x0), frozen)

    # Sampled points are all chosen before the first verdict; an explicit
    # point is checked for genericity after the verdict at the one before.
    if explicit_points is None:
        points = [_sample_generic(pencil_at, gcp, seed + 31 * i) for i in range(2)]
    else:
        points = (PointAnalysis(pencil_at(x0), gcp, x0) for x0 in map(vector, explicit_points))
    analysed, reports = [], []
    for pa in points:
        analysed.append(pa)
        reports.append(pa.completeness)
    verdicts = {r.verdict for r in reports}
    if len(verdicts) == 1:
        verdict = reports[0].verdict
    else:
        verdict = INDETERMINATE
        warnings = warnings + ("UNSTABLE_SAMPLES: pointwise verdicts disagree",)
    witnesses = []
    for r in reports:
        for w in r.witnesses:
            if w not in witnesses:
                witnesses.append(w)
    return FTildeReport(
        verdict=verdict,
        frozen_point=a,
        frozen_regular=True,
        points=tuple(analysed),
        witnesses=tuple(witnesses),
        warnings=warnings,
    )


# -- catalog ----------------------------------------------------------------


def abelian(n: int, name: str = "") -> LieAlgebra:
    return LieAlgebra(n, {}, name or f"abelian{n}")


def heisenberg3() -> LieAlgebra:
    return LieAlgebra(3, {(0, 1): {2: 1}}, "heisenberg3")


def aff1() -> LieAlgebra:
    return LieAlgebra(2, {(0, 1): {1: 1}}, "aff1")


def so3() -> LieAlgebra:
    return LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}},
        "so3",
    )


def sl2() -> LieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra(
        3,
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        "sl2",
    )


def e3() -> LieAlgebra:
    """Euclidean algebra so(3) acting on R^3: rotations first, then
    translations; [e_i, f_j] = eps_ijk f_k, [f_i, f_j] = 0."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    brackets: dict = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                s = eps.get((i, j, k))
                if s:
                    brackets.setdefault((i, 3 + j), {})[3 + k] = s
    return LieAlgebra(6, brackets, "e3")


def so_n(n: int, name: str = "") -> LieAlgebra:
    """so(n) in the basis M_ab = E_ab - E_ba, a < b, lexicographic order."""
    gens = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {ab: t for t, ab in enumerate(gens)}

    def gen_coeff(x: int, y: int) -> tuple[int, int] | None:
        # M_xy as +/- a basis generator; None for x == y
        if x == y:
            return None
        return (index[(x, y)], 1) if x < y else (index[(y, x)], -1)

    brackets: dict = {}
    for t1, (a, b) in enumerate(gens):
        for t2, (c, d) in enumerate(gens):
            if t1 >= t2:
                continue
            coeffs: dict[int, Fraction] = {}
            for delta, pair in (
                (int(b == c), (a, d)),
                (int(a == d), (b, c)),
                (-int(a == c), (b, d)),
                (-int(b == d), (a, c)),
            ):
                if delta == 0:
                    continue
                gc = gen_coeff(*pair)
                if gc is None:
                    continue
                k, sign = gc
                coeffs[k] = coeffs.get(k, Fraction(0)) + delta * sign
            coeffs = {k: v for k, v in coeffs.items() if v != 0}
            if coeffs:
                brackets[(t1, t2)] = coeffs
    return LieAlgebra(len(gens), brackets, name or f"so{n}")


def direct_sum(g1: LieAlgebra, g2: LieAlgebra, name: str = "") -> LieAlgebra:
    brackets: dict = {}
    for (i, j), coeffs in g1.table.items():
        brackets[(i, j)] = dict(coeffs)
    off = g1.dim
    for (i, j), coeffs in g2.table.items():
        brackets[(i + off, j + off)] = {k + off: c for k, c in coeffs.items()}
    return LieAlgebra(g1.dim + g2.dim, brackets, name or f"{g1.name}+{g2.name}")


def catalog() -> list[LieAlgebra]:
    """Named regression fixtures; every entry passes validate_lie_algebra."""
    entries = [
        abelian(3),
        abelian(4),
        heisenberg3(),
        aff1(),
        direct_sum(aff1(), abelian(2), "aff1_abelian2"),
        so3(),
        sl2(),
        e3(),
        so_n(4),
    ]
    for g in entries:
        if not validate_lie_algebra(g):
            raise InternalConsistencyError(f"catalog entry {g.name} fails Jacobi")
    return entries


def catalog_names() -> list[str]:
    return [g.name for g in catalog()]


def get_algebra(name: str) -> LieAlgebra:
    for g in catalog():
        if g.name == name:
            return g
    raise ValidationError(f"unknown catalog algebra: {name!r}")
