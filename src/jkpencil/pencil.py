"""Constant pencils of skew-symmetric bilinear forms over Q.

Analyzes the one-parameter family A + lambda*B: rank, regular values,
the characteristic polynomial, the core subspace (sum of kernels of
regular members), and the full block invariants (Kronecker parameters
plus Jordan half-sizes grouped by eigenvalue).

One analysis computes each quantity once.  Its RegularValueSampler
holds the one member table: rank(B), then the kernels of the members
A + mu*B at mu = 0, 1, -1, 2, -2, ..., each eliminated once, when first
read.  The pencil rank is read from rank(B) and the first rank(B)/2 + 1
of those kernels, and the regular values are the members of full rank
in that order (its docstring proves both bounds), kept with their
kernels and kernel sums in one record.  The sampler reads the growth
sequence of the kernel sums once; its length D is the largest Kronecker
parameter.  The Kronecker parameters are read from that sequence, the
core from the first D + 2 values, the isotropy certificate from the
first D + 4 and, at a Lie evaluation point, the involution certificate
from the first D + 2, and every pairing is an integer dot product with
the pencil's integer form.  No random numbers are drawn.
The Smith invariant factors d_1 | ... | d_r of A - lambda*B are
computed once too: the characteristic polynomial is d_2*d_4*...*d_r,
and the finite Jordan data are read from their elementary divisors.
When B is irregular, the infinite Jordan blocks are the powers of mu in
the invariant factors of the reversed pencil B - mu*A, a second Smith
form with the same count and pair checks.  A pencil is held as one
integer form D*(A, B), so the members at integer values are built and
eliminated without Fractions, and both Smith forms read their integer
lambda-matrices DA - lambda*DB and DB - mu*DA off it.  The Smith
factors are kept as primitive integer polynomials: the characteristic
polynomial is their product, and the Jordan groups their refined factor
basis; the squarefree parts and rational roots of the characteristic
polynomial are computed only when read.  The gcd of the principal r x r
Pfaffians is the second route to the characteristic polynomial, and
fraction-free elimination over Q[lambda] the second route to the rank;
both live in the test suite as oracles.

Sign conventions.  Eigenvalues are the roots of the characteristic
polynomial of A - lambda*B; the member A + lambda0*B drops rank exactly
when -lambda0 is such a root.  Non-rational eigenvalues are represented
by their monic minimal polynomials over Q; a degree-d descriptor stands
for d conjugate eigenvalues sharing one multiset of half-sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import NamedTuple, Optional

from .errors import (
    InfiniteEigenvalueError,
    InternalConsistencyError,
    PairingViolationError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    Matrix,
    Subspace,
    congruence,
    is_skew,
    kernel_basis,
    matrix,
    rank,
    subspace_sum,
)
from .smith import smith_normal_form
from .unipoly import (
    UniPoly,
    _as_fraction,
    _int_poly_mul,
    _integer_primitive,
    _to_unipoly,
    rational_roots,
    refined_factors,
    squarefree_decompose,
)


class _InfinityType:
    """Sentinel for the eigenvalue at infinity (rank(B) < pencil rank)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfinityType()


@dataclass(frozen=True, init=False)
class SkewPencil:
    """A pair of same-size skew-symmetric rational matrices (A, B).

    Held as one integer form, _scaled = (D*A, D*B) with D the lcm of all
    denominators, built from int, Fraction or str entries.  (D, _scaled) is
    unique per pencil, so equality and hash read it; the Fraction matrices
    a and b are built when first read."""

    _denominator: int
    _scaled: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

    def __init__(self, a: Matrix, b: Matrix):
        a, b = ([[x if type(x) is int else _as_fraction(x) for x in row] for row in m] for m in (a, b))
        if any(len(row) != len(m[0]) for m in (a, b) for row in m):
            raise ValidationError("ragged matrix")
        if len(b) != len(a):
            raise ValidationError("A and B have different sizes")
        d = lcm(*(x.denominator for m in (a, b) for row in m for x in row))
        scaled = tuple(tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m)
                       for m in (a, b))
        # D*M is skew exactly when M is, so the integer form is checked.
        if not all(is_skew(m) for m in scaled):
            raise ValidationError("pencil matrices must be skew-symmetric")
        object.__setattr__(self, "_denominator", d)
        object.__setattr__(self, "_scaled", scaled)

    @property
    def n(self) -> int:
        return len(self._scaled[0])

    @cached_property
    def a(self) -> Matrix:
        return tuple(tuple(Fraction(x, self._denominator) for x in row) for row in self._scaled[0])

    @cached_property
    def b(self) -> Matrix:
        return tuple(tuple(Fraction(x, self._denominator) for x in row) for row in self._scaled[1])

    def _scaled_member(self, mu: int) -> list[list[int]]:
        """D*(A + mu*B) for an integer mu: the rank and kernel of A + mu*B."""
        a, b = self._scaled
        return [[x + mu * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def member(self, lam) -> Matrix:
        """A + lambda*B as a rational matrix."""
        lam = Fraction(lam)
        return tuple(
            tuple(x + lam * y for x, y in zip(ra, rb))
            for ra, rb in zip(self.a, self.b)
        )

    def lambda_matrix(self, sign: int = 1) -> list[list[UniPoly]]:
        """A + sign*lambda*B as a matrix of univariate polynomials."""
        return [
            [UniPoly((x, sign * y)) for x, y in zip(ra, rb)]
            for ra, rb in zip(self.a, self.b)
        ]


class JordanGroup(NamedTuple):
    """Jordan blocks sharing one eigenvalue descriptor.

    descriptor: monic UniPoly over Q (degree 1 = rational eigenvalue) or
    INFINITY; half_sizes: sorted multiset, one entry 2n per jordan block
    of size 2n x 2n.
    """

    descriptor: object
    half_sizes: tuple[int, ...]

    @property
    def degree(self) -> int:
        return 1 if self.descriptor is INFINITY else self.descriptor.degree

    def sort_key(self):
        if self.descriptor is INFINITY:
            return (1, 0, ())
        return (0,) + self.descriptor.sort_key()


@dataclass(frozen=True)
class JKInvariants:
    """Complete Jordan-Kronecker block data of a skew pencil.

    kronecker holds the parameters k_i (block size 2k_i - 1); jordan
    holds eigenvalue groups.  Derived dimensions are stored for
    reporting and cross-checks.
    """

    kronecker: tuple[int, ...]
    jordan: tuple[JordanGroup, ...]
    n: int = field(compare=False)
    rank: int = field(compare=False)
    corank: int = field(compare=False)
    core_dim: int = field(compare=False)
    mantle_dim: int = field(compare=False)

    @classmethod
    def from_blocks(cls, kronecker, jordan) -> "JKInvariants":
        kron = tuple(sorted(int(k) for k in kronecker))
        if any(k < 1 for k in kron):
            raise ValidationError("Kronecker parameters must be >= 1")
        groups = []
        for descriptor, sizes in jordan:
            sizes = tuple(sorted(int(s) for s in sizes))
            if not sizes or any(s < 1 for s in sizes):
                raise ValidationError("Jordan half-sizes must be >= 1")
            if descriptor is not INFINITY:
                if not isinstance(descriptor, UniPoly) or descriptor.degree < 1:
                    raise ValidationError("eigenvalue descriptor must be non-constant")
                descriptor = descriptor.monic()
            groups.append(JordanGroup(descriptor, sizes))
        groups.sort(key=JordanGroup.sort_key)
        n = sum(2 * k - 1 for k in kron) + sum(
            2 * g.degree * sum(g.half_sizes) for g in groups
        )
        corank = len(kron)
        core_dim = sum(kron)
        mantle_dim = core_dim + sum(
            2 * g.degree * sum(g.half_sizes) for g in groups
        )
        return cls(
            kronecker=kron,
            jordan=tuple(groups),
            n=n,
            rank=n - corank,
            corank=corank,
            core_dim=core_dim,
            mantle_dim=mantle_dim,
        )

    @property
    def jordan_degree_total(self) -> int:
        """Sum of half-sizes weighted by descriptor degree, all groups."""
        return sum(g.degree * sum(g.half_sizes) for g in self.jordan)

    @property
    def finite_char_degree(self) -> int:
        """Degree of the characteristic polynomial (finite eigenvalues only)."""
        return sum(
            g.degree * sum(g.half_sizes)
            for g in self.jordan
            if g.descriptor is not INFINITY
        )

    def shape(self):
        """Eigenvalue-free canonical form: each descriptor of degree d
        expands to d copies of its half-size multiset."""
        expanded = []
        for g in self.jordan:
            expanded.extend([g.half_sizes] * g.degree)
        return (self.kronecker, tuple(sorted(expanded)))


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; its factor structure is computed
    on first read."""

    poly: UniPoly
    degree: int

    @classmethod
    def from_poly(cls, poly: UniPoly) -> "CharPoly":
        poly = poly.monic()
        if poly.degree < 1:
            return cls(UniPoly.one(), 0)
        return cls(poly, poly.degree)

    @cached_property
    def squarefree_parts(self) -> tuple[tuple[UniPoly, int], ...]:
        return tuple(squarefree_decompose(self.poly))

    @cached_property
    def rational_roots(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(rational_roots(self.poly))

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.squarefree_parts)


# -- basic pencil quantities ---------------------------------------------


def _member_value(i: int) -> int:
    """mu of member i in the order 0, 1, -1, 2, -2, ..."""
    return (i + 1) // 2 if i % 2 else -(i // 2)


class RegularValueSampler:
    """The member kernels of one pencil, its rank, and its regular values.

    Member i is A + mu*B at mu = _member_value(i) = 0, 1, -1, 2, -2, ...;
    its kernel is eliminated once, with kernel_basis, when first read.

    The pencil rank r is the largest of rank(B) and the ranks n - dim ker
    of the first rank(B)/2 + 1 members.  This is exact: r is at least
    rank(B), B being the leading coefficient, and no member exceeds it.
    Some principal r x r Pfaffian is a nonzero polynomial in lambda, by
    minor summation (Ishikawa-Wakayama)
        Pf((A + lambda*B)_I) = sum_(J in I) +-lambda^(|J|/2) Pf(B_J) Pf(A_(I-J)),
    and Pf(B_J) = 0 once |J| > rank(B); so it vanishes at no more than
    rank(B)/2 distinct values, and the member at another has rank r.  No
    member is eliminated once the rank is n - n mod 2, as when B is.

    The regular values are the members of full rank, in member order:
    member i is regular iff its kernel has dimension n - r.  A + mu*B drops
    rank exactly when -mu is a root of the characteristic polynomial
    (finite eigenvalues), whose degree, the sum of the finite Jordan
    half-sizes, is at most r/2.  So at most r/2 members are irregular, and
    draw t (from 0) returns within the first t + r/2 + 1 members: t regular
    values before it and at most r/2 irregular ones.  Past that bound r is
    not the pencil rank, which raises InternalConsistencyError.

    Each draw is kept with its kernel in `drawn`, and the kernel sums in
    draw order.  The growth sequence, the increments of the kernel sum up
    to its first zero, is read once: increment t is #{i : k_i >= t + 1}
    for the Kronecker parameters k_i, so it is positive for t < D = max k_i
    and zero after, and D is its length.  The core is the sum of the first
    D + 2 kernels, the isotropy certificate pairs the first D + 4 and, at a
    Lie evaluation point, the involution certificate reads the first D + 2,
    so all of them see the same values in the same order.
    """

    def __init__(self, p: SkewPencil):
        self.p = p
        self._kernels: list[Subspace] = []
        self.rank_b = rank(p._scaled[1])
        full = p.n - p.n % 2
        r = self.rank_b
        for i in range(self.rank_b // 2 + 1):
            if r == full:
                break
            r = max(r, p.n - self._member_kernel(i).dim)
        if r % 2 != 0:
            raise InternalConsistencyError("skew pencil with odd rank")
        self.r = r
        self.drawn: list[tuple[Fraction, Subspace]] = []
        self._sums: list[Subspace] = []
        self._next = 0

    def _member_kernel(self, i: int) -> Subspace:
        while len(self._kernels) <= i:
            mu = _member_value(len(self._kernels))
            self._kernels.append(kernel_basis(self.p._scaled_member(mu)))
        return self._kernels[i]

    def draw(self) -> Fraction:
        """The next regular value, appended with its kernel to `drawn`."""
        while self._next <= len(self.drawn) + self.r // 2:
            i = self._next
            self._next += 1
            kernel = self._member_kernel(i)
            if self.p.n - kernel.dim == self.r:
                mu = Fraction(_member_value(i))
                self.drawn.append((mu, kernel))
                return mu
        raise InternalConsistencyError(
            f"{self.r // 2 + 1} irregular members: the pencil rank is not {self.r}"
        )

    def regular(self, t: int) -> tuple[Fraction, Subspace]:
        """Regular value t (from 0) and the kernel of its member."""
        while len(self.drawn) <= t:
            self.draw()
        return self.drawn[t]

    def kernel_sum(self, t: int) -> Subspace:
        """Sum of the kernels of regular values 0..t."""
        while len(self._sums) <= t:
            prev = self._sums[-1] if self._sums else Subspace.zero(self.p.n)
            self._sums.append(subspace_sum(prev, self.regular(len(self._sums))[1]))
        return self._sums[t]

    @cached_property
    def growth(self) -> list[int]:
        """The increments of the kernel sum over regular values 0, 1, ...,
        up to the first zero; empty, with no value drawn, at full rank."""
        increments, dim = [], 0
        if self.r < self.p.n:
            while grown := self.kernel_sum(len(increments)).dim - dim:
                increments.append(grown)
                dim += grown
        return increments

    def core(self) -> Subspace:
        """Sum of the kernels of the first D + 2 regular values."""
        return self.kernel_sum(len(self.growth) + 1)

    def isotropy(self) -> "IsotropyCertificate":
        """Pairs the kernels of the first D + 4 regular values, two more
        than the core reads."""
        rows = [u for t in range(len(self.growth) + 4) for u in self.regular(t)[1].rows]
        pairings, violation = _pairings(rows, self.p._scaled)
        return IsotropyCertificate(len(rows), pairings, violation is None, violation)


def pencil_rank(p: SkewPencil) -> int:
    """Rank of A + lambda*B over Q(lambda); always even.  See
    RegularValueSampler for how it is read off the member kernels."""
    return RegularValueSampler(p).r


def is_regular_value(p: SkewPencil, value) -> bool:
    """Whether rank(A + value*B) attains the pencil rank; INFINITY tests B."""
    r = pencil_rank(p)
    m = p._scaled[1] if value is INFINITY else p.member(value)
    return rank(m) == r


# -- one analysis per pencil ----------------------------------------------


def _lambda_rows(a: list[list[int]], b: list[list[int]]) -> list[list[list[int]]]:
    """a - lambda*b for integer matrices a, b, as integer coefficient lists."""
    return [
        [[x, -y] if y else [x] if x else [] for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def _invariant_factors(lam_matrix, r: int) -> list[list[int]]:
    """d_2, d_4, ..., d_r, as primitive integer coefficient lists, for the
    nonzero Smith invariant factors d_1 | ... | d_r of a skew lambda-matrix
    of rank r, which come in equal pairs."""
    factors = [f for f in smith_normal_form(lam_matrix) if not f.is_zero]
    if len(factors) != r:
        raise InternalConsistencyError(f"Smith form rank {len(factors)} != pencil rank {r}")
    if factors[0::2] != factors[1::2]:
        raise PairingViolationError(
            "Smith invariant factors are not equal in pairs: "
            + ", ".join(str(f) for f in factors)
        )
    return [_integer_primitive(f) for f in factors[1::2]]


def _jordan_groups(halves: list[list[int]]) -> list[tuple[UniPoly, tuple[int, ...]]]:
    """Eigenvalue groups from d_2, d_4, ..., d_r: the exponent of a factor
    q in d_2i is the half-size of one Jordan block of q, or 0."""
    return [(q, tuple(sorted(e for e in exps if e))) for q, exps in refined_factors(halves)]


class _PencilAnalysis:
    """The sampler and the Smith invariant factors of one pencil, each
    computed once: rank(B), the pencil rank, the Kronecker increments, the
    core and the isotropy family read the sampler's member kernels, and
    the characteristic polynomial and the Jordan data the same factors."""

    def __init__(self, p: SkewPencil):
        self.p = p
        self.stream = RegularValueSampler(p)
        self.rank_b = self.stream.rank_b
        self.rank = self.stream.r

    @cached_property
    def _halves(self) -> list[list[int]]:
        return _invariant_factors(_lambda_rows(*self.p._scaled), self.rank)

    @cached_property
    def char_poly(self) -> CharPoly:
        """Monic d_2*d_4*...*d_r of A - lambda*B, which equals the gcd of
        the Pfaffians of all principal r x r minors.

        Requires B regular in the pencil (rank(B) = pencil rank), i.e. all
        eigenvalues finite; raises InfiniteEigenvalueError otherwise.
        """
        if self.rank_b < self.rank:
            raise InfiniteEigenvalueError(
                f"rank(B) = {self.rank_b} < pencil rank {self.rank}: infinite eigenvalues present"
            )
        poly = [1]
        for e in self._halves:
            poly = _int_poly_mul(poly, e)
        return CharPoly.from_poly(_to_unipoly(poly))

    def invariants(self) -> JKInvariants:
        """Jordan data from the invariant factors of A - lambda*B (and of
        B - mu*A when B is irregular), Kronecker parameters from the
        growth sequence of the stream."""
        n = self.p.n
        r = self.rank

        # Kronecker parameters: increment t is #{i : k_i >= t + 1}.
        increments = self.stream.growth
        if any(b > a for a, b in zip(increments, increments[1:])):
            raise InternalConsistencyError("kernel growth sequence not monotone")
        if increments and increments[0] != n - r:
            raise InternalConsistencyError("first kernel increment != corank")
        kronecker: list[int] = []
        for t, (c, following) in enumerate(zip(increments, increments[1:] + [0])):
            kronecker.extend([t + 1] * (c - following))

        # Jordan data: the finite blocks are the elementary divisors of
        # A - lambda*B, the infinite ones the powers of mu in those of the
        # reversed pencil B - mu*A (Gantmacher, vol. II, ch. XII).
        groups = _jordan_groups(self._halves)
        if self.rank_b < r:
            a, b = self.p._scaled
            orders = [
                next(i for i, c in enumerate(d) if c)
                for d in _invariant_factors(_lambda_rows(b, a), r)
            ]
            if any(orders):
                groups.append((INFINITY, tuple(e for e in orders if e)))

        invariants = JKInvariants.from_blocks(kronecker, groups)
        if invariants.n != n:
            raise InternalConsistencyError(
                f"block dimensions sum to {invariants.n}, expected {n}"
            )
        if invariants.core_dim != sum(increments):
            raise InternalConsistencyError(
                f"Kronecker core dimension {invariants.core_dim} != kernel-sum dimension {sum(increments)}"
            )
        return invariants


def characteristic_polynomial(p: SkewPencil) -> CharPoly:
    """Monic characteristic polynomial of A - lambda*B, read from its Smith
    invariant factors.

    Requires B regular in the pencil (rank(B) = pencil rank), i.e. all
    eigenvalues finite; raises InfiniteEigenvalueError otherwise
    (jk_invariants reads the infinite blocks from B - mu*A).
    """
    return _PencilAnalysis(p).char_poly


def core_subspace(p: SkewPencil) -> Subspace:
    """Sum of kernels of regular members, stabilized twice.

    Adds Ker(A + mu*B) at the regular values mu in the order 0, 1, -1, 2,
    ... until the dimension is unchanged for two consecutive steps.
    """
    return _PencilAnalysis(p).stream.core()


def jk_invariants(p: SkewPencil) -> JKInvariants:
    """Full block invariants: Jordan data from the Smith normal forms of
    A - lambda*B and, when B is irregular, of B - mu*A, Kronecker
    parameters from the kernel-sum growth sequence at regular values."""
    return _PencilAnalysis(p).invariants()


# -- canonical pencils and congruence -------------------------------------


def _embed(block_a, block_b, target_a, target_b, offset):
    for i, row in enumerate(block_a):
        for j, v in enumerate(row):
            target_a[offset + i][offset + j] = Fraction(v)
    for i, row in enumerate(block_b):
        for j, v in enumerate(row):
            target_b[offset + i][offset + j] = Fraction(v)


def _jordan_finite_block(lam0: Fraction, half: int):
    p = half
    a = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    b = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    for i in range(p):
        a[i][p + i] = lam0
        a[p + i][i] = -lam0
        b[i][p + i] = Fraction(1)
        b[p + i][i] = Fraction(-1)
        if i + 1 < p:
            a[i][p + i + 1] = Fraction(1)
            a[p + i + 1][i] = Fraction(-1)
    return a, b


def _jordan_infinite_block(half: int):
    p = half
    a = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    b = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    for i in range(p):
        a[i][p + i] = Fraction(1)
        a[p + i][i] = Fraction(-1)
        if i + 1 < p:
            b[i][p + i + 1] = Fraction(1)
            b[p + i + 1][i] = Fraction(-1)
    return a, b


def _kronecker_block(k: int):
    size = 2 * k - 1
    a = [[Fraction(0)] * size for _ in range(size)]
    b = [[Fraction(0)] * size for _ in range(size)]
    for i in range(k - 1):
        a[i][k - 1 + i] = Fraction(1)
        a[k - 1 + i][i] = Fraction(-1)
        b[i][k + i] = Fraction(1)
        b[k + i][i] = Fraction(-1)
    return a, b


def canonical_pencil(spec: JKInvariants) -> SkewPencil:
    """Block-diagonal pencil realizing the given invariants.

    Only rational (degree-1) and INFINITY eigenvalue descriptors are
    accepted; this is a builder limitation, not a structural one.
    """
    blocks = []
    for k in spec.kronecker:
        blocks.append(_kronecker_block(k))
    for group in spec.jordan:
        if group.descriptor is INFINITY:
            for half in group.half_sizes:
                blocks.append(_jordan_infinite_block(half))
            continue
        if group.descriptor.degree != 1:
            raise ValidationError(
                "canonical_pencil needs rational (degree-1) eigenvalue descriptors"
            )
        lam0 = -group.descriptor.coefficient(0)
        for half in group.half_sizes:
            blocks.append(_jordan_finite_block(lam0, half))
    n = sum(len(block_a) for block_a, _ in blocks)
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for block_a, block_b in blocks:
        _embed(block_a, block_b, a, b, offset)
        offset += len(block_a)
    return SkewPencil(a, b)


def congruence_transform(p: SkewPencil, transform: Matrix) -> SkewPencil:
    """(P^T A P, P^T B P); jk_invariants are unchanged."""
    transform = matrix(transform)
    if len(transform) != p.n or any(len(row) != p.n for row in transform) or rank(transform) != p.n:
        raise SingularMatrixError("congruence transform must be invertible n x n")
    return SkewPencil(congruence(transform, p.a), congruence(transform, p.b))


def random_unimodular(n: int, rng: random.Random, shears: int | None = None) -> Matrix:
    """Random integer matrix with determinant +/-1 (permutation + shears)."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[Fraction(1 if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if shears is None else shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            m[i][col] += c * m[j][col]
    return tuple(tuple(row) for row in m)


# -- isotropy certificate --------------------------------------------------


@dataclass(frozen=True)
class IsotropyCertificate:
    """Exact pairing check of core + sampled kernels under both forms."""

    family_size: int
    pairings: int
    passed: bool
    violation: Optional[tuple[int, int, str]] = None


def _pairings(rows, forms) -> tuple[int, Optional[tuple[int, int, str]]]:
    """Scans u_i^T A u_j, then u_i^T B u_j, over i <= j for the first nonzero
    pairing; returns the pairings made and that (i, j, form) or None.

    rows are integer multiples of the family's vectors and forms the integer
    pencil D*(A, B) (SkewPencil._scaled): each pairing is scaled by a
    nonzero number, so the same pairings vanish.  The images A u_j and
    B u_j are formed once; each pairing is one dot product, taken when the
    scan reaches it."""
    images = [
        (name, [[sum(map(mul, form_row, u)) for form_row in form] for u in rows])
        for name, form in zip("AB", forms)
    ]
    pairings = 0
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            for name, image in images:
                pairings += 1
                if sum(map(mul, u, image[j])):
                    return pairings, (i, j, name)
    return pairings, None


def isotropy_certificate(p: SkewPencil) -> IsotropyCertificate:
    """Checks that K + sum of sampled regular kernels is isotropic for A
    and for B: every pairing u^T A v and u^T B v is exactly zero."""
    return _PencilAnalysis(p).stream.isotropy()
