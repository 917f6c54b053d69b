"""Constant pencils of skew-symmetric bilinear forms over Q.

Analyzes the one-parameter family A + lambda*B: rank, regular values,
the characteristic polynomial, the core subspace (sum of kernels of
regular members), and the full block invariants (Kronecker parameters
plus Jordan half-sizes grouped by eigenvalue).

A SkewPencil keeps its own analysis in private cached properties, each
computed when first read, so whichever public function asks, a pencil
eliminates each member and runs each Smith form once:
- _sampler, the one RegularValueSampler: rank(B) and the kernels of the
  members A + mu*B at mu = 0, 1, -1, 2, -2, ...  They give the pencil
  rank, the regular values (no random numbers are drawn) and one
  kernel-growth sequence, whose length D is the largest Kronecker
  parameter; the core reads the first D + 2 regular values, the isotropy
  certificate D + 4 and, at a Lie evaluation point, the involution
  certificate D + 2.
- _jordan_part, the pencil restricted to M/K, K the core and M = K^perp
  the mantle: a regular pencil of size J, the total size of the Jordan
  blocks, with the elementary divisors of the whole one.
- _finite_groups, the finite Jordan data, from one refined factor basis
  of the Smith invariant factors of the Jordan part A' - lambda*B'.
- _char_poly, their product d_2*d_4*...*d_J with its squarefree parts
  and rational roots, read from the finite groups.
- _invariants, the Kronecker parameters from the growth sequence and
  the Jordan groups; the infinite blocks come from a second Smith form,
  of the reversed Jordan part B' - mu*A', when B is irregular.
pencil_rank, characteristic_polynomial, core_subspace, jk_invariants and
isotropy_certificate read them.  All of it runs on the integer form
D*(A, B), without Fractions: the regular values are ints, and the Smith
factors, the refined factor basis and the finite groups are primitive
integer coefficient lists.  A UniPoly is built only for what a caller
reads, the polynomial and squarefree parts of CharPoly and the
descriptors of JKInvariants, and a Fraction only for a rational root.
The second routes, the gcd of the principal r x r Pfaffians for the
characteristic polynomial, Yun's decomposition and the rational-root
search for its factors and fraction-free elimination over Q[lambda] for
the rank, are test oracles.

Sign conventions.  Eigenvalues are the roots of the characteristic
polynomial of A - lambda*B; the member A + lambda0*B drops rank exactly
when -lambda0 is such a root.  Non-rational eigenvalues are represented
by their monic minimal polynomials over Q; a degree-d descriptor stands
for d conjugate eigenvalues sharing one multiset of half-sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
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
    _common_denominator,
    is_skew,
    kernel_basis,
    rank,
    subspace_sum,
)
from .rational import _as_fraction
from .smith import smith_normal_form
from .unipoly import UniPoly, _int_poly_mul, _to_unipoly, refined_factors


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
    denominators, built from int, Fraction or str entries.  Matrices of
    ints are that form with D = 1 as they are, after one pass over the
    entry types.  (D, _scaled) is unique per pencil, so equality and hash
    read it; the Fraction matrices a and b, like the analysis properties
    below, are built when first read and kept."""

    _denominator: int
    _scaled: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

    def __init__(self, a: Matrix, b: Matrix):
        a, b = (tuple(map(tuple, m)) for m in (a, b))
        d = 1
        if set(map(type, chain.from_iterable(a + b))) - {int}:
            a, b = ([[x if type(x) is int else _as_fraction(x) for x in row] for row in m] for m in (a, b))
            d = lcm(*(x.denominator for m in (a, b) for row in m for x in row))
            a, b = (
                tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m) for m in (a, b)
            )
        if any(len(row) != len(m[0]) for m in (a, b) for row in m):
            raise ValidationError("ragged matrix")
        if len(b) != len(a):
            raise ValidationError("A and B have different sizes")
        scaled = (a, b)
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

    def member(self, lam) -> Matrix:
        """A + lambda*B as a rational matrix."""
        lam = Fraction(lam)
        return tuple(
            tuple(x + lam * y for x, y in zip(ra, rb))
            for ra, rb in zip(self.a, self.b)
        )

    @cached_property
    def _sampler(self) -> RegularValueSampler:
        """The pencil's one member table: rank(B), the pencil rank, the
        regular values and their kernels, the core and the isotropy family."""
        return RegularValueSampler(self)

    @cached_property
    def _jordan_part(self) -> tuple[list[list[int]], list[list[int]]]:
        """The integer pencil D*(A, B) restricted to M/K: the Gram matrices
        (C*DA*C^T, C*DB*C^T) of rows C that span a complement of K in M.

        K is the stabilised kernel sum that `growth` formed and M its
        orthogonal under S, the member at the first regular value; M is the
        same under every regular member, so A and B, combinations of two of
        them, vanish on K x M and descend to M/K.  In the normal form
        (Thompson, LAA 147, 1991) a Kronecker block of parameter k meets K
        and M in the same k dimensions, so M/K is the sum of the Jordan
        blocks, finite and infinite: a regular pencil of size J, the sum of
        their sizes.  The Kronecker blocks add only unit invariant factors,
        so the elementary divisors, and the Jordan groups, are those of the
        whole pencil.  K <= M, so the pivots of K are pivots of M, and the
        RREF rows of M at the other pivots span a complement of K.

        At full rank K = 0 and the pair is D*(A, B) itself.  When every
        Kronecker parameter is 1 (growth of length 1), K is ker S and M all
        of Q^n, so C is unit vectors and the restriction deletes the rows
        and columns at K's pivots."""
        a, b = self._scaled
        sampler = self._sampler
        depth = len(sampler.growth)
        if not depth:
            return a, b
        core = sampler.kernel_sum(depth)
        core_pivots = set(core.pivots)
        if depth == 1:
            keep = [j for j in range(self.n) if j not in core_pivots]
            return tuple([[m[i][j] for j in keep] for i in keep] for m in (a, b))
        s = _scaled_member(self._scaled, sampler.regular(0)[0])
        # S is skew, so S*u = 0 exactly when u^T S = 0.
        mantle = kernel_basis([[sum(map(mul, row, u)) for row in s] for u in core.rows])
        c = [row for row, pc in zip(mantle.rows, mantle.pivots) if pc not in core_pivots]

        def restrict(m):
            images = [[sum(map(mul, row, v)) for row in m] for v in c]
            return [[sum(map(mul, u, image)) for image in images] for u in c]

        return restrict(a), restrict(b)

    @cached_property
    def _finite_groups(self) -> tuple[tuple[list[int], tuple[int, ...]], ...]:
        """The finite Jordan groups from d_2, d_4, ..., d_J of the Jordan
        part A' - lambda*B': the exponent of a refined factor q in d_2i is
        the half-size of one Jordan block of q, or 0.  Each q is the
        primitive integer list of its descriptor."""
        halves = _invariant_factors(*self._jordan_part)
        return tuple((q, tuple(sorted(e for e in exps if e))) for q, exps in refined_factors(halves))

    @cached_property
    def _char_poly(self) -> CharPoly:
        """Monic d_2*d_4*...*d_J of the Jordan part A' - lambda*B', which
        equals that of A - lambda*B and the gcd of the Pfaffians of all
        principal r x r minors, read from the finite Jordan groups: a
        descriptor q with half-sizes h is a factor of multiplicity sum(h),
        pairwise coprime with the others.  So the polynomial is the product
        of the q**sum(h), a squarefree part the product of the q that share
        a multiplicity, and the rational roots are -q0/q1 for the linear
        q = q0 + q1*lambda (refined_factors splits every rational root off
        as a linear factor).  Both products are taken on the primitive
        integer lists of the descriptors and made monic once.

        Requires B regular in the pencil (rank(B) = pencil rank), i.e. all
        eigenvalues finite; raises InfiniteEigenvalueError otherwise.
        """
        sampler = self._sampler
        if sampler.rank_b < sampler.r:
            raise InfiniteEigenvalueError(
                f"rank(B) = {sampler.rank_b} < pencil rank {sampler.r}: infinite eigenvalues present"
            )
        product, parts, roots = [1], {}, []
        for q, halves in self._finite_groups:
            m = sum(halves)
            for _ in range(m):
                product = _int_poly_mul(product, q)
            parts[m] = _int_poly_mul(parts.get(m, [1]), q)
            if len(q) == 2:
                roots.append((Fraction(-q[0], q[1]), m))
        poly = _to_unipoly(product)
        squarefree = tuple((_to_unipoly(parts[m]), m) for m in sorted(parts))
        return CharPoly(poly, poly.degree, squarefree, tuple(sorted(roots)))

    @cached_property
    def _invariants(self) -> JKInvariants:
        """Jordan data from the invariant factors of the Jordan part
        A' - lambda*B' (and of B' - mu*A' when B is irregular), Kronecker
        parameters from the growth sequence of the sampler."""
        n, sampler = self.n, self._sampler
        r = sampler.r

        # Kronecker parameters: increment t is #{i : k_i >= t + 1}.
        increments = sampler.growth
        if any(b > a for a, b in zip(increments, increments[1:])):
            raise InternalConsistencyError("kernel growth sequence not monotone")
        if increments and increments[0] != n - r:
            raise InternalConsistencyError("first kernel increment != corank")
        kronecker: list[int] = []
        for t, (c, following) in enumerate(zip(increments, increments[1:] + [0])):
            kronecker.extend([t + 1] * (c - following))

        # Jordan data: the finite blocks are the elementary divisors of
        # A' - lambda*B', the infinite ones the powers of mu in those of the
        # reversed pencil B' - mu*A' (Gantmacher, vol. II, ch. XII).
        groups = [(_to_unipoly(q), halves) for q, halves in self._finite_groups]
        if sampler.rank_b < r:
            a, b = self._jordan_part
            orders = [next(i for i, c in enumerate(d) if c) for d in _invariant_factors(b, a)]
            if any(orders):
                groups.append((INFINITY, tuple(e for e in orders if e)))

        # The blocks read from the Jordan part fill its dim M - dim K rows,
        # so this checks dim M - dim K against the Kronecker parameters.
        invariants = JKInvariants.from_blocks(kronecker, groups)
        if invariants.n != n:
            raise InternalConsistencyError(
                f"block dimensions sum to {invariants.n}, expected {n}"
            )
        return invariants


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

    def shape(self):
        """Eigenvalue-free canonical form: each descriptor of degree d
        expands to d copies of its half-size multiset."""
        expanded = []
        for g in self.jordan:
            expanded.extend([g.half_sizes] * g.degree)
        return (self.kronecker, tuple(sorted(expanded)))


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial with its factor structure, read
    from the finite Jordan groups (see SkewPencil._char_poly).

    squarefree_parts: monic pairwise-coprime squarefree parts with their
    multiplicities, ascending by multiplicity; rational_roots: the
    rational roots with their multiplicities, ascending by root."""

    poly: UniPoly
    degree: int
    squarefree_parts: tuple[tuple[UniPoly, int], ...]
    rational_roots: tuple[tuple[Fraction, int], ...]

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.squarefree_parts)


# -- basic pencil quantities ---------------------------------------------


def _member_value(i: int) -> int:
    """mu of member i in the order 0, 1, -1, 2, -2, ..."""
    return (i + 1) // 2 if i % 2 else -(i // 2)


def _scaled_member(scaled, mu: int) -> list[list[int]]:
    """D*(A + mu*B) for an integer mu, from the integer form scaled =
    D*(A, B): the rank and kernel of A + mu*B."""
    a, b = scaled
    return [[x + mu * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


class RegularValueSampler:
    """The member kernels of one pencil, its rank, and its regular values;
    the pencil keeps its one sampler as SkewPencil._sampler.

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
        # The integer form, not the pencil, which keeps this sampler: with
        # no reference cycle, reference counting frees a pencil and its
        # analysis, and the cyclic collector has nothing to collect.
        self.n, self._scaled = p.n, p._scaled
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
        self.drawn: list[tuple[int, Subspace]] = []
        self._sums: list[Subspace] = []
        self._next = 0

    def _member_kernel(self, i: int) -> Subspace:
        while len(self._kernels) <= i:
            mu = _member_value(len(self._kernels))
            self._kernels.append(kernel_basis(_scaled_member(self._scaled, mu)))
        return self._kernels[i]

    def draw(self) -> int:
        """The next regular value, appended with its kernel to `drawn`."""
        while self._next <= len(self.drawn) + self.r // 2:
            i = self._next
            self._next += 1
            kernel = self._member_kernel(i)
            if self.n - kernel.dim == self.r:
                mu = _member_value(i)
                self.drawn.append((mu, kernel))
                return mu
        raise InternalConsistencyError(
            f"{self.r // 2 + 1} irregular members: the pencil rank is not {self.r}"
        )

    def regular(self, t: int) -> tuple[int, Subspace]:
        """Regular value t (from 0) and the kernel of its member."""
        while len(self.drawn) <= t:
            self.draw()
        return self.drawn[t]

    def kernel_sum(self, t: int) -> Subspace:
        """Sum of the kernels of regular values 0..t."""
        while len(self._sums) <= t:
            prev = self._sums[-1] if self._sums else Subspace.zero(self.n)
            self._sums.append(subspace_sum(prev, self.regular(len(self._sums))[1]))
        return self._sums[t]

    @cached_property
    def growth(self) -> list[int]:
        """The increments of the kernel sum over regular values 0, 1, ...,
        up to the first zero; empty, with no value drawn, at full rank."""
        increments, dim = [], 0
        if self.r < self.n:
            while grown := self.kernel_sum(len(increments)).dim - dim:
                increments.append(grown)
                dim += grown
        return increments

    def core(self) -> Subspace:
        """Sum of the kernels of the first D + 2 regular values: the kernel
        sum must stay at dimension sum(growth) for the second value after
        it stopped growing, else InternalConsistencyError."""
        core = self.kernel_sum(len(self.growth) + 1)
        if core.dim != sum(self.growth):
            raise InternalConsistencyError(
                f"core dimension {core.dim} != stabilized kernel-sum dimension {sum(self.growth)}"
            )
        return core

    def isotropy(self) -> "IsotropyCertificate":
        """Pairs the kernels of the first D + 4 regular values, two more
        than the core reads."""
        rows = [u for t in range(len(self.growth) + 4) for u in self.regular(t)[1].rows]
        pairings, violation = _pairings(rows, self._scaled)
        return IsotropyCertificate(len(rows), pairings, violation is None, violation)


# -- Smith invariant factors -----------------------------------------------


def _lambda_rows(a: list[list[int]], b: list[list[int]]) -> list[list[list[int]]]:
    """a - lambda*b for integer matrices a, b, as integer coefficient lists."""
    return [
        [[x, -y] if y else [x] if x else [] for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def _invariant_factors(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """d_2, d_4, ..., d_J, as primitive integer coefficient lists, for the
    Smith invariant factors d_1 | ... | d_J of a - lambda*b, a regular skew
    pencil of integer J x J matrices, which come in equal pairs.  J = 0
    needs no Smith form."""
    if not a:
        return []
    factors = [f for f in smith_normal_form(_lambda_rows(a, b)) if f]
    if len(factors) != len(a):
        raise InternalConsistencyError(f"Smith form rank {len(factors)} != Jordan part size {len(a)}")
    if factors[0::2] != factors[1::2]:
        raise PairingViolationError(
            "Smith invariant factors are not equal in pairs: "
            + ", ".join(str(_to_unipoly(f)) for f in factors)
        )
    return factors[1::2]


# -- the public reads of a pencil's analysis --------------------------------


def pencil_rank(p: SkewPencil) -> int:
    """Rank of A + lambda*B over Q(lambda); always even.  See
    RegularValueSampler for how it is read off the member kernels."""
    return p._sampler.r


def characteristic_polynomial(p: SkewPencil) -> CharPoly:
    """Monic characteristic polynomial of A - lambda*B, read from the Smith
    invariant factors of its Jordan part, the pencil restricted to the
    mantle modulo the core (the Kronecker blocks add only unit factors).

    Requires B regular in the pencil (rank(B) = pencil rank), i.e. all
    eigenvalues finite; raises InfiniteEigenvalueError otherwise
    (jk_invariants reads the infinite blocks from B - mu*A).
    """
    return p._char_poly


def core_subspace(p: SkewPencil) -> Subspace:
    """Sum of kernels of regular members, stabilized twice.

    Adds Ker(A + mu*B) at the regular values mu in the order 0, 1, -1, 2,
    ... until the dimension is unchanged for two consecutive steps.
    """
    return p._sampler.core()


def jk_invariants(p: SkewPencil) -> JKInvariants:
    """Full block invariants: Jordan data from the Smith normal forms of
    the Jordan part A' - lambda*B' (the pencil restricted to the mantle
    modulo the core, which drops only unit invariant factors) and, when B
    is irregular, of B' - mu*A', Kronecker parameters from the kernel-sum
    growth sequence at regular values."""
    return p._invariants


def isotropy_certificate(p: SkewPencil) -> IsotropyCertificate:
    """Checks that K + sum of sampled regular kernels is isotropic for A
    and for B: every pairing u^T A v and u^T B v is exactly zero."""
    return p._sampler.isotropy()


# -- canonical pencils and congruence -------------------------------------


def canonical_pencil(spec: JKInvariants) -> SkewPencil:
    """Block-diagonal pencil realizing the given invariants: a Kronecker
    block per parameter, then a Jordan block per half-size of each group,
    in the order of spec.

    A Kronecker block of parameter k pairs e_i with e_(k-1+i) under A and
    with e_(k+i) under B, for i < k - 1.  A Jordan block of half-size h
    pairs e_i with e_(h+i) under A with weight lambda0 and under B with
    weight 1, and e_i with e_(h+i+1) under A (the nilpotent shift); an
    infinite one pairs e_i with e_(h+i) under A and has the shift in B.

    Only rational (degree-1) and INFINITY eigenvalue descriptors are
    accepted; this is a builder limitation, not a structural one.
    """
    n = spec.n
    a, b = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]

    def pair(m, i, j, v):
        m[i][j], m[j][i] = v, -v

    offset = 0
    for k in spec.kronecker:
        for i in range(offset, offset + k - 1):
            pair(a, i, k - 1 + i, 1)
            pair(b, i, k + i, 1)
        offset += 2 * k - 1
    for group in spec.jordan:
        if group.descriptor is INFINITY:
            on_a, on_b, shift = 1, 0, b
        elif group.descriptor.degree == 1:
            on_a, on_b, shift = -group.descriptor.coefficient(0), 1, a
        else:
            raise ValidationError(
                "canonical_pencil needs rational (degree-1) eigenvalue descriptors"
            )
        for h in group.half_sizes:
            for i in range(offset, offset + h):
                pair(a, i, h + i, on_a)
                pair(b, i, h + i, on_b)
                if i + 1 < offset + h:
                    pair(shift, i, h + i + 1, 1)
            offset += 2 * h
    return SkewPencil(a, b)


def congruence_transform(p: SkewPencil, transform: Matrix) -> SkewPencil:
    """(P^T A P, P^T B P); jk_invariants are unchanged.  Computed on the
    integer form D*(A, B): with P = Q/s, s the common denominator of its
    entries, the pair is (Q^T (DA) Q, Q^T (DB) Q) over D*s^2."""
    n = p.n
    entries, s = _common_denominator([x for row in transform for x in row])
    columns = [entries[j::n] for j in range(n)]
    if len(transform) != n or any(len(row) != n for row in transform) or rank(columns) != n:
        raise SingularMatrixError("congruence transform must be invertible n x n")
    d = p._denominator * s * s

    def congruent(m):
        images = [[sum(map(mul, row, col)) for row in m] for col in columns]  # the columns of M*Q
        return [[Fraction(sum(map(mul, u, image)), d) for image in images] for u in columns]

    return SkewPencil(*map(congruent, p._scaled))


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

