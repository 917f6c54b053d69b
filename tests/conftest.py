"""Shared brute-force oracles and instance generators for the suite.

The oracles here are deliberately independent of the library's
algorithms: Pfaffians by perfect-matching enumeration, determinants by
permutation expansion, gcds from known linear factorizations, the
characteristic polynomial of a pencil as a gcd of principal Pfaffians
(the library reads it from the Smith form), the recursion-operator
identity through a Faddeev-LeVerrier characteristic polynomial,
reduced row echelon forms and Gram matrices in Fraction arithmetic (the
library eliminates and pairs over the integers), the rank over a
polynomial fraction field by the dense Bareiss loop (the library skips
products with a zero factor), Yun's squarefree
decomposition, rational roots, the gcd-free basis and the refined factor
basis in Fraction arithmetic (the library factors primitive integer
polynomials), the squarefree parts and rational roots of a pencil's
characteristic polynomial by Yun and the root search on the polynomial
(the library reads them from the Jordan groups), Jordan groups through a
Moebius reparametrization to a regular-B pencil (the library reads the
infinite blocks from the reversed pencil B - mu*A), Jordan groups from
the Smith forms of the whole pencil, Kronecker part included (the
library restricts the pencil to its Jordan part first), and regular values
drawn at random (the library takes them in the fixed order 0, 1, -1, 2,
...).

The generators and helpers that only tests call live here too:
random_unimodular, which scrambles canonical pencils by congruence,
scrambled_algebra, which writes a Lie algebra in another basis,
lambda_matrix, pfaffian (the recursive expansion of linalg.PfaffianCache
on a whole skew matrix), the rational mat_mul and transpose, and budget,
a wall-time limit on a block.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from jkpencil.errors import InternalConsistencyError, SingularMatrixError, ValidationError
from jkpencil.linalg import Matrix, PfaffianCache, kernel_basis, rank
from jkpencil.pencil import (
    INFINITY,
    JKInvariants,
    RegularValueSampler,
    SkewPencil,
    _lambda_rows,
    _scaled_member,
    canonical_pencil,
    characteristic_polynomial,
    congruence_transform,
    jk_invariants,
    pencil_rank,
)
from jkpencil.smith import smith_normal_form
from jkpencil.structure import LieAlgebra
from jkpencil.unipoly import (
    UniPoly,
    _divisors,
    _integer_primitive,
    poly_gcd,
    rational_roots,
    squarefree_decompose,
)

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines after capture ends."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def matching_sign(pairs) -> int:
    """Sign of the permutation (i1, j1, i2, j2, ...) by inversion count."""
    flat = [v for pair in pairs for v in pair]
    inversions = sum(
        1
        for a in range(len(flat))
        for b in range(a + 1, len(flat))
        if flat[a] > flat[b]
    )
    return -1 if inversions % 2 else 1


def all_perfect_matchings(items):
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for t in range(1, len(items)):
        rest = items[1:t] + items[t + 1 :]
        for matching in all_perfect_matchings(rest):
            yield [(first, items[t])] + matching


def naive_pfaffian(m, zero):
    """Sum over perfect matchings; independent of the recursive expansion."""
    n = len(m)
    if n % 2:
        return zero
    total = zero
    for matching in all_perfect_matchings(range(n)):
        term = None
        for i, j in matching:
            term = m[i][j] if term is None else term * m[i][j]
        if term is None:
            term_sum = zero
        else:
            term_sum = term if matching_sign(matching) > 0 else -term
        total = total + term_sum
    return total


def pfaffian(m, zero=None, one=None):
    """Pfaffian of a skew-symmetric matrix by linalg.PfaffianCache; zero for
    odd size.

    Pf(m)**2 = det(m).  The entries may live in any commutative ring;
    for rings other than Fraction, pass the ring's zero and one.
    """
    n = len(m)
    if zero is None:
        zero, one = Fraction(0), Fraction(1)
    for i in range(n):
        if len(m[i]) != n:
            raise ValidationError("pfaffian of a non-square matrix")
        for j in range(i, n):
            if not (m[i][j] == -m[j][i]):
                raise ValidationError("pfaffian of a non-skew matrix")
    if n % 2 == 1:
        return zero
    return PfaffianCache(m, zero, one).pfaffian(range(n))


def naive_det(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = Fraction(1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += -term if inversions % 2 else term
    return total


def poly_from_linear_factors(roots_with_mults) -> UniPoly:
    out = UniPoly.one()
    for root, mult in roots_with_mults:
        out = out * UniPoly.linear(root) ** mult
    return out


def gcd_oracle_from_factors(fa, fb) -> UniPoly:
    """Monic gcd of two polynomials given by their linear factorizations."""
    roots_a = dict(fa)
    out = UniPoly.one()
    for root, mult in fb:
        common = min(mult, roots_a.get(root, 0))
        if common:
            out = out * UniPoly.linear(root) ** common
    return out


EIGENVALUE_POOL = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3, 5, 7)] + [
    Fraction(1, 2),
    Fraction(-2, 3),
]


def random_jk_spec(
    rng: random.Random, max_dim: int = 14, min_dim: int = 2, allow_infinity: bool = True
) -> JKInvariants:
    """Random block specification with rational eigenvalues, total
    dimension between min_dim and max_dim."""
    n_target = rng.randint(min_dim, max_dim)
    remaining = n_target
    kron: list[int] = []
    groups: dict = {}
    while remaining > 0:
        if remaining == 1:
            kron.append(1)
            break
        if rng.random() < 0.45:
            k = rng.randint(1, min((remaining + 1) // 2, 3))
            kron.append(k)
            remaining -= 2 * k - 1
        else:
            half = rng.randint(1, min(remaining // 2, 3))
            if allow_infinity and rng.random() < 0.15:
                eig = "INF"
            else:
                eig = rng.choice(EIGENVALUE_POOL)
            groups.setdefault(eig, []).append(half)
            remaining -= 2 * half
    jordan = [
        (INFINITY if eig == "INF" else UniPoly.linear(eig), tuple(sizes))
        for eig, sizes in groups.items()
    ]
    return JKInvariants.from_blocks(kron, jordan)


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


def scrambled_algebra(g: LieAlgebra, p: Matrix) -> LieAlgebra:
    """g in the basis f_i = sum_k P_ki e_k.  [f_i, f_j] = sum_t c'_ij^t f_t
    with c'_ij^t = sum_klm P_ki P_lj c_kl^m Q_tm and Q = P^-1, so the
    constants stay integral when P is unimodular (random_unimodular)."""
    n = g.dim
    q = mat_inverse(p)
    brackets = {}
    for (k, l), coeffs in g.table.items():
        brackets[(k, l)] = coeffs
        brackets[(l, k)] = {m: -c for m, c in coeffs.items()}
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            image = [Fraction(0)] * n  # [f_i, f_j] in the basis e
            for (k, l), coeffs in brackets.items():
                weight = p[k][i] * p[l][j]
                for m, c in coeffs.items() if weight else ():
                    image[m] += weight * c
            table[(i, j)] = {t: sum(q[t][m] * image[m] for m in range(n)) for t in range(n)}
    return LieAlgebra(n, table, f"{g.name} scrambled")


class OverBudget(Exception):
    """A block ran past its time budget."""


@contextmanager
def budget(seconds: float):
    """Raise OverBudget in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise OverBudget(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def companion_pencil(f: UniPoly) -> SkewPencil:
    """((0, M), (-M^T, 0)) and ((0, I), (-I, 0)) for the companion matrix M
    of a monic f: the one invariant factor of M - lambda*I is f, so the
    characteristic polynomial is f and its Jordan groups are the factors
    of f with their powers as half-sizes."""
    d = f.degree
    m = [[Fraction(int(i == j + 1)) for j in range(d)] for i in range(d)]
    for i in range(d):
        m[i][d - 1] = -f.coefficient(i)
    z = [Fraction(0)] * d
    a = [z + row for row in m] + [[-m[j][i] for j in range(d)] + z for i in range(d)]
    b = [z + [Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    b += [[-Fraction(int(i == j)) for j in range(d)] + z for i in range(d)]
    return SkewPencil(a, b)


def block_sum(*pencils: SkewPencil) -> SkewPencil:
    """The block-diagonal pencil of the given pencils."""
    n = sum(p.n for p in pencils)
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for p in pencils:
        for i in range(p.n):
            a[offset + i][offset : offset + p.n] = p.a[i]
            b[offset + i][offset : offset + p.n] = p.b[i]
        offset += p.n
    return SkewPencil(a, b)


def kronecker_companion_pencil(
    kronecker, rational, infinite, scramble: str, shears: int | None = None
) -> tuple[SkewPencil, JKInvariants]:
    """A scrambled pencil with the given Kronecker parameters, one block of
    half-size 1 at the companion of x^2 - 2, the half-sizes `rational` at
    the eigenvalue 3 and `infinite` at infinity, with its invariants.  The
    congruence is random_unimodular(n, Random(scramble), shears)."""
    x2m2 = UniPoly((-2, 0, 1))
    groups = [(UniPoly.linear(3), tuple(rational))] if rational else []
    groups += [(INFINITY, tuple(infinite))] if infinite else []
    p = block_sum(canonical_pencil(JKInvariants.from_blocks(kronecker, groups)), companion_pencil(x2m2))
    spec = JKInvariants.from_blocks(kronecker, groups + [(x2m2, (1,))])
    return congruence_transform(p, random_unimodular(p.n, random.Random(scramble), shears)), spec


# -- second routes to library quantities -----------------------------------


def assert_char_poly_factors_match_oracle(p: SkewPencil) -> None:
    """The library reads the squarefree parts and rational roots of the
    characteristic polynomial from the finite Jordan groups; Yun's
    decomposition and the rational-root search, run on the polynomial
    itself, are the second route.  The polynomial is squarefree exactly
    when every Jordan group is one 2x2 block (half-sizes (1,))."""
    cp = characteristic_polynomial(p)
    assert cp.squarefree_parts == tuple(squarefree_decompose(cp.poly))
    assert cp.rational_roots == tuple(rational_roots(cp.poly))
    assert cp.is_squarefree == all(g.half_sizes == (1,) for g in jk_invariants(p).jordan)


def dense_bareiss_rank(rows) -> int:
    """Rank over the fraction field of UniPoly or MultiPoly entries by the
    dense one-step Bareiss loop: every entry right of and below each pivot
    is updated as (p*w_ij - w_ic*w_pj) / prev, zero products included (the
    library forms no product with a zero factor)."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    prev = None  # previous pivot; first division is skipped
    rk = 0
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, nrows) if not work[i][c].is_zero), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        for i in range(pr + 1, nrows):
            for j in range(c + 1, ncols):
                num = work[pr][c] * work[i][j] - work[i][c] * work[pr][j]
                work[i][j] = num if prev is None else num.exact_div(prev)
            work[i][c] = work[i][c] - work[i][c]  # ring zero
        prev = work[pr][c]
        rk += 1
        pr += 1
        if pr == nrows:
            break
    return rk


def fraction_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by rational Gauss-Jordan elimination;
    returns (rows, pivot column indices)."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def fraction_kernel(rows) -> tuple[tuple[Fraction, ...], ...]:
    """RREF basis of the right kernel, from fraction_rref alone."""
    red, pivots = fraction_rref(rows)
    ncols = len(rows[0])
    vecs = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for t, pc in enumerate(pivots):
            v[pc] = -red[t][fc]
        vecs.append(v)
    if not vecs:
        return ()
    basis, kernel_pivots = fraction_rref(vecs)
    return tuple(tuple(row) for row in basis[: len(kernel_pivots)])


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def fraction_pairings(family, a: Matrix, b: Matrix):
    """(pairings made, first nonzero (i, j, form) or None) from the rational
    Gram matrices F A F^T and F B F^T, scanned i <= j, A before B."""
    if not family:
        return 0, None
    rows = tuple(family)
    grams = [(name, mat_mul(rows, mat_mul(form, transpose(rows)))) for name, form in (("A", a), ("B", b))]
    pairings = 0
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            for name, gram in grams:
                pairings += 1
                if gram[i][j] != 0:
                    return pairings, (i, j, name)
    return pairings, None


def lambda_matrix(p: SkewPencil, sign: int = 1) -> list[list[UniPoly]]:
    """A + sign*lambda*B as a matrix of univariate polynomials."""
    return [[UniPoly((x, sign * y)) for x, y in zip(ra, rb)] for ra, rb in zip(p.a, p.b)]


def pfaffian_gcd(p: SkewPencil) -> UniPoly:
    """Monic gcd of the Pfaffians of all principal r x r minors of
    A - lambda*B, r the pencil rank: the characteristic polynomial by the
    Pfaffian route (B regular assumed)."""
    r = pencil_rank(p)
    if r == 0:
        return UniPoly.one()
    cache = PfaffianCache(lambda_matrix(p, sign=-1), UniPoly.zero(), UniPoly.one())
    g = UniPoly.zero()
    for subset in combinations(range(p.n), r):
        pf = cache.pfaffian(subset)
        if pf.is_zero:
            continue
        g = poly_gcd(g, pf)
        if g.degree == 0:
            break  # gcd can only shrink; a unit gcd is final
    if g.is_zero:
        raise InternalConsistencyError(
            "all principal Pfaffians vanished at the claimed pencil rank"
        )
    return g.monic()


def fraction_squarefree_decompose(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's squarefree decomposition over Fractions: monic parts with
    multiplicities, sorted by (multiplicity, coefficients)."""
    f = f.monic()
    if f.degree < 1:
        return []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    out: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree > 0:
        part = poly_gcd(b, d)
        if part.degree > 0:
            out.append((part.monic(), i))
        b = b.exact_div(part)
        c = d.exact_div(part)
        d = c - b.derivative()
        i += 1
    out.sort(key=lambda pm: (pm[1],) + pm[0].sort_key())
    return out


def fraction_rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, ascending, by a Fraction Horner
    test of each candidate p/q over the (capped) divisors of the endpoint
    coefficients."""
    roots: list[tuple[Fraction, int]] = []
    work = f.monic()
    mult = 0
    while work.degree > 0 and work.coefficient(0) == 0:
        work = work.exact_div(UniPoly.x())
        mult += 1
    if mult:
        roots.append((Fraction(0), mult))
    if work.degree < 1:
        return roots
    ints = _integer_primitive(work)
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if work(cand) == 0:
                    lin = UniPoly.linear(cand)
                    m = 0
                    while (work % lin).is_zero:
                        work = work.exact_div(lin)
                        m += 1
                    roots.append((cand, m))
    roots.sort(key=lambda rm: rm[0])
    return roots


def fraction_coprime_refine(polys) -> list[UniPoly]:
    """Gcd-free basis over Fractions, sorted by sort_key."""
    basis: list[UniPoly] = []
    queue = [p.monic() for p in polys if p.degree > 0]
    while queue:
        p = queue.pop()
        for i, q in enumerate(basis):
            g = poly_gcd(p, q)
            if g.degree > 0:
                basis.pop(i)
                for part in (g, q.exact_div(g)):
                    if part.degree > 0:
                        queue.append(part)
                p = p.exact_div(g)
                if p.degree > 0:
                    queue.append(p)
                break
        else:
            if p.degree > 0 and p not in basis:
                basis.append(p)
    basis.sort(key=UniPoly.sort_key)
    return basis


def fraction_split_rational_linear_factors(f: UniPoly) -> list[UniPoly]:
    """Monic rational linear factors of f plus the root-free remainder."""
    out = [UniPoly.linear(root) for root, _ in fraction_rational_roots(f)]
    rest = f.monic()
    for lin in out:
        while (rest % lin).is_zero:
            rest = rest.exact_div(lin)
    if rest.degree > 0:
        out.append(rest)
    out.sort(key=UniPoly.sort_key)
    return out


def whole_smith_jordan_groups(p: SkewPencil) -> tuple:
    """The Jordan groups of p from the Smith forms of the whole n x n
    lambda-matrices DA - lambda*DB and, when B is irregular, DB - mu*DA,
    Kronecker part included, factored over Fractions; the library runs its
    Smith forms on the Jordan part, restricted to M/K.  The nonzero factors
    come in equal pairs, and the exponents of a refined factor in d_2, d_4,
    ..., d_r are its half-sizes; infinity's are the powers of mu."""
    a, b = p._scaled
    r = pencil_rank(p)
    factors = [UniPoly(f).monic() for f in smith_normal_form(_lambda_rows(a, b)) if f]
    assert len(factors) == r and factors[0::2] == factors[1::2]
    groups = [
        (q, tuple(e for e in exps if e)) for q, exps in fraction_refined_factors(factors[1::2])
    ]
    if rank(b) < r:
        reversed_factors = [f for f in smith_normal_form(_lambda_rows(b, a)) if f]
        assert len(reversed_factors) == r and reversed_factors[0::2] == reversed_factors[1::2]
        orders = [next(i for i, c in enumerate(f) if c) for f in reversed_factors[1::2]]
        groups.append((INFINITY, tuple(e for e in orders if e)))
    return JKInvariants.from_blocks([], groups).jordan


def fraction_refined_factors(polys) -> list[tuple[UniPoly, tuple[int, ...]]]:
    """Common factor basis of nonzero UniPoly inputs with multiplicities,
    over Fractions; the library's refined_factors takes primitive integer
    coefficient lists."""
    parts: list[UniPoly] = []
    for f in polys:
        if f.degree >= 1:
            parts.extend(part for part, _ in fraction_squarefree_decompose(f))
    refined: list[UniPoly] = []
    for q in fraction_coprime_refine(parts):
        refined.extend(fraction_split_rational_linear_factors(q))
    out = []
    for q in sorted(set(refined), key=UniPoly.sort_key):
        mults = []
        for f in polys:
            e = 0
            while f.degree >= q.degree and (f % q).is_zero:
                f = f.exact_div(q)
                e += 1
            mults.append(e)
        out.append((q, tuple(mults)))
    return out


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def charpoly_rational(m: Matrix) -> UniPoly:
    """det(lambda*I - M) via the Faddeev-LeVerrier recursion, monic."""
    n = len(m)
    coeffs = [Fraction(1)]  # c_0 = 1 for lambda^n
    work = _identity(n)
    for k in range(1, n + 1):
        work = mat_mul(m, work)
        ck = -sum(work[i][i] for i in range(n)) / k
        coeffs.append(ck)
        work = tuple(
            tuple(x + (ck if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(work)
        )
    return UniPoly(list(reversed(coeffs)))


def determinant(m: Matrix) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    det = charpoly_rational(m).coefficient(0)
    return det if n % 2 == 0 else -det


def mat_inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    red, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red[:n])


def recursion_charpoly_check(p: SkewPencil) -> bool:
    """Whether det(B^-1 A - lambda*I) equals +/- p_L(lambda)^2."""
    if rank(p.b) < p.n:
        raise SingularMatrixError("recursion operator needs an invertible B")
    recursion = mat_mul(mat_inverse(p.b), p.a)
    lhs = charpoly_rational(recursion)  # det(lambda*I - P); n is even
    square = characteristic_polynomial(p).poly ** 2
    return lhs == square or lhs == -square


def _mobius_pullback(desc: UniPoly, mu0: int):
    """Map an eigenvalue descriptor of the pencil (A, A + mu0*B) back to
    the (A, B) parameter.

    A root t of desc corresponds to the original eigenvalue
    mu0*t / (1 - t); the descriptor lambda - 1 corresponds to INFINITY.
    """
    d = desc.degree
    if desc == UniPoly.linear(Fraction(1)):
        return INFINITY
    base = UniPoly((mu0, Fraction(1)))  # mu0 + lambda
    acc = UniPoly.zero()
    for i in range(d + 1):
        c = desc.coefficient(i)
        if c != 0:
            acc = acc + (UniPoly.x() ** i * base ** (d - i)).scale(c)
    assert acc.degree == d, "Moebius pullback dropped degree"
    return acc.monic()


def mobius_jordan_groups(p: SkewPencil, seed: int) -> list:
    """Jordan groups of (A, B), sorted like JKInvariants.jordan, from the
    Smith form of the regular-B pencil (A, A + mu0*B) mapped back by
    _mobius_pullback; mu0 is the first nonzero regular value drawn from
    the seed (mu0 = 0 would give (A, A), every block at infinity)."""
    sampler = RandomRegularValueSampler(p, random.Random(seed))
    mu0 = sampler.draw()
    while mu0 == 0:
        mu0 = sampler.draw()
    raw = SkewPencil(p.a, p.member(mu0))._finite_groups
    pulled = [(_mobius_pullback(UniPoly(q).monic(), mu0), sizes) for q, sizes in raw]
    return list(JKInvariants.from_blocks([], pulled).jordan)


class RandomRegularValueSampler(RegularValueSampler):
    """pencil.RegularValueSampler with its values drawn by rng instead of in
    the fixed order: distinct regular integer values from [-10n, 10n], each
    appended with the kernel of its member to `drawn`.  At most r/2
    candidates are irregular, so draw t exhausts its 50 attempts with
    probability at most ((t + r/2) / (20n + 1))^50."""

    def __init__(self, p: SkewPencil, rng: random.Random):
        super().__init__(p)
        self.rng = rng

    def draw(self) -> int:
        bound = max(10 * self.n, 10)
        for _ in range(50):
            cand = self.rng.randint(-bound, bound)
            if any(cand == mu for mu, _ in self.drawn):
                continue
            kernel = kernel_basis(_scaled_member(self._scaled, cand))
            if self.n - kernel.dim == self.r:
                self.drawn.append((cand, kernel))
                return cand
        raise InternalConsistencyError("failed to sample a regular value in 50 draws")


def random_value_analysis(p: SkewPencil, seed: int) -> SkewPencil:
    """A fresh pencil equal to p whose sampler draws its regular values at
    random from seed instead of in the fixed order: the sampler is planted
    before any analysis property is read, so every one of them reads it."""
    q = SkewPencil(p.a, p.b)
    object.__setattr__(q, "_sampler", RandomRegularValueSampler(q, random.Random(seed)))
    return q
