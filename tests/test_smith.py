import random
from copy import deepcopy
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import pytest

from jkpencil.errors import ValidationError
from jkpencil.smith import smith_normal_form
from jkpencil.unipoly import UniPoly, poly_gcd

X = UniPoly.x()
ONE = UniPoly.one()
ZERO = UniPoly.zero()


def test_skew_linear_block():
    lam0 = Fraction(4)
    entry = UniPoly.linear(lam0).scale(-1)  # lam0 - lam
    m = [[ZERO, entry], [-entry, ZERO]]
    assert smith_normal_form(m) == [UniPoly.linear(lam0), UniPoly.linear(lam0)]


def test_identity_matrix():
    ident = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert smith_normal_form(ident) == [ONE, ONE, ONE]


def test_rank_deficient_matrix_pads_zeros():
    m = [[X, ZERO], [ZERO, ZERO]]
    assert smith_normal_form(m) == [X.monic(), ZERO]


def test_rectangular_matrices():
    wide = [[ONE, X, X * X]]
    assert smith_normal_form(wide) == [ONE]
    tall = [[X], [X * X]]
    assert smith_normal_form(tall) == [X]


def test_empty_or_ragged_matrix_rejected():
    for m in ([], [[ONE, X], [ONE]]):
        with pytest.raises(ValidationError):
            smith_normal_form(m)


def _apply_random_unimodular_ops(m, rng):
    """Row/column operations invertible over Q[x]: swaps, rational
    scalings, additions of polynomial multiples."""
    nrows, ncols = len(m), len(m[0])
    for _ in range(25):
        op = rng.randrange(3)
        if op == 0:
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            if i != j:
                m[i], m[j] = m[j], m[i]
        elif op == 1:
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            if i != j:
                q = UniPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
                m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        else:
            i, j = rng.randrange(ncols), rng.randrange(ncols)
            if i != j:
                q = UniPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
                for row in m:
                    row[i] = row[i] + q * row[j]
    return m


def test_recovers_known_invariant_factors():
    rng = random.Random(13)
    for _ in range(15):
        # divisibility chain 1 | f | f*g
        f = UniPoly.linear(rng.randint(-3, 3))
        g = UniPoly.linear(rng.randint(-3, 3))
        diag = [ONE, f, f * g]
        m = [[diag[i] if i == j else ZERO for j in range(3)] for i in range(3)]
        scrambled = _apply_random_unimodular_ops([row[:] for row in m], rng)
        assert smith_normal_form(scrambled) == [d.monic() for d in diag]


def test_divisibility_chain_on_random_matrices():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = [
            [
                UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        factors = smith_normal_form(m)
        for a, b in zip(factors, factors[1:]):
            if a.is_zero:
                assert b.is_zero
            elif not b.is_zero:
                assert (b % a).is_zero
        for f in factors:
            assert f.is_zero or f.leading == 1


def _integer_det(work) -> int:
    """det of a square integer matrix by Bareiss's fraction-free
    elimination, whose divisions are exact."""
    work = [list(row) for row in work]
    sign, previous = 1, 1
    for k in range(len(work) - 1):
        p = next((i for i in range(k, len(work)) if work[i][k]), None)
        if p is None:
            return 0
        if p != k:
            work[k], work[p] = work[p], work[k]
            sign = -sign
        for i in range(k + 1, len(work)):
            work[i] = [(work[k][k] * a - work[i][k] * b) // previous for a, b in zip(work[i], work[k])]
        previous = work[k][k]
    return sign * work[-1][-1]


def _interpolate(xs, ys) -> UniPoly:
    """The polynomial of degree < len(xs) through the points (x, y), by
    Newton's divided differences."""
    diffs = list(ys)
    for k in range(1, len(diffs)):
        for i in range(len(diffs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    out = UniPoly.constant(diffs[-1])
    for x, c in zip(reversed(xs[:-1]), reversed(diffs[:-1])):
        out = out * UniPoly.linear(x) + UniPoly.constant(c)
    return out


def _assert_factors_match_minor_gcds(m, factors):
    """Definitional oracle: the product of the first k invariant factors is
    the gcd of all k x k minors, computed here by brute force.  A k x k
    minor has degree at most k*deg, deg the largest entry degree, so it is
    interpolated from its values at k*deg + 1 integer points; the matrix
    is evaluated at each point once, and each minor's value there is an
    integer determinant over the product of its rows' scales.  The scan
    of the minors stops once their gcd is 1, which no further minor
    lowers."""
    nrows, ncols = len(m), len(m[0])
    deg = max(0, *(e.degree for row in m for e in row))
    points = range(deg * min(nrows, ncols) + 1)
    evaluated = []  # at each point, the rows scaled to integers and the scales
    for t in points:
        rows = [[e(t) for e in row] for row in m]
        scales = [lcm(*(v.denominator for v in row)) for row in rows]
        evaluated.append(([[int(v * s) for v in row] for row, s in zip(rows, scales)], scales))
    for k in range(1, min(nrows, ncols) + 1):
        xs = points[: k * deg + 1]
        minor_gcd = UniPoly.zero()
        minors = ((r, c) for r in combinations(range(nrows), k) for c in combinations(range(ncols), k))
        for rows_idx, cols_idx in minors:
            dets = [
                Fraction(_integer_det([[w[i][j] for j in cols_idx] for i in rows_idx]), prod(s[i] for i in rows_idx))
                for w, s in evaluated[: len(xs)]
            ]
            minor_gcd = poly_gcd(minor_gcd, _interpolate(xs, dets))
            if minor_gcd.is_constant and not minor_gcd.is_zero:
                break
        product = ONE
        for f in factors[:k]:
            product = product * f
        if minor_gcd.is_zero:
            assert product.is_zero
        else:
            assert product.monic() == minor_gcd.monic()


def test_factor_products_equal_minor_gcds():
    rng = random.Random(41)
    for _ in range(10):
        n = 3
        m = [
            [UniPoly([rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(n)]
            for _ in range(n)
        ]
        _assert_factors_match_minor_gcds(m, smith_normal_form(m))


def _diagonal(entries):
    return [[e if i == j else ZERO for j, e in enumerate(entries)] for i in range(len(entries))]


def test_non_chain_diagonals_become_chains():
    # the diagonalisation leaves these as they are; the gcd/lcm pass makes
    # the chain
    xm1 = UniPoly.linear(1)
    assert smith_normal_form(_diagonal([xm1, X, xm1])) == [ONE, xm1, X * xm1]
    assert smith_normal_form(_diagonal([X, xm1])) == [ONE, X * xm1]
    assert smith_normal_form(_diagonal([X * X, X, ONE])) == [ONE, X, X * X]
    assert smith_normal_form(_diagonal([xm1 * xm1, X * xm1, X * X])) == [
        ONE,
        X * xm1,
        X * X * xm1 * xm1,
    ]
    assert smith_normal_form(_diagonal([xm1, ZERO, X.scale(3)])) == [ONE, X * xm1, ZERO]


def test_scrambled_non_chain_diagonals_match_minor_gcds(monkeypatch):
    import jkpencil.smith

    gcd_steps = []

    original_gcd = jkpencil.smith._int_poly_gcd

    def counted_gcd(f, g):
        gcd_steps.append((f, g))
        return original_gcd(f, g)

    monkeypatch.setattr(jkpencil.smith, "_int_poly_gcd", counted_gcd)
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(2, 4)
        entries = []
        for _ in range(n):
            e = ONE
            for _ in range(rng.randint(0, 2)):
                e = e * UniPoly.linear(rng.randint(-2, 2))
            entries.append(e.scale(rng.choice([1, -2, Fraction(1, 3)])))
        m = _apply_random_unimodular_ops(_diagonal(entries), rng)
        _assert_factors_match_minor_gcds(m, smith_normal_form(m))
    assert gcd_steps  # the gcd/lcm pass was reached



def test_rational_and_plain_entries_match_minor_gcds():
    # rows are scaled to integer coefficients before the elimination
    rng = random.Random(61)
    for _ in range(10):
        m = [
            [
                UniPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(2)])
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        _assert_factors_match_minor_gcds(m, smith_normal_form(m))
    plain = [[2, Fraction(1, 2)], [Fraction(-3, 4), 0]]
    assert smith_normal_form(plain) == [ONE, ONE]
    assert smith_normal_form([[0, 0], [0, Fraction(5, 3)]]) == [ONE, ZERO]

def test_first_factor_is_gcd_of_entries():
    rng = random.Random(37)
    for _ in range(15):
        m = [
            [UniPoly([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in range(3)]
            for _ in range(3)
        ]
        factors = smith_normal_form(m)
        g = UniPoly.zero()
        for row in m:
            for e in row:
                g = poly_gcd(g, e)
        if factors[0].is_zero:
            assert g.is_zero
        else:
            assert factors[0] == g.monic() or (g.degree == 0 and factors[0] == ONE)


def test_top_row_remainders_search_again(monkeypatch):
    """The row pass leaves the pivot column zero below x; the column pass
    on the top row leaves the remainder 1 of x + 1, so the pivot is
    searched again and is that 1."""
    import jkpencil.smith

    passes = []
    original = jkpencil.smith._column_pass

    def column_pass(top):
        line = original(top)
        passes.append(deepcopy(line))
        return line

    monkeypatch.setattr(jkpencil.smith, "_column_pass", column_pass)
    m = [[X, X + ONE], [ZERO, X]]
    assert smith_normal_form(m) == [ONE, X * X]
    assert passes[0] == [[0, 1], [1]]
    _assert_factors_match_minor_gcds(m, smith_normal_form(m))


def test_unit_pivot_comes_before_a_larger_constant(monkeypatch):
    """Among entries of lowest degree, the pivot has the least height: -1
    is taken before 2 and 3, which come first in the block, and a constant
    before any polynomial of positive degree, however small its
    coefficients."""
    import jkpencil.smith
    from jkpencil.smith import _pivot

    assert _pivot([[[3], [0, 1]], [[2], [-1]]]) == (1, 1)
    assert _pivot([[[0, 1], [5]], [[-4], [1, 1]]]) == (1, 0)
    assert _pivot([[[7, 2], [0, 3]], [[1, -2], [0, 1]]]) == (1, 1)
    assert _pivot([[[], []], [[], []]]) is None

    pivots = []
    original = jkpencil.smith._pivot

    def pivot(work):
        found = original(work)
        pivots.append(found and list(work[found[0]][found[1]]))
        return found

    monkeypatch.setattr(jkpencil.smith, "_pivot", pivot)
    m = [
        [UniPoly.constant(3), X, X + ONE],
        [UniPoly.constant(2), X * X, X.scale(2)],
        [X - ONE, UniPoly.constant(-1), UniPoly.constant(2)],
    ]
    factors = smith_normal_form(m)
    assert pivots[0] == [-1]
    _assert_factors_match_minor_gcds(m, factors)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def _unimodular(n, rng):
    """L*U for random unit lower and upper triangular integer matrices L and
    U: an integer matrix of determinant 1, with few zero entries."""
    lower, upper = (
        [[1 if i == j else rng.randint(-2, 2) if (i > j) == low else 0 for j in range(n)] for i in range(n)]
        for low in (True, False)
    )
    return _mat_mul(lower, upper)


def _integer_linear_pencil(n, rng, kind):
    """A - x*B for integer n x n matrices A and B, as rows of UniPoly.

    "random" draws small entries, so the factors are generically 1, ..., 1
    and the determinant.  The others are P(D - x*E)Q for unimodular P, Q,
    a diagonal D and E = I: "repeated" has one eigenvalue of D twice, so
    d_(n-1) is x minus it; "singular" zeroes the last entry of D and of E,
    so the pencil has rank n - 1 and d_(n-1) is the product of the rest."""
    if kind == "random":
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    else:
        eigenvalues = rng.sample(range(-9, 10), n)
        if kind == "repeated":
            eigenvalues[rng.randrange(1, n)] = eigenvalues[0]
        d = [[eigenvalues[i] * (i == j) for j in range(n)] for i in range(n)]
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        if kind == "singular":
            d[-1][-1] = e[-1][-1] = 0
        p, q = _unimodular(n, rng), _unimodular(n, rng)
        a, b = (_mat_mul(_mat_mul(p, m), q) for m in (d, e))
    return [[UniPoly([x, -y]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@pytest.mark.parametrize("kind", ["random", "repeated", "singular"])
def test_integer_linear_pencils_match_minor_gcds(kind):
    """Seeded integer linear pencils of every size from 2 x 2 to 12 x 12."""
    rng = random.Random(f"linear/{kind}")
    for n in range(2, 13):
        m = _integer_linear_pencil(n, rng, kind)
        factors = smith_normal_form(m)
        _assert_factors_match_minor_gcds(m, factors)
        if kind == "repeated":
            assert not factors[-2].is_constant
        if kind == "singular":
            assert factors[-1].is_zero and not factors[-2].is_zero
