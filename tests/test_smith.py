import random
from fractions import Fraction
from itertools import combinations, permutations

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


def _naive_poly_det(rows):
    n = len(rows)
    total = UniPoly.zero()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = ONE
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def _assert_factors_match_minor_gcds(m, factors):
    """Definitional oracle: the product of the first k invariant factors is
    the gcd of all k x k minors, computed here by brute force."""
    for k in range(1, min(len(m), len(m[0])) + 1):
        minor_gcd = UniPoly.zero()
        for rows_idx in combinations(range(len(m)), k):
            for cols_idx in combinations(range(len(m[0])), k):
                sub = [[m[i][j] for j in cols_idx] for i in rows_idx]
                minor_gcd = poly_gcd(minor_gcd, _naive_poly_det(sub))
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
