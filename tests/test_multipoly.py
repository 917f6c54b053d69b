import random
from fractions import Fraction

import pytest

from jkpencil.multipoly import (
    MultiPoly,
    coefficients_in,
    drop_last_variable,
    multi_gcd,
    multi_gcd_list,
    normalize_content,
)
from jkpencil.unipoly import UniPoly


def vars3():
    return [MultiPoly.variable(3, i) for i in range(3)]


def random_poly(rng, nvars=3, terms=4, deg=2):
    out = MultiPoly.zero(nvars)
    for _ in range(terms):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        out = out + MultiPoly(nvars, {exp: Fraction(rng.randint(-5, 5))})
    return out


def test_arithmetic_and_evaluate():
    x1, x2, x3 = vars3()
    p = (x1 + x2) * (x1 - x2) + x3
    assert p.evaluate([3, 2, 1]) == 9 - 4 + 1
    assert (p - p).is_zero
    assert p.derivative(0) == x1.scale(2)


def test_exact_division_roundtrip():
    rng = random.Random(2)
    for _ in range(60):
        f = random_poly(rng)
        g = random_poly(rng)
        if g.is_zero:
            continue
        product = f * g
        if f.is_zero:
            assert product.is_zero
            continue
        assert product.exact_div(g) == f


def test_exact_division_rejects_inexact():
    x1, x2, _ = vars3()
    with pytest.raises(ArithmeticError):
        (x1 * x1 + x2).exact_div(x1 + x2)


def test_gcd_of_constructed_product():
    rng = random.Random(9)
    for _ in range(25):
        common = random_poly(rng, terms=2, deg=1)
        f = common * random_poly(rng, terms=2, deg=1)
        g = common * random_poly(rng, terms=2, deg=1)
        d = multi_gcd(f, g)
        if f.is_zero or g.is_zero:
            continue
        if common.is_zero:
            continue
        # common divides the gcd, and the gcd divides both inputs
        assert f.exact_div(d) is not None
        assert g.exact_div(d) is not None
        assert d.exact_div(multi_gcd(d, normalize_content(common))) is not None


def test_gcd_is_exact_on_coprime_inputs():
    x1, x2, x3 = vars3()
    assert multi_gcd(x1, x2) == MultiPoly.one(3)
    assert multi_gcd(x1 + x2, x1 + x3) == MultiPoly.one(3)


def test_gcd_list_ignores_zeros():
    x1, _, x3 = vars3()
    zero = MultiPoly.zero(3)
    assert multi_gcd_list([zero, x3, zero, x3 * x1], 3) == x3
    assert multi_gcd_list([zero, zero], 3).is_zero


def test_normalize_content_makes_integer_primitive():
    x1, x2, _ = vars3()
    p = x1.scale(Fraction(2, 3)) + x2.scale(Fraction(4, 3))
    q = normalize_content(p)
    assert q == x1 + x2.scale(2)
    assert normalize_content(-q) == q


def test_eval_on_line_matches_pointwise():
    # the restriction is f(t)/s with f an integer list; integer data give
    # s = 1, and rational coefficients and line data go the same way
    rng = random.Random(4)
    for _ in range(30):
        p = random_poly(rng)
        base = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        direction = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        f, s = p.eval_on_line(base, direction)
        assert s == 1 and all(type(c) is int for c in f)
        rational = (p.scale(Fraction(2, 3)), [b / 2 for b in base], [d / 5 for d in direction])
        g, s_g = rational[0].eval_on_line(*rational[1:])
        assert all(type(c) is int for c in g)
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
            point = [b + t * d for b, d in zip(base, direction)]
            assert UniPoly(f)(t) == p.evaluate(point)
            point = [b + t * d for b, d in zip(*rational[1:])]
            assert UniPoly(g)(t) / s_g == rational[0].evaluate(point)


def test_coefficients_in_and_drop():
    x1, x2, x3 = vars3()
    p = x3 * x3 * x1 + x3 * x2 + x1
    coeffs = coefficients_in(p, 2)
    assert len(coeffs) == 3
    assert coeffs[0] == x1
    assert coeffs[1] == x2
    assert coeffs[2] == x1
    dropped = drop_last_variable(coeffs[1])
    assert dropped.nvars == 2
    assert dropped == MultiPoly.variable(2, 1)


def test_gcd_with_main_variable_only_in_one_argument():
    x1, x2, x3 = vars3()
    f = (x1 + x2) * x3
    g = (x1 + x2) * x1
    assert multi_gcd(f, g) == x1 + x2


def test_gcd_stress_with_line_restriction_oracle():
    # d = gcd(u*w, v*w) must contain w, divide both products, and leave
    # coprime cofactors; cofactor coprimality is certified by univariate
    # gcds of restrictions to seeded random lines (a shared factor would
    # restrict to a shared factor on a generic line)
    from jkpencil.unipoly import poly_gcd

    rng = random.Random(19)
    for nvars in (2, 3, 4):
        for _ in range(12):
            u = random_poly(rng, nvars=nvars, terms=3, deg=2)
            v = random_poly(rng, nvars=nvars, terms=3, deg=2)
            w = random_poly(rng, nvars=nvars, terms=2, deg=1)
            if u.is_zero or v.is_zero or w.is_zero:
                continue
            f, g = u * w, v * w
            d = multi_gcd(f, g)
            d.exact_div(multi_gcd(d, normalize_content(w)))  # w divides d
            cf = f.exact_div(d)
            cg = g.exact_div(d)
            coprime_certified = False
            for k in range(3):
                base = [Fraction(rng.randint(-9, 9)) for _ in range(nvars)]
                direction = [Fraction(rng.randint(1, 9)) for _ in range(nvars)]
                rf = UniPoly(cf.eval_on_line(base, direction)[0])
                rg = UniPoly(cg.eval_on_line(base, direction)[0])
                if rf.is_zero or rg.is_zero:
                    continue
                if poly_gcd(rf, rg).degree == 0:
                    coprime_certified = True
                    break
            assert coprime_certified
