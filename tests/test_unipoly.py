import random
from fractions import Fraction

import pytest

from jkpencil.unipoly import (
    UniPoly,
    _int_coprime_refine,
    _int_poly_pquo,
    _int_poly_sub_mul,
    _int_split_rational_linear,
    _integer_primitive,
    _to_unipoly,
    poly_gcd,
    rational_roots,
    refined_factors,
    squarefree_decompose,
)

from conftest import (
    fraction_rational_roots,
    fraction_refined_factors,
    fraction_squarefree_decompose,
    gcd_oracle_from_factors,
    poly_from_linear_factors,
)

X = UniPoly.x()
ONE = UniPoly.one()


def test_gcd_common_linear_factor():
    f = X * X - ONE
    g = X - ONE
    assert poly_gcd(f, g) == X - ONE


def test_gcd_with_zero_is_monic_normalization():
    f = UniPoly([6, 0, 2])  # 2x^2 + 6
    assert poly_gcd(f, UniPoly.zero()) == UniPoly([3, 0, 1])
    assert poly_gcd(UniPoly.zero(), f) == UniPoly([3, 0, 1])
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()) == UniPoly.zero()


def test_gcd_derived_by_rational_root_factorization():
    # x^3 - x = x(x-1)(x+1); x^2 - 2x + 1 = (x-1)^2
    f = X**3 - X
    g = X * X - X.scale(2) + ONE
    expected = gcd_oracle_from_factors(
        [(Fraction(0), 1), (Fraction(1), 1), (Fraction(-1), 1)],
        [(Fraction(1), 2)],
    )
    assert expected == X - ONE
    assert poly_gcd(f, g) == expected


def test_gcd_divides_both_and_is_divided_by_common_divisors():
    rng = random.Random(7)
    roots = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)]
    for _ in range(120):
        fa = [(r, rng.randint(0, 2)) for r in roots]
        fb = [(r, rng.randint(0, 2)) for r in roots]
        f = poly_from_linear_factors([(r, m) for r, m in fa if m])
        g = poly_from_linear_factors([(r, m) for r, m in fb if m])
        d = poly_gcd(f, g)
        assert (f % d).is_zero and (g % d).is_zero
        oracle = gcd_oracle_from_factors(
            [(r, m) for r, m in fa if m], [(r, m) for r, m in fb if m]
        )
        assert d == oracle
        # any common divisor divides the gcd
        assert (d % oracle).is_zero


def _euclid_gcd_oracle(f, g):
    # plain Euclidean remainders; independent of the subresultant path
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def test_gcd_matches_euclid_on_random_inputs():
    rng = random.Random(91)
    for _ in range(150):
        f = UniPoly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))]
        )
        g = UniPoly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))]
        )
        assert poly_gcd(f, g) == _euclid_gcd_oracle(f, g)


def test_squarefree_structure_on_random_inputs():
    rng = random.Random(57)
    for _ in range(60):
        f = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 8))])
        if f.degree < 1:
            continue
        parts = squarefree_decompose(f)
        rebuilt = UniPoly.one()
        for part, mult in parts:
            assert poly_gcd(part, part.derivative()) == ONE  # squarefree
            rebuilt = rebuilt * part**mult
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]) == ONE
        assert rebuilt == f.monic()


def test_gcd_large_coefficients_subresultant_path():
    f = (X.scale(12) + UniPoly.constant(Fraction(5, 7))) * (X**3 + X.scale(9) - ONE)
    g = (X.scale(12) + UniPoly.constant(Fraction(5, 7))) * (X**2 - X.scale(4))
    d = poly_gcd(f, g)
    assert d == (X + UniPoly.constant(Fraction(5, 84)))


def test_squarefree_constructed_factorization():
    f = (X - UniPoly.constant(2)) ** 2 * (X + ONE)
    assert squarefree_decompose(f) == [
        (X + ONE, 1),
        (X - UniPoly.constant(2), 2),
    ]


def test_squarefree_irreducible_quadratic():
    f = X * X + ONE
    assert squarefree_decompose(f) == [(X * X + ONE, 1)]


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decompose(UniPoly.zero())


def test_squarefree_random_distinct_linear_products():
    rng = random.Random(3)
    for _ in range(60):
        roots = rng.sample([-4, -3, -2, -1, 1, 2, 3, 4], rng.randint(1, 5))
        f = poly_from_linear_factors([(Fraction(r), 1) for r in roots])
        decomp = squarefree_decompose(f.scale(rng.choice([1, 2, -3])))
        assert decomp == [(f.monic(), 1)]


def test_squarefree_reconstructs_input():
    rng = random.Random(11)
    for _ in range(40):
        roots = rng.sample([-3, -1, 0, 2, 5], rng.randint(1, 4))
        factors = [(Fraction(r), rng.randint(1, 3)) for r in roots]
        f = poly_from_linear_factors(factors)
        rebuilt = UniPoly.one()
        for part, mult in squarefree_decompose(f):
            rebuilt = rebuilt * part**mult
        assert rebuilt == f.monic()


def test_rational_roots_with_multiplicities():
    f = poly_from_linear_factors([(Fraction(1, 2), 2), (Fraction(-3), 1)])
    assert rational_roots(f) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert rational_roots(X * X + ONE) == []


def test_rational_roots_list_the_divisors_of_each_coefficient_once(monkeypatch):
    # (x - 1)(x - 2)(x - 3)(2x - 5): the constant term 30 has 8 divisors, and
    # the denominators are listed for the leading coefficient 2 and, once the
    # root 5/2 is divided out, for 1, not once for each of the 8
    import jkpencil.unipoly

    calls = []
    divisors = jkpencil.unipoly._divisors

    def counted(n, *args):
        calls.append(abs(n))
        return divisors(n, *args)

    monkeypatch.setattr(jkpencil.unipoly, "_divisors", counted)
    f = poly_from_linear_factors([(Fraction(1), 1), (Fraction(2), 1), (Fraction(3), 1), (Fraction(5, 2), 1)])
    assert rational_roots(f) == [(1, 1), (2, 1), (Fraction(5, 2), 1), (3, 1)]
    assert calls == [30, 2, 1]


def test_rational_root_whose_denominator_is_listed_after_another_root():
    # 10000019 is not among the capped divisors of the leading coefficient
    # 3*10000019*700001, only among those of 10000019*700001, the leading
    # coefficient left once the root 1/3 is divided out
    f = (UniPoly.constant(3) * X - ONE) * (UniPoly.constant(10000019) * X - UniPoly.constant(5))
    f = f * (UniPoly.constant(700001) * X * X + ONE)
    assert rational_roots(f) == [(Fraction(5, 10000019), 1), (Fraction(1, 3), 1)]


def test_coprime_refine_splits_shared_factors():
    a = (X - ONE) * (X + ONE)
    b = (X - ONE) * (X - UniPoly.constant(2))
    basis = sorted(
        (_to_unipoly(q) for q in _int_coprime_refine([_integer_primitive(a), _integer_primitive(b)])),
        key=UniPoly.sort_key,
    )
    assert basis == [
        X - UniPoly.constant(2),
        X - ONE,
        X + ONE,
    ]


def test_split_rational_linear_factors_keeps_opaque_part():
    f = (X - UniPoly.constant(3)) * (X * X + ONE)
    parts = [_to_unipoly(q) for q in _int_split_rational_linear(_integer_primitive(f))]
    assert parts == [X - UniPoly.constant(3), X * X + ONE]


def test_divmod_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        f = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        g = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree or r.is_zero



def test_integer_pseudo_quotient_matches_division():
    rng = random.Random(17)
    for _ in range(200):
        f = [rng.randint(-40, 40) for _ in range(rng.randint(1, 8))]
        g = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
        g[-1] = g[-1] or 7
        if len(f) < len(g):
            continue
        m, q = _int_poly_pquo(f, g)
        r = _int_poly_sub_mul(m, f, q, g)
        assert m != 0 and len(r) < len(g)
        quotient, remainder = divmod(UniPoly(f), UniPoly(g))
        assert UniPoly(q).scale(Fraction(1, m)) == quotient
        assert UniPoly(r).scale(Fraction(1, m)) == remainder
        # poly_gcd's pseudo-remainder: m divides lc^(delta+1), and the scaled
        # remainder is lc^(delta+1) * f mod g over Q
        power = g[-1] ** (len(f) - len(g) + 1)
        assert power % m == 0
        assert UniPoly([power // m * c for c in r]) == (UniPoly(f).scale(power) % UniPoly(g))

def test_eval():
    f = X * X + X.scale(2)  # x^2 + 2x
    for v in (-2, 0, 1, 5, Fraction(-1, 3)):
        assert f(v) == v * v + 2 * v


def _random_factored_inputs(rng):
    """Products of repeated rational linear factors p/q, irreducible
    quadratics and powers of x, scaled by a rational constant."""
    quadratics = [X * X + ONE, X * X - UniPoly.constant(2), X * X + X + ONE, X * X.scale(3) + UniPoly.constant(5)]
    f = UniPoly.constant(rng.choice([1, -2, Fraction(3, 7), Fraction(-5, 4)]))
    for _ in range(rng.randint(0, 3)):
        root = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        f = f * UniPoly.linear(root) ** rng.randint(1, 3)
    for _ in range(rng.randint(0, 2)):
        f = f * rng.choice(quadratics) ** rng.randint(1, 2)
    return f * X ** rng.choice([0, 0, 1, 2])


def test_integer_factor_kernels_match_fraction_oracles():
    rng = random.Random(83)
    for _ in range(80):
        f = _random_factored_inputs(rng)
        assert squarefree_decompose(f) == fraction_squarefree_decompose(f), f
        assert rational_roots(f) == fraction_rational_roots(f), f
    # inputs sharing factors, as the Smith factors d_2 | d_4 | ... of a pencil do
    for _ in range(25):
        common = _random_factored_inputs(rng)
        polys = [common * _random_factored_inputs(rng) for _ in range(rng.randint(1, 3))]
        # primitive lists in no particular order, each factor once
        refined = refined_factors([_integer_primitive(f) for f in polys])
        expected = fraction_refined_factors(polys)
        assert all(_integer_primitive(_to_unipoly(q)) == q for q, _ in refined), polys
        assert len(refined) == len(expected), polys
        assert {(_to_unipoly(q), m) for q, m in refined} == set(expected), polys
    # past the divisor cap too, where both routes miss a root (see below)
    far = (X - UniPoly.constant(10000019)) * (X * X + X + UniPoly.constant(10000079 * 10000103))
    assert rational_roots(far) == fraction_rational_roots(far)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect (ROADMAP item 2): the divisor search stops at 2*10^6, so a root "
    "whose numerator and cofactor both lie past it is not found",
)
def test_rational_root_past_the_divisor_cap():
    far = (X - UniPoly.constant(10000019)) * (X * X + X + UniPoly.constant(10000079 * 10000103))
    assert rational_roots(far) == [(10000019, 1)]
