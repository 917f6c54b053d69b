import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from jkpencil.errors import (
    DegreeJumpError,
    DenominatorVanishesError,
    InfiniteEigenvalueError,
    InternalConsistencyError,
    NonGenericPointError,
    ValidationError,
)
from jkpencil.liealg import _lie_char_poly, lie_pencil
from jkpencil.linalg import rank
from jkpencil.multipoly import MultiPoly
from jkpencil.pencil import (
    JKInvariants,
    SkewPencil,
    canonical_pencil,
    characteristic_polynomial,
)
from jkpencil.poisson import (
    COMPLETE,
    INCOMPLETE,
    PointAnalysis,
    PolyPoissonPencil,
    _certify,
    _random_point,
    _sample_generic,
    compatibility_check,
    completeness_check,
    eigenvalue_lemma_check,
    evaluate_at,
    extended_core,
    family_completeness,
    generic_char_poly,
    involution_check,
    jacobi_check,
    sample_generic_point,
)
from jkpencil.structure import aff1, catalog, heisenberg3, so3
from jkpencil.unipoly import UniPoly


def mpvar(n, i):
    return MultiPoly.variable(n, i)


def skew_from_upper(n, entries):
    """entries: {(i, j): MultiPoly} for i < j, zero elsewhere."""
    rows = [[MultiPoly.zero(n) for _ in range(n)] for _ in range(n)]
    for (i, j), val in entries.items():
        rows[i][j] = val
        rows[j][i] = -val
    return rows


def so3_matrix():
    n = 3
    x1, x2, x3 = (mpvar(n, i) for i in range(n))
    return skew_from_upper(3, {(0, 1): x3, (0, 2): -x2, (1, 2): x1})


def constant_matrix(n, upper):
    return skew_from_upper(
        n, {ij: MultiPoly.constant(n, v) for ij, v in upper.items()}
    )


# -- jacobi and compatibility --------------------------------------------------


def test_jacobi_constant_matrix():
    assert jacobi_check(constant_matrix(3, {(0, 1): 2, (1, 2): Fraction(1, 3)}))


def test_jacobi_so3():
    assert jacobi_check(so3_matrix())


def test_jacobi_violation_with_residual():
    x1, x2 = mpvar(3, 0), mpvar(3, 1)
    broken = skew_from_upper(3, {(0, 1): x1, (0, 2): x2})
    res = jacobi_check(broken)
    assert not res.ok
    assert res.witness == (1, 2, 3)
    assert res.residual == x2


def test_jacobi_rejects_non_skew():
    n = 2
    one = MultiPoly.one(n)
    with pytest.raises(ValidationError):
        jacobi_check([[one, one], [one, one]])


def test_compatibility_of_lie_pencils():
    for g, a in ((so3(), [1, 2, 3]), (heisenberg3(), [0, 0, 1]), (aff1(), [0, 1])):
        assert compatibility_check(lie_pencil(g, a).pencil)


def test_pencil_with_itself_is_compatible():
    a = so3_matrix()
    assert compatibility_check(PolyPoissonPencil(a, a))


def test_incompatible_pair_detected():
    # A = so(3) Lie-Poisson; B Poisson with entry x1: the sum violates Jacobi
    x1 = mpvar(3, 0)
    b = skew_from_upper(3, {(0, 1): x1})
    assert jacobi_check(b)
    res = compatibility_check(PolyPoissonPencil(so3_matrix(), b))
    assert not res.ok
    assert res.witness == (1, 2, 3)
    assert res.residual == -mpvar(3, 1)


def test_jacobi_linear_in_each_argument():
    # A, B, A+B Poisson implies A + c*B Poisson for rational c
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    a, b = spec.pencil.a, spec.pencil.b
    for c in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
        combo = [
            [x + y.scale(c) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
        ]
        assert jacobi_check(combo)


# -- evaluation ------------------------------------------------------------------


def test_evaluate_constant_pencil():
    p = PolyPoissonPencil(
        constant_matrix(2, {(0, 1): 3}), constant_matrix(2, {(0, 1): 1})
    )
    sp = evaluate_at(p, [9, -4])
    assert sp.a == ((Fraction(0), Fraction(3)), (Fraction(-3), Fraction(0)))


def test_evaluate_so3_at_east_pole():
    p = PolyPoissonPencil(so3_matrix(), constant_matrix(3, {(0, 1): 1}))
    sp = evaluate_at(p, [1, 0, 0])
    assert sp.a == (
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1), Fraction(0)),
    )


def test_evaluate_heisenberg_scaling():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    c = Fraction(5)
    sp = evaluate_at(spec.pencil, [0, 0, c])
    assert sp.a[0][1] == c
    assert sp.a[0][2] == 0 and sp.a[1][2] == 0


def test_evaluate_length_mismatch():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    with pytest.raises(ValidationError):
        evaluate_at(spec.pencil, [1, 2])


# -- generic characteristic polynomial --------------------------------------------


def test_heisenberg_generic_charpoly():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    gcp = generic_char_poly(spec.pencil)
    assert gcp.degree == 1
    assert gcp.rank == 2
    x3 = mpvar(3, 2)
    # p(lambda) = lambda - x3: numerator x3 over denominator -1
    p0 = gcp.numerators[0].scale(Fraction(1) / gcp.denominator.constant_value())
    assert p0 == -x3


def test_so3_generic_charpoly_is_constant():
    spec = lie_pencil(so3(), [2, 3, 5])
    gcp = generic_char_poly(spec.pencil)
    assert gcp.degree == 0
    assert gcp.numerators == ()


def test_constant_jordan_pencil_charpoly():
    sp = canonical_pencil(
        JKInvariants.from_blocks([], [(UniPoly.linear(7), (1,))])
    )
    n = sp.n
    a = [[MultiPoly.constant(n, v) for v in row] for row in sp.a]
    b = [[MultiPoly.constant(n, v) for v in row] for row in sp.b]
    gcp = generic_char_poly(PolyPoissonPencil(a, b))
    assert gcp.degree == 1
    assert gcp.specialise([0, 0]).poly == UniPoly.linear(7)


def test_generic_charpoly_infinite_eigenvalue():
    a = so3_matrix()
    b = [[MultiPoly.zero(3)] * 3 for _ in range(3)]
    with pytest.raises(InfiniteEigenvalueError):
        generic_char_poly(PolyPoissonPencil(a, b))


def test_generic_matches_pointwise_at_five_points():
    rng = random.Random(12)
    for g, a in ((heisenberg3(), [0, 0, 1]), (so3(), [1, 2, 3]), (aff1(), [0, 1])):
        pencil = lie_pencil(g, a).pencil
        gcp = generic_char_poly(pencil)
        for i in range(5):
            x0 = sample_generic_point(pencil, seed=rng.randrange(10000))
            pointwise = characteristic_polynomial(evaluate_at(pencil, x0))
            assert pointwise.poly == gcp.specialise(x0).poly
            assert pointwise.degree == gcp.degree


# -- coefficient gradients ---------------------------------------------------------


def test_heisenberg_gradient():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    grads = generic_char_poly(spec.pencil).specialise([1, 1, 1]).gradients()
    assert grads == [(Fraction(0), Fraction(0), Fraction(-1))]


def test_heisenberg_gradient_scaled_frozen_point():
    spec = lie_pencil(heisenberg3(), [0, 0, 2])
    grads = generic_char_poly(spec.pencil).specialise([1, 1, 1]).gradients()
    assert grads == [(Fraction(0), Fraction(0), Fraction(-1, 2))]


def test_constant_pencil_has_zero_gradients():
    sp = canonical_pencil(
        JKInvariants.from_blocks([], [(UniPoly.linear(3), (1,))])
    )
    a = [[MultiPoly.constant(2, v) for v in row] for row in sp.a]
    b = [[MultiPoly.constant(2, v) for v in row] for row in sp.b]
    grads = generic_char_poly(PolyPoissonPencil(a, b)).specialise([4, -1]).gradients()
    assert grads == [(Fraction(0), Fraction(0))]


def test_rational_function_coefficients_quotient_rule():
    # A has entry x3, B has entry x1: p(lambda) = lambda - x3/x1
    n = 3
    a = skew_from_upper(n, {(0, 1): mpvar(n, 2)})
    b = skew_from_upper(n, {(0, 1): mpvar(n, 0)})
    pencil = PolyPoissonPencil(a, b)
    gcp = generic_char_poly(pencil)
    assert gcp.degree == 1
    x0 = [Fraction(2), Fraction(5), Fraction(7)]
    assert gcp.specialise(x0).poly == UniPoly([Fraction(-7, 2), Fraction(1)])
    grads = gcp.specialise(x0).gradients()
    assert grads == [(Fraction(7, 4), Fraction(0), Fraction(-1, 2))]
    assert gcp.specialise([0, 1, 1]) is None


def test_point_analysis_raises_where_the_denominator_vanishes():
    # specialise returns None where the denominator vanishes, and
    # _not_generic turns that into the error: here at a point of generic
    # rank and rank(B), for heisenberg3's polynomial with numerators and
    # denominator multiplied by x1 - x2
    pencil = lie_pencil(heisenberg3(), [0, 0, 1]).pencil
    gcp = generic_char_poly(pencil)
    factor = mpvar(3, 0) - mpvar(3, 1)
    widened = dataclasses.replace(
        gcp, numerators=tuple(f * factor for f in gcp.numerators), denominator=gcp.denominator * factor
    )
    x0 = (1, 1, 1)
    assert widened.specialise(x0) is None
    assert widened.specialise((2, 1, 1)).poly == gcp.specialise((2, 1, 1)).poly
    PointAnalysis(evaluate_at(pencil, x0), gcp, x0, gcp.specialise(x0))
    with pytest.raises(DenominatorVanishesError, match="characteristic denominator vanishes"):
        PointAnalysis(evaluate_at(pencil, x0), widened, x0, widened.specialise(x0))


# -- one integer form, any rational point ----------------------------------------------


def fraction_value(f: MultiPoly, point) -> Fraction:
    """f at a point, term by term in Fractions: the oracle of the library's
    evaluation in integers over a common denominator."""
    total = Fraction(0)
    for exp, c in f.terms.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= Fraction(x) ** e
        total += term
    return total


def fraction_specialisation(gcp, point):
    """gcp's monic polynomial and coefficient gradients at a point, by the
    quotient rule in Fractions."""
    den = fraction_value(gcp.denominator, point)
    poly = UniPoly([fraction_value(num, point) / den for num in gcp.numerators] + [1])
    grads = [
        tuple(
            (fraction_value(num.derivative(j), point) * den
             - fraction_value(num, point) * fraction_value(gcp.denominator.derivative(j), point)) / den**2
            for j in range(gcp.nvars)
        )
        for num in gcp.numerators
    ]
    return poly, grads


def _general_route_gcp():
    # A has entry x3^2 + x2, B has entry 2*x1: p(lambda) = lambda - (x3^2 + x2)/(2*x1),
    # a numerator and a denominator of different degrees
    n = 3
    a = skew_from_upper(n, {(0, 1): mpvar(n, 2) * mpvar(n, 2) + mpvar(n, 1)})
    b = skew_from_upper(n, {(0, 1): mpvar(n, 0).scale(2)})
    return generic_char_poly(PolyPoissonPencil(a, b))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _lie_char_poly(heisenberg3(), (1, 0, 2), 0), id="lie-integer-a"),
        pytest.param(
            lambda: _lie_char_poly(heisenberg3(), (Fraction(1, 2), 0, Fraction(-2, 3)), 0), id="lie-rational-a"
        ),
        pytest.param(_general_route_gcp, id="general"),
    ],
)
def test_integer_and_rational_points_take_one_route(make):
    """A specialisation evaluates the one integer form: an integer
    point and the same point as Fractions give equal values, a rational
    point goes the same way, and every value is a Fraction, never a float,
    equal to the Fraction oracle's."""
    gcp = make()
    assert gcp.degree == 1
    integer = (3, -2, 5)
    as_fractions = tuple(Fraction(x) for x in integer)
    rational = (Fraction(1, 2), Fraction(-4, 3), Fraction(5, 7))
    for point in (integer, as_fractions, rational):
        specialisation = gcp.specialise(point)
        poly, grads = specialisation.poly, specialisation.gradients()
        assert (poly, grads) == fraction_specialisation(gcp, point), point
        assert all(type(c) is Fraction for c in poly.coeffs)
        assert all(type(v) is Fraction for grad in grads for v in grad)
        assert any(v for grad in grads for v in grad)
    assert gcp.specialise(integer).poly == gcp.specialise(as_fractions).poly
    assert gcp.specialise(integer).gradients() == gcp.specialise(as_fractions).gradients()


def test_lie_route_at_a_rational_a_matches_the_general_route():
    # d! q^d scales p_g's Taylor coefficients at a = y/q to integers; the
    # Pfaffian gcd over Q[x, lambda] of the same pencil is the oracle
    a = (Fraction(1, 2), 0, Fraction(-2, 3))
    derived = _lie_char_poly(heisenberg3(), a, 0)
    oracle = generic_char_poly(lie_pencil(heisenberg3(), a).pencil)
    for point in ((3, -2, 5), (Fraction(1, 2), Fraction(-4, 3), Fraction(5, 7))):
        assert derived.specialise(point).poly == oracle.specialise(point).poly
        assert derived.specialise(point).gradients() == oracle.specialise(point).gradients()


def test_generic_char_poly_holds_integer_coefficients():
    gcp = _general_route_gcp()
    assert all(type(c) is int for f in (gcp.denominator, *gcp.numerators) for c in f.terms.values())
    with pytest.raises(ValidationError, match="integer coefficients"):
        dataclasses.replace(gcp, denominator=gcp.denominator.scale(Fraction(1, 4)))
    with pytest.raises(ValidationError, match="integer coefficients"):
        dataclasses.replace(gcp, numerators=(gcp.numerators[0].scale(Fraction(2, 3)),))


def test_gradient_polynomials_are_derived_once_per_generic_char_poly(monkeypatch):
    calls = []
    original = MultiPoly.gradient

    def gradient(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MultiPoly, "gradient", gradient)
    gcp = _general_route_gcp()
    for point in ((3, -2, 5), (1, 1, 1), (Fraction(1, 2), 2, 3)):
        gcp.specialise(point).gradients()
    assert calls == [gcp.denominator, *gcp.numerators]


def test_random_points_are_small_integers_from_an_unchanged_stream():
    rng = random.Random(0)
    draws = [_random_point(5, rng) for _ in range(3)]
    assert draws == [(3, 4, -8, -1, 7), (6, 3, 0, 6, 2), (9, -3, 7, -5, 0)]
    assert all(type(x) is int for point in draws for x in point)


# -- extended core and completeness --------------------------------------------------


def test_heisenberg_extended_core():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    pa = extended_core(spec.pencil, [1, 1, 1])
    assert pa.core.basis == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert pa.extended.dim == 1  # dp_0 already lies in the core


def test_so3_extended_core_equals_core():
    spec = lie_pencil(so3(), [1, 2, 3])
    x0 = sample_generic_point(spec.pencil, seed=3)
    pa = extended_core(spec.pencil, x0)
    assert pa.extended == pa.core
    assert pa.core.dim == 2


def test_aff1_extended_core():
    spec = lie_pencil(aff1(), [0, 1])
    pa = extended_core(spec.pencil, [1, 1])
    assert pa.core.dim == 0
    assert pa.gradients == ((Fraction(0), Fraction(-1)),)
    assert pa.extended.dim == 1


def test_non_generic_point_rejected():
    # A has entry x3, B has entry x1: at x1 = 0 the B member degenerates
    n = 3
    a = skew_from_upper(n, {(0, 1): mpvar(n, 2)})
    b = skew_from_upper(n, {(0, 1): mpvar(n, 0)})
    pencil = PolyPoissonPencil(a, b)
    with pytest.raises(NonGenericPointError):
        extended_core(pencil, [0, 1, 1])


def test_pointwise_degree_below_generic_is_inconsistent():
    # the generic polynomial divides every pointwise principal Pfaffian, so
    # at a point with generic rank, rank(B) and denominator the pointwise
    # degree can exceed the generic one (a non-generic point) but never
    # fall below it (two routes disagree)
    pencil = lie_pencil(heisenberg3(), [0, 0, 1]).pencil
    gcp = generic_char_poly(pencil)
    x0 = sample_generic_point(pencil, seed=5)
    at_x0 = evaluate_at(pencil, x0)
    point = PointAnalysis(at_x0, gcp, x0, gcp.specialise(x0))
    assert characteristic_polynomial(point.pencil).degree == gcp.degree
    higher = dataclasses.replace(
        gcp, degree=gcp.degree + 1, numerators=gcp.numerators + (gcp.denominator,)
    )
    with pytest.raises(InternalConsistencyError):
        PointAnalysis(at_x0, higher, x0, higher.specialise(x0))
    with pytest.raises(InternalConsistencyError):
        _sample_generic(partial(evaluate_at, pencil), higher, seed=5)
    lower = dataclasses.replace(gcp, degree=gcp.degree - 1, numerators=gcp.numerators[1:])
    with pytest.raises(NonGenericPointError):
        PointAnalysis(at_x0, lower, x0, lower.specialise(x0))


def test_sample_generic_raises_on_the_tenth_degree_jump():
    # a generic polynomial one degree below the pencil's makes every point
    # of generic rank a degree jump, and the search gives up at the tenth
    pencil = lie_pencil(heisenberg3(), [0, 0, 1]).pencil
    gcp = generic_char_poly(pencil)
    lower = dataclasses.replace(gcp, degree=gcp.degree - 1, numerators=gcp.numerators[1:])
    drawn = []

    def pencil_at(x0):
        drawn.append(x0)
        return evaluate_at(pencil, x0)

    with pytest.raises(DegreeJumpError, match="pointwise degree 1 exceeds generic degree 0"):
        _sample_generic(pencil_at, lower, seed=5)
    assert 10 <= len(drawn) < 80


def test_sample_generic_gives_up_after_80_points():
    # the zero pencil never reaches the generic rank 2 of heisenberg3's
    gcp = generic_char_poly(lie_pencil(heisenberg3(), [0, 0, 1]).pencil)
    zero = [[0] * 3 for _ in range(3)]
    drawn = []

    def pencil_at(x0):
        drawn.append(x0)
        return SkewPencil(zero, zero)

    with pytest.raises(InternalConsistencyError, match="found 0 of 1 generic points in 80 draws"):
        _sample_generic(pencil_at, gcp, seed=5)
    assert len(drawn) == 80


@pytest.mark.parametrize("count, draws", [(1, 80), (3, 80), (4, 106), (100, 2666)])
def test_certify_draws_80_points_per_three_wanted(count, draws):
    # no point has the rank 2 asked for, so the search reads its whole
    # budget: 80 draws, or 80 per three points wanted past three
    drawn = []
    zero = SkewPencil([[0]], [[0]])

    def points():
        while True:
            drawn.append(None)
            yield (0,), zero, None

    with pytest.raises(InternalConsistencyError, match=f"found 0 of {count} generic points in {draws} draws"):
        _certify(points(), 2, 1, count)
    assert len(drawn) == draws


def test_generic_char_poly_is_computed_once_per_pencil(monkeypatch):
    # the Pfaffian gcd does not depend on the seed; only the sampler's
    # stream does, and each seed's point is the one a fresh pencil gives
    import jkpencil.poisson

    calls = []
    original = jkpencil.poisson._pfaffian_gcd

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(jkpencil.poisson, "_pfaffian_gcd", counted)
    pencil = lie_pencil(so3(), [1, 2, 3]).pencil
    points = [sample_generic_point(pencil, seed=s) for s in range(4)]
    assert len(calls) == 1
    assert generic_char_poly(pencil) is generic_char_poly(pencil)
    assert len(calls) == 1
    fresh = [sample_generic_point(lie_pencil(so3(), [1, 2, 3]).pencil, seed=s) for s in range(4)]
    assert points == fresh
    assert len(calls) == 1 + 4


def test_completeness_verdicts():
    aff = lie_pencil(aff1(), [0, 1])
    rep = completeness_check(aff.pencil, [1, 1])
    assert rep.verdict == COMPLETE
    assert rep.extended_dim == rep.target_dim == 1

    h = lie_pencil(heisenberg3(), [0, 0, 1])
    rep = completeness_check(h.pencil, [1, 1, 1])
    assert rep.verdict == INCOMPLETE
    assert rep.extended_dim == 1 and rep.target_dim == 2
    assert "dp_0 in K" in rep.witnesses

    s = lie_pencil(so3(), [1, 2, 3])
    rep = completeness_check(s.pencil, sample_generic_point(s.pencil, seed=9))
    assert rep.verdict == COMPLETE
    assert rep.extended_dim == rep.target_dim == 2


def test_completeness_dimension_increment_bound():
    for g, a, pt in (
        (aff1(), [0, 1], [1, 1]),
        (heisenberg3(), [0, 0, 1], [1, 1, 1]),
    ):
        spec = lie_pencil(g, a)
        rep = completeness_check(spec.pencil, pt)
        bound = sum(t.factor.degree for t in rep.factor_tests)
        assert rep.extended_dim - rep.core_dim <= bound
        escaping = sum(t.factor.degree for t in rep.factor_tests if t.escapes)
        assert rep.extended_dim - rep.core_dim == escaping


def test_completeness_incomplete_on_repeated_eigenvalue():
    # constant pencil: two 2x2 Jordan blocks with the same eigenvalue
    sp = canonical_pencil(
        JKInvariants.from_blocks([], [(UniPoly.linear(3), (1, 1))])
    )
    n = sp.n
    a = [[MultiPoly.constant(n, v) for v in row] for row in sp.a]
    b = [[MultiPoly.constant(n, v) for v in row] for row in sp.b]
    pencil = PolyPoissonPencil(a, b)
    x0 = [Fraction(0)] * n
    rep = completeness_check(pencil, x0)
    assert rep.verdict == INCOMPLETE
    assert not rep.distinct_eigenvalues
    assert rep.jordan_blocks_2x2  # blocks are 2x2, eigenvalues not distinct


# -- the completeness pipeline -----------------------------------------------------------


def _summary(family):
    return family.verdict, [pa.point for pa in family.points], family.witnesses, family.warnings


@pytest.mark.parametrize("seed", [0, 7])
def test_family_completeness_is_the_same_on_the_general_route(seed):
    """family_completeness reads a pencil only through pencil_at and its
    generic characteristic polynomial: the Lie pencil built from the
    structure constants with the polynomial read off p_g, and the
    polynomial pencil evaluated entrywise with the Pfaffian-gcd oracle,
    give the same verdict, points and witnesses at the same seed."""
    rng = random.Random(41)
    for g in catalog():
        a = [rng.randint(-5, 5) for _ in range(g.dim)]
        while rank(g.frozen_matrix(a)) != g.generic_rank():
            a = [rng.randint(-5, 5) for _ in range(g.dim)]
        frozen = g.frozen_matrix(a)
        lie = family_completeness(
            lambda x0: SkewPencil(g.frozen_matrix(x0), frozen), _lie_char_poly(g, a, seed), seed
        )
        pencil = lie_pencil(g, a).pencil
        general = family_completeness(partial(evaluate_at, pencil), generic_char_poly(pencil), seed)
        assert _summary(lie) == _summary(general), g.name
        assert len(lie.points) == 2 and lie.warnings == (), g.name


def test_family_completeness_of_a_pencil_that_is_not_lie_poisson():
    # A = x3 d1^d2, B = x1 d1^d2: p(lambda) = lambda - x3/x1, whose
    # gradient leaves the core, so the family is complete
    n = 3
    a = skew_from_upper(n, {(0, 1): mpvar(n, 2)})
    b = skew_from_upper(n, {(0, 1): mpvar(n, 0)})
    pencil = PolyPoissonPencil(a, b)
    assert compatibility_check(pencil)
    family = family_completeness(partial(evaluate_at, pencil), generic_char_poly(pencil), 3)
    assert family.verdict == COMPLETE
    assert (family.witnesses, family.warnings) == ((), ())
    for pa in family.points:
        assert pa.completeness == completeness_check(pencil, pa.point)
    explicit = family_completeness(partial(evaluate_at, pencil), generic_char_poly(pencil), 3, [[2, 5, 7]])
    assert [pa.point for pa in explicit.points] == [(2, 5, 7)]
    with pytest.raises(NonGenericPointError):
        family_completeness(partial(evaluate_at, pencil), generic_char_poly(pencil), 3, [[0, 1, 1]])


# -- involution and eigenvalue-lemma certificates --------------------------------------


def test_involution_heisenberg():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    cert = involution_check(spec.pencil, [1, 1, 1])
    assert cert.passed
    assert cert.pairings > 0


def test_involution_single_covector_family():
    # aff(1): corank 0, kernels are trivial; family is just dp_0
    spec = lie_pencil(aff1(), [0, 1])
    cert = involution_check(spec.pencil, [1, 1])
    assert cert.family_size == 1
    assert cert.passed


def test_involution_so3_kernel_pairings():
    spec = lie_pencil(so3(), [1, 2, 3])
    x0 = sample_generic_point(spec.pencil, seed=21)
    cert = involution_check(spec.pencil, x0)
    assert cert.passed
    assert cert.family_size == 4  # one kernel vector per sampled regular value


def test_eigenvalue_lemma_heisenberg():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    cert = eigenvalue_lemma_check(spec.pencil, [1, 1, 1])
    assert cert.status == "PASS"
    assert cert.checks[0].root == 1
    assert cert.checks[0].gradient == (Fraction(0), Fraction(0), Fraction(1))


def test_eigenvalue_lemma_constant_eigenvalue():
    sp = canonical_pencil(
        JKInvariants.from_blocks([], [(UniPoly.linear(5), (1,))])
    )
    a = [[MultiPoly.constant(2, v) for v in row] for row in sp.a]
    b = [[MultiPoly.constant(2, v) for v in row] for row in sp.b]
    cert = eigenvalue_lemma_check(PolyPoissonPencil(a, b), [3, 3])
    assert cert.status == "PASS"
    assert cert.checks[0].gradient == (Fraction(0), Fraction(0))


def test_eigenvalue_lemma_aff1():
    spec = lie_pencil(aff1(), [0, 1])
    cert = eigenvalue_lemma_check(spec.pencil, [1, 1])
    assert cert.status == "PASS"
    assert cert.checks[0].root == 1
    assert cert.checks[0].gradient == (Fraction(0), Fraction(1))


def test_eigenvalue_lemma_no_rational_root():
    spec = lie_pencil(so3(), [1, 2, 3])
    x0 = sample_generic_point(spec.pencil, seed=33)
    cert = eigenvalue_lemma_check(spec.pencil, x0)
    assert cert.status == "NO_RATIONAL_ROOT"
