import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from jkpencil.errors import (
    DenominatorVanishesError,
    InfiniteEigenvalueError,
    InternalConsistencyError,
    NonGenericPointError,
    ValidationError,
)
from jkpencil.liealg import aff1, heisenberg3, lie_pencil, so3
from jkpencil.multipoly import MultiPoly
from jkpencil.pencil import canonical_pencil, JKInvariants, characteristic_polynomial
from jkpencil.poisson import (
    COMPLETE,
    INCOMPLETE,
    PointAnalysis,
    PolyPoissonPencil,
    _sample_generic,
    coefficient_gradients,
    compatibility_check,
    completeness_check,
    eigenvalue_lemma_check,
    evaluate_at,
    extended_core,
    generic_char_poly,
    involution_check,
    jacobi_check,
    sample_generic_point,
)
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
    assert gcp.poly_at([0, 0]) == UniPoly.linear(7)


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
            assert pointwise.poly == gcp.poly_at(x0)
            assert pointwise.degree == gcp.degree


# -- coefficient gradients ---------------------------------------------------------


def test_heisenberg_gradient():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    grads = coefficient_gradients(spec.pencil, [1, 1, 1])
    assert grads == [(Fraction(0), Fraction(0), Fraction(-1))]


def test_heisenberg_gradient_scaled_frozen_point():
    spec = lie_pencil(heisenberg3(), [0, 0, 2])
    grads = coefficient_gradients(spec.pencil, [1, 1, 1])
    assert grads == [(Fraction(0), Fraction(0), Fraction(-1, 2))]


def test_constant_pencil_has_zero_gradients():
    sp = canonical_pencil(
        JKInvariants.from_blocks([], [(UniPoly.linear(3), (1,))])
    )
    a = [[MultiPoly.constant(2, v) for v in row] for row in sp.a]
    b = [[MultiPoly.constant(2, v) for v in row] for row in sp.b]
    grads = coefficient_gradients(PolyPoissonPencil(a, b), [4, -1])
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
    assert gcp.poly_at(x0) == UniPoly([Fraction(-7, 2), Fraction(1)])
    grads = gcp.gradients_at(x0)
    assert grads == [(Fraction(7, 4), Fraction(0), Fraction(-1, 2))]
    with pytest.raises(DenominatorVanishesError):
        gcp.poly_at([0, 1, 1])


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
    assert PointAnalysis(evaluate_at(pencil, x0), gcp, x0).analysis.char_poly.degree == gcp.degree
    higher = dataclasses.replace(
        gcp, degree=gcp.degree + 1, numerators=gcp.numerators + (gcp.denominator,)
    )
    with pytest.raises(InternalConsistencyError):
        PointAnalysis(evaluate_at(pencil, x0), higher, x0)
    with pytest.raises(InternalConsistencyError):
        _sample_generic(partial(evaluate_at, pencil), higher, seed=5)
    lower = dataclasses.replace(gcp, degree=gcp.degree - 1, numerators=gcp.numerators[1:])
    with pytest.raises(NonGenericPointError):
        PointAnalysis(evaluate_at(pencil, x0), lower, x0)


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
