import gc
import json
import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from jkpencil.errors import (
    InfiniteEigenvalueError,
    SingularMatrixError,
    ValidationError,
)
from jkpencil.linalg import _integer_rows, bilinear, fraction_free_rank, kernel_basis, rank, subspace_sum
from jkpencil.pencil import (
    INFINITY,
    JKInvariants,
    RegularValueSampler,
    SkewPencil,
    _lambda_rows,
    _member_value,
    _pairings,
    _scaled_member,
    canonical_pencil,
    characteristic_polynomial,
    congruence_transform,
    core_subspace,
    isotropy_certificate,
    jk_invariants,
    pencil_rank,
)
from jkpencil.unipoly import UniPoly

from conftest import (
    OverBudget,
    RandomRegularValueSampler,
    assert_char_poly_factors_match_oracle,
    budget,
    companion_pencil,
    fraction_pairings,
    kronecker_companion_pencil,
    lambda_matrix,
    mobius_jordan_groups,
    naive_pfaffian,
    random_jk_spec,
    random_unimodular,
    random_value_analysis,
    recursion_charpoly_check,
    whole_smith_jordan_groups,
)


def jordan(lam0, half):
    return JKInvariants.from_blocks([], [(UniPoly.linear(lam0), (half,))])


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


# -- construction and canonical blocks ---------------------------------------


def test_canonical_trivial_kronecker():
    p = canonical_pencil(JKInvariants.from_blocks([1], []))
    assert p.a == ((Fraction(0),),)
    assert p.b == ((Fraction(0),),)


def test_canonical_jordan_block_p1():
    p = canonical_pencil(jordan(Fraction(5), 1))
    assert p.a == ((Fraction(0), Fraction(5)), (Fraction(-5), Fraction(0)))
    assert p.b == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def test_canonical_infinite_jordan_p1():
    p = canonical_pencil(JKInvariants.from_blocks([], [(INFINITY, (1,))]))
    assert p.a == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    assert p.b == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))


def test_skew_validation():
    with pytest.raises(ValidationError):
        SkewPencil([[0, 1], [1, 0]], [[0, 0], [0, 0]])


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([[0, 1], [-1]], [[0, 0], [0, 0]], "ragged matrix"),
        ([[0, 0], [0, 0]], [[0, "1/2"], ["-1/2"]], "ragged matrix"),
        ([[0, 1, 0], [-1, 0, 0]], [[0, 1, 0], [-1, 0, 0]], "pencil matrices must be skew-symmetric"),
        ([[0, 1], [-1, 0]], [[0]], "A and B have different sizes"),
        ([[0, "1/2"], ["1/2", 0]], [[0, 0], [0, 0]], "pencil matrices must be skew-symmetric"),
        ([[0, 0], [0, 0]], [[Fraction(1, 3), 0], [0, 0]], "pencil matrices must be skew-symmetric"),
    ],
    ids=["ragged-a", "ragged-b", "non-square", "sizes", "non-skew-a", "non-skew-b"],
)
def test_malformed_pencils_raise_validation_errors(a, b, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SkewPencil(a, b)


def test_one_integer_form_per_pencil():
    a = [[0, 2, -3], [-2, 0, 1], [3, -1, 0]]
    b = [[0, 1, 0], [-1, 0, 4], [0, -4, 0]]
    as_strings = [[str(x) for x in row] for row in a], [[str(x) for x in row] for row in b]
    pencils = [SkewPencil(a, b), SkewPencil(frac_rows(a), frac_rows(b)), SkewPencil(*as_strings)]
    for p in pencils:
        assert p == pencils[0] and hash(p) == hash(pencils[0])
        assert p.a == tuple(map(tuple, frac_rows(a))) and p.b == tuple(map(tuple, frac_rows(b)))
        assert all(type(x) is Fraction for m in (p.a, p.b) for row in m for x in row)
        assert p._scaled == (tuple(map(tuple, a)), tuple(map(tuple, b)))

    halves = [["0", "1/2", "-2/3"], ["-1/2", "0", "5"], ["2/3", "-5", "0"]]
    p = SkewPencil(halves, b)
    mixed = [[Fraction(x) if "/" in x else int(x) for x in row] for row in halves]
    assert p == SkewPencil(mixed, frac_rows(b)) and hash(p) == hash(SkewPencil(mixed, b))
    assert p.a == tuple(tuple(Fraction(x) for x in row) for row in halves)
    assert p._denominator == 6 and p._scaled[0] == ((0, 3, -4), (-3, 0, 30), (4, -30, 0))
    # 2*(A, B) has the same integer form with D = 3, so D is part of the pencil
    doubled = SkewPencil([[2 * Fraction(x) for x in row] for row in halves], [[2 * x for x in row] for row in b])
    assert doubled._scaled == p._scaled and doubled != p


def test_canonical_rejects_non_rational_descriptor():
    quadratic = UniPoly([-2, 0, 1])  # lambda^2 - 2, irreducible over Q
    spec = JKInvariants.from_blocks([], [(quadratic, (1,))])
    with pytest.raises(ValidationError):
        canonical_pencil(spec)


# -- rank and regular values ---------------------------------------------------


def test_rank_of_trivial_kronecker_block_is_zero():
    p = canonical_pencil(JKInvariants.from_blocks([1], []))
    assert pencil_rank(p) == 0
    sampler = RegularValueSampler(p)
    assert sampler.r == sampler.rank_b == 0
    for lam in (0, 1, -5):
        assert rank(p.member(lam)) == 0


def test_rank_of_jordan_block_is_full():
    for half in (1, 2, 3):
        p = canonical_pencil(jordan(Fraction(3), half))
        assert pencil_rank(p) == 2 * half


def test_rank_of_so3_type_pencil():
    def so3_at(v):
        return frac_rows(
            [[0, v[2], -v[1]], [-v[2], 0, v[0]], [v[1], -v[0], 0]]
        )

    rng = random.Random(3)
    x = [rng.randint(1, 5) for _ in range(3)]
    a = [rng.randint(1, 5) for _ in range(3)]
    p = SkewPencil(so3_at(x), so3_at(a))
    assert pencil_rank(p) == 2
    # oracle: evaluate the member rank at three random lambda values
    best = max(rank(p.member(lam)) for lam in (2, 11, -7))
    assert best == 2


def test_pencil_rank_by_evaluation_matches_fraction_free_rank_oracle():
    # the acceptance suite's generator and seed
    rng = random.Random(20240)
    for _ in range(80):
        spec = random_jk_spec(rng, max_dim=14)
        q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
        assert pencil_rank(q) == fraction_free_rank(lambda_matrix(q)) == spec.rank, spec
    # singular B (Kronecker and infinite blocks), with eigenvalues 0, -1, 1
    # that drop the first members scanned, mu = 0, 1, -1
    singular = 0
    for _ in range(60):
        kronecker = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        jordan = [(INFINITY, (rng.randint(1, 2),))] if rng.random() < 0.6 else []
        jordan += [(UniPoly.linear(-_member_value(i)), (1,)) for i in range(rng.randint(0, 3))]
        if not kronecker and not jordan:
            continue
        spec = JKInvariants.from_blocks(kronecker, jordan)
        q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
        assert pencil_rank(q) == fraction_free_rank(lambda_matrix(q)) == spec.rank, spec
        singular += rank(q.b) < q.n - q.n % 2
    assert singular >= 40


def test_pencil_rank_reaches_the_last_evaluation_point():
    # eigenvalues 0, -1, ..., -(k-1): A + mu*B drops rank at mu = 0, ..., k-1,
    # and only mu = k = floor(n/2) is regular; B is regular, so pencil_rank
    # reads the rank off rank(B) and evaluates no member
    rng = random.Random(3)
    for k in range(1, 7):
        for kronecker in ((), (1,)):
            spec = JKInvariants.from_blocks(kronecker, [(UniPoly.linear(-i), (1,)) for i in range(k)])
            q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
            assert q.n // 2 == k
            assert all(rank(q.member(mu)) < 2 * k for mu in range(k))
            assert pencil_rank(q) == 2 * k


def test_pencil_rank_reads_the_member_at_half_rank_b():
    # eigenvalues 0, -1, 1, -2, ... drop the first k members, mu = 0, 1, -1,
    # 2, ..., and an infinite block of half-size 1 keeps rank(B) = 2k below
    # the rank 2k + 2: member k = rank(B)/2, the last one scanned, is the
    # first regular one
    rng = random.Random(5)
    for k in range(1, 6):
        values = [_member_value(i) for i in range(k + 1)]
        jordan = [(UniPoly.linear(-mu), (1,)) for mu in values[:k]] + [(INFINITY, (1,))]
        spec = JKInvariants.from_blocks((), jordan)
        q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
        assert rank(q.b) == 2 * k
        assert all(rank(q.member(mu)) == 2 * k for mu in values[:k])
        assert rank(q.member(values[k])) == pencil_rank(q) == 2 * k + 2


def test_regular_value_sign_convention():
    # member A + lambda*B is degenerate exactly at lambda = -(eigenvalue)
    lam0 = Fraction(3)
    p = canonical_pencil(jordan(lam0, 1))
    sampler = RegularValueSampler(p)
    assert rank(p.member(-lam0)) < sampler.r
    assert rank(p.member(-lam0 + 1)) == sampler.r
    assert sampler.rank_b == sampler.r  # infinity is not an eigenvalue
    # the order 0, 1, -1, 2, -2, 3, -3, 4 skips only -lam0
    assert [sampler.regular(t)[0] for t in range(7)] == [0, 1, -1, 2, -2, 3, 4]


@pytest.mark.parametrize("kronecker", [(1,), (1, 2, 3)], ids=["kronecker-1", "kronecker-1-2-3"])
def test_regular_values_skip_exactly_the_irregular_members(monkeypatch, kronecker):
    """Eigenvalues 0, -1, 1 and -2 make the members at mu = 0, 1, -1 and 2,
    the first four candidates, irregular.  Draw t reads at most
    t + r/2 + 1 candidates, r/2 = 4 exactly so for Kronecker part (1,), and
    eliminates each once; the draws are the remaining values in order."""
    import jkpencil.pencil

    spec = JKInvariants.from_blocks(kronecker, [(UniPoly.linear(v), (1,)) for v in (0, -1, 1, -2)])
    q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, random.Random(len(kronecker))))
    r = pencil_rank(q)
    eliminated = []
    original = jkpencil.pencil.kernel_basis

    def kernel_basis(m):
        eliminated.append(m)
        return original(m)

    monkeypatch.setattr(jkpencil.pencil, "kernel_basis", kernel_basis)
    sampler = RegularValueSampler(q)
    assert sampler.r == r
    values = []
    for t in range(6):
        values.append(sampler.draw())
        assert len(eliminated) <= t + r // 2 + 1
    assert len(eliminated) == 10
    assert values == [-2, 3, -3, 4, -4, 5]
    assert eliminated == [_scaled_member(q._scaled, mu) for mu in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5)]
    assert [mu for mu, _ in sampler.drawn] == values
    assert all(q.n - kernel.dim == r for _, kernel in sampler.drawn)


# -- characteristic polynomial -------------------------------------------------


def test_single_jordan_block_charpoly():
    for lam0, half in ((Fraction(7), 1), (Fraction(7), 2), (Fraction(-2), 3)):
        p = canonical_pencil(jordan(lam0, half))
        cp = characteristic_polynomial(p)
        assert cp.poly == UniPoly.linear(lam0) ** half
        assert cp.degree == half


def test_pure_kronecker_charpoly_is_one():
    p = canonical_pencil(JKInvariants.from_blocks([2, 1], []))
    cp = characteristic_polynomial(p)
    assert cp.poly == UniPoly.one()
    assert cp.degree == 0


def test_block_sum_charpoly_against_bruteforce_minors():
    spec = JKInvariants.from_blocks(
        [], [(UniPoly.linear(2), (1,)), (UniPoly.linear(5), (2,))]
    )
    p = canonical_pencil(spec)
    cp = characteristic_polynomial(p)
    expected = UniPoly.linear(2) * UniPoly.linear(5) ** 2
    assert cp.poly == expected
    # brute-force oracle: gcd of matching-expansion Pfaffians of all
    # principal r x r minors of A - lambda*B
    r = pencil_rank(p)
    lam_m = lambda_matrix(p, sign=-1)
    from jkpencil.unipoly import poly_gcd

    g = UniPoly.zero()
    for subset in combinations(range(p.n), r):
        sub = [[lam_m[i][j] for j in subset] for i in subset]
        pf = naive_pfaffian(sub, UniPoly.zero())
        if not pf.is_zero:
            g = poly_gcd(g, pf)
    assert g.monic() == expected.monic()


def test_charpoly_infinite_eigenvalue_rejected():
    p = canonical_pencil(JKInvariants.from_blocks([], [(INFINITY, (1,))]))
    with pytest.raises(InfiniteEigenvalueError):
        characteristic_polynomial(p)


def test_recursion_operator_identity():
    p = canonical_pencil(jordan(Fraction(3), 1))
    assert recursion_charpoly_check(p)
    two = canonical_pencil(
        JKInvariants.from_blocks(
            [], [(UniPoly.linear(2), (1,)), (UniPoly.linear(-1), (1,))]
        )
    )
    assert recursion_charpoly_check(two)
    # A = 0 with invertible B: char poly lambda^(n/2), det = lambda^n
    zero2 = SkewPencil(frac_rows([[0, 0], [0, 0]]), frac_rows([[0, 1], [-1, 0]]))
    assert recursion_charpoly_check(zero2)
    singular = canonical_pencil(JKInvariants.from_blocks([1], []))
    with pytest.raises(SingularMatrixError):
        recursion_charpoly_check(singular)


# -- core subspace --------------------------------------------------------------


def test_core_of_kronecker_k2_is_lower_coordinates():
    p = canonical_pencil(JKInvariants.from_blocks([2], []))
    core = core_subspace(p)
    assert core.basis == (
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_core_of_nondegenerate_pencil_is_zero():
    p = canonical_pencil(jordan(Fraction(2), 2))
    assert core_subspace(p).dim == 0


def test_core_of_trivial_plus_jordan():
    spec = JKInvariants.from_blocks([1], [(UniPoly.linear(4), (1,))])
    p = canonical_pencil(spec)
    core = core_subspace(p)
    assert core.dim == 1
    assert core.basis == ((Fraction(1), Fraction(0), Fraction(0)),)


def test_core_stabilizes_within_block_bound_and_stays():
    rng = random.Random(101)
    for _ in range(10):
        spec = random_jk_spec(rng, max_dim=9)
        p = canonical_pencil(spec)
        d_bound = max(spec.kronecker, default=0)
        sampler = RegularValueSampler(p)
        core = kernel_basis(p.member(sampler.draw()))
        for _ in range(max(d_bound - 1, 0)):
            core = subspace_sum(core, kernel_basis(p.member(sampler.draw())))
        assert core.dim == spec.core_dim
        for _ in range(3):
            core = subspace_sum(core, kernel_basis(p.member(sampler.draw())))
        assert core.dim == spec.core_dim


# -- jk invariants ---------------------------------------------------------------


def test_jordan_pair_eq1():
    spec = jordan(Fraction(7), 2)
    inv = jk_invariants(canonical_pencil(spec))
    assert inv == spec
    assert inv.kronecker == ()
    assert inv.jordan[0].descriptor == UniPoly.linear(7)
    assert inv.jordan[0].half_sizes == (2,)


def test_zero_pencil_is_all_trivial_kronecker():
    n = 5
    zero = frac_rows([[0] * n for _ in range(n)])
    inv = jk_invariants(SkewPencil(zero, zero))
    assert inv.kronecker == (1,) * n
    assert inv.jordan == ()
    assert inv.core_dim == n


def test_mixed_congruence_roundtrip():
    spec = JKInvariants.from_blocks(
        [2], [(UniPoly.linear(1), (1,)), (INFINITY, (1,))]
    )
    p = canonical_pencil(spec)
    rng = random.Random(9)
    for _ in range(5):
        q = congruence_transform(p, random_unimodular(p.n, rng))
        assert jk_invariants(q) == spec


def test_jordan_part_groups_match_whole_smith_oracle(monkeypatch):
    """The library's Smith forms run on the Jordan part, the pencil
    restricted to M/K, of size J, the sum of the Jordan block sizes; the
    Smith forms of the whole pencil give the same Jordan groups.  The
    pencils cover the mantle route (a Kronecker parameter >= 2), the slice
    (every parameter 1), a companion block of x^2 - 2, infinite blocks,
    J = 0 and full rank; no Smith form runs when J = 0."""
    import jkpencil.pencil

    sizes = []
    original = jkpencil.pencil.smith_normal_form

    def smith(m):
        sizes.append((len(m), len(m[0])))
        return original(m)

    monkeypatch.setattr(jkpencil.pencil, "smith_normal_form", smith)
    cases = [
        kronecker_companion_pencil((2, 3), (1,), (2,), "whole/0"),
        kronecker_companion_pencil((1, 1), (2,), (1,), "whole/1"),
        kronecker_companion_pencil((), (1,), (1,), "whole/2"),
    ]
    kronecker_only = JKInvariants.from_blocks([3, 2, 1], [])
    scramble = random_unimodular(9, random.Random(9))
    cases.append((congruence_transform(canonical_pencil(kronecker_only), scramble), kronecker_only))
    rng = random.Random(211)
    for _ in range(12):
        spec = random_jk_spec(rng, max_dim=12)
        cases.append((congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng)), spec))
    seen = set()
    for p, spec in cases:
        sizes.clear()
        invariants = jk_invariants(p)
        assert invariants == spec
        assert invariants.jordan == whole_smith_jordan_groups(p)
        j = invariants.mantle_dim - invariants.core_dim
        infinite = any(g.descriptor is INFINITY for g in spec.jordan)
        assert sizes == ([(j, j)] * (1 + infinite) if j else [])
        k = max(spec.kronecker, default=0)
        seen.add("J = 0" if not j else "mantle" if k >= 2 else "slice" if k else "full rank")
        seen.update({"infinity"} if infinite else ())
        seen.update({"companion"} if any(g.degree == 2 for g in spec.jordan) else ())
    assert seen == {"mantle", "slice", "full rank", "J = 0", "infinity", "companion"}


def test_kronecker_companion_n18_pencil_within_budget():
    """A scramble whose Jordan data took 74 s on a 2-core machine when the
    Smith form read the whole 18 x 18 pencil; its Jordan part is 10 x 10."""
    p, spec = kronecker_companion_pencil((2, 3), (2,), (1,), "n18/1", shears=54)
    assert p.n == 18
    with budget(5):
        assert jk_invariants(p) == spec


def test_jordan_heavy_n25_pencil_within_budget():
    """Four Jordan blocks of half-size 3: before the Smith form took unit
    pivots first, two of these scrambles ran for over a minute on a 2-core
    machine."""
    spec = JKInvariants.from_blocks([1], [(UniPoly.linear(e), (3,)) for e in (3, 7, -2, 5)])
    p = canonical_pencil(spec)
    assert p.n == 25
    for scramble in ("j/12/0", "j/12/1"):  # the first finishes in hundredths of a second
        q = congruence_transform(p, random_unimodular(25, random.Random(scramble), shears=25))
        with budget(5):
            assert jk_invariants(q) == spec


@pytest.mark.parametrize(
    "groups",
    [
        [(3, (3,)), (7, (3,)), (-2, (3,)), (5, (3,)), (Fraction(1, 2), (2,))],
        [(3, (3, 2)), (7, (1,)), (-2, (3,)), (5, (3,)), (Fraction(1, 2), (3,))],
    ],
    ids=["n29", "n31"],
)
def test_jordan_heavy_pencil_within_budget(groups):
    """Jordan parts of size 28 and 30, with half-sizes 3, 3, 3, 3, 2 and
    3, 2, 1, 3, 3, 3 on five eigenvalues; these scrambles ran for over a
    minute on a 2-core machine before the Smith form took unit pivots
    first."""
    spec = JKInvariants.from_blocks([1], [(UniPoly.linear(e), h) for e, h in groups])
    p = canonical_pencil(spec)
    n = p.n
    q = congruence_transform(p, random_unimodular(n, random.Random(f"j/{n}/1"), shears=n))
    with budget(5):
        assert jk_invariants(q) == spec


@pytest.mark.xfail(
    strict=True,
    raises=OverBudget,
    reason="known defect (ROADMAP item 3): coefficient swell in the Smith form over "
    "Z[lambda] makes this n = 54 scramble, whose Jordan part has size 50, run for over "
    "two minutes; a wrong answer is not expected and fails",
)
def test_jordan_heavy_n54_pencil_within_budget():
    groups = [(3, (3, 3)), (7, (3, 2)), (-2, (3, 2)), (5, (2, 3)), (Fraction(1, 2), (1, 1)), (0, (2,))]
    spec = JKInvariants.from_blocks([2, 1], [(UniPoly.linear(e), h) for e, h in groups])
    p = canonical_pencil(spec)
    assert p.n == 54
    q = congruence_transform(p, random_unimodular(54, random.Random("n51/1"), shears=54))
    with budget(5):
        assert jk_invariants(q) == spec


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect (ROADMAP item 2): the eigenvalues 1/10000019 and 1/10000079 have "
    "denominators past the divisor cap, so their factors stay together in one reducible "
    "descriptor of degree 2",
)
def test_eigenvalues_with_large_denominators_round_trip():
    eigenvalues = (2, 3, 4, 5, 6, 7, Fraction(1, 10000019), Fraction(1, 10000079))
    spec = JKInvariants.from_blocks([1], [(UniPoly.linear(e), (2,)) for e in eigenvalues])
    p = canonical_pencil(spec)
    assert p.n == 33
    assert jk_invariants(p) == spec


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect (ROADMAP item 2): the factor basis splits off rational linear "
    "factors only, so x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3) stays one reducible descriptor",
)
def test_companion_of_two_quadratics_gives_two_groups():
    quadratics = [UniPoly((-2, 0, 1)), UniPoly((-3, 0, 1))]
    p = companion_pencil(quadratics[0] * quadratics[1])
    assert jk_invariants(p).jordan == JKInvariants.from_blocks([], [(q, (1,)) for q in quadratics]).jordan


def test_infinite_blocks_for_every_seed():
    # rank(B) < rank here; the infinite blocks come from the reversed
    # pencil and use no regular value, so the first one drawn, mu = 0
    # (which gave (A, A) under the former reparametrization), does no
    # harm, under every scramble seed
    spec = JKInvariants.from_blocks(
        [1], [(UniPoly.linear(2), (1,)), (INFINITY, (2,))]
    )
    p = canonical_pencil(spec)
    for seed in range(100):
        q = congruence_transform(p, random_unimodular(p.n, random.Random(seed)))
        assert jk_invariants(q) == spec, seed


@pytest.mark.parametrize(
    "kronecker, jordan",
    [
        ([1], [(INFINITY, (1, 1))]),  # B = 0
        ([], [(INFINITY, (1, 1, 2))]),
        ([2], [(UniPoly.linear(0), (1,)), (INFINITY, (1, 3))]),
    ],
    ids=["b-zero", "infinity-1-1-2", "zero-next-to-infinity"],
)
def test_infinite_blocks_edge_cases_match_the_moebius_oracle(kronecker, jordan):
    spec = JKInvariants.from_blocks(kronecker, jordan)
    p = canonical_pencil(spec)
    for trial, q in enumerate((p, congruence_transform(p, random_unimodular(p.n, random.Random(5))))):
        inv = jk_invariants(q)
        assert inv == spec
        assert list(inv.jordan) == mobius_jordan_groups(q, seed=trial)


def test_jordan_groups_match_the_moebius_oracle():
    # every other spec is redrawn until it has infinite blocks
    rng = random.Random(2410)
    with_infinity = 0
    for trial in range(160):
        while True:
            spec = random_jk_spec(rng, max_dim=10)
            infinite = any(g.descriptor is INFINITY for g in spec.jordan)
            if infinite or trial % 2:
                break
        q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
        inv = jk_invariants(q)
        assert inv == spec, spec
        assert list(inv.jordan) == mobius_jordan_groups(q, seed=trial), spec
        with_infinity += infinite
    assert with_infinity >= 50, with_infinity


def test_congruence_identity_and_permutation():
    spec = JKInvariants.from_blocks([1, 2], [(UniPoly.linear(3), (1,))])
    p = canonical_pencil(spec)
    n = p.n
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert congruence_transform(p, ident).a == p.a
    perm = list(range(n))
    random.Random(4).shuffle(perm)
    pm = [[Fraction(1 if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    assert jk_invariants(congruence_transform(p, pm)) == spec


def test_congruence_rejects_singular():
    p = canonical_pencil(jordan(Fraction(1), 1))
    with pytest.raises(SingularMatrixError):
        congruence_transform(p, [[1, 1], [1, 1]])
    # n rows of rank n, but 3 columns: P^T A P would be 3 x 3
    infinite = canonical_pencil(JKInvariants.from_blocks([], [(INFINITY, (1,))]))
    with pytest.raises(SingularMatrixError):
        congruence_transform(infinite, [[1, 0, 0], [0, 1, 0]])


def test_congruence_by_rational_invertible_matrix():
    # invariance needs invertibility only, not unimodularity
    rng = random.Random(62)
    spec = JKInvariants.from_blocks([2], [(UniPoly.linear(Fraction(1, 3)), (1,))])
    p = canonical_pencil(spec)
    n = p.n
    while True:
        t = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        if rank(t) == n:
            break
    assert jk_invariants(congruence_transform(p, t)) == spec


def test_irrational_eigenvalues_grouped_by_quadratic_factor():
    # A = ((0, M), (-M^T, 0)) with M = ((0, 2), (1, 0)): eigenvalues +/- sqrt(2)
    a = frac_rows(
        [[0, 0, 0, 2], [0, 0, 1, 0], [0, -1, 0, 0], [-2, 0, 0, 0]]
    )
    b = canonical_pencil(jordan(Fraction(0), 2)).b  # standard symplectic
    p = SkewPencil(a, b)
    inv = jk_invariants(p)
    assert inv.kronecker == ()
    assert len(inv.jordan) == 1
    group = inv.jordan[0]
    assert group.descriptor == UniPoly([-2, 0, 1])  # lambda^2 - 2
    assert group.half_sizes == (1,)
    assert inv.mantle_dim == 4


def test_rank_even_and_core_dimension_identity():
    rng = random.Random(55)
    for _ in range(25):
        spec = random_jk_spec(rng, max_dim=10)
        p = canonical_pencil(spec)
        r = pencil_rank(p)
        assert r % 2 == 0
        inv = jk_invariants(p)
        n = p.n
        # dim K = n - r/2 - (total Jordan degree, infinity included)
        assert inv.core_dim == n - r // 2 - sum(g.degree * sum(g.half_sizes) for g in inv.jordan)


def test_charpoly_equals_smith_reconstruction():
    """The char poly of a scrambled canonical pencil is the product of
    (lambda - lambda_0)^h over the Jordan blocks of the spec it was built
    from, which is ground truth by construction, not the groups the
    library reads back."""
    rng = random.Random(77)
    for _ in range(20):
        spec = random_jk_spec(rng, max_dim=10, allow_infinity=False)
        p = canonical_pencil(spec)
        q = congruence_transform(p, random_unimodular(p.n, rng))
        expected = UniPoly.one()
        for group in spec.jordan:
            eigenvalue = -group.descriptor.coefficient(0) / group.descriptor.coefficient(1)
            for half in group.half_sizes:
                expected = expected * UniPoly([-eigenvalue, Fraction(1)]) ** half
        assert characteristic_polynomial(q).poly == expected


def test_char_poly_factors_match_yun_and_root_search_oracle():
    """On the golden pencils, scrambled canonical pencils with finite
    eigenvalues and companion pencils with nonlinear and repeated factors,
    the squarefree parts and rational roots read from the Jordan groups
    equal Yun's decomposition and the root search on the polynomial."""
    from jkpencil.cli import load_pencil_document
    from test_cli import GOLDEN

    pencils = []
    for document in sorted(GOLDEN.glob("*.pencil.json")):
        p = load_pencil_document(json.loads(document.read_text()))
        if p._sampler.rank_b < p._sampler.r:
            with pytest.raises(InfiniteEigenvalueError):
                characteristic_polynomial(p)
        else:
            pencils.append(p)
    assert len(pencils) == 4
    rng = random.Random(171)
    for _ in range(20):
        p = canonical_pencil(random_jk_spec(rng, max_dim=10, allow_infinity=False))
        pencils.append(congruence_transform(p, random_unimodular(p.n, rng)))
    x, one = UniPoly.x(), UniPoly.one()
    two, three = UniPoly.constant(2), UniPoly.constant(3)
    for f in (
        (x * x + one) ** 2 * (x - three),
        (x * x - two) * (x + two) ** 3 * (x * x + one),
        (x - UniPoly.constant(Fraction(1, 2))) ** 2 * (x * x * x - two),
    ):
        p = companion_pencil(f)
        assert characteristic_polynomial(p).poly == f
        pencils.append(p)
    for p in pencils:
        assert_char_poly_factors_match_oracle(p)


def test_a_pencil_keeps_its_one_analysis(monkeypatch):
    """The five public functions read one analysis that the pencil keeps:
    called twice each on one golden pencil, they build one
    RegularValueSampler and run one Smith form, on the Jordan part, and
    the characteristic polynomial and the invariants are the same objects
    both times."""
    import jkpencil.pencil
    from jkpencil.cli import load_pencil_document
    from test_cli import GOLDEN, record_calls

    samplers = record_calls(monkeypatch, "RegularValueSampler", [jkpencil.pencil])
    smith_calls = record_calls(monkeypatch, "smith_normal_form", [jkpencil.pencil])
    p = load_pencil_document(json.loads((GOLDEN / "kronecker_jordan.pencil.json").read_text()))
    reads = (pencil_rank, characteristic_polynomial, core_subspace, jk_invariants, isotropy_certificate)
    first = [read(p) for read in reads]
    again = [read(p) for read in reads]
    assert again == first
    assert again[1] is first[1] and again[3] is first[3]
    assert samplers == [(p,)]
    assert smith_calls == [(_lambda_rows(*p._jordan_part),)]


def test_a_pencil_and_its_analysis_are_freed_by_reference_counting():
    """The sampler keeps the pencil's integer form, not the pencil, so
    there is no reference cycle: a pencil and its analysis go with the
    last reference to the pencil, not at the cyclic collector's next run
    (a cycle per pencil tripled the collections of a deck pass)."""
    p = canonical_pencil(JKInvariants.from_blocks([1, 2], [(UniPoly.linear(3), (2,))]))
    assert jk_invariants(p).kronecker == (1, 2)
    assert characteristic_polynomial(p).degree == 2 and isotropy_certificate(p).passed
    gone = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert gone() is None
    finally:
        gc.enable()


def test_invariants_do_not_depend_on_seed():
    """Regular values drawn at random, from seeds 1 and 2, give the same
    invariants, core, isotropy family size and pairing count as the fixed
    order 0, 1, -1, 2, ...: the kernels of m distinct regular values span
    sum_i min(m, k_i) dimensions, whichever values they are (the kernel of
    a Kronecker block is spanned by (1, mu, ..., mu^(k-1)); Vandermonde)."""
    rng = random.Random(73)
    with_infinity = 0
    for trial in range(16):
        while True:
            spec = random_jk_spec(rng, max_dim=10)
            infinite = any(g.descriptor is INFINITY for g in spec.jordan)
            if infinite or trial % 2:
                break
        q = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
        core = q._sampler.core()
        cert = q._sampler.isotropy()
        assert jk_invariants(q) == spec
        assert cert.passed
        for seed in (1, 2):
            drawn = random_value_analysis(q, seed)
            assert jk_invariants(drawn) == spec
            assert drawn._sampler.core() == core
            drawn_cert = drawn._sampler.isotropy()
            assert (drawn_cert.family_size, drawn_cert.pairings) == (cert.family_size, cert.pairings)
            assert drawn_cert.passed
        with_infinity += infinite
    assert with_infinity >= 8, with_infinity


def test_builder_roundtrip_is_idempotent():
    rng = random.Random(81)
    for _ in range(8):
        spec = random_jk_spec(rng, max_dim=10)
        recovered = jk_invariants(canonical_pencil(spec))
        again = jk_invariants(canonical_pencil(recovered))
        assert again == recovered == spec


def test_pairing_violation_guard():
    # unpaired elementary divisors can only come from non-skew input or
    # an arithmetic bug; the extraction refuses loudly
    from jkpencil.errors import PairingViolationError
    from jkpencil.pencil import _invariant_factors

    # a - lambda*b = diag(2 - lambda, 1): invariant factors 1, lambda - 2
    with pytest.raises(PairingViolationError):
        _invariant_factors([[2, 0], [0, 1]], [[1, 0], [0, 0]])


def test_integer_pairings_match_fraction_gram_oracle():
    # Each family is kernel vectors at three regular values, each vector
    # scaled by a rational factor of its own, so it is bi-isotropic and
    # passes; a planted random row may break that, and the integer scan
    # must report the same first violation as the Fraction Gram matrices.
    rng = random.Random(13)
    found = set()
    unplanted = 0
    for _ in range(40):
        spec = random_jk_spec(rng, max_dim=10)
        p = congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng))
        sampler = RegularValueSampler(p)
        family = [
            tuple(c * x for x in v)
            for _ in range(3)
            for v in kernel_basis(p.member(sampler.draw())).basis
            for c in [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
        ]
        planted = rng.random() < 0.7
        if planted:
            row = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(p.n))
            family.insert(rng.randint(0, len(family)), row)
        expected = fraction_pairings(family, p.a, p.b)
        assert _pairings(_integer_rows(family), p._scaled) == expected
        if not planted:
            assert expected[1] is None, spec
            unplanted += bool(family)
        found.add(None if expected[1] is None else expected[1][2])
    assert unplanted >= 8  # nonempty unplanted families
    # a violation under B alone: e1, e2 pair under B but not under A
    a = frac_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    b = frac_rows([[0, Fraction(1, 3), 0], [Fraction(-1, 3), 0, 0], [0, 0, 0]])
    family = [(Fraction(1, 2), 0, 0), (0, Fraction(5), 0)]
    forms = SkewPencil(a, b)._scaled
    assert _pairings(_integer_rows(family), forms) == fraction_pairings(family, a, b) == (4, (0, 1, "B"))
    # the random families pass or first fail under A and under B
    assert found == {None, "A", "B"}


def test_isotropy_of_core_plus_kernels():
    rng = random.Random(91)
    for trial in range(10):
        spec = random_jk_spec(rng, max_dim=9)
        p = canonical_pencil(spec)
        cert = isotropy_certificate(p)
        assert cert.passed
        # direct re-check of a kernel pair at random regular values under
        # both forms
        sampler = RandomRegularValueSampler(p, random.Random(trial + 1))
        k1 = kernel_basis(p.member(sampler.draw())).basis
        k2 = kernel_basis(p.member(sampler.draw())).basis
        for u in k1:
            for v in k2:
                assert bilinear(u, p.a, v) == 0
                assert bilinear(u, p.b, v) == 0
