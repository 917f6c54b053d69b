import json
import random
from fractions import Fraction

import pytest

from jkpencil import cli
from jkpencil.errors import ValidationError
from jkpencil.liealg import (
    LieAlgebra,
    abelian,
    aff1,
    catalog,
    catalog_names,
    direct_sum,
    e3,
    fa_completeness,
    ftilde_completeness,
    fundamental_semiinvariant,
    get_algebra,
    heisenberg3,
    jk_invariants_generic,
    lie_pencil,
    sl2,
    so3,
    so_n,
    validate_lie_algebra,
    _lie_char_poly,
)
from jkpencil.linalg import rank
from jkpencil.multipoly import MultiPoly
from jkpencil.pencil import SkewPencil, core_subspace, pencil_rank
from jkpencil.poisson import (
    COMPLETE,
    INCOMPLETE,
    INDETERMINATE,
    evaluate_at,
    generic_char_poly,
    jacobi_check,
    sample_generic_point,
)


def dual_number_aff1() -> LieAlgebra:
    """aff(1) tensored with Q[eps]/eps^2; its generic pencil has a single
    4x4 Jordan block (half-size 2), so neither family is complete."""
    return LieAlgebra(
        4,
        {(0, 1): {1: 1}, (0, 3): {3: 1}, (1, 2): {3: -1}},
        "aff1_dual",
    )


# -- validation ----------------------------------------------------------------


def test_validate_so3():
    assert validate_lie_algebra(so3())


def test_validate_abelian():
    assert validate_lie_algebra(abelian(5))


def test_validate_broken_table():
    broken = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}, "broken")
    result = validate_lie_algebra(broken)
    assert not result.ok
    assert result.witness == (1, 2, 3, 3)


def test_validate_dual_number_algebra():
    assert validate_lie_algebra(dual_number_aff1())


def random_structure_table(rng: random.Random) -> LieAlgebra:
    """A sparse table with small coefficients; dimension 2 is always a Lie
    algebra, larger dimensions often are not."""
    dim = rng.randint(2, 5)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {}
    for i, j in rng.sample(pairs, rng.randint(0, min(3, len(pairs)))):
        brackets[(i, j)] = {
            rng.randrange(dim): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 2))
        }
    return LieAlgebra(dim, brackets)


def test_validate_agrees_with_jacobi_check_oracle():
    # The structure-constant check against the Jacobi identity of the
    # Lie-Poisson matrix: same verdict, same first failing triple.  The
    # residual there is linear, its x_l coefficient the l-th component of
    # the Jacobiator, so its first variable is the witness's l.
    rng = random.Random(2024)
    algebras = catalog() + [random_structure_table(rng) for _ in range(600)]
    broken = 0
    for g in algebras:
        result = validate_lie_algebra(g)
        oracle = jacobi_check(g.poisson_matrix())
        assert result.ok == bool(oracle), g.table
        if not result.ok:
            broken += 1
            assert result.witness[:3] == oracle.witness, g.table
            assert result.witness[3] == 1 + min(e.index(1) for e in oracle.residual.terms)
    assert 100 <= broken <= len(algebras) - 100, broken


# -- pencil construction ----------------------------------------------------------


def test_heisenberg_pencil_matrices():
    spec = lie_pencil(heisenberg3(), [0, 0, 1])
    assert spec.frozen_regular
    b = spec.pencil.b
    assert b[0][1] == MultiPoly.one(3)
    assert b[0][2].is_zero and b[1][2].is_zero
    a = spec.pencil.a
    assert a[0][1] == MultiPoly.variable(3, 2)


def test_abelian_pencil_is_zero():
    spec = lie_pencil(abelian(3), [1, 2, 3])
    assert all(e.is_zero for row in spec.pencil.a for e in row)
    assert spec.frozen_regular


def test_aff1_pencil_matrices():
    spec = lie_pencil(aff1(), [0, 1])
    assert spec.pencil.a[0][1] == MultiPoly.variable(2, 1)
    assert spec.pencil.b[0][1] == MultiPoly.one(2)


def test_irregular_frozen_point_warning():
    spec = lie_pencil(heisenberg3(), [1, 1, 0])  # rank A(a) = 0 < 2
    assert not spec.frozen_regular
    assert spec.warnings and "IRREGULAR_FROZEN_POINT" in spec.warnings[0]


# -- generic invariants -------------------------------------------------------------


def test_so3_generic_invariants():
    rep = jk_invariants_generic(so3(), samples=5, seed=1)
    assert rep.stable
    assert rep.representative.kronecker == (2,)
    assert rep.representative.jordan == ()


def test_heisenberg_generic_invariants():
    rep = jk_invariants_generic(heisenberg3(), samples=5, seed=1)
    assert rep.stable
    assert rep.representative.kronecker == (1,)
    assert rep.shape[1] == ((1,),)


def test_abelian_generic_invariants():
    rep = jk_invariants_generic(abelian(4), samples=3, seed=1)
    assert rep.stable
    assert rep.representative.kronecker == (1, 1, 1, 1)
    assert rep.max_rank == 0


def test_dual_number_aff1_has_4x4_jordan_block():
    rep = jk_invariants_generic(dual_number_aff1(), samples=5, seed=3)
    assert rep.stable
    assert rep.representative.kronecker == ()
    assert rep.shape[1] == ((2,),)  # one Jordan block of half-size 2


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at seed 20 a max-rank sample of aff1 x Q[eps]/eps^2 has Jordan "
    "shape (1, 1), not (2), with generic rank(B) and characteristic polynomial, so the "
    "generic invariants are unstable and F_a is INDETERMINATE",
)
def test_dual_number_aff1_fa_incomplete_at_seed_20(tmp_path, capsys):
    document = tmp_path / "aff1_dual.lie.json"
    document.write_text(json.dumps(cli.lie_document(dual_number_aff1())))
    code = cli.main(["lie", "analyze", str(document), "--seed", "20", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["generic_invariants"]["stable"]
    assert report["fa"]["verdict"] == INCOMPLETE


# -- fundamental semi-invariant -------------------------------------------------------


def test_semiinvariants_of_small_algebras():
    assert fundamental_semiinvariant(heisenberg3()) == MultiPoly.variable(3, 2)
    assert fundamental_semiinvariant(so3()) == MultiPoly.one(3)
    assert fundamental_semiinvariant(aff1()) == MultiPoly.variable(2, 1)


def test_semiinvariant_of_dual_number_aff1():
    # Pf of the full 4x4 matrix is -(y2)^2; normalized primitive: y2^2
    p_g = fundamental_semiinvariant(dual_number_aff1())
    y2 = MultiPoly.variable(4, 3)
    assert p_g == y2 * y2


def test_semiinvariant_identity_along_lines():
    # p_pencil(lambda) = monic(p_g(x - lambda*a)) at random regular pairs
    from jkpencil.pencil import characteristic_polynomial

    rng = random.Random(6)
    for g in (heisenberg3(), aff1(), dual_number_aff1()):
        p_g = fundamental_semiinvariant(g)
        r = g.generic_rank()
        done = 0
        while done < 3:
            x0 = [Fraction(rng.randint(-9, 9)) for _ in range(g.dim)]
            a0 = [Fraction(rng.randint(-9, 9)) for _ in range(g.dim)]
            frozen = g.frozen_matrix(a0)
            if rank(frozen) != r:
                continue
            sp = SkewPencil(g.frozen_matrix(x0), frozen)
            if pencil_rank(sp) != r:
                continue
            restricted = p_g.eval_on_line(x0, [-v for v in a0])
            assert restricted.monic() == characteristic_polynomial(sp).poly
            done += 1


def test_char_poly_read_off_semiinvariant_matches_generic_char_poly_oracle():
    # the library reads the Lie pencil's generic char poly off p_g;
    # generic_char_poly (Pfaffian gcd over Q[x, lambda]) is the oracle
    rng = random.Random(21)
    for g in catalog() + [dual_number_aff1()]:
        r = g.generic_rank()
        a = [Fraction(rng.randint(-5, 5)) for _ in range(g.dim)]
        while rank(g.frozen_matrix(a)) != r:
            a = [Fraction(rng.randint(-5, 5)) for _ in range(g.dim)]
        derived = _lie_char_poly(g, a, 0)
        oracle = generic_char_poly(lie_pencil(g, a).pencil)
        assert (derived.rank, derived.degree) == (oracle.rank, oracle.degree), g.name
        checked = 0
        while checked < 5:
            x0 = [Fraction(rng.randint(-9, 9)) for _ in range(g.dim)]
            if oracle.denominator_at(x0) == 0:
                continue
            assert derived.poly_at(x0) == oracle.poly_at(x0), g.name
            assert derived.gradients_at(x0) == oracle.gradients_at(x0), g.name
            checked += 1


# -- completeness verdicts -------------------------------------------------------------


def test_fa_verdicts():
    for g, expected in (
        (so3(), COMPLETE),
        (heisenberg3(), INCOMPLETE),
        (abelian(3), COMPLETE),
        (sl2(), COMPLETE),
        (dual_number_aff1(), INCOMPLETE),
    ):
        rep = jk_invariants_generic(g, samples=5, seed=2)
        semi = fundamental_semiinvariant(g)
        assert fa_completeness(g, rep, semiinvariant=semi) == expected, g.name


def test_ftilde_verdicts():
    assert ftilde_completeness(aff1(), [0, 1], points=2, seed=4).verdict == COMPLETE
    h = ftilde_completeness(heisenberg3(), [0, 0, 1], points=2, seed=4)
    assert h.verdict == INCOMPLETE
    assert "dp_0 in K" in h.witnesses
    assert ftilde_completeness(so3(), [1, 2, 3], points=2, seed=4).verdict == COMPLETE


def test_ftilde_incomplete_when_jordan_blocks_are_large():
    # Cor. NotComp: a half-size >= 2 block forces incompleteness
    rep = ftilde_completeness(dual_number_aff1(), [1, 1, 1, 1], points=2, seed=4)
    assert rep.verdict == INCOMPLETE
    assert any("repeated eigenvalue" in w or "size > 2x2" in w for w in rep.witnesses)


def test_ftilde_irregular_point_is_indeterminate():
    rep = ftilde_completeness(heisenberg3(), [1, 1, 0], points=2, seed=4)
    assert rep.verdict == INDETERMINATE
    assert not rep.frozen_regular


def test_fa_complete_implies_ftilde_complete():
    rng = random.Random(10)
    for g in (so3(), sl2(), abelian(3), e3()):
        rep = jk_invariants_generic(g, samples=5, seed=3)
        if fa_completeness(g, rep) != COMPLETE:
            continue
        r = g.generic_rank()
        while True:
            a = [Fraction(rng.randint(-5, 5)) for _ in range(g.dim)]
            if rank(g.frozen_matrix(a)) == r:
                break
        assert ftilde_completeness(g, a, points=2, seed=11).verdict == COMPLETE, g.name


def test_core_dimension_identity_on_catalog():
    # deg p_g + r/2 + dim K = d at generic points
    for g in catalog():
        semi = fundamental_semiinvariant(g)
        r = g.generic_rank()
        rng = random.Random(13)
        while True:
            a = [Fraction(rng.randint(-5, 5)) for _ in range(g.dim)]
            if rank(g.frozen_matrix(a)) == r:
                break
        pencil = lie_pencil(g, a).pencil
        x0 = sample_generic_point(pencil, seed=5)
        core = core_subspace(evaluate_at(pencil, x0))
        assert max(semi.total_degree(), 0) + r // 2 + core.dim == g.dim, g.name


# -- catalog -----------------------------------------------------------------------


def test_catalog_has_required_entries():
    names = catalog_names()
    assert len(names) >= 8
    for required in ("heisenberg3", "aff1", "so3", "sl2", "e3", "so4"):
        assert required in names
    assert any(n.startswith("abelian") for n in names)
    assert "aff1_abelian2" in names


def test_catalog_entries_validate():
    for g in catalog():
        assert validate_lie_algebra(g), g.name


def test_e3_has_six_generators():
    g = get_algebra("e3")
    assert g.dim == 6
    # so(3) rotations first, translations second
    assert g.c(0, 1, 2) == 1
    assert g.c(0, 4, 5) == 1
    assert g.c(3, 4, 0) == 0


def test_so4_matches_so3_pair_invariants():
    # so(4) is isomorphic to so(3) + so(3); invariants must agree
    rep4 = jk_invariants_generic(so_n(4), samples=5, seed=7)
    pair = direct_sum(so3(), so3(), "so3so3")
    rep_pair = jk_invariants_generic(pair, samples=5, seed=7)
    assert rep4.stable and rep_pair.stable
    assert rep4.representative.kronecker == rep_pair.representative.kronecker == (2, 2)


def test_get_algebra_unknown_name():
    with pytest.raises(ValidationError):
        get_algebra("nope")


def test_compatibility_across_catalog():
    from jkpencil.poisson import compatibility_check

    rng = random.Random(15)
    for g in catalog():
        r = g.generic_rank()
        for _ in range(20):
            a = [Fraction(rng.randint(-5, 5)) for _ in range(g.dim)]
            if rank(g.frozen_matrix(a)) == r:
                break
        spec = lie_pencil(g, a)
        assert compatibility_check(spec.pencil), g.name
