import importlib.util
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from jkpencil.cli import load_lie_document
from jkpencil.errors import SingularMatrixError, ValidationError
from jkpencil.linalg import (
    Subspace,
    _gauss_jordan,
    _integer_rows,
    fraction_free_rank,
    kernel_basis,
    rank,
    subspace_sum,
)
from jkpencil.multipoly import MultiPoly
from jkpencil.pencil import canonical_pencil, congruence_transform
from jkpencil.structure import catalog
from jkpencil.unipoly import UniPoly

from conftest import (
    block_sum,
    charpoly_rational,
    companion_pencil,
    dense_bareiss_rank,
    determinant,
    fraction_kernel,
    fraction_rref,
    kronecker_companion_pencil,
    lambda_matrix,
    mat_inverse,
    mat_mul,
    naive_det,
    naive_pfaffian,
    pfaffian,
    random_jk_spec,
    random_unimodular,
)


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


# -- kernels ---------------------------------------------------------------


def test_kernel_of_zero_matrix_is_full():
    k = kernel_basis(frac_rows([[0, 0, 0]] * 3))
    assert k.dim == 3


def test_kernel_so3_at_north_pole():
    # rows of the so(3) Lie-Poisson matrix at x = (0, 0, 1)
    k = kernel_basis(frac_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    assert k.basis == ((Fraction(0), Fraction(0), Fraction(1)),)


def test_kernel_of_invertible_matrix_is_trivial():
    k = kernel_basis(frac_rows([[1, 2], [3, 4]]))
    assert k.dim == 0
    assert k.basis == ()


def test_kernel_vectors_annihilate():
    rng = random.Random(1)
    for _ in range(40):
        rows = frac_rows(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        )
        k = kernel_basis(rows)
        assert k.dim == 4 - rank(rows)
        for v in k.basis:
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)


def random_rational_matrix(rng):
    """Mixed denominators, planted zero rows and columns, dependent rows."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    rows = [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35))) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(nrows), 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        rows[j] = [c * y for y in rows[j]]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = Fraction(0)
    return rows


def test_integer_elimination_matches_fraction_oracle():
    rng = random.Random(5)
    seen = set()
    for _ in range(600):
        m = random_rational_matrix(rng)
        red, pivots = fraction_rref(m)
        # the integer rows over their pivots are the RREF; the rest are zero
        work = _integer_rows(m)
        assert _gauss_jordan(work) == pivots, m
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(work, pivots)] == red[: len(pivots)], m
        assert not any(any(row) for row in work[len(pivots):]), m
        assert rank(m) == len(pivots), m
        assert kernel_basis(m).basis == fraction_kernel(m), m
        ncols = len(m[0])
        span = Subspace.from_vectors(ncols, m)
        expected = tuple(tuple(r) for r in red[: len(pivots)])
        assert span.basis == expected
        # integer rows: content 1 and a positive pivot
        assert all(gcd(*row) == 1 and next(x for x in row if x) > 0 for row in span.rows), m
        # permuted, rescaled and negated generators span the same Subspace
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in m]
        gens = [[c * x for x in row] for c, row in zip(scales, m)]
        rng.shuffle(gens)
        again = Subspace.from_vectors(ncols, gens)
        assert again == span and hash(again) == hash(span), m
        cut = rng.randint(0, len(m))
        total = subspace_sum(Subspace.from_vectors(ncols, m[:cut]), Subspace.from_vectors(ncols, m[cut:]))
        assert total.basis == expected, m
        coeffs = [rng.randint(-3, 3) for _ in m]
        v = [sum(k * row[c] for k, row in zip(coeffs, m)) for c in range(ncols)]
        if rng.random() < 0.5:
            v[rng.randrange(ncols)] += Fraction(1, rng.randint(1, 5))
        assert span.contains(v) == (len(fraction_rref(m + [v])[1]) == len(pivots)), (m, v)
        seen.add("member" if span.contains(v) else "non-member")
        seen.add("wide" if len(m) < len(m[0]) else "tall" if len(m) > len(m[0]) else "square")
        seen.add("deficient" if len(pivots) < min(len(m), len(m[0])) else "full")
        if any(all(x == 0 for x in row) for row in m):
            seen.add("zero row")
        if any(all(row[c] == 0 for row in m) for c in range(len(m[0]))):
            seen.add("zero column")
    assert seen == {
        "wide", "tall", "square", "deficient", "full", "zero row", "zero column", "member", "non-member"
    }


def test_rank_and_kernel_accept_integer_entries():
    rows = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    assert rank(rows) == rank(frac_rows(rows)) == 2
    assert kernel_basis(rows) == kernel_basis(frac_rows(rows))


# -- subspaces ---------------------------------------------------------------


def test_subspace_sum_examples():
    e1 = Subspace.from_vectors(3, [[1, 0, 0]])
    e2 = Subspace.from_vectors(3, [[0, 1, 0]])
    assert subspace_sum(e1, e2).dim == 2
    v = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    assert subspace_sum(v, v) == v
    mixed = subspace_sum(
        Subspace.from_vectors(3, [[1, 1, 0]]), Subspace.from_vectors(3, [[0, 1, 0]])
    )
    assert mixed.dim == 2


def test_subspace_sum_ambient_mismatch():
    with pytest.raises(ValidationError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def test_subspace_sum_commutative_associative_idempotent():
    rng = random.Random(8)
    for _ in range(30):
        spaces = [
            Subspace.from_vectors(
                4, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
            )
            for _ in range(3)
        ]
        a, b, c = spaces
        assert subspace_sum(a, b) == subspace_sum(b, a)
        assert subspace_sum(subspace_sum(a, b), c) == subspace_sum(a, subspace_sum(b, c))
        assert subspace_sum(a, a) == a


def test_subspace_contains():
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 0]])
    assert s.contains([1, 1, 1])
    assert s.contains([0, 0, 0])
    assert not s.contains([1, 0, 0])
    for v in ([1], [1, 0, 0, 5]):
        with pytest.raises(ValidationError):
            s.contains(v)


# -- rank over fraction fields ------------------------------------------------


def test_rank_over_fractions_dependent_rows():
    lam = UniPoly.x()
    one = UniPoly.one()
    m = [[lam, one], [lam * lam, lam]]  # second row = lam * first row
    assert fraction_free_rank(m) == 1


def test_rank_over_fractions_identity_and_zero():
    one = MultiPoly.one(2)
    zero = MultiPoly.zero(2)
    ident = [[one, zero], [zero, one]]
    assert fraction_free_rank(ident) == 2
    assert fraction_free_rank([[zero, zero], [zero, zero]]) == 0


def test_rank_over_fractions_matches_random_evaluation():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                terms = {
                    tuple(rng.randint(0, 1) for _ in range(2)): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _ in range(2)
                }
                row.append(MultiPoly(2, terms))
            rows.append(row)
        r = fraction_free_rank(rows)
        best = 0
        for _ in range(20):
            pt = [Fraction(rng.randint(-9, 9)) for _ in range(2)]
            numeric = [[e.evaluate(pt) for e in row] for row in rows]
            best = max(best, rank(numeric))
        # evaluation rank can only drop; equality at one point certifies
        assert best == r


def _sparse_poly_matrix(rng: random.Random, entry, zero) -> list[list]:
    """A random sparse matrix of entry(rng) values with zero rows, a zero
    column and rows that are polynomial combinations of earlier rows (so
    pivots-to-be vanish during elimination), its rows shuffled so that a
    column often starts with zeros."""
    nrows, ncols = rng.randint(2, 6), rng.randint(2, 7)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [zero] * ncols
        elif kind < 0.45 and rows:
            row = [zero] * ncols
            for t in rng.sample(range(len(rows)), rng.randint(1, len(rows))):
                c = entry(rng)
                row = [x + c * y for x, y in zip(row, rows[t])]
        else:
            row = [entry(rng) if rng.random() < 0.35 else zero for _ in range(ncols)]
        rows.append(row)
    dead = rng.randrange(ncols)
    for row in rows:
        row[dead] = zero
    rng.shuffle(rows)
    return rows


def test_fraction_free_rank_matches_dense_bareiss_on_sparse_random_matrices():
    """Skipping zero products is the same elimination: the rank equals the
    dense Bareiss oracle's on seeded sparse MultiPoly and UniPoly matrices
    with zero rows, zero columns and zero pivots-to-be."""
    rng = random.Random(26)

    def multi(rng):
        terms = {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
        return MultiPoly(3, terms)

    def uni(rng):
        return UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])

    deficient = 0
    for entry, zero in ((multi, MultiPoly.zero(3)), (uni, UniPoly.zero())):
        for _ in range(60):
            m = _sparse_poly_matrix(rng, entry, zero)
            r = fraction_free_rank(m)
            assert r == dense_bareiss_rank(m)
            deficient += r < min(len(m), len(m[0]))
    assert deficient >= 60


def test_fraction_free_rank_matches_dense_bareiss_on_lie_poisson_matrices(monkeypatch):
    """The generic rank of A(x) for every catalog algebra and every algebra
    of the benchmark's Lie verdict table (perfbench/workloads.py, only
    read) equals the dense Bareiss oracle's."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    algebras = catalog() + [load_lie_document(workloads.lie_doc(g))[0] for g in workloads.lie_algebras()]
    assert len(algebras) >= 20
    for g in algebras:
        a_x = g.poisson_matrix()
        assert fraction_free_rank(a_x) == dense_bareiss_rank(a_x), g


def test_fraction_free_rank_matches_dense_bareiss_on_generated_pencils():
    """The rank of A + lambda*B over Q(lambda) equals the dense Bareiss
    oracle's on the pencils of the test generators: scrambled canonical
    pencils, companion pencils, block sums and scrambled Kronecker plus
    companion pencils."""
    rng = random.Random(2026)
    pencils = []
    for _ in range(20):
        spec = random_jk_spec(rng, max_dim=9)
        pencils.append(congruence_transform(canonical_pencil(spec), random_unimodular(spec.n, rng)))
    companion = companion_pencil(UniPoly((-2, 0, 1)))
    pencils += [companion, block_sum(companion, pencils[0])]
    pencils.append(kronecker_companion_pencil([1, 2], [1], [1], "bareiss")[0])
    for q in pencils:
        for sign in (1, -1):
            lam = lambda_matrix(q, sign)
            assert fraction_free_rank(lam) == dense_bareiss_rank(lam) == q._sampler.r


# -- pfaffians ----------------------------------------------------------------


def test_pfaffian_2x2():
    a = Fraction(5, 3)
    assert pfaffian([[0, a], [-a, 0]]) == a


def test_pfaffian_zero_matrix():
    assert pfaffian(frac_rows([[0] * 4] * 4)) == 0


def test_pfaffian_block_jordan_shape():
    # ((0, M), (-M^T, 0)) with M = ((lam0, 1), (0, lam0)); direct expansion
    # Pf = a12*a34 - a13*a24 + a14*a23 = -lam0^2 (so Pf^2 = det(M)^2).
    lam0 = Fraction(7)
    m = frac_rows(
        [
            [0, 0, lam0, 1],
            [0, 0, 0, lam0],
            [-lam0, 0, 0, 0],
            [-1, -lam0, 0, 0],
        ]
    )
    assert pfaffian(m) == -lam0 * lam0
    assert naive_pfaffian(m, Fraction(0)) == -lam0 * lam0


def test_pfaffian_squares_to_determinant():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice((2, 4, 6))
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.randint(-4, 4))
                m[j][i] = -m[i][j]
        pf = pfaffian(m)
        assert pf == naive_pfaffian(m, Fraction(0))
        assert pf * pf == naive_det(m)


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValidationError):
        pfaffian(frac_rows([[0, 1], [1, 0]]))


def test_pfaffian_odd_size_is_zero():
    m = frac_rows([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    assert pfaffian(m) == 0


# -- rational matrix utilities -------------------------------------------------


def test_charpoly_and_determinant_against_naive():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = frac_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        det = determinant(m)
        assert det == naive_det(m)
        cp = charpoly_rational(m)
        # det(lambda*I - M) at lambda = 0 is (-1)^n det M
        assert cp(0) == (-1) ** n * det


def test_mat_inverse():
    m = frac_rows([[1, 2], [3, 5]])
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == ((1, 0), (0, 1))
    with pytest.raises(SingularMatrixError):
        mat_inverse(frac_rows([[1, 2], [2, 4]]))
