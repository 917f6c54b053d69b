"""Structure constants of Lie algebras: the table, its Jacobi check and
the bundled catalog.

A Lie algebra is given by structure constants c_ij^k, stored for i < j
(antisymmetry implied), ints where integral.  This module imports no
analysis module, so `jkpencil catalog`, which builds and validates the
catalog, loads it with `cli`, `errors` and `rational` alone.
`LieAlgebra`'s analysis methods (`poisson_matrix`, `generic_rank` and
the stream of pairs with their pencils `_pairs`) import their layers
when called; `liealg` holds the analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .errors import InternalConsistencyError, ValidationError
from .rational import _as_rational

if TYPE_CHECKING:
    from .linalg import Matrix, Vector
    from .multipoly import MultiPoly
    from .pencil import SkewPencil


class LieAlgebra:
    """Structure constants of a finite-dimensional Lie algebra over Q.

    brackets maps (i, j) with 0 <= i < j < dim to {k: c} meaning
    [e_i, e_j] = sum_k c * e_k; a constant is kept as an int when it is
    integral, else as a Fraction.  Instances are immutable by convention.
    """

    def __init__(self, dim: int, brackets: dict, name: str = ""):
        if dim < 1:
            raise ValidationError("dimension must be positive")
        table: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValidationError(f"bracket indices ({i}, {j}) out of range")
            row = {}
            for k, c in coeffs.items():
                if not 0 <= k < dim:
                    raise ValidationError(f"target index {k} out of range")
                c = _as_rational(c)
                if c != 0:
                    row[k] = c
            if row:
                table[(i, j)] = row
        self.dim = dim
        self.name = name
        self.table = table
        self._generic_rank: Optional[int] = None
        self._semiinvariant: Optional[MultiPoly] = None
        self._certified: dict[int, tuple[tuple[tuple[Vector, Vector], SkewPencil], ...]] = {}

    def poisson_matrix(self) -> list[list[MultiPoly]]:
        """The Lie-Poisson matrix A(x) with entries sum_k c_ij^k x_k."""
        from .multipoly import MultiPoly

        n = self.dim
        rows = [[MultiPoly.zero(n) for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in self.table.items():
            entry = MultiPoly(n, {tuple(1 if t == k else 0 for t in range(n)): c
                                  for k, c in coeffs.items()})
            rows[i][j] = entry
            rows[j][i] = -entry
        return rows

    def frozen_matrix(self, a: Sequence) -> Matrix:
        """The frozen-argument matrix A(a) at a point a of ints or Fractions
        (or A(x) at x), in the point's number type: an integer point of an
        algebra with integral constants gives int rows."""
        if len(a) != self.dim:
            raise ValidationError(f"point has length {len(a)}, expected {self.dim}")
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for (i, j), coeffs in self.table.items():
            val = sum(c * a[k] for k, c in coeffs.items())
            rows[i][j] = val
            rows[j][i] = -val
        return tuple(tuple(r) for r in rows)

    def generic_rank(self) -> int:
        """Rank of A(x) over Q(x), computed on the first call and kept."""
        if self._generic_rank is None:
            from .linalg import fraction_free_rank

            self._generic_rank = fraction_free_rank(self.poisson_matrix())
        return self._generic_rank

    def _pairs(self, seed: int) -> Iterator[tuple[tuple[Vector, Vector], SkewPencil]]:
        """The pairs (x, a) drawn by a fresh Random(seed), each with its
        pencil (A(x), A(a)), which keeps its own analysis.  The stream keeps
        no state, so every call yields the same pairs; the semi-invariant
        certificate (liealg._certified) keeps the pairs it admits, which are
        the generic samples and give the sampled frozen point."""
        import random

        from .pencil import SkewPencil
        from .poisson import _random_point

        rng = random.Random(seed)
        while True:
            x0 = _random_point(self.dim, rng)
            a0 = _random_point(self.dim, rng)
            # A third draw, once a seed for regular values and now
            # unused, keeps the pairs of every seed as they were.
            rng.randrange(1 << 30)
            yield (x0, a0), SkewPencil(self.frozen_matrix(x0), self.frozen_matrix(a0))

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label})"


class LieValidation(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int, int, int]]

    def __bool__(self) -> bool:
        return self.ok


def validate_lie_algebra(g: LieAlgebra) -> LieValidation:
    """Exact Jacobi identity of the structure constants.

    For each i < j < k the Jacobiator [[e_i,e_j],e_k] + cyclic is formed
    once from the bracket table.  The witness is the 1-based (i, j, k, l)
    of the lexicographically first failing triple and the smallest index l
    of a nonzero component of its Jacobiator.
    """
    brackets = dict(g.table)
    for (i, j), coeffs in g.table.items():
        brackets[(j, i)] = {k: -c for k, c in coeffs.items()}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                total: dict[int, int | Fraction] = {}
                for p, q, s in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c_pq in brackets.get((p, q), {}).items():
                        for l, c_ms in brackets.get((m, s), {}).items():
                            total[l] = total.get(l, 0) + c_pq * c_ms
                nonzero = [l for l, v in total.items() if v != 0]
                if nonzero:
                    return LieValidation(False, (i + 1, j + 1, k + 1, min(nonzero) + 1))
    return LieValidation(True, None)


# -- catalog ----------------------------------------------------------------


def abelian(n: int, name: str = "") -> LieAlgebra:
    return LieAlgebra(n, {}, name or f"abelian{n}")


def heisenberg3() -> LieAlgebra:
    return LieAlgebra(3, {(0, 1): {2: 1}}, "heisenberg3")


def aff1() -> LieAlgebra:
    return LieAlgebra(2, {(0, 1): {1: 1}}, "aff1")


def so3() -> LieAlgebra:
    return LieAlgebra(
        3,
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}},
        "so3",
    )


def sl2() -> LieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return LieAlgebra(
        3,
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        "sl2",
    )


def e3() -> LieAlgebra:
    """Euclidean algebra so(3) acting on R^3: rotations first, then
    translations; [e_i, f_j] = eps_ijk f_k, [f_i, f_j] = 0."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    brackets: dict = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                s = eps.get((i, j, k))
                if s:
                    brackets.setdefault((i, 3 + j), {})[3 + k] = s
    return LieAlgebra(6, brackets, "e3")


def so_n(n: int, name: str = "") -> LieAlgebra:
    """so(n) in the basis M_ab = E_ab - E_ba, a < b, lexicographic order."""
    gens = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {ab: t for t, ab in enumerate(gens)}

    def gen_coeff(x: int, y: int) -> tuple[int, int] | None:
        # M_xy as +/- a basis generator; None for x == y
        if x == y:
            return None
        return (index[(x, y)], 1) if x < y else (index[(y, x)], -1)

    brackets: dict = {}
    for t1, (a, b) in enumerate(gens):
        for t2, (c, d) in enumerate(gens):
            if t1 >= t2:
                continue
            coeffs: dict[int, int] = {}
            for delta, pair in (
                (int(b == c), (a, d)),
                (int(a == d), (b, c)),
                (-int(a == c), (b, d)),
                (-int(b == d), (a, c)),
            ):
                if delta == 0:
                    continue
                gc = gen_coeff(*pair)
                if gc is None:
                    continue
                k, sign = gc
                coeffs[k] = coeffs.get(k, 0) + delta * sign
            coeffs = {k: v for k, v in coeffs.items() if v != 0}
            if coeffs:
                brackets[(t1, t2)] = coeffs
    return LieAlgebra(len(gens), brackets, name or f"so{n}")


def direct_sum(g1: LieAlgebra, g2: LieAlgebra, name: str = "") -> LieAlgebra:
    brackets: dict = {}
    for (i, j), coeffs in g1.table.items():
        brackets[(i, j)] = dict(coeffs)
    off = g1.dim
    for (i, j), coeffs in g2.table.items():
        brackets[(i + off, j + off)] = {k + off: c for k, c in coeffs.items()}
    return LieAlgebra(g1.dim + g2.dim, brackets, name or f"{g1.name}+{g2.name}")


def catalog() -> list[LieAlgebra]:
    """Named regression fixtures; every entry passes validate_lie_algebra."""
    entries = [
        abelian(3),
        abelian(4),
        heisenberg3(),
        aff1(),
        direct_sum(aff1(), abelian(2), "aff1_abelian2"),
        so3(),
        sl2(),
        e3(),
        so_n(4),
    ]
    for g in entries:
        if not validate_lie_algebra(g):
            raise InternalConsistencyError(f"catalog entry {g.name} fails Jacobi")
    return entries


def catalog_names() -> list[str]:
    return [g.name for g in catalog()]


def get_algebra(name: str) -> LieAlgebra:
    for g in catalog():
        if g.name == name:
            return g
    raise ValidationError(f"unknown catalog algebra: {name!r}")
