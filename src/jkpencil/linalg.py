"""Exact linear algebra over the rationals and over polynomial rings.

Rational matrices are tuples of tuples of Fraction.  Elimination over Q
runs on Python integers: each row is scaled by the lcm of its
denominators (a row of ints is copied as it is; a rational point is the
same integer vector y over that lcm q), and one fraction-free forward
elimination, which eliminates below each pivot only and keeps rows
primitive, does all of it.  The rank is its number of pivots.  A kernel
is read off the same elimination with the columns taken from right to
left, by one back substitution per free column: those vectors are
already the kernel's RREF rows.  A subspace holds the integer rows of its
RREF, content 1 and a positive pivot, one form per span, so kernels,
sums and membership stay on integers; a span adds a back pass over the
pivot rows, and its Fraction RREF basis, each row over its pivot, is
built only when read.  Rank over polynomial fraction fields, by
fraction-free (Bareiss) elimination that forms no product with a zero
factor (A(x) of a Lie algebra is sparse), serves the generic
(multivariate) layer and is the test oracle of the constant pencil's
rank.  Memoized Pfaffians of principal minors serve the generic
characteristic polynomial, the semi-invariant, and the test oracle of a
constant pencil's Smith-form characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import ValidationError
from .rational import _as_fraction

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vector(entries: Sequence) -> Vector:
    return tuple(_as_fraction(e) for e in entries)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def bilinear(u: Vector, m: Matrix, v: Vector) -> Fraction:
    return sum(x * y for x, y in zip(u, mat_vec(m, v)))


def is_skew(m: Matrix) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n))


# -- elimination over Q, on integers ------------------------------------


def _common_denominator(v: Sequence) -> tuple[list[int], int]:
    """(y, q) with v = y/q: q is the lcm of the denominators of the entries
    of v (int, Fraction or str), 1 for a point of ints, and y is integral."""
    v = [x if type(x) is int else _as_fraction(x) for x in v]
    q = lcm(*(x.denominator for x in v))
    return [x.numerator * (q // x.denominator) for x in v], q


_INTS = {int}


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each rational row times the lcm of its denominators: integer rows with
    the same zero pattern and the same row space.  A row of ints is copied;
    its type test runs in C, as most rows are ints already."""
    return [list(row) if set(map(type, row)) == _INTS else _common_denominator(row)[0] for row in rows]


def _echelon(work: list[list[int]], columns: Sequence[int]) -> list[int]:
    """Fraction-free forward elimination of integer rows (in place), taking
    pivots in the order of `columns`.

    Returns the pivot columns.  Row t < len(pivots) has a nonzero entry in
    column pivots[t], and every row after it is zero there; a column taken
    with no pivot is zero in every row that is not yet a pivot row.  So row
    t is zero at every column that comes before pivots[t] in `columns`, and
    the rows after the last pivot row are zero.  Each row is combined only
    with the pivot rows above it, and is kept primitive (content divided
    out)."""
    for i, row in enumerate(work):
        g = gcd(*row)
        if g > 1:
            work[i] = [x // g for x in row]
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in columns:
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            f = work[i][c]
            if not f:
                continue
            row = [p * x - f * y for x, y in zip(work[i], prow)]
            g = gcd(*row)
            work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _gauss_jordan(work: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (in place):
    _echelon from left to right, then a back pass from the last pivot row
    up that clears each pivot column above its pivot.

    Returns the pivot columns.  Row t < len(pivots) then has a positive entry
    in column pivots[t], the only nonzero entry of that column; the rows are
    primitive and the rows after the last pivot row are zero.  Rows
    t < len(pivots) are thus the primitive integer multiples of the RREF
    rows, unique for each span."""
    pivots = _echelon(work, range(len(work[0]) if work else 0))
    for t in range(len(pivots) - 1, -1, -1):
        c = pivots[t]
        prow = work[t]
        if prow[c] < 0:
            work[t] = prow = [-x for x in prow]
        p = prow[c]
        for s in range(t):
            f = work[s][c]
            if f:
                row = [p * x - f * y for x, y in zip(work[s], prow)]
                g = gcd(*row)
                work[s] = [x // g for x in row] if g > 1 else row
    return pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a matrix with Fraction or int entries: the number of
    pivots of a forward elimination of its integer rows."""
    return len(_echelon(_integer_rows(m), range(len(m[0]) if m else 0)))


# -- subspaces ----------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, held as the primitive integer multiples of its
    reduced-row-echelon basis rows: content 1 and a positive pivot.

    That form is unique for each span, so equality, hash and dim come
    from it.  `basis`, the Fraction RREF rows, is built when first read."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValidationError("vector length does not match ambient dimension")
        return cls._spanned_by(ambient, _integer_rows(vecs))

    @classmethod
    def _spanned_by(cls, ambient: int, work: list[Sequence[int]]) -> "Subspace":
        """The span of integer rows of length `ambient` (consumed)."""
        dim = len(_gauss_jordan(work))
        return cls(ambient, tuple(map(tuple, work[:dim])))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row."""
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced-row-echelon basis over Q: each row over its pivot."""
        return tuple(
            tuple(Fraction(x, pivot) for x in row)
            for row in self.rows
            for pivot in [next(x for x in row if x)]
        )

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient:
            raise ValidationError("vector length does not match ambient dimension")
        (out,) = _integer_rows([vector(v)])
        for row, c in zip(self.rows, self.pivots):
            if out[c]:
                out = [row[c] * x - out[c] * y for x, y in zip(out, row)]
        return not any(out)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValidationError("ambient dimension mismatch")
    return Subspace._spanned_by(a.ambient, list(a.rows + b.rows))


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> Subspace:
    """Right kernel of a rectangular matrix with Fraction or int entries.

    One forward elimination with the columns taken from right to left, so
    each pivot row is zero to the right of its pivot and the pivots fall
    from row to row.  For each free column fc, back substitution sets
    v[fc] = 1 and the other free entries to 0 and solves the pivot rows from
    the last up, scaling v to keep it integral.  A pivot row left of fc
    then reads only zeros, so v is zero left of fc and at every other free
    column: the v, made primitive, are the kernel's RREF rows in the
    canonical form of Subspace, with no second elimination."""
    if not m:
        raise ValidationError("empty matrix")
    work = _integer_rows(m)
    ncols = len(work[0])
    pivots = _echelon(work, range(ncols - 1, -1, -1))
    solve = sorted(zip(pivots, work))  # the pivot rows, pivot columns rising
    pivot_set = set(pivots)
    rows = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for pc, row in solve:
            if pc < fc:
                continue
            # v[pc] is still 0: row . v is the rest of the row's equation
            num = sum(map(mul, row, v))
            if not num:
                continue
            p = row[pc]
            g = gcd(num, p)
            k = abs(p) // g
            if k > 1:
                v = [x * k for x in v]
            # -num * k / p, exactly
            v[pc] = -(num // g) if p > 0 else num // g
        g = gcd(*v)
        rows.append(tuple(x // g for x in v) if g > 1 else tuple(v))
    return Subspace(ncols, tuple(rows))


# -- fraction-free elimination over polynomial rings ---------------------


def fraction_free_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the fraction field of entries (UniPoly or MultiPoly).

    One-step Bareiss elimination; pivot is the first row with a nonzero
    entry in column order, so results are deterministic.  Each entry w_ij
    below and right of the pivot p = w_pc becomes
    (p*w_ij - w_ic*w_pj) / prev, prev the pivot before it.  A product with
    a zero factor is not formed, and an entry whose two products both
    vanish stays zero without a product or a division.  This is the same
    elimination: a skipped product is zero, and zero over prev is zero, so
    every entry, and the rank, is exactly what the dense update gives (the
    dense loop is the test oracle).  Column c is not read again once its
    pivot is taken, so its entries below the pivot are left as they are.
    """
    work = [list(r) for r in rows]
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    prev = None  # previous pivot; first division is skipped
    rk = 0
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, nrows) if not work[i][c].is_zero), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        prow = work[pr]
        p = prow[c]
        for row in work[pr + 1 :]:
            f = row[c]
            f_zero = f.is_zero
            for j in range(c + 1, ncols):
                w, y = row[j], prow[j]
                if f_zero or y.is_zero:
                    if w.is_zero:
                        continue
                    num = p * w
                elif w.is_zero:
                    num = -(f * y)
                else:
                    num = p * w - f * y
                row[j] = num if prev is None else num.exact_div(prev)
        prev = p
        rk += 1
        pr += 1
        if pr == nrows:
            break
    return rk


# -- Pfaffians ----------------------------------------------------------


class PfaffianCache:
    """Pfaffians of principal submatrices of one skew matrix.

    Values are memoized per index subset, so enumerating Pfaffians of
    many overlapping principal minors shares the recursive work.  Entries
    may live in any commutative ring (Fraction, UniPoly, MultiPoly).
    """

    def __init__(self, m: Sequence[Sequence], zero, one):
        self.m = [list(r) for r in m]
        self.zero = zero
        self.one = one
        self._memo: dict[tuple[int, ...], object] = {}

    def _is_zero_entry(self, x) -> bool:
        if isinstance(x, Fraction) or isinstance(x, int):
            return x == 0
        return x.is_zero

    def pfaffian(self, indices: Sequence[int]):
        idx = tuple(indices)
        if len(idx) % 2 == 1:
            return self.zero
        if not idx:
            return self.one
        cached = self._memo.get(idx)
        if cached is not None:
            return cached
        i0 = idx[0]
        total = self.zero
        for pos in range(1, len(idx)):
            entry = self.m[i0][idx[pos]]
            if self._is_zero_entry(entry):
                continue
            rest = idx[1:pos] + idx[pos + 1 :]
            sub = self.pfaffian(rest)
            if self._is_zero_entry(sub):
                continue
            term = entry * sub
            total = total + term if pos % 2 == 1 else total - term
        self._memo[idx] = total
        return total
