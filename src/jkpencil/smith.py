"""Smith normal form of matrices over Q[x].

Q[x] is Euclidean, so two steps give the invariant factors:

1. Diagonalise.  A pivot p is moved to the top left of the remaining
   block, and each row below is reduced by polynomial division: its first
   entry becomes the remainder modulo p.  A nonzero remainder has lower
   degree than p, so the pivot is searched again.  Otherwise the pivot
   column is zero below p, and the columns to its right are reduced by
   column operations that change the top row alone (the column pass);
   no other row is touched, and the block is never transposed.  If every
   top-row remainder is zero, the primitive p is the next diagonal entry and
   its row and column are dropped; otherwise the remainders stay in the
   top row and the pivot is searched again.
2. Normalise the diagonal.  diag(a, b) is equivalent to
   diag(gcd(a, b), lcm(a, b)), so for i < j each pair (d_i, d_j) where d_i
   does not divide d_j is replaced by (gcd, lcm).  After the pass over j,
   d_i divides every later entry (the gcd with d_j divides the lcm, and
   the next gcds only shrink d_i); later steps keep this, since gcds and
   lcms of multiples of d_i are multiples of d_i.  So the diagonal ends
   as the divisibility chain.

Nonzero constants are units of Q[x], so both steps run on integer
coefficients: division becomes pseudo-division, each reduced row is
divided by its content, and the diagonal holds primitive polynomials,
whose gcds, divisibility tests and exact quotients stay integral
(unipoly's integer kernels).  Over Fractions the coefficient swell, and
the time, varied widely from one pencil to the next.

Pseudo-division of f by p scales f by a factor m that divides a power of
p's leading coefficient.  In the row pass each row takes its own m.  In
the column pass the top row is scaled once by M, the lcm of its m's, so
that each column operation subtracts an integer multiple of the pivot
column; a column operation with m would instead scale a whole column.

The pivot is a nonzero entry of lowest degree, and among those one of
least height (largest absolute coefficient).  A +-1 leading coefficient
makes every pseudo-division exact over Z (m = 1), so a unit pivot scales
no row at all.  Taking the first lowest-degree entry instead let the
coefficients swell until scrambled pencils whose Jordan part has size
24-30 ran for over a minute; with unit pivots first they take hundredths
of a second.  Larger Jordan parts can still swell (ROADMAP item 3).

Entries and factors are integer coefficient lists, lowest degree first
with no trailing zeros, [] for 0; a matrix over Q[x] is given with each
row scaled to integer coefficients, which changes no invariant factor.
Only the invariant factors are produced (no transformation matrices);
nonzero factors are primitive (content 1, positive leading coefficient),
the integer form of the monic factor, and the trailing zero factors of a
rank-deficient matrix are included as [] so that the product of the first
k factors matches the gcd of the k x k minors.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ValidationError
from .unipoly import (
    _int_poly_divides,
    _int_poly_exact_div,
    _int_poly_gcd,
    _int_poly_mul,
    _int_poly_pquo,
    _int_poly_sub_mul,
    _int_primitive,
)


def _primitive_line(line: list[list[int]]) -> list[list[int]]:
    """A row of integer polynomials divided by its content."""
    content = gcd(*(c for e in line for c in e))
    return line if content <= 1 else [[c // content for c in e] for e in line]


def _reduce(line: list[list[int]], pivot_line: list[list[int]]) -> list[list[int]]:
    """A row of integer polynomials with its first entry reduced modulo
    pivot_line's, divided by its content."""
    m, q = _int_poly_pquo(line[0], pivot_line[0])
    return _primitive_line([_int_poly_sub_mul(m, a, q, b) for a, b in zip(line, pivot_line)])


def _column_pass(top: list[list[int]]) -> list[list[int]] | None:
    """The pivot row with its other entries reduced modulo its first by
    column operations, or None when every remainder is zero.  The row is
    scaled by the lcm of the pseudo-division factors, a unit of Q[x], so
    that each column operation subtracts an integer multiple of the pivot
    column, then divided by its content."""
    p = top[0]
    factors, remainders = [], []
    for e in top[1:]:
        m, q = _int_poly_pquo(e, p)
        factors.append(m)
        remainders.append(_int_poly_sub_mul(m, e, q, p))
    if not any(remainders):
        return None
    scale = lcm(*factors)
    return _primitive_line(
        [[scale * c for c in p]] + [[scale // m * c for c in r] for m, r in zip(factors, remainders)]
    )


def _pivot(work):
    """(i, j) of a lowest-degree nonzero entry, of least height (largest
    absolute coefficient) among those, or None."""
    best = None
    for i, row in enumerate(work):
        for j, e in enumerate(row):
            if e and (best is None or len(e) <= best[0][0]):
                key = (len(e), max(map(abs, e)))
                if best is None or key < best[0]:
                    if key == (1, 1):
                        return i, j
                    best = key, i, j
    return None if best is None else best[1:]


def _is_coefficient_list(e) -> bool:
    return type(e) is list and all(type(c) is int for c in e) and (not e or e[-1] != 0)


def smith_normal_form(m: list[list[list[int]]]) -> list[list[int]]:
    """Invariant factors d_1 | d_2 | ... of a matrix of integer coefficient
    lists, as primitive lists, [] for each trailing zero factor."""
    if not m or any(len(row) != len(m[0]) for row in m):
        raise ValidationError("smith_normal_form needs a rectangular nonempty matrix")
    if not all(_is_coefficient_list(e) for row in m for e in row):
        raise ValidationError(
            "smith_normal_form entries must be integer coefficient lists, "
            "lowest degree first with no trailing zeros ([] for 0)"
        )
    work = [list(row) for row in m]
    diagonal: list[list[int]] = []
    while found := _pivot(work):
        i, j = found
        work[0], work[i] = work[i], work[0]
        for row in work:
            row[0], row[j] = row[j], row[0]
        top = work[0]
        work[1:] = [_reduce(r, top) if r[0] else r for r in work[1:]]
        if any(r[0] for r in work[1:]):
            continue
        line = _column_pass(top)
        if line is None:
            diagonal.append(_int_primitive(top[0]))
            work = [row[1:] for row in work[1:]]
        else:
            work[0] = line
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            if len(a) > 1 and not _int_poly_divides(a, b):  # a primitive constant is 1
                g = _int_poly_gcd(a, b)
                diagonal[i], diagonal[j] = g, _int_poly_mul(_int_poly_exact_div(a, g), b)
    return diagonal + [[] for _ in range(min(len(m), len(m[0])) - len(diagonal))]
