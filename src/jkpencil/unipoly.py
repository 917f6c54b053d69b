"""Dense univariate polynomials over the rationals, and the integer
kernels of the factor layer.

`UniPoly` coefficients are `fractions.Fraction`, stored lowest degree
first with no trailing zeros; the zero polynomial has an empty coefficient
tuple.  The gcd, Yun's squarefree decomposition, the rational roots, the
gcd-free basis and the multiplicities of a common factor basis run on
primitive integer coefficient lists (content 1, positive leading
coefficient).  The gcd is a subresultant pseudo-remainder sequence, which
keeps coefficient growth under control; a division by a primitive divisor
is exact integer division (Gauss's lemma); a root candidate p/q is tested
by the integer q**d * f(p/q).  `poly_gcd`, `squarefree_decompose` and
`rational_roots` take and return `UniPoly`; `refined_factors` takes the
integer lists of the pencil's Smith factors and returns monic factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt
from typing import Iterable, Sequence


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a rational coefficient")


class UniPoly:
    """Immutable univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # lowest degree first
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((Fraction(1),))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((_as_fraction(c),))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def linear(cls, root) -> "UniPoly":
        """The monic linear polynomial with the given root: x - root."""
        return cls((-_as_fraction(root), Fraction(1)))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "UniPoly":
        c = _as_fraction(c)
        return UniPoly(tuple(a * c for a in self.coeffs))

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly.zero(), self
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        inv_lead = 1 / div[-1]
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c * inv_lead
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * div[j]
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError(f"inexact division of {self} by {other}")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero or self.leading == 1:
            return self
        return self.scale(1 / self.leading)

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def __call__(self, point) -> Fraction:
        point = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c)
        return acc

    # -- comparisons / misc -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    def __str__(self) -> str:
        return self.to_string("x")

    def to_string(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" if k == 1 else f"{mag}{var}^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# -- integer kernels -----------------------------------------------------
#
# The factor layer runs on integer coefficient lists, lowest degree first
# with no trailing zeros.  A primitive list (content 1, positive leading
# coefficient) is the monic polynomial with the same roots times the
# smallest positive integer that clears its denominators, so equal monic
# polynomials have equal primitive lists.  By Gauss's lemma a primitive
# divisor of an integer polynomial leaves an integer quotient.


def _integer_primitive(f: UniPoly) -> list[int]:
    """Primitive integer coefficient list of a nonzero polynomial."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    return _int_primitive([int(c * den) for c in f.coeffs])


def _int_primitive(f: Sequence[int]) -> list[int]:
    """A nonzero integer polynomial divided by its content, leading
    coefficient made positive."""
    content = int_gcd(*f)
    if f[-1] < 0:
        content = -content
    return [c // content for c in f]


def _to_unipoly(f: Sequence[int]) -> UniPoly:
    """The monic polynomial of a nonzero integer coefficient list."""
    lead = f[-1]
    return UniPoly([Fraction(c, lead) for c in f])


def _int_derivative(f: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(f) if k]


def _int_poly_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f*g for nonzero integer polynomials."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _int_poly_pquo(f: Sequence[int], g: Sequence[int]) -> tuple[int, list[int]]:
    """(m, q) with m a nonzero integer and deg(m*f - q*g) < deg g.

    Each step scales by lc(g) / gcd(lc(g), lead) rather than by lc(g), so
    m divides lc(g)^(deg f - deg g + 1) and the coefficients stay small.
    """
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * (len(r) - dg)
    m = 1
    for i in range(len(r) - 1, dg - 1, -1):
        lead = r[i]
        if not lead:
            continue
        common = int_gcd(lead, lg)
        s, t = lg // common, lead // common
        if s != 1:
            r = [s * c for c in r]
            q = [s * c for c in q]
            m *= s
        for j, c in enumerate(g):
            r[i - dg + j] -= t * c
        q[i - dg] = t
    return m, q


def _int_poly_sub_mul(m: int, f: Sequence[int], q: Sequence[int], g: Sequence[int]) -> list[int]:
    """m*f - q*g over the integers, without trailing zeros."""
    out = [m * c for c in f]
    out.extend([0] * (len(q) + len(g) - 1 - len(out)))
    for i, a in enumerate(q):
        if a:
            for j, b in enumerate(g):
                out[i + j] -= a * b
    while out and not out[-1]:
        out.pop()
    return out


def _int_poly_exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The integer quotient f / g; ArithmeticError unless g divides f with
    an integer quotient, which holds whenever g is primitive and divides f
    over Q (Gauss's lemma)."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * max(len(r) - dg, 0)
    for i in range(len(r) - 1, dg - 1, -1):
        t, rest = divmod(r[i], lg)
        if rest:
            raise ArithmeticError("inexact integer polynomial division")
        if t:
            q[i - dg] = t
            for j in range(dg):
                r[i - dg + j] -= t * g[j]
    if any(r[:dg]):
        raise ArithmeticError("inexact integer polynomial division")
    return q


def _int_poly_divides(g: Sequence[int], f: Sequence[int]) -> bool:
    """Whether a primitive g divides f."""
    try:
        _int_poly_exact_div(f, g)
    except ArithmeticError:
        return False
    return True


def _int_poly_gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive gcd of two integer polynomials, not both zero, by a
    subresultant pseudo-remainder sequence."""
    if not f or not g:
        return _int_primitive(f or g)
    a, b = _int_primitive(f), _int_primitive(g)
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    gg, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        # the pseudo-remainder lc(b)^(delta+1) * a mod b; m divides that power
        m, q = _int_poly_pquo(a, b)
        scale = b[-1] ** (delta + 1) // m
        rem = [scale * c for c in _int_poly_sub_mul(m, a, q, b)]
        if not rem:
            return _int_primitive(b)
        if len(rem) == 1:
            return [1]
        divisor = gg * h**delta
        a, b = b, [c // divisor for c in rem]
        gg = a[-1]
        h = gg**delta // h ** (delta - 1) if delta > 0 else h


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q[x] via a subresultant PRS on integer primitive parts.

    gcd(f, 0) is the monic normalization of f; gcd(0, 0) = 0.
    """
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    return _to_unipoly(_int_poly_gcd(_integer_primitive(f), _integer_primitive(g)))


def _int_squarefree(f: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive polynomial of positive
    degree: primitive pairwise-coprime squarefree parts with their
    multiplicities, ascending.  b and c are divided by the same factors,
    so c - b' stays the Yun remainder up to one integer scale."""
    df = _int_derivative(f)
    a = _int_poly_gcd(f, df)
    b = _int_poly_exact_div(f, a)
    c = _int_poly_exact_div(df, a)
    d = _int_poly_sub_mul(1, c, (1,), _int_derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        part = _int_poly_gcd(b, d)
        if len(part) > 1:
            out.append((part, i))
        b = _int_poly_exact_div(b, part)
        c = _int_poly_exact_div(d, part)
        d = _int_poly_sub_mul(1, c, (1,), _int_derivative(b))
        i += 1
    return out


def squarefree_decompose(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's squarefree decomposition of a nonzero polynomial.

    Returns monic pairwise-coprime squarefree parts with multiplicities,
    ascending by multiplicity (one part each); the product of part**mult
    is monic(f).  Constants decompose into the empty list.
    """
    if f.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if f.degree < 1:
        return []
    return [(_to_unipoly(part), m) for part, m in _int_squarefree(_integer_primitive(f))]


def _divisors(n: int, limit: int = 2_000_000) -> list[int]:
    # trial division capped at `limit`: beyond desk scale some divisors
    # (hence some roots) may be missed, which downstream treats as an
    # opaque irreducible factor rather than an error
    n = abs(n)
    small, large = [], []
    d = 1
    bound = min(isqrt(n), limit)
    while d <= bound:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_value(f: Sequence[int], p: int, q: int) -> int:
    """q**deg(f) * f(p/q), the sum of c_i * p**i * q**(deg f - i)."""
    acc, q_power = 0, 1
    for c in reversed(f):
        acc = acc * p + c * q_power
        q_power *= q
    return acc


def _int_rational_roots(f: Sequence[int]) -> tuple[list[tuple[Fraction, int]], list[int]]:
    """Rational roots of a primitive polynomial with multiplicities,
    ascending, and the primitive remainder left by dividing out their
    linear factors.

    Candidates p/q run over divisors of the endpoint coefficients of f
    without its power of x, capped by _divisors.  The denominators are
    listed once per leading coefficient: dividing out a root p/q with
    q > 1 changes it, and above the cap the list for the new coefficient
    can hold divisors that the list for the old one lacks.
    """
    shift = next(k for k, c in enumerate(f) if c)
    roots = [(Fraction(0), shift)] if shift else []
    work = list(f[shift:])
    if len(work) < 2:
        return roots, work
    lead = None
    for p in _divisors(work[0]):
        if work[-1] != lead:
            lead, denominators = work[-1], _divisors(work[-1])
        for q in denominators:
            if int_gcd(p, q) != 1:
                continue
            for num in (p, -p):
                m = 0
                while _int_value(work, num, q) == 0:
                    work = _int_poly_exact_div(work, (-num, q))
                    m += 1
                if m:
                    roots.append((Fraction(num, q), m))
    roots.sort(key=lambda rm: rm[0])
    return roots, work


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, ascending by root.

    Candidate search over divisors of the primitive integer endpoints;
    desk-scale coefficients assumed.
    """
    if f.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    return _int_rational_roots(_integer_primitive(f))[0]


def _int_coprime_refine(polys: Iterable[list[int]]) -> list[list[int]]:
    """Gcd-free basis of primitive polynomials: pairwise coprime primitive
    polynomials of positive degree such that every input is a product of
    powers of basis elements."""
    basis: list[list[int]] = []
    queue = [p for p in polys if len(p) > 1]
    while queue:
        p = queue.pop()
        for i, q in enumerate(basis):
            g = _int_poly_gcd(p, q)
            if len(g) > 1:
                basis.pop(i)
                for part in (g, _int_poly_exact_div(q, g)):
                    if len(part) > 1:
                        queue.append(part)
                p = _int_poly_exact_div(p, g)
                if len(p) > 1:
                    queue.append(p)
                break
        else:
            if p not in basis:
                basis.append(p)
    return basis


def _int_split_rational_linear(f: Sequence[int]) -> list[list[int]]:
    """A squarefree primitive polynomial split into its linear factors with
    rational roots and the root-free remainder (if of positive degree)."""
    roots, rest = _int_rational_roots(f)
    out = [[-root.numerator, root.denominator] for root, _ in roots]
    if len(rest) > 1:
        out.append(rest)
    return out


def refined_factors(polys: Sequence[Sequence[int]]) -> list[tuple[UniPoly, tuple[int, ...]]]:
    """Common factor basis of nonzero primitive integer polynomials, with
    multiplicities.

    The squarefree parts of all inputs are refined to a gcd-free basis and
    their rational linear factors split off.  Returns the basis as monic
    polynomials sorted by sort_key, each factor with its multiplicity in
    every input (in input order, zeros included).  Nonlinear factors may
    be reducible over Q.
    """
    parts: list[list[int]] = []
    for f in polys:
        if len(f) > 1:
            parts.extend(part for part, _ in _int_squarefree(f))
    refined = {
        tuple(factor) for q in _int_coprime_refine(parts) for factor in _int_split_rational_linear(q)
    }
    out = []
    for q in refined:
        mults = []
        for f in polys:
            e = 0
            while len(f) >= len(q):
                try:
                    f = _int_poly_exact_div(f, q)
                except ArithmeticError:
                    break
                e += 1
            mults.append(e)
        out.append((_to_unipoly(q), tuple(mults)))
    out.sort(key=lambda qm: qm[0].sort_key())
    return out
