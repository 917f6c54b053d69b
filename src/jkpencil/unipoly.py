"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored lowest degree first with no
trailing zeros; the zero polynomial has an empty coefficient tuple.  The
gcd runs a subresultant pseudo-remainder sequence on integer primitive
parts, which keeps coefficient growth under control on the polynomial
matrices produced by pencil elimination.
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

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x**k."""
        if self.is_zero or k == 0:
            return self
        return UniPoly((Fraction(0),) * k + self.coeffs)

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

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

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


# -- gcd machinery -----------------------------------------------------


def _integer_primitive(f: UniPoly) -> tuple[int, ...]:
    """Integer coefficient list of the primitive part, positive leading."""
    if f.is_zero:
        return ()
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    content = 0
    for v in ints:
        content = int_gcd(content, abs(v))
    ints = [v // content for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q[x] via a subresultant PRS on integer primitive parts.

    gcd(f, 0) is the monic normalization of f; gcd(0, 0) = 0.
    """
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    a = list(_integer_primitive(f))
    b = list(_integer_primitive(g))
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return UniPoly.one()
    gg, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        # the pseudo-remainder lc(b)^(delta+1) * a mod b; m divides that power
        m, q = _int_poly_pquo(a, b)
        scale = b[-1] ** (delta + 1) // m
        rem = [scale * c for c in _int_poly_sub_mul(m, a, q, b)]
        if not rem:
            break
        if len(rem) == 1:
            return UniPoly.one()
        divisor = gg * h**delta
        a, b = b, [c // divisor for c in rem]
        gg = a[-1]
        h = gg**delta // h ** (delta - 1) if delta > 0 else h
    content = 0
    for v in b:
        content = int_gcd(content, abs(v))
    return UniPoly([Fraction(v, content) for v in b]).monic()


def squarefree_decompose(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's squarefree decomposition of a nonzero polynomial.

    Returns monic pairwise-coprime squarefree parts with multiplicities,
    sorted by (multiplicity, coefficients); the product of part**mult is
    monic(f).  Constants decompose into the empty list.
    """
    if f.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    f = f.monic()
    if f.degree < 1:
        return []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    out: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree > 0:
        part = poly_gcd(b, d)
        if part.degree > 0:
            out.append((part.monic(), i))
        b = b.exact_div(part)
        c = d.exact_div(part)
        d = c - b.derivative()
        i += 1
    out.sort(key=lambda pm: (pm[1],) + pm[0].sort_key())
    return out


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


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, ascending by root.

    Candidate search over divisors of the primitive integer endpoints;
    desk-scale coefficients assumed.
    """
    if f.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    work = f.monic()
    mult = 0
    while work.degree > 0 and work.coefficient(0) == 0:
        work = work.exact_div(UniPoly.x())
        mult += 1
    if mult:
        roots.append((Fraction(0), mult))
    if work.degree < 1:
        return roots
    ints = _integer_primitive(work)
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if int_gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if work(cand) == 0:
                    lin = UniPoly.linear(cand)
                    m = 0
                    while (work % lin).is_zero:
                        work = work.exact_div(lin)
                        m += 1
                    roots.append((cand, m))
    roots.sort(key=lambda rm: rm[0])
    return roots


def coprime_refine(polys: Iterable[UniPoly]) -> list[UniPoly]:
    """Gcd-free basis: pairwise coprime monic polynomials of positive degree
    such that every input is a product of powers of basis elements."""
    basis: list[UniPoly] = []
    queue = [p.monic() for p in polys if p.degree > 0]
    while queue:
        p = queue.pop()
        for i, q in enumerate(basis):
            g = poly_gcd(p, q)
            if g.degree > 0:
                basis.pop(i)
                for part in (g, q.exact_div(g)):
                    if part.degree > 0:
                        queue.append(part)
                p = p.exact_div(g)
                if p.degree > 0:
                    queue.append(p)
                break
        else:
            if p.degree > 0 and p not in basis:
                basis.append(p)
    basis.sort(key=UniPoly.sort_key)
    return basis


def split_rational_linear_factors(f: UniPoly) -> list[UniPoly]:
    """Split off all monic linear factors with rational roots.

    Returns the refined monic factor list (linear factors plus the
    root-free remainder); multiplicity information is discarded, so this
    is meant for squarefree inputs.
    """
    out = [UniPoly.linear(root) for root, _ in rational_roots(f)]
    rest = f.monic()
    for lin in out:
        while (rest % lin).is_zero:
            rest = rest.exact_div(lin)
    if rest.degree > 0:
        out.append(rest)
    out.sort(key=UniPoly.sort_key)
    return out


def refined_factors(polys: Sequence[UniPoly]) -> list[tuple[UniPoly, tuple[int, ...]]]:
    """Common factor basis of nonzero polynomials, with multiplicities.

    The squarefree parts of all inputs are refined to a gcd-free basis and
    their rational linear factors split off.  Returns the basis sorted by
    sort_key, each factor with its multiplicity in every input (in input
    order, zeros included).  Nonlinear factors may be reducible over Q.
    """
    parts: list[UniPoly] = []
    for f in polys:
        if f.degree >= 1:
            parts.extend(part for part, _ in squarefree_decompose(f))
    refined: list[UniPoly] = []
    for q in coprime_refine(parts):
        refined.extend(split_rational_linear_factors(q))
    out = []
    for q in sorted(set(refined), key=UniPoly.sort_key):
        mults = []
        for f in polys:
            e = 0
            while f.degree >= q.degree and (f % q).is_zero:
                f = f.exact_div(q)
                e += 1
            mults.append(e)
        out.append((q, tuple(mults)))
    return out
