"""Sparse multivariate polynomials over the rationals.

A polynomial in n variables is a map from exponent tuples of length n to
nonzero rational coefficients, each an int when it is integral and a
Fraction otherwise, so a polynomial with integer coefficients computes on
Python integers.  Evaluation at a point y/q over a common denominator and
restriction to a line run on integers and divide once.  The gcd uses
iterated content/primitive part reduction with a subresultant
pseudo-remainder sequence in the highest occurring variable; adequate for
desk-scale inputs (few variables, low degree).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from typing import Iterable, Sequence

from .linalg import _common_denominator
from .rational import _as_rational
from .unipoly import _int_poly_mul


class MultiPoly:
    """Immutable multivariate polynomial with rational coefficients, ints
    where integral."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exp, coeff in (terms or {}).items():
            if type(coeff) is not int:
                coeff = _as_rational(coeff)
            if coeff == 0:
                continue
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for {nvars} variables")
            clean[exp] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> int | Fraction:
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, var: int) -> int:
        if self.is_zero:
            return -1
        return max(exp[var] for exp in self.terms)

    def _lex_leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        exp = max(self.terms)
        return exp, self.terms[exp]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return MultiPoly.zero(self.nvars)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        c = _as_rational(c)
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    # -- calculus / evaluation -----------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k == 0:
                continue
            e = list(exp)
            e[var] = k - 1
            out[tuple(e)] = c * k
        return MultiPoly(self.nvars, out)

    def gradient(self) -> tuple["MultiPoly", ...]:
        return tuple(self.derivative(v) for v in range(self.nvars))

    def scaled_value(self, y: Sequence[int], q: int, degree: int) -> int | Fraction:
        """q**degree * self(y/q) for a point y/q, y integral and q > 0, and
        degree >= total_degree(): the sum of c * y**e * q**(degree - |e|)
        over the terms, an integer when the coefficients are."""
        total = 0
        for exp, c in self.terms.items():
            val = c * q ** (degree - sum(exp))
            for x, e in zip(y, exp):
                if e:
                    val *= x**e
            total += val
        return total

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a rational point, one division at the end."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        y, q = _common_denominator(point)
        degree = max(self.total_degree(), 0)
        return Fraction(self.scaled_value(y, q, degree), q**degree)

    def eval_on_line(self, base: Sequence, direction: Sequence) -> tuple[list[int], int]:
        """The restriction to the line base + t*direction, as (f, s): it is
        f(t)/s with f an integer coefficient list, lowest degree first
        without trailing zeros, and s a positive integer, 1 when the
        coefficients and the line data are integers.

        With the line data over a common denominator q and the coefficients
        over m, s = m * q**d for the total degree d, and each term
        contributes c*m * q**(d - |e|) * prod (y_i + t*z_i)**e_i."""
        if len(base) != self.nvars or len(direction) != self.nvars:
            raise ValueError("line data has wrong length")
        y, q = _common_denominator([*base, *direction])
        lines = [[b, d] for b, d in zip(y, y[self.nvars:])]
        m = lcm(*(c.denominator for c in self.terms.values()))
        degree = max(self.total_degree(), 0)
        powers: list[list[list[int]]] = [[[1]] for _ in lines]
        total = [0] * (degree + 1)
        for exp, c in self.terms.items():
            val = [c.numerator * (m // c.denominator) * q ** (degree - sum(exp))]
            for line, pw, e in zip(lines, powers, exp):
                if e:
                    while len(pw) <= e:
                        pw.append(_int_poly_mul(pw[-1], line))
                    val = _int_poly_mul(val, pw[e])
            for k, v in enumerate(val):
                total[k] += v
        while total and not total[-1]:
            total.pop()
        return total, m * q**degree

    def extend(self, extra: int) -> "MultiPoly":
        """Same polynomial viewed in nvars + extra variables."""
        pad = (0,) * extra
        return MultiPoly(self.nvars + extra, {e + pad: c for e, c in self.terms.items()})

    # -- division -----------------------------------------------------

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ArithmeticError when the division is inexact."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return MultiPoly.zero(self.nvars)
        if other.is_constant:
            return self.scale(Fraction(1, other.constant_value()))
        rem = dict(self.terms)
        out: dict[tuple[int, ...], int | Fraction] = {}
        dexp, dcoeff = other._lex_leading()
        while rem:
            lexp = max(rem)
            lcoeff = rem[lexp]
            qexp = tuple(a - b for a, b in zip(lexp, dexp))
            if any(e < 0 for e in qexp):
                raise ArithmeticError("inexact multivariate division")
            qc = _as_rational(Fraction(lcoeff, dcoeff))
            out[qexp] = out.get(qexp, 0) + qc
            for exp, c in other.terms.items():
                e = tuple(a + b for a, b in zip(qexp, exp))
                newc = rem.get(e, 0) - qc * c
                if newc == 0:
                    rem.pop(e, None)
                else:
                    rem[e] = newc
        return MultiPoly(self.nvars, out)

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def __str__(self) -> str:
        return self.to_string()

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                term = str(abs(c))
            elif abs(c) == 1:
                term = "*".join(factors)
            else:
                term = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# -- gcd machinery -----------------------------------------------------


def normalize_content(p: MultiPoly) -> MultiPoly:
    """Scale to integer coefficients with content 1 and positive
    lexicographically-leading coefficient."""
    if p.is_zero:
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    num = int_gcd(*(c.numerator * (den // c.denominator) for c in p.terms.values()))
    scaled = p.scale(Fraction(den, num))
    if scaled._lex_leading()[1] < 0:
        scaled = -scaled
    return scaled


def _main_variable(f: MultiPoly, g: MultiPoly) -> int | None:
    for v in range(f.nvars - 1, -1, -1):
        if f.degree_in(v) > 0 or g.degree_in(v) > 0:
            return v
    return None


def coefficients_in(p: MultiPoly, var: int) -> list[MultiPoly]:
    """Coefficients of p as a polynomial in x_var, low degree first.

    The coefficients stay in the full variable ring with x_var absent.
    """
    deg = max(p.degree_in(var), 0)
    buckets: list[dict] = [dict() for _ in range(deg + 1)]
    for exp, c in p.terms.items():
        e = list(exp)
        k = e[var]
        e[var] = 0
        buckets[k][tuple(e)] = c
    return [MultiPoly(p.nvars, b) for b in buckets]


def _from_coeffs(coeffs: Sequence[MultiPoly], var: int, nvars: int) -> MultiPoly:
    out: dict[tuple[int, ...], int | Fraction] = {}
    for k, coeff in enumerate(coeffs):
        for exp, c in coeff.terms.items():
            e = list(exp)
            e[var] += k
            out[tuple(e)] = c
    return MultiPoly(nvars, out)


def _list_gcd(polys: Iterable[MultiPoly], nvars: int) -> MultiPoly:
    acc = MultiPoly.zero(nvars)
    for p in polys:
        acc = multi_gcd(acc, p)
        if acc.is_constant and not acc.is_zero:
            return MultiPoly.one(nvars)
    return acc


def _prem(f: list[MultiPoly], g: list[MultiPoly], nvars: int) -> list[MultiPoly]:
    """Pseudo-remainder of coefficient lists in the main variable."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    steps = len(f) - len(g) + 1
    done = 0
    while len(r) - 1 >= dg and any(not c.is_zero for c in r):
        while r and r[-1].is_zero:
            r.pop()
        if len(r) - 1 < dg:
            break
        lead = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lg for c in r]
        for j in range(dg + 1):
            r[shift + j] = r[shift + j] - lead * g[j]
        done += 1
        while r and r[-1].is_zero:
            r.pop()
    for _ in range(steps - done):
        r = [c * lg for c in r]
    return r


def multi_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Gcd over Q[x_1..x_n], normalized to content 1 with positive
    lexicographically-leading coefficient.  gcd with zero returns the
    normalized other argument; nonzero constants are units (gcd 1)."""
    if f.is_zero:
        return normalize_content(g)
    if g.is_zero:
        return normalize_content(f)
    if f.is_constant or g.is_constant:
        return MultiPoly.one(f.nvars)
    var = _main_variable(f, g)
    if var is None:
        return MultiPoly.one(f.nvars)
    nvars = f.nvars
    fc = coefficients_in(f, var)
    gc = coefficients_in(g, var)
    cont_f = _list_gcd(fc, nvars)
    cont_g = _list_gcd(gc, nvars)
    cont = multi_gcd(cont_f, cont_g)
    if len(fc) == 1 or len(gc) == 1:
        return normalize_content(cont)
    a = [c.exact_div(cont_f) for c in fc]
    b = [c.exact_div(cont_g) for c in gc]
    if len(a) < len(b):
        a, b = b, a
    gg = MultiPoly.one(nvars)
    h = MultiPoly.one(nvars)
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        rem = _prem(a, b, nvars)
        while rem and rem[-1].is_zero:
            rem.pop()
        if not rem:
            break
        if len(rem) == 1:
            return normalize_content(cont)
        divisor = gg * h**delta
        a, b = b, [c.exact_div(divisor) for c in rem]
        gg = a[-1]
        if delta > 0:
            h = (gg**delta).exact_div(h ** (delta - 1)) if delta > 1 else gg
    pp = [c for c in b]
    pp_cont = _list_gcd(pp, nvars)
    pp = [c.exact_div(pp_cont) for c in pp]
    return normalize_content(cont * _from_coeffs(pp, var, nvars))


def multi_gcd_list(polys: Iterable[MultiPoly], nvars: int) -> MultiPoly:
    """Gcd of a collection, ignoring zeros; zero if all inputs are zero."""
    return _list_gcd(polys, nvars)


def drop_last_variable(p: MultiPoly) -> MultiPoly:
    """Forget the last variable, which must not occur in p."""
    if p.degree_in(p.nvars - 1) > 0:
        raise ValueError("polynomial still involves the last variable")
    return MultiPoly(p.nvars - 1, {exp[:-1]: c for exp, c in p.terms.items()})
