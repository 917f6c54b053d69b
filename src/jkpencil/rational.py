"""The conversion of a user's number to an exact rational, shared by every
layer; it imports nothing of the package, so the structure-constant layer
(`structure`) reads rationals without the polynomial layers."""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a rational coefficient")


def _as_rational(value) -> int | Fraction:
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = _as_fraction(value)
    return value.numerator if value.denominator == 1 else value
