"""Small exact-arithmetic helpers used by the norm and inequality code.

Everything that feeds a pass/fail assertion is compared on exact rationals
(usually squared values); floats only ever decorate reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # Exact binary expansion of the float; no rounding is ever hidden.
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def simplify(value: Rational) -> Rational:
    """Return an int when the rational is integral (ints are much faster)."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def pow_rational(base: Rational, exponent: int) -> Rational:
    return simplify(base**exponent)


def slope(k0: int, y0: Rational, k1: int, y1: Rational) -> Rational:
    """Slope of the line through (k0, y0) and (k1, y1); an int when integral."""
    rise = y1 - y0
    if isinstance(rise, int) and rise % (k1 - k0) == 0:
        return rise // (k1 - k0)
    return simplify(Fraction(rise) / (k1 - k0))


def sqrt_plus_const_ge(a: Rational, x: Rational, c: Rational, b: Rational, y: Rational) -> bool:
    """Decide a*sqrt(x) + c >= b*sqrt(y) exactly, for a, b, c, x, y >= 0.

    Square once to isolate the remaining radical, then square again with the
    correct sign handling.  Used for surd inequalities like (LS1) where one
    side mixes a square root with a constant.
    """
    a, x, c, b, y = (Fraction(v) for v in (a, x, c, b, y))
    if min(a, x, c, b, y) < 0:
        raise ValueError("sqrt_plus_const_ge expects nonnegative inputs")
    # lhs^2 = a^2 x + c^2 + 2 a c sqrt(x); rhs^2 = b^2 y
    d = b * b * y - a * a * x - c * c
    if d <= 0:
        return True
    # Remaining question: 2 a c sqrt(x) >= d with d > 0.
    return 4 * a * a * c * c * x >= d * d

