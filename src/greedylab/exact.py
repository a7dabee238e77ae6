"""Small exact-arithmetic helpers used by the norm and inequality code.

Everything that feeds a pass/fail assertion is compared on exact rationals
(usually squared values); floats only ever decorate reports.

``int_at_least`` is the one integer rule of the Python API: every count,
index and block parameter goes through it, so 2.5 and 2.0 are refused there
as ``json_int`` refuses them in JSON, never truncated.  ``norm_exponent`` is
the one exponent rule, applied where spaces and schedules are built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Optional, Union

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


def as_rational(value) -> Rational:
    """``as_fraction``, but an int where the value is integral; an int passes as it is."""
    return value if type(value) is int else simplify(as_fraction(value))


def int_at_least(value, least: int, name: str) -> int:
    """``operator.index(value)`` where that is an int >= least, else ValueError naming ``name``."""
    try:
        n = index(value)
        if n >= least:
            return n
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def norm_exponent(value, name: str) -> Union[int, float]:
    """A finite int or float >= 1, an integral float as its int; anything else
    (NaN, an infinity, a bool, a str) raises ValueError naming ``name``."""
    if type(value) is float and value.is_integer():  # False for NaN and the infinities
        value = int(value)
    if (type(value) is int or type(value) is float and math.isfinite(value)) and value >= 1:
        return value
    raise ValueError(f"exponent {name} must be a finite number >= 1, got {value!r}")


def json_int(value) -> int:
    """An integer field of the JSON inputs: a JSON int, or a string of one.

    Anything else raises ValueError, a float even where it is integral, so
    that no input is rounded on its way in."""
    if type(value) is int or isinstance(value, str):
        return int(value)  # int("2.5") raises ValueError
    raise ValueError(f"expected an integer or a string of one, got {value!r:.60}")


def json_number(value) -> Union[int, float]:
    """A numeric JSON field (an exponent, an h value): a JSON int or float, else ValueError."""
    if type(value) in (int, float):
        return value
    raise ValueError(f"expected a number, got {value!r:.60}")


def json_shape(value, kind: type, length: Optional[int] = None):
    """value where it is a JSON object (kind dict), array (kind list, of
    ``length`` items if given) or boolean (kind bool); anything else raises
    ValueError."""
    if isinstance(value, kind) and (length is None or len(value) == length):
        return value
    want = {dict: "an object", list: "an array", bool: "true or false"}[kind]
    want += "" if length is None else f" of {length} items"
    raise ValueError(f"expected {want}, got {value!r:.60}")


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

