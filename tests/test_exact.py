"""The exact surd comparison against high-precision decimal square roots."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction

from greedylab.exact import sqrt_plus_const_ge


def _decimal(value):
    value = Fraction(value)
    return Decimal(value.numerator) / Decimal(value.denominator)


def test_sqrt_plus_const_ge_squares_twice():
    # a = c = b = 1, x = 4: 2 + 1 against sqrt(y), decided by the second squaring.
    assert sqrt_plus_const_ge(1, 4, 1, 1, 8) and not sqrt_plus_const_ge(1, 4, 1, 1, 10)
    assert sqrt_plus_const_ge(1, 4, 1, 1, 9)  # equality
    rng = random.Random(91)
    seen = set()
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(3000):
            a, c, b = (Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(3))
            x, y = (Fraction(rng.randint(0, 400), rng.randint(1, 9)) for _ in range(2))
            lhs = _decimal(a) * _decimal(x).sqrt() + _decimal(c)
            rhs = _decimal(b) * _decimal(y).sqrt()
            if abs(lhs - rhs) < Decimal(10) ** -40:
                continue  # too close for 60 digits to decide
            got = sqrt_plus_const_ge(a, x, c, b, y)
            assert got == (lhs >= rhs), (a, x, c, b, y)
            seen.add((b * b * y - a * a * x - c * c > 0, got))
    assert seen == {(False, True), (True, True), (True, False)}
