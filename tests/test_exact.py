"""The integer and exponent rules at every site that takes them, and the
exact surd comparison against high-precision decimal square roots."""

import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from greedylab import (
    Block,
    BlockSchedule,
    ErrorSequence,
    HFunction,
    SpaceSpec,
    arithmetic_schedule,
    build_xs,
    canonicalize,
    cghm_construct,
    condition71_check,
    demfun_dp,
    demfun_table,
    doubling_scan,
    prefix_norm_conjecture_check,
    space_from_json,
    squares_schedule,
)
from greedylab.exact import sqrt_plus_const_ge
from greedylab.greedy import GreedyProfile

SPEC = SpaceSpec.block_sum([(2, 4), (3, 6)])
SQRT, ONE_PLUS_LOG2 = HFunction("sqrt"), HFunction("one_plus_log2")


def _sequence():
    return ErrorSequence("sigma", 2, [(0, 4), (2, 0)])


def _profile():
    return GreedyProfile(SPEC.vector([(0, 3, 2), (1, 1, 4)]), SPEC)


def _check71(k, n):
    return condition71_check(SQRT, ONE_PLUS_LOG2, [(k, n)], 1.0, 0.25)


# (argument name, least, a call passing the value to that argument): every
# count, index and block parameter of the Python API that takes the integer rule.
SITES = [
    ("block id", 0, lambda v: canonicalize([(v, 1, 1)])),
    ("multiplicity", 0, lambda v: canonicalize([(0, 1, v)])),
    ("block cap", 1, lambda v: Block(v, 10)),
    ("block size", 1, lambda v: Block(None, v)),
    ("multiplier", 2, lambda v: BlockSchedule((v, 5, 6), allow_slow_start=True)),
    ("k", 0, lambda v: _sequence().power(v)),
    ("upto", 0, lambda v: _sequence().powers(v)),
    ("n", 0, lambda v: _profile().gamma(v)),
    ("n", 0, lambda v: _profile().sigma(v)),
    ("n", 0, lambda v: demfun_dp(SPEC, v)),
    ("max_n", 0, lambda v: demfun_table(SPEC, v)),
    ("n", 0, lambda v: demfun_table(SPEC, 5).hl_power(v)),
    ("n", 0, lambda v: demfun_table(SPEC, 5).hr_power(v)),
    ("k", 1, lambda v: doubling_scan(arithmetic_schedule(3), [v])),
    ("N", 0, lambda v: prefix_norm_conjecture_check(arithmetic_schedule(3), [v])),
    ("count", 1, lambda v: cghm_construct(SQRT, ONE_PLUS_LOG2, 2.0, 0.25, v)),
    ("probe_limit", 1, lambda v: cghm_construct(SQRT, ONE_PLUS_LOG2, 2.0, 0.25, 1, v)),
    ("pair 1: k", 1, lambda v: _check71(v, 4)),
    ("pair 1: n", 2, lambda v: _check71(2, v)),
    ("s", 2, lambda v: build_xs(squares_schedule(4), v)),
    ("num_blocks", 1, lambda v: arithmetic_schedule(v)),
    ("num_blocks", 1, lambda v: squares_schedule(v)),
    ("k", 0, lambda v: arithmetic_schedule(3).n(v)),
    ("num_blocks", 1, lambda v: arithmetic_schedule(3).truncate(v)),
    ("dim", 1, lambda v: SpaceSpec.lp(2, v)),
]


@pytest.mark.parametrize("bad", ["2.5", "2.0", "least - 1", "True"])
@pytest.mark.parametrize("name, least, call", SITES,
                         ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(SITES)])
def test_every_site_refuses_what_is_not_an_integer_at_least_its_bound(name, least, call, bad):
    # 2.0 and True are refused as JSON refuses them; 2.5 was truncated,
    # interpolated or a TypeError.
    value = {"2.5": 2.5, "2.0": 2.0, "least - 1": least - 1, "True": True}[bad]
    message = f"^{re.escape(name)} must be an integer >= {least}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


# (exponent name, a call passing the value as that exponent): every place an
# exponent enters, from the Python API and from the JSON shapes.
EXPONENT_SITES = [
    ("inner_p", lambda v: SpaceSpec.lp(v)),
    ("inner_p", lambda v: SpaceSpec.trunc_block(2, 4, v)),
    ("inner_p", lambda v: SpaceSpec.block_sum([(2, 4)], v, 2)),
    ("outer_p", lambda v: SpaceSpec.block_sum([(2, 4)], 2, v)),
    ("inner_p", lambda v: SpaceSpec((Block(2, 4),), v, 2)),
    ("outer_p", lambda v: SpaceSpec((Block(2, 4),), 2, v)),
    ("inner_p", lambda v: BlockSchedule((4, 5, 6), inner_p=v)),
    ("outer_p", lambda v: BlockSchedule((4, 5, 6), outer_p=v)),
    ("inner_p", lambda v: space_from_json({"lp": v, "dim": 3})),
    ("inner_p", lambda v: space_from_json({"cap": 2, "size": 4, "p": v})),
    ("inner_p", lambda v: space_from_json({"blocks": [[2, 4]], "inner_p": v})),
    ("outer_p", lambda v: space_from_json({"blocks": [[2, 4]], "outer_p": v})),
    ("inner_p", lambda v: space_from_json({"a": [4, 5, 6], "inner_p": v})),
    ("outer_p", lambda v: space_from_json({"a": [4, 5, 6], "outer_p": v})),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5, True, "2"], ids=repr)
@pytest.mark.parametrize("name, call", EXPONENT_SITES,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(EXPONENT_SITES)])
def test_every_site_refuses_what_is_not_a_finite_exponent_at_least_1(name, call, bad):
    # An infinite exponent once passed (inf >= 1) and every float norm read 1.
    message = f"^exponent {name} must be a finite number >= 1, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


def test_the_exponent_rule_keeps_the_number_an_exponent_stands_for():
    # An integral float is its int, so it takes the exact routes; 1.5 keeps its float norm.
    assert [type(SpaceSpec.lp(p).inner_p) for p in (1, 2.0, 1.5, 10**30)] == [int, int, float, int]
    assert BlockSchedule((4, 5, 6), 3.0, 3.0).outer_p == 3 == SpaceSpec.lp(3.0).exact_p
    assert SpaceSpec.block_sum([(2, 4)], 2, 3).exact_p is None is SpaceSpec.lp(1.5).exact_p
    with pytest.raises(ValueError, match="^block sum needs at least one block$"):
        SpaceSpec.block_sum([])


def test_huge_ints_pass_the_integer_rule():
    big = 10**30
    assert Block(big, big).cap == big
    assert canonicalize([(big, 1, big)]).groups == ((big, 1, big),)
    assert BlockSchedule((4, big)).caps() == [4]
    assert _sequence().power(big) == 0
    profile = _profile()
    assert profile.gamma(big).residual_max.power_exact == 0 == profile.sigma(big).power_exact
    point = demfun_dp(SpaceSpec.block_sum([(big, big)]), big)
    assert point.hl_power == big == point.hr_power
    assert cghm_construct(SQRT, ONE_PLUS_LOG2, 2.0, 0.25, big, probe_limit=1).exhausted
    assert _check71(big, big).rows[0]["k"] == big


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
