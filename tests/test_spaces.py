"""Norm evaluators vs the sup-form oracle and an explicit signed backend."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedylab import (
    Block,
    BlockSchedule,
    NormValue,
    OracleUnavailableError,
    SpaceSpec,
    TruncationError,
    arithmetic_schedule,
    space_from_json,
    space_norm,
)
from greedylab import explicit
from greedylab.explicit import lattice_check, sup_form_norm_oracle
from greedylab.spaces import _float_root
from oracles import named_tests

globals().update(named_tests(__name__))  # this file's families of the route-oracle rows


# -- truncated block norm ----------------------------------------------------


def _flat_norm(coords, spec):
    """space_norm of a flat coefficient list, padded with zeros to the space's dimension."""
    coords = list(coords) + [0] * (spec.dimension() - len(coords))
    return space_norm(explicit.from_explicit(coords, spec), spec)


def test_indicator_above_cap_gives_sqrt_cap():
    # 9 unit coordinates, cap 4: the two-case display gives sqrt(4) = 2.
    nv = _flat_norm([1] * 9, SpaceSpec.trunc_block(4, 9))
    assert nv.power_exact == 4 and nv.value == 2.0


def test_indicator_below_cap_gives_sqrt_count():
    nv = _flat_norm([1] * 3, SpaceSpec.trunc_block(4, 9))
    assert nv.power_exact == 3


def test_top_two_of_3221():
    # Frozen from the subset-enumeration oracle: max over 2-subsets is 3^2+2^2.
    assert _flat_norm([3, 2, 2, 1], SpaceSpec.trunc_block(2, 4)).power_exact == 13


def test_cap_at_least_support_is_plain_lp():
    assert _flat_norm([3, 2, 2, 1], SpaceSpec.trunc_block(10, 10)).power_exact == 9 + 4 + 4 + 1
    assert _flat_norm([3, 2, 1], SpaceSpec.trunc_block(3, 3, p=1)).power_exact == 6


# -- sup-form oracle ----------------------------------------------------------


def test_sup_oracle_examples():
    assert sup_form_norm_oracle([3, 2, 2, 1], 2).power_exact == 13
    assert sup_form_norm_oracle([3, 2, 2, 1], 4).power_exact == 18
    assert sup_form_norm_oracle([1] * 5, 3).power_exact == 3


def test_sup_oracle_rejects_oversize_support():
    with pytest.raises(OracleUnavailableError):
        sup_form_norm_oracle([1] * 30, 2)


# -- space norms --------------------------------------------------------------


def test_block_sum_indicator_examples():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(2))  # a=(4,5,6)
    one_block = spec.indicator({0: 20})
    assert space_norm(one_block, spec).power_exact == 4  # min(20, 4)
    split = spec.indicator({0: 4, 1: 16})
    assert space_norm(split, spec).power_exact == 20  # 4 + 16
    assert space_norm(spec.vector([]), spec).power_exact == 0


def test_indicator_block_sum_power_is_integer_sum_of_mins():
    rng = random.Random(3)
    for _ in range(100):
        blocks = [(rng.randint(1, 3), rng.randint(3, 6)) for _ in range(rng.randint(1, 3))]
        spec = SpaceSpec.block_sum(blocks)
        counts = {b: rng.randint(0, size) for b, (_, size) in enumerate(blocks)}
        v = spec.indicator(counts)
        expected = sum(min(m, blocks[b][0]) for b, m in counts.items())
        power = space_norm(v, spec).power_exact
        assert power == expected and isinstance(power, int)


def test_norm_monotone_in_magnitudes():
    rng = random.Random(4)
    spec = SpaceSpec.block_sum([(2, 5), (3, 7)])
    from greedylab.explicit import random_vector

    for _ in range(100):
        x = random_vector(spec, rng)
        if x.is_zero:
            continue
        b, mag, _count = x.groups[rng.randrange(len(x.groups))]
        bumped = spec.vector(
            [(bb, mm + (1 if (bb, mm) == (b, mag) else 0), cc) for bb, mm, cc in x.groups]
        )
        assert space_norm(bumped, spec).power_exact >= space_norm(x, spec).power_exact


@st.composite
def signed_block_sums(draw):
    """A 1-4 block sum with explicit signed integer coordinates, the same
    coordinates permuted and re-signed within each block, and coordinates
    no larger in absolute value."""
    p = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        blocks.append((draw(st.integers(1, size)), size))
    spec = SpaceSpec.block_sum(blocks, p, p)
    dim = sum(size for _, size in blocks)
    values = draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))
    moved, start = [], 0
    for _, size in blocks:
        order = draw(st.permutations(range(size)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size))
        moved += [signs[j] * values[start + order[j]] for j in range(size)]
        start += size
    smaller = [draw(st.integers(-abs(v), abs(v))) for v in values]
    return spec, values, moved, smaller


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_block_sums())
def test_norm_is_a_lattice_norm_on_explicit_coordinates(instance):
    spec, values, moved, smaller = instance
    power = explicit.norm_power(values, spec)
    assert explicit.norm_power(moved, spec) == power
    assert explicit.norm_power(smaller, spec) <= power
    assert space_norm(explicit.from_explicit(values, spec), spec).power_exact == power


def test_triangle_inequality_sampled():
    rng = random.Random(6)
    spec = SpaceSpec.block_sum([(2, 4), (3, 6)])
    dim = spec.dimension()
    for _ in range(150):
        a = [rng.uniform(-4, 4) for _ in range(dim)]
        b = [rng.uniform(-4, 4) for _ in range(dim)]
        lhs = explicit.norm_float([x + y for x, y in zip(a, b)], spec)
        rhs = explicit.norm_float(a, spec) + explicit.norm_float(b, spec)
        assert lhs <= rhs * (1 + 1e-9)


def test_float_norm_refuses_a_wrong_coordinate_count():
    spec = SpaceSpec.block_sum([(2, 4), (3, 6)])
    assert explicit.norm_float([3, 0, 0, 0, 4, 0, 0, 0, 0, 0], spec) == 5.0
    for count in (9, 11):
        with pytest.raises(ValueError, match="10-dimensional"):
            explicit.norm_float([1] * count, spec)


@pytest.mark.parametrize(
    "values, spec",
    [
        ([1.5e308, 1.5e308], SpaceSpec.lp(1, 2)),
        ([1.0, 1.5e308, 1.5e308], SpaceSpec.trunc_block(2, 3, 1)),
        ([1.5e308, 1.5e308, 1.0], SpaceSpec.block_sum([(2, 2), (1, 1)], 1, 1)),
        ([1.5e308, 1.0, 1.5e308], SpaceSpec.block_sum([(1, 2), (1, 1)], 1, 1)),
    ],
    ids=["lp", "trunc_block", "within_a_block", "across_blocks"],
)
def test_float_norm_of_a_power_sum_past_the_float_range_is_inf(values, spec):
    # math.fsum raises OverflowError where a sum leaves the float range;
    # the float norm is inf there, in a one-block and a multi-block layout.
    assert explicit.norm_float(values, spec) == math.inf


def test_mixed_exponents_fall_back_to_float():
    # outer 1, inner 2: two singleton blocks of magnitudes 3 and 4 give
    # block norms 3 and 4, combined by plain summation.
    spec = SpaceSpec.block_sum([(1, 2), (1, 2)], inner_p=2, outer_p=1)
    v = spec.vector([(0, 3, 1), (1, 4, 1)])
    nv = space_norm(v, spec)
    assert nv.power_exact is None
    assert nv.value == pytest.approx(7.0)


def test_norm_value_float_tracks_exact_power():
    rng = random.Random(7)
    for _ in range(200):
        power = Fraction(rng.randint(0, 10**6), rng.randint(1, 100))
        nv = NormValue.from_power(power, 2)
        assert math.isclose(nv.value**2, float(power), rel_tol=1e-12)


def test_norm_value_beyond_float_range_keeps_exact_power():
    nv = NormValue.from_power(10**400, 2)
    assert nv.power_exact == 10**400
    assert math.isclose(nv.value, 1e200, rel_tol=1e-15)
    assert math.isclose(NormValue.from_power(10**400, 3).value, 10 ** (400 / 3), rel_tol=1e-13)
    assert math.isclose(NormValue.from_power(Fraction(10**400, 7), 2).value, 1e200 / math.sqrt(7), rel_tol=1e-15)
    assert math.isclose(NormValue.from_power(10**400, 2.5).value, 1e160, rel_tol=1e-13)
    # The root itself overflows: inf, with the exact power still carried.
    huge = NormValue.from_power(10**400, 1)
    assert huge.value == math.inf and huge.power_exact == 10**400


def test_float_root_at_a_large_integer_root():
    # Shifting by a multiple of p leaves up to 2^(p + 63) in the rest, past
    # the float range for p above ~960; 2^(spare/p) is then taken apart.
    assert math.isclose(_float_root(10**5000, 3000), 10 ** (5 / 3), rel_tol=1e-15)
    assert math.isclose(_float_root(Fraction(10**5000, 3), 1001), 10 ** (5000 / 1001) / 3 ** (1 / 1001),
                        rel_tol=1e-14)


def test_float_norm_past_the_float_range_of_its_powers():
    # The block powers or their outer powers leave the float range; the
    # norms do not, so they come out finite.  Only a norm past it is inf.
    mixed = SpaceSpec.block_sum([(2, 4), (3, 6)], inner_p=1, outer_p=2)
    assert space_norm(mixed.vector([(0, 10**200, 3)]), mixed).value == pytest.approx(2e200, rel=1e-12)
    lp = SpaceSpec.lp(1.5, 4)
    assert space_norm(lp.vector([(0, 10**300, 2)]), lp).value == pytest.approx(
        2 ** (2 / 3) * 1e300, rel=1e-12
    )
    assert space_norm(mixed.vector([(0, 10**400, 3)]), mixed).value == math.inf


# -- lattice property ---------------------------------------------------------


def test_lattice_scaling_in_l1_is_exact():
    spec = SpaceSpec.lp(1, 4)
    x = spec.vector([(0, 2, 2), (0, 1, 1)])
    half = x.scale(Fraction(1, 2))
    assert space_norm(half, spec).power_exact * 2 == space_norm(x, spec).power_exact


def test_basis_vectors_are_normalized():
    spec = SpaceSpec.trunc_block(4, 16, 2)
    e1 = spec.indicator({0: 1})
    assert space_norm(e1, spec).power_exact == 1


def test_lattice_check_block_sum_200_trials():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(2))
    report = lattice_check(spec)
    assert report.passed, report.failures


# -- JSON loaders -------------------------------------------------------------


def test_space_json_shapes():
    sched = space_from_json({"a": [4, 5, 6], "K": 2})
    assert sched.schedule is not None and sched.schedule.a == (4, 5, 6)
    assert (sched.blocks, sched.inner_p, sched.outer_p) == ((Block(4, 20), Block(20, 120)), 2, 2)
    lp = space_from_json({"lp": 1, "dim": 6})
    assert (lp.blocks, lp.inner_p, lp.outer_p, lp.exact_p) == ((Block(6, 6),), 1, 1, 1)
    tb = space_from_json({"cap": 2, "size": 4, "p": 3})
    assert (tb.blocks, tb.inner_p, tb.outer_p, tb.exact_p) == ((Block(2, 4),), 3, 3, 3)
    bs = space_from_json({"blocks": [[2, 4], [3, 6]], "inner_p": 1})
    assert (bs.blocks, bs.inner_p, bs.outer_p, bs.exact_p) == ((Block(2, 4), Block(3, 6)), 1, 2, None)
    # The blocks and exponents are the space: no label tells an l_p apart from its one block.
    assert SpaceSpec.lp(2, 4) == SpaceSpec.block_sum([(4, 4)]) == SpaceSpec.trunc_block(4, 4)
    with pytest.raises(ValueError):
        space_from_json({"nonsense": 1})
    for k in (0, -1, -2, -3):  # K = -3 once built 4 blocks on a[:-2]
        with pytest.raises(ValueError, match=f"K={k}"):
            space_from_json({"a": [4, 5, 6, 7, 8, 9, 10], "K": k})


def test_integral_float_exponents_are_ints():
    # p = 2.0 is the int 2, so the norm takes the exact route.
    spec = SpaceSpec.lp(2.0, 3)
    assert type(spec.inner_p) is int and type(spec.outer_p) is int and spec.inner_p == 2
    nv = space_norm(spec.vector([(0, 3, 1), (0, 4, 1)]), spec)
    assert nv.power_exact == 25 and nv.value == 5.0


def test_json_integer_fields_take_ints_and_strings_of_ints():
    # A float, even an integral one, was once floored: {"a": [4, 5.5, 6]} read as [4, 5, 6].
    assert space_from_json({"a": ["4", 5, "6"], "K": "2"}) == space_from_json({"a": [4, 5, 6]})
    assert space_from_json({"blocks": [["2", 4]]}) == space_from_json({"blocks": [[2, 4]]})
    for bad in (5.5, 5.0, "5.0", True, [5]):  # not null: "dim": null is an unbounded l_p
        for obj in ({"a": [4, bad, 6]}, {"a": [4, 5, 6], "K": bad}, {"lp": 2, "dim": bad},
                    {"cap": bad, "size": 6}, {"blocks": [[2, bad]]}):
            with pytest.raises(ValueError):
                space_from_json(obj)
    for obj in ([4, 5, 6], {"schedule": [4, 5]}, {"blocks": [[2, 4, 6]]}, {"lp": "2"}, {"lp": None},
                {"a": [3, 5, 6], "allow_slow_start": "false"}):
        with pytest.raises(ValueError):
            space_from_json(obj)


def test_schedule_validation():
    with pytest.raises(ValueError):
        BlockSchedule((3, 5, 6))  # first multiplier below 4
    BlockSchedule((3, 5, 6), allow_slow_start=True)
    with pytest.raises(ValueError):
        BlockSchedule((4, 4, 5))  # not strictly increasing
    sched = BlockSchedule((4, 5, 6, 7))
    assert sched.num_blocks == 3
    assert sched.caps() == [4, 20, 120]
    assert sched.sizes() == [20, 120, 840]
    assert sched.truncate(2).a == (4, 5, 6)


def test_prefix_products_are_refused_past_the_multipliers():
    # n(10) once returned n_4 = 840, and n(-1) returned n_3 = 120.
    sched = BlockSchedule((4, 5, 6, 7))
    assert [sched.n(k) for k in range(5)] == [1, 4, 20, 120, 840]
    with pytest.raises(TruncationError, match="^n_10 needs multiplier a_10; the schedule ends at a_4$"):
        sched.n(10)
    with pytest.raises(ValueError, match="^k must be an integer >= 0, got -1$"):
        sched.n(-1)
