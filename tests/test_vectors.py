"""Compressed vector canonicalization, indicators and greedy tie descriptors."""

import random
from fractions import Fraction

import pytest

from greedylab import (
    CapacityError,
    CompressedVector,
    canonicalize,
    error_sequence,
    gamma,
    indicator,
    space_norm,
)
from greedylab.explicit import to_explicit
from greedylab.spaces import SpaceSpec


def groups(v):
    return [(b, m, c) for b, m, c in v.groups]


def test_canonicalize_merges_identical_magnitudes():
    v = canonicalize([(0, 1, 3), (0, 1, 2)])
    assert groups(v) == [(0, Fraction(1), 5)]



def test_integral_magnitudes_are_stored_as_ints():
    # "6/3", 2 and Fraction(2) are one magnitude, stored as the int 2;
    # a non-integral magnitude stays a Fraction.
    v = canonicalize([(0, "6/3", 1), (0, 2, 2), (0, Fraction(2), 3), (1, "3/2", 1)])
    assert [(b, type(m), m, c) for b, m, c in v.groups] == [
        (0, int, 2, 6), (1, Fraction, Fraction(3, 2), 1)]
    assert type(CompressedVector.from_json(v.to_json()).groups[0][1]) is int

def test_canonicalize_drops_zero_magnitudes_and_multiplicities():
    v = canonicalize([(0, 2, 1), (0, 0, 7), (1, 3, 0)])
    assert groups(v) == [(0, Fraction(2), 1)]


def test_canonicalize_orders_by_block_then_descending_magnitude():
    v = canonicalize([(1, 1, 5), (0, 3, 1)])
    assert groups(v) == [(0, Fraction(3), 1), (1, Fraction(1), 5)]
    w = canonicalize([(0, 1, 2), (0, 5, 1)])
    assert groups(w) == [(0, Fraction(5), 1), (0, Fraction(1), 2)]


def test_canonicalize_idempotent_on_random_inputs():
    rng = random.Random(0)
    for _ in range(200):
        raw = [
            (rng.randint(0, 3), Fraction(rng.randint(0, 8), rng.randint(1, 4)), rng.randint(0, 5))
            for _ in range(rng.randint(0, 8))
        ]
        once = canonicalize(raw)
        twice = canonicalize(once.groups)
        assert once == twice
        shuffled = rng.sample(raw, len(raw))
        assert CompressedVector(tuple(shuffled)) == once


def test_canonicalize_rejects_negative_inputs():
    with pytest.raises(ValueError):
        canonicalize([(0, -1, 1)])
    with pytest.raises(ValueError):
        canonicalize([(0, 1, -1)])
    with pytest.raises(ValueError):
        canonicalize([(-1, 1, 1)])
    # Non-integral block ids and multiplicities are refused, not truncated.
    for raw in ([(0, 3, 2.5)], [(0.9, 1, 1)], [(0, 1, Fraction(3, 2))], [(0, 1, "2")]):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            canonicalize(raw)
    with pytest.raises(ValueError, match="2.5"):
        SpaceSpec.lp(2, 6).vector([(0, 3, 2.5)])


def test_capacity_error_names_the_block():
    with pytest.raises(CapacityError) as err:
        canonicalize([(1, 1, 7)], sizes=[4, 6])
    assert err.value.block == 1
    assert err.value.requested == 7


def test_indicator_examples():
    assert groups(indicator({0: 9})) == [(0, Fraction(1), 9)]
    assert indicator({}).is_zero
    v = indicator({0: 4, 1: 20})
    assert groups(v) == [(0, Fraction(1), 4), (1, Fraction(1), 20)]
    assert v.support_size == 24


def test_indicator_respects_capacity():
    with pytest.raises(CapacityError):
        indicator({0: 5}, sizes=[4])


def test_greedy_tie_no_tie():
    v = canonicalize([(0, 3, 1), (0, 2, 2), (0, 1, 1)])
    tie = gamma(v, 2, SpaceSpec.lp(2)).tie
    assert tie.threshold == 2 and tie.choose == 1
    assert tie.available == ((0, 2),)


def test_greedy_tie_cross_block_tie():
    # Oracle: of the four unit coordinates, any 2 may be kept; the
    # descriptor must expose the (2, 2) split and choose=2.
    v = canonicalize([(0, 1, 2), (1, 1, 2)])
    tie = gamma(v, 2, SpaceSpec.block_sum([(2, 2), (2, 2)])).tie
    assert tie.threshold == 1
    assert dict(tie.available) == {0: 2, 1: 2}
    assert tie.choose == 2


def test_greedy_tie_trivial_cases():
    v = canonicalize([(0, 2, 3)])
    spec = SpaceSpec.lp(2)
    assert gamma(v, 0, spec).tie.empty
    assert gamma(v, 5, spec).tie.empty


def test_greedy_tie_accounting_invariant():
    # Coordinates above the threshold plus the required tie choices cover
    # N, and a tie leaves a real choice: 0 < choose < supply.
    rng = random.Random(1)
    spec = SpaceSpec.block_sum([(2, 18), (2, 18), (2, 18)])
    for _ in range(300):
        raw = [
            (rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 3))
            for _ in range(rng.randint(0, 6))
        ]
        v = canonicalize(raw)
        n = rng.randint(0, v.support_size + 2)
        tie = gamma(v, n, spec).tie
        if not tie.empty:
            above = sum(c for _, m, c in v.groups if m > tie.threshold)
            assert above + tie.choose == n
            assert 0 < tie.choose < sum(c for _, c in tie.available)
            assert tie.available == tuple((b, c) for b, m, c in v.groups if m == tie.threshold)


def test_json_round_trip():
    v = canonicalize([(0, Fraction(3, 2), 1), (2, 1, 10**40)])
    blob = v.to_json()
    assert blob == {"groups": [[0, "3/2", "1"], [2, "1", str(10**40)]]}
    assert CompressedVector.from_json(blob) == v


def test_spec_vector_validates_block_ids():
    spec = SpaceSpec.block_sum([(2, 4), (3, 6)])
    with pytest.raises(ValueError):
        spec.vector([(5, 1, 1)])


def test_hand_built_vector_is_canonicalized_by_every_query():
    # Unsorted, with a duplicate magnitude, a zero group and int magnitudes.
    spec = SpaceSpec.block_sum([(2, 5), (1, 4)])
    raw = ((1, 1, 2), (0, 2, 1), (0, Fraction(3, 2), 1), (0, 2, 1), (1, 0, 3), (1, 3, 1))
    hand = CompressedVector(raw)
    canon = spec.vector(raw)
    assert hand == canon and hash(hand) == hash(canon)
    assert space_norm(hand, spec) == space_norm(canon, spec)
    for n in range(canon.support_size + 1):
        assert gamma(hand, n, spec) == gamma(canon, n, spec)
    for kind in ("sigma", "gamma"):
        assert error_sequence(hand, spec, kind).knots == error_sequence(canon, spec, kind).knots


def test_hand_built_vector_lays_out_its_support():
    # Two groups of block 0 around one of block 1: laid out group by group,
    # block 0 was visited twice and took 5 nonzero coordinates for 4.
    x = CompressedVector(((0, 3, 1), (1, 2, 2), (0, 5, 1)))
    values = to_explicit(x, SpaceSpec.block_sum([(2, 4), (3, 6)]), random.Random(1))
    nonzero = [abs(v) for v in values if v != 0]
    assert len(nonzero) == x.support_size == 4
    assert sorted(nonzero) == [2, 2, 3, 5]


def test_hand_built_block_groups_descend():
    x = CompressedVector(((0, 3, 1), (1, 2, 2), (0, 5, 1), (0, Fraction(7, 2), 4)))
    assert x.block_groups(0) == [(5, 1), (Fraction(7, 2), 4), (3, 1)]
    assert x.blocks() == [0, 1]


@pytest.mark.parametrize(
    "query",
    [
        lambda x, spec: space_norm(x, spec),
        lambda x, spec: gamma(x, 1, spec),
        lambda x, spec: error_sequence(x, spec, "sigma"),
        lambda x, spec: error_sequence(x, spec, "gamma"),
    ],
    ids=["space_norm", "gamma", "error_sequence_sigma", "error_sequence_gamma"],
)
def test_queries_check_capacity_and_block_range(query):
    # canonicalize without sizes checks nothing; each query checks against its space.
    spec = SpaceSpec.block_sum([(2, 4), (3, 6)])
    for x in (canonicalize([(0, 1, 3), (1, 2, 7)]), CompressedVector(((1, 2, 7), (0, 1, 3)))):
        with pytest.raises(CapacityError) as err:
            query(x, spec)
        assert (err.value.block, err.value.requested) == (1, 7)
    for x in (canonicalize([(2, 1, 1)]), CompressedVector(((2, 1, 1),))):
        with pytest.raises(ValueError, match="outside the 2-block space"):
            query(x, spec)
