"""The allocation kernels against exhaustive minima and the tabulated min-plus."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from greedylab import InvariantError, alloc, explicit


@st.composite
def concave_values(draw):
    """1-5 blocks of size <= 9, as their costs at 0..size: from 0, moving by
    -9..9 per unit, concave, drawn from a pool so that identical costs recur.
    Rising costs let psi shapes (slopes 1 then 0), blocks whose cap is
    their size and types that ``concave_min`` skips all occur."""
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        values = [0]
        for a in sorted((draw(st.integers(-9, 9)) for _ in range(draw(st.integers(1, 9)))),
                        reverse=True):
            values.append(values[-1] + a)
        pool.append(values)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))


def _least_by_n(blocks):
    """Least total cost at every n, over every allocation, one block at a time."""
    best = [0]
    for values in blocks:
        best = [
            min(best[n - m] + values[m] for m in range(len(values)) if 0 <= n - m < len(best))
            for n in range(len(best) + len(values) - 1)
        ]
    return best


@settings(derandomize=True, max_examples=400, deadline=None)
@given(concave_values())
def test_concave_min_equals_the_exhaustive_minimum(blocks):
    want = _least_by_n(blocks)
    costs = [alloc.drop_collinear(list(enumerate(values))) for values in blocks]
    for n, (value, counts) in enumerate(alloc.concave_min(costs, range(len(want)))):
        assert value == want[n]
        assert sum(counts.values()) == n
        assert all(0 < m < len(blocks[b]) for b, m in counts.items())
        assert sum(blocks[b][m] for b, m in counts.items()) == value


def test_concave_min_refuses_targets_past_the_blocks():
    with pytest.raises(ValueError):
        alloc.concave_min([[(0, 0), (2, -1)], [(0, 0), (1, 0)]], [1, 4])


def test_values_off_the_integers_are_refused():
    # The kernels take integer knots with integer slopes between them.  A
    # line through (0, 0) and (2, 1) is 1/2 at 1: there is no int to give,
    # so the kernel raises (not assert: -O keeps it) instead of a Fraction.
    assert alloc._at(0, 0, 2, 4, 1) == 2
    with pytest.raises(InvariantError):
        alloc._at(0, 0, 2, 1, 1)
    with pytest.raises(InvariantError):
        alloc._pair_min([(0, 0), (2, 1)], [(0, 1), (1, 0), (2, 1)])


def _piecewise_linear(rng):
    """Values at 0..T, T in 1..60, of an integer function linear on up to six
    runs, each of an integer slope in -9..9: convex and concave knots occur."""
    size = rng.randint(1, 60)
    ends = sorted(rng.sample(range(1, size), min(rng.randint(0, 5), size - 1))) + [size]
    values = [rng.randint(-20, 20)]
    for start, end in zip([0] + ends, ends):
        y0, a = values[-1], rng.randint(-9, 9)
        values += [y0 + a * t for t in range(1, end - start + 1)]
    return values


def _at_every_n(knots):
    """Values at 0..last of the function given by knots from 0."""
    values = [knots[0][1]]
    for (k0, y0), (k1, y1) in zip(knots, knots[1:]):
        values += [alloc._at(k0, y0, k1, y1, n) for n in range(k0 + 1, k1 + 1)]
    return values


def test_min_plus_equals_the_tabulated_min_plus():
    rng = random.Random(19)
    concave = 0
    for _ in range(400):
        tables = [_piecewise_linear(rng), _piecewise_linear(rng)]
        concave += sum(any(b - a > c - b for a, b, c in zip(t, t[1:], t[2:])) for t in tables)
        got = alloc.min_plus(*(alloc.drop_collinear(list(enumerate(t))) for t in tables))
        want = explicit.min_plus_table(tables, len(tables[0]) + len(tables[1]) - 2)
        assert got[0][0] == 0 and _at_every_n(got) == want, tables
    assert concave > 300  # of the 800 functions
