"""The minimum kernel for concave per-block costs against exhaustive minima."""

import pytest
from hypothesis import given, settings, strategies as st

from greedylab import InvariantError, alloc


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
