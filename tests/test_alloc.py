"""The allocation kernels: their refusals, and their oracle rows (``oracles.py``)."""

import pytest

from greedylab import InvariantError, alloc
from oracles import named_tests

globals().update(named_tests(__name__))  # this file's families of the route-oracle rows


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

