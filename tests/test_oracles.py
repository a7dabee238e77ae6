"""Every row of the route-oracle registry (``oracles.py``), and the registry's own checks."""

import importlib
import inspect

import pytest

import greedylab
from oracles import NO_ROW, ROWS, check

PAIRS = [(row, family) for row, r in ROWS.items()
         for family, f in r.families.items() if f.runs_in is None]


@pytest.mark.parametrize("row, family", PAIRS, ids=[f"{row} | {family}" for row, family in PAIRS])
def test_route_equals_its_oracle(row, family):
    check(row, family)


def test_families_that_run_elsewhere_run_there():
    # A test file that builds no named_tests would leave its families unrun.
    for row, r in ROWS.items():
        for family, f in r.families.items():
            if f.runs_in is not None:
                module, test = f.runs_in.partition("[")[0].split("::")
                assert (row, family) in getattr(importlib.import_module(module), test).pairs, f.runs_in


def test_every_oracle_lives_in_explicit_and_no_route_does():
    # The static form of a self-comparison: a route checked against itself.
    for row, r in ROWS.items():
        assert r.oracle.__module__ == "greedylab.explicit", row
        assert r.route.__module__.startswith("greedylab."), row
        assert r.route.__module__ != "greedylab.explicit", row


def test_every_exported_function_has_a_row_or_a_reason():
    functions = {name for name in greedylab.__all__ if inspect.isfunction(getattr(greedylab, name))}
    assert functions - {r.route.__name__ for r in ROWS.values()} == set(NO_ROW)


@pytest.mark.parametrize("row", ROWS)
def test_a_wrong_answer_at_one_input_fails_the_row(row):
    with pytest.raises(AssertionError, match=r", input 0 "):
        check(row, next(iter(ROWS[row].families)), wrong_at=0)
