"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with -s to see one pass/fail line per criterion; `greedylab verify`
prints the same lines.
"""

import pytest

from greedylab import acceptance


@pytest.mark.parametrize(
    "number,budget",
    [(number, budget) for number, _, _, budget in acceptance.CRITERIA],
    ids=[f"criterion_{c[0]:02d}" for c in acceptance.CRITERIA],
)
def test_criterion(number, budget):
    [result] = acceptance.run_all(only=[number])
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"
    assert result.seconds < budget, f"criterion {number}: {result.seconds:.2f}s, budget {budget}s"


def test_criterion_9_decides_the_values(monkeypatch):
    # Constant quasi-norms make every ratio bracket [1, 1]: the ratios no
    # longer fall, and criterion 9 must say so.
    from greedylab import approx

    monkeypatch.setattr(approx, "quasinorm_bracket", lambda *args: (1.0,) * 3)
    passed, detail = acceptance.criterion_9()
    assert not passed and "does not lie below" in detail, detail
