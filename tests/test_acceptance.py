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


def test_criterion_11_fails_on_a_wrong_hl_table(monkeypatch):
    # One h_l value off by one must fail the check.  Were both sides read off
    # the same table, the error would cancel and the check would still pass.
    from greedylab import democracy

    real = democracy._hl_table
    monkeypatch.setattr(democracy, "_hl_table", lambda blocks, max_n: [
        h + (n == 7) for n, h in enumerate(real(blocks, max_n))])
    passed, detail = acceptance.criterion_11()
    assert not passed and "h_l(7)^2 changed" in detail, detail
