"""Quasi-norms, the x_s construction and the optimality experiment."""

import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import greedylab
from greedylab import (
    ApproxParams,
    InvariantError,
    ScheduleTooShallowError,
    SpaceSpec,
    approx_quasinorm,
    arithmetic_schedule,
    build_xs,
    envelope,
    greedy_quasinorm,
    optimality_experiment,
    quasinorm_bracket,
    squares_schedule,
)
from greedylab import approx, explicit
from greedylab.approx import sequence_bound_checks, xs_bound_checks
from greedylab.errorseq import ErrorSequence
from greedylab.explicit import random_vector
from greedylab.spaces import _float_root, space_norm
from oracles import exact_route, named_tests

globals().update(named_tests(__name__))  # this file's families of the route-oracle rows


def _norm(seq) -> float:
    """||x|| = e_0, the p-th root of power(0), which every quasi-norm adds to its series."""
    return _float_root(seq.power(0), seq.p)


def _series(seq, params) -> tuple[float, float, float]:
    """quasinorm_bracket less ||x||: the (lo, value, hi) of the series alone."""
    return tuple(v - _norm(seq) for v in quasinorm_bracket(seq, params))


def _series_oracle(seq, params) -> float:
    """explicit.quasinorm_per_term less ||x||."""
    return explicit.quasinorm_per_term(seq, params) - _norm(seq)


def test_single_coordinate_vector_has_unit_quasinorm():
    spec = SpaceSpec.lp(2, 4)
    e1 = spec.indicator({0: 1})
    for params in (ApproxParams(1, 1), ApproxParams(0.5, 2), ApproxParams(2, math.inf)):
        assert approx_quasinorm(e1, spec, params) == pytest.approx(1.0)
        assert greedy_quasinorm(e1, spec, params) == pytest.approx(1.0)


def test_l1_sup_form_example():
    # ||x|| = 3, sigma_1 = 1, sigma_2 = 0: sup of N^1 sigma_N is 1.
    spec = SpaceSpec.lp(1, 2)
    x = spec.vector([(0, 2, 1), (0, 1, 1)])
    assert approx_quasinorm(x, spec, ApproxParams(1, math.inf)) == pytest.approx(4.0)


def test_quasinorm_summation_is_order_stable():
    xs = build_xs(squares_schedule(3), 2)
    seq = xs.sigma_sequence()
    params = ApproxParams(1, 1)
    norm_x = float(space_norm(xs.x, xs.spec))
    forward = quasinorm_bracket(seq, params)[1]
    # Independent two-pass oracle: materialize the terms, sum reversed.
    terms = []
    for k in range(1, seq.support_size + 1):
        power = seq.power(k)
        if power:
            terms.append(k ** (params.q * params.alpha - 1.0) * float(power) ** (params.q / 2))
    backward = norm_x + math.fsum(reversed(terms)) ** (1.0 / params.q)
    assert forward == pytest.approx(backward, rel=1e-9)


def test_greedy_quasinorm_dominates_and_matches_on_tie_free_lp():
    rng = random.Random(20)
    spec = SpaceSpec.lp(2, 6)
    params = ApproxParams(1, 2)
    for _ in range(20):
        mags = rng.sample(range(1, 60), 4)
        x = spec.vector([(0, m, 1) for m in mags])
        a = approx_quasinorm(x, spec, params)
        g = greedy_quasinorm(x, spec, params)
        assert g == pytest.approx(a, rel=1e-12)
    sched_spec = SpaceSpec.from_schedule(arithmetic_schedule(2))
    for _ in range(20):
        x = random_vector(sched_spec, rng, max_mag=4)
        if x.is_zero:
            continue
        a = approx_quasinorm(x, sched_spec, params)
        g = greedy_quasinorm(x, sched_spec, params)
        assert g >= a - 1e-12


def test_greedy_quasinorm_sup_form_lower_bound_ls4():
    # gamma_k >= ||V^s|| for k <= #M_s gives the (#M_s)^alpha ||V^s|| bound.
    xs = build_xs(squares_schedule(3), 2)
    g = greedy_quasinorm(xs.x, xs.spec, ApproxParams(1, math.inf))
    assert g >= xs.n_s**1 * math.sqrt(xs.v)


def test_greedy_quasinorm_partial_sum_constant():
    # Explicit constant: G-series >= [sum_{k<=#M_s} k^(q a - 1)]^(1/q) ||V^s||.
    xs = build_xs(squares_schedule(3), 3)
    params = ApproxParams(1, 1)
    g = greedy_quasinorm(xs.x, xs.spec, params)
    partial = sum(float(k) ** (params.q * params.alpha - 1.0) for k in range(1, xs.n_s + 1))
    assert g >= partial ** (1.0 / params.q) * math.sqrt(xs.v)


def test_build_xs_fields_squares_schedule():
    sched = squares_schedule(4)
    xs2 = build_xs(sched, 2)
    assert (xs2.hi_block, xs2.n_s, xs2.c, xs2.r, xs2.v) == (0, 36, 4, 1, 36)
    xs4 = build_xs(sched, 4)
    assert (xs4.n_s, xs4.r, xs4.v) == (14400, 2, 7200)
    assert xs4.support_size == 21600 <= 2 * xs4.n_s
    assert all(xs4.checks.values())


def test_build_xs_walks_h_l_once(monkeypatch):
    # The minimizer check and the democracy jump read one doubling-scan row:
    # one concave_min walk answers h_l at n_s and 2 n_s, and no demfun_dp runs.
    from greedylab import democracy

    walks, real = [], democracy.concave_min
    monkeypatch.setattr(democracy, "concave_min", lambda *args: walks.append(args) or real(*args))
    monkeypatch.setattr(democracy, "demfun_dp", None)
    for s in (2, 3, 4, 5):
        walks.clear()
        xs = build_xs(squares_schedule(6), s)
        assert len(walks) == 1 and sorted(walks[0][1]) == [xs.n_s, 2 * xs.n_s]
        assert xs.checks["m_is_hl_minimizer"] and xs.checks["democracy_jump"]


def test_build_xs_and_its_sequences_compute_three_norms(monkeypatch):
    # ||M_s||, ||V^s|| and ||x_s||; both sequences' end checks read the
    # profile's ||x_s||, which is the one build_xs checks.
    from greedylab import greedy

    calls = []

    def counted(*args):
        calls.append(args)
        return space_norm(*args)

    monkeypatch.setattr(approx, "space_norm", counted)
    monkeypatch.setattr(greedy, "space_norm", counted)
    for s in (2, 3, 4):
        calls.clear()
        xs = build_xs(squares_schedule(5), s)
        xs.sigma_sequence(), xs.gamma_sequence()
        assert len(calls) == 3
        assert xs.profile.norm_power == 4 * xs.c + xs.v and xs.checks["xs_norm_power"]


def test_build_xs_too_deep_raises():
    with pytest.raises(ScheduleTooShallowError):
        build_xs(squares_schedule(4), 99)


def test_xs_bound_checks_on_small_instance():
    xs = build_xs(squares_schedule(3), 2)
    checks = xs_bound_checks(xs)
    assert all(checks.values()), checks


def test_non_integer_q_is_supported_in_float():
    spec = SpaceSpec.lp(2, 4)
    x = spec.vector([(0, 3, 1), (0, 1, 2)])
    value = approx_quasinorm(x, spec, ApproxParams(0.7, 1.5))
    assert value > float(space_norm(x, spec))
    assert math.isfinite(value)


def test_envelope_values():
    assert envelope(ApproxParams(1, 1), 2) == pytest.approx(2 / math.sqrt(2))
    assert envelope(ApproxParams(1, math.inf), 4) == pytest.approx(0.5)
    assert envelope(ApproxParams(0.5, 2), 2) == pytest.approx(
        (2**-0.5 + 2**-1.0) ** 0.5
    )


def test_optimality_experiment_report_shape():
    runs = optimality_experiment(squares_schedule(3), [2], [ApproxParams(1, 1)])
    assert isinstance(runs, tuple) and len(runs) == 1
    run = runs[0].to_json()
    assert run["s"] == 2 and run["alpha"] == 1 and run["q"] == 1
    assert run["ratio"] == pytest.approx(run["A"] / run["G"])
    assert run["normalized"] == pytest.approx(run["ratio"] / run["envelope"])
    assert all(run["checks"].values())


def test_exact_runs_are_brackets_of_width_zero():
    # Integer exponents (0.5, 2) and q = inf have exact per-piece routes, so
    # their brackets are their values; (1, 1) sums floats and is bracketed.
    params = [ApproxParams(1, 1), ApproxParams(0.5, 2), ApproxParams(1, math.inf)]
    for run in optimality_experiment(squares_schedule(4), [2, 3, 4], params):
        assert run.a[0] <= run.a[1] <= run.a[2] and run.g[0] <= run.g[1] <= run.g[2]
        assert (run.a[0] == run.a[2] and run.g[0] == run.g[2]) == (run.q != 1)
        if run.q != 1:
            assert run.ratio_bounds == (run.ratio, run.ratio) == (run.a[1] / run.g[1],) * 2
        blob = run.to_json()
        assert (blob["A"], blob["G"]) == (run.a[1], run.g[1])
        assert (blob["A_bounds"], blob["G_bounds"]) == ([run.a[0], run.a[2]], [run.g[0], run.g[2]])
        assert blob["ratio_bounds"] == list(run.ratio_bounds) and "bounded" not in blob
        assert blob["ratio"] == blob["A"] / blob["G"]  # bit for bit, not approx
        assert blob["normalized"] == blob["ratio"] / blob["envelope"]


def test_bound_mode_brackets_the_exact_value():
    (run,) = optimality_experiment(squares_schedule(3), [3], [ApproxParams(1, 1)])
    a_lo, a_value, a_hi = run.a
    g_lo, g_value, g_hi = run.g
    assert a_lo <= a_value <= a_hi
    assert g_lo <= g_value <= g_hi
    assert run.ratio_bounds[0] <= run.ratio <= run.ratio_bounds[1]
    # The brackets should be informative, not vacuous.
    assert a_hi / a_lo < 1.2 and g_hi / g_lo < 1.2


def test_quasinorm_bounds_infinity_is_exact_sup():
    xs = build_xs(squares_schedule(3), 2)
    params = ApproxParams(1, math.inf)
    norm_x = float(space_norm(xs.x, xs.spec))
    seq = xs.sigma_sequence()
    lo, value, hi = quasinorm_bracket(seq, params)
    assert lo == value == hi == norm_x + approx._sup(approx._lines(seq), 1, 2)


def _gamma_closed(g, l, h, c, v, k):
    # Greedy keeps the hi pool first; its ties sit in one block.
    if k >= h + v:
        return 0
    if k <= h:
        return g * min(h - k, c) + l * v
    return l * (h + v - k)


def _sigma_closed(g, l, h, c, v, k):
    # Remove j hi and k - j lo coordinates; the cost is concave in j,
    # so the best split is an end of the feasible window.
    if k >= h + v:
        return 0
    return min(g * min(h - j, c) + l * (v - (k - j)) for j in (max(0, k - v), min(k, h)))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_error_sequences_match_two_pool_closed_forms(s):
    xs = build_xs(squares_schedule(6), s)
    shape = (4, 1, xs.n_s, xs.c, xs.v)
    pairs = ((xs.sigma_sequence(), _sigma_closed), (xs.gamma_sequence(), _gamma_closed))
    for seq, closed in pairs:
        assert seq.support_size == xs.support_size
        ks = set()
        for k, _ in seq.knots:
            ks.update((k - 1, k, k + 1))
        for lo, hi, _y, _a in seq.pieces():
            ks.add((lo + hi) // 2)
        for k in sorted(ks - {-1}):
            assert seq.power(k) == closed(*shape, k), (seq.kind, k)


def test_error_sequence_checks_its_ends(monkeypatch):
    # Knots that miss ||x||^p at k=0 or (support, 0) at the end must
    # raise InvariantError, also under python -O.
    from greedylab import greedy

    xs = build_xs(squares_schedule(2), 2)
    real = greedy._sigma_knots
    monkeypatch.setattr(greedy, "_sigma_knots", lambda *args: real(*args)[1:])
    with pytest.raises(InvariantError):
        xs.sigma_sequence()
    monkeypatch.setattr(greedy, "_gamma_knots", lambda *args: [(0, 52), (72, 1)])
    with pytest.raises(InvariantError):
        xs.gamma_sequence()


def test_error_sequence_end_check_survives_optimization():
    script = (
        "from greedylab import greedy, build_xs, squares_schedule, InvariantError\n"
        "greedy._gamma_knots = lambda *args: [(0, 52), (72, 1)]\n"
        "try:\n"
        "    build_xs(squares_schedule(2), 2).gamma_sequence()\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(greedylab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.stdout == "raised\n", proc.stderr


def test_error_sequence_values_on_spec_example():
    # Schedule a=(4,9,...), s=2: sigma_36^2 = 16 and gamma_10 >= ||V^s|| = 6.
    xs = build_xs(squares_schedule(2), 2)
    assert xs.sigma_sequence().power(36) == 16
    assert xs.gamma_sequence().power(10) == 52 >= 36
    assert xs.sigma_sequence().power(xs.support_size) == 0


# -- O(pieces) routes against their per-term oracles ----------------------------


def test_sigma_le_gamma_reads_both_knot_sets():
    # Each pair agrees at the knots of one sequence and breaks the order
    # only at a knot of the other.
    line = ErrorSequence("sigma", 2, [(0, 4), (4, 0)])
    dip = ErrorSequence("gamma", 2, [(0, 4), (2, 1), (4, 0)])
    bump = ErrorSequence("sigma", 2, [(0, 4), (2, 3), (4, 0)])
    for sigma, gamma in ((line, dip), (bump, line)):
        got = sequence_bound_checks(sigma, gamma, 0, 0, 1, 1)
        assert got == explicit.sequence_bound_checks_per_k(sigma, gamma, 0, 0, 1, 1)
        assert got["sigma_le_gamma"] is False


def test_per_term_series_match_the_oracle_on_fraction_powers():
    # k^e1 is no column at e1 = 0, k itself at e1 = 1 and a pow column
    # otherwise; every term is the oracle's float, so fsum agrees bit for bit.
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 4)
        ks = [0] + sorted(rng.sample(range(1, 1500), n))
        powers = sorted((Fraction(rng.randint(1, 5000), rng.choice((3, 7, 12))) for _ in range(n)),
                        reverse=True) + [0]
        if n > 1 and rng.random() < 0.5:
            powers[1] = powers[0]  # a constant-power piece
        seq = ErrorSequence("sigma", rng.choice((1, 2)), list(zip(ks, powers)))
        for e1 in (0.0, 1.0, -0.5):
            for e2 in (0.5, 0.75):
                params = ApproxParams((e1 + 1) / (e2 * seq.p), e2 * seq.p)
                assert params.q * params.alpha - 1.0 == e1
                assert not exact_route(seq.p, params)
                assert _series(seq, params)[1] == _series_oracle(seq, params)


def test_sup_is_the_max_over_every_k():
    # The closed-form maximizer of each piece picks the largest float term
    # over the whole support.  Pieces fall, rise or stay flat, in int or
    # Fraction powers.
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(1, 6)
        support = rng.randint(n + 1, 2999)
        ks = [0] + sorted(rng.sample(range(1, support), n)) + [support]
        powers = [rng.choice((rng.randint(0, 10**6), Fraction(rng.randint(1, 10**6), 7)))
                  for _ in range(n + 1)] + [0]
        if rng.random() < 0.5:
            powers[:-1] = sorted(powers[:-1], reverse=True)
        if rng.random() < 0.3:
            powers[1] = powers[0]
        seq = ErrorSequence("sigma", rng.choice((1, 2, 3)), list(zip(ks, powers)))
        roots = [_float_root(power, seq.p) for power in seq.powers()]
        for alpha in (0.25, 0.5, 1, 1.3, 2):
            brute = max(k**alpha * roots[k] for k in range(1, support))
            assert approx._sup(approx._lines(seq), alpha, seq.p) == brute


def test_sup_costs_two_terms_per_piece(monkeypatch):
    xs = build_xs(squares_schedule(6), 6)
    calls = []
    real_root = approx._float_root
    monkeypatch.setattr(approx, "_float_root", lambda *a: calls.append(a) or real_root(*a))
    for seq in (xs.sigma_sequence(), xs.gamma_sequence()):
        for alpha in (0.5, 1, 2):
            calls.clear()
            assert math.isfinite(quasinorm_bracket(seq, ApproxParams(alpha, math.inf))[1])
            assert calls[0] == (seq.power(0), seq.p)  # ||x||, then the terms
            assert 0 < len(calls[1:]) <= 2 * len(seq.pieces())


def test_sup_is_the_same_for_int_and_float_alpha():
    # At s = 18 the support passes 2^53: float(k) ** 2.0 rounded k before squaring, moving G.
    xs = build_xs(squares_schedule(48), 18)
    for seq in (xs.sigma_sequence(), xs.gamma_sequence()):
        for alpha in (1, 2, 3):
            as_int = _series(seq, ApproxParams(alpha, math.inf))
            assert _series(seq, ApproxParams(float(alpha), math.inf)) == as_int


def test_alpha_must_be_positive_and_finite():
    # At alpha = inf every term past k = 1 is infinite, and k* has no exact value.
    for alpha in (0, -1, math.inf, math.nan):
        with pytest.raises(ValueError):
            ApproxParams(alpha, math.inf)


def test_q_must_be_positive_or_plus_infinity():
    # q = -inf was once taken for +inf: the check read q > 0 or isinf(q).
    for q in (0, -1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            ApproxParams(1, q)
    assert ApproxParams(1, math.inf).q == math.inf


def test_work_is_bounded_by_knots_not_support(monkeypatch):
    xs = build_xs(squares_schedule(6), 6)
    assert xs.support_size == 38_102_400
    knots = len(xs.sigma_sequence().knots) + len(xs.gamma_sequence().knots)
    calls = []
    real_power = ErrorSequence.power
    monkeypatch.setattr(
        ErrorSequence, "power", lambda self, k: calls.append(k) or real_power(self, k)
    )
    assert all(xs_bound_checks(xs).values())
    assert 0 < len(calls) <= 4 * knots
    # Integer exponents never reach the Euler-Maclaurin kernel, and read
    # power(k) only at k = 0, for ||x||.
    calls.clear()
    monkeypatch.setattr(approx, "_series_parts", None)
    for params in (ApproxParams(0.5, 2), ApproxParams(2, 2), ApproxParams(1, 4)):
        assert math.isfinite(quasinorm_bracket(xs.sigma_sequence(), params)[1])
    assert calls == [0, 0, 0]


def _count_series_parts(monkeypatch):
    """Record how many floats each ``_series_parts`` call returns."""
    counts, real = [], approx._series_parts

    def counted(*args):
        parts, error = real(*args)
        counts.append(len(parts))
        return parts, error

    monkeypatch.setattr(approx, "_series_parts", counted)
    return counts


def test_bounds_are_tight_and_cheap_on_xs_up_to_s6(monkeypatch):
    # Before the second-order brackets, 2,048 uniform subranges per piece
    # cost 12,000+ term evaluations per sequence from s = 4 on, and the
    # bracket at s = 6, (alpha, q) = (0.5, 1) was 1.07 wide (relative); the
    # geometric cuts that followed took up to 3,000 and were 2e-4 wide.
    counts = _count_series_parts(monkeypatch)
    sched = squares_schedule(6)
    params = [ApproxParams(0.5, 1), ApproxParams(1, 1), ApproxParams(2, 1), ApproxParams(1, 1.5)]
    runs = optimality_experiment(sched, range(2, 7), params)
    assert len(counts) == 2 * len(runs) == 40
    assert 0 < max(counts) <= 1200
    for run in runs:
        for lo, value, hi in (run.a, run.g):
            assert lo <= value <= hi, (run.s, run.alpha, run.q)
            assert 0 < hi - lo <= 3e-9 * lo, (run.s, run.alpha, run.q)


def test_linear_terms_cost_one_cut_per_part(monkeypatch):
    # A constant power at e1 in {0, 1} has no singular point, so a long
    # constant piece is one cut however long it is: (f(A) + f(B))/2, four
    # corrections and 20 Gauss nodes, plus the 3 terms of the falling piece.
    counts = _count_series_parts(monkeypatch)
    for params in (ApproxParams(1, 1), ApproxParams(2, 1)):
        counts.clear()
        for n in (10**4, 10**6):
            seq = ErrorSequence("sigma", 2, [(0, 10), (n, 10), (n + 3, 0)])
            lo, _, hi = _series(seq, params)
        assert counts == [28, 28], params
        assert lo <= _series_oracle(seq, params) <= hi <= lo * (1 + 3e-9)


@st.composite
def knot_sequences(draw):
    """Sequences from random knots: int and Fraction powers that fall, stay
    flat (a1 = 0), rise or touch 0 (a zero of g at a piece end)."""
    n = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 1200), min_size=n, max_size=n))
    powers = [0] * (n + 1)
    for i in reversed(range(n)):
        powers[i] = draw(st.one_of(
            st.just(0) if i else st.integers(1, 1000),
            st.just(powers[i + 1]) if powers[i + 1] else st.integers(1, 1000),
            st.integers(1, 1000),
            st.fractions(Fraction(1, 7), 1000, max_denominator=12),
        ))
    ks = [sum(gaps[:i]) for i in range(n + 1)]
    return ErrorSequence("sigma", draw(st.sampled_from([1, 2])), list(zip(ks, powers)))


def test_curvature_brackets_hold_on_knot_sequences(monkeypatch):
    # Every bracket contains the per-term quasi-norm; on these short pieces
    # every term is one float, summed one by one, so the bound adds nothing
    # and the bracket is the 2e-9 margin, q-th rooted.
    counts = _count_series_parts(monkeypatch)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(knot_sequences(), st.floats(-0.99, 2.99), st.floats(0.1, 3.0))
    def check(seq, e1, e2):
        q = e2 * seq.p
        params = ApproxParams((e1 + 1) / q, q)
        counts.clear()
        lo, _, hi = _series(seq, params)
        assert lo <= _series_oracle(seq, params) <= hi <= lo * (1 + 3e-9 / q)
        assert counts in ([], [seq.support_size - 1])

    check()


def test_bounds_term_count_is_bounded_at_depth(monkeypatch):
    # Float root and cut estimates once made s = 14 sum ~1e23 terms one by one.
    counts = _count_series_parts(monkeypatch)
    xs = build_xs(squares_schedule(22), 20)
    for seq in (xs.sigma_sequence(), xs.gamma_sequence()):
        lo, value, hi = quasinorm_bracket(seq, ApproxParams(0.5, 1))
        assert 0 < lo <= value <= hi <= lo * (1 + 3e-9)
    assert len(counts) == 2 and 0 < max(counts) <= 6000


def _series_bracket(seq, params):
    """quasinorm_bracket's (lo, hi) less ||x|| from _series_parts, taken also where
    the exponents are integers and quasinorm_bracket sums exactly."""
    q = params.q
    parts, error = approx._series_parts(approx._lines(seq), q * params.alpha - 1.0, q / seq.p)
    total = math.fsum(parts)
    lo, hi = max(0.0, total * (1 - 1e-9) - error), total * (1 + 1e-9) + error
    return lo ** (1.0 / q), hi ** (1.0 / q)


@pytest.mark.parametrize("s", [14, 20])
def test_bounds_contain_the_exact_value_at_depth(s):
    # Integer exponents have an exact value; the Euler-Maclaurin brackets must hold it.
    # k^27 (3 - 3k/5000)^14 has degree 41 > 39, so the Gauss error is not 0.
    xs = build_xs(squares_schedule(s + 2), s)
    degree_41 = ErrorSequence("sigma", 2, [(0, 3), (5000, 0)])
    cases = [
        (seq, params)
        for seq in (xs.sigma_sequence(), xs.gamma_sequence())
        for params in (ApproxParams(1, 2), ApproxParams(1.5, 2), ApproxParams(2, 2))
    ] + [(degree_41, ApproxParams(1, 28))]
    for seq, params in cases:
        lo, hi = _series_bracket(seq, params)
        assert lo <= _series(seq, params)[1] <= hi <= lo * (1 + 3e-9), (seq.kind, params)
    assert approx._series_parts(approx._lines(degree_41), 27.0, 14.0)[1] > 0


def test_exact_sum_past_float_range_is_finite():
    # The series is 10^290 * sum_{k<n} k^3 (n - k) for n = 10^10, about
    # 5e338: past the float range, while its square root is not.
    n = 10**10
    seq = ErrorSequence("sigma", 2, [(0, 10**300), (n, 0)])
    m = n - 1
    cubes = (m * (m + 1) // 2) ** 2
    fourths = m * (m + 1) * (2 * m + 1) * (3 * m * m + 3 * m - 1) // 30
    total = 10**290 * (n * cubes - fourths)
    lo, value, hi = quasinorm_bracket(seq, ApproxParams(2, 2))
    assert lo == value == hi
    assert value - 1e150 == pytest.approx(math.isqrt(total), rel=1e-15)  # ||x|| = 10^150
    assert 2.23e169 < value - 1e150 < 2.24e169


def test_series_past_the_float_range_are_infinite():
    # The q = inf maximum k^2 g(k)^(1/2), a long piece's Euler-Maclaurin
    # floats and a short piece's terms each leave the float range here, where
    # they once raised OverflowError; the CLI refuses an infinite report.
    cases = [
        (ErrorSequence("sigma", 2, [(0, 10**10), (10**200, 0)]), ApproxParams(2, math.inf)),
        (ErrorSequence("sigma", 2, [(0, 10**600), (5000, 0)]), ApproxParams(1, 1)),
        (ErrorSequence("sigma", 2, [(0, 10**600), (5, 0)]), ApproxParams(1, 1)),
    ]
    for seq, params in cases:
        assert quasinorm_bracket(seq, params) == (math.inf,) * 3, params


KERNEL_PAIRS = [ApproxParams(0.5, 1), ApproxParams(1, 1), ApproxParams(2, 1), ApproxParams(1, 1.5)]


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_series_kernel_matches_the_per_term_oracle_on_xs(s):
    # From s = 4 on, x_s has pieces longer than DIRECT, summed by Euler-Maclaurin.
    xs = build_xs(squares_schedule(s + 2), s)
    pairs = KERNEL_PAIRS + [ApproxParams(0.7, 1.3)] if s < 5 else [ApproxParams(0.5, 1)]
    for seq in (xs.sigma_sequence(), xs.gamma_sequence()):
        for params in pairs:
            oracle = explicit.quasinorm_per_term(seq, params)
            assert quasinorm_bracket(seq, params)[1] == pytest.approx(oracle, rel=1e-14)


def test_series_kernel_matches_the_per_term_oracle_on_long_pieces():
    # Seeded knots: falling and constant pieces, int and Fraction powers, p in {1, 2}.
    rng = random.Random(30)
    long_pieces = 0
    for p in (1, 2):
        for _ in range(2):
            ks = [0] + sorted(rng.sample(range(1, 12000), 3))
            powers = sorted((rng.choice((rng.randint(1, 10**6), Fraction(rng.randint(1, 10**6), 7)))
                             for _ in range(3)), reverse=True) + [0]
            powers[1] = powers[0]  # a constant piece
            seq = ErrorSequence("sigma", p, list(zip(ks, powers)))
            long_pieces += sum(hi - lo >= approx.DIRECT for lo, hi, _, _ in approx._lines(seq))
            for e1 in (-0.5, 0.0, 0.5, 1.0):
                for e2 in (0.5, 0.75):
                    params = ApproxParams((e1 + 1) / (e2 * p), e2 * p)
                    assert params.q * params.alpha - 1.0 == e1
                    assert _series(seq, params)[1] == pytest.approx(_series_oracle(seq, params), rel=1e-14)
    assert long_pieces >= 4


# A and G brackets of an earlier, independent bounds mode (geometric cuts
# bracketed by Jensen's bound and the chord): see the file's header.
PARENT_BRACKETS = json.loads((Path(__file__).parent / "data" / "xs_parent_brackets.json").read_text())


@pytest.mark.parametrize("params", KERNEL_PAIRS)
def test_exact_values_lie_in_their_brackets_to_s40(params):
    sched, s_values = squares_schedule(42), range(2, 41)
    runs = optimality_experiment(sched, s_values, [params])
    parent = PARENT_BRACKETS["brackets"][f"{params.alpha:g} {params.q:g}"]
    assert len(runs) == len(parent) == 39
    for run, (s, *old) in zip(runs, parent):
        assert run.s == s
        assert run.ratio_bounds[0] <= run.ratio <= run.ratio_bounds[1], (run.s, run.alpha, run.q)
        for (lo, value, hi), (old_lo, old_hi) in zip((run.a, run.g), (old[:2], old[2:])):
            assert lo <= value <= hi, (run.s, run.alpha, run.q)
            assert old_lo <= value <= old_hi, (run.s, run.alpha, run.q)  # inside the parent's bracket
            assert lo <= old_hi and old_lo <= hi, (run.s, run.alpha, run.q)  # and the two meet
            assert hi - lo <= 3e-9 * lo, (run.s, run.alpha, run.q)


def test_kernel_work_at_s40_is_pinned():
    # Floats summed per series: direct terms, 20 Gauss nodes per cut and five
    # Euler-Maclaurin parts per long piece, on a support of 100 digits.
    xs = build_xs(squares_schedule(42), 40)
    counts = [len(approx._series_parts(approx._lines(seq), e1, 0.5)[0])
              for seq in (xs.sigma_sequence(), xs.gamma_sequence()) for e1 in (-0.5, 0.0, 1.0)]
    assert counts == [13103, 6579, 6579, 13083, 6559, 6559]


def test_singular_points_past_2_53_stay_exact():
    # K = n is a Fraction's zero past 2^53: taken as a float, distances to it
    # collapse (g was once evaluated to 0.0, and cuts ran into the thousands).
    n = 2**60 + 7
    seq = ErrorSequence("sigma", 2, [(0, 3 * n + 1), (n, 0)])
    for params in (ApproxParams(0.5, 1), ApproxParams(1, 1), ApproxParams(1, 1.5)):
        parts, _ = approx._series_parts(approx._lines(seq), params.q * params.alpha - 1.0, params.q / 2)
        assert len(parts) <= 2 * approx.NEAR + 5 + 20 * 2 * 61
        lo, value, hi = _series(seq, params)
        assert lo <= value <= hi


def test_a_large_last_correction_raises(monkeypatch):
    xs = build_xs(squares_schedule(6), 4)
    quasinorm_bracket(xs.sigma_sequence(), ApproxParams(0.5, 1))
    monkeypatch.setattr(approx, "EULER_MACLAURIN", approx.EULER_MACLAURIN[:3] + (1.0,))
    with pytest.raises(InvariantError):
        quasinorm_bracket(xs.sigma_sequence(), ApproxParams(0.5, 1))


def _quarter_power_sums(seq, pairs):
    """sum_k k^e1 power(k)^e2 over the support, in 40-digit decimals, for each
    (e1, e2) in pairs, all multiples of 1/4: fourth roots are two square roots."""
    totals = dict.fromkeys(pairs, Decimal(0))
    with localcontext() as ctx:
        ctx.prec = 40
        for lo, hi, c0, a1 in approx._lines(seq):
            for k in range(lo, hi + 1):
                g = c0 + a1 * k
                k4, g4 = Decimal(k).sqrt().sqrt(), (Decimal(g.numerator) / g.denominator).sqrt().sqrt()
                for e1, e2 in pairs:
                    totals[e1, e2] += k4 ** int(4 * e1) * g4 ** int(4 * e2)
    return totals


def test_brackets_hold_a_40_digit_sum_on_long_pieces():
    # Seeded knots with pieces longer than DIRECT: falling and constant, int
    # and Fraction powers, p in {1, 2}; the bound is what certifies the long pieces.
    rng = random.Random(32)
    pairs = [(e1, e2) for e1 in (-0.5, 0.0, 0.5, 1.0) for e2 in (0.5, 0.75)]
    long_pieces = 0
    for p in (1, 2):
        for _ in range(2):
            ks = list(accumulate((rng.randint(100, 4000) for _ in range(3)), initial=0))
            powers = sorted((rng.choice((rng.randint(1, 10**6), Fraction(rng.randint(1, 10**6), 7)))
                             for _ in range(3)), reverse=True) + [0]
            powers[1] = powers[0]  # a constant piece
            seq = ErrorSequence("sigma", p, list(zip(ks, powers)))
            long_pieces += sum(hi - lo >= approx.DIRECT for lo, hi, _, _ in approx._lines(seq))
            for (e1, e2), exact in _quarter_power_sums(seq, pairs).items():
                parts, error = approx._series_parts(approx._lines(seq), e1, e2)
                total = math.fsum(parts)
                assert total * (1 - 1e-9) - error <= exact <= total * (1 + 1e-9) + error
                assert 2 * (1e-9 * total + error) <= 3e-9 * total
                params = ApproxParams((e1 + 1) / (e2 * p), e2 * p)
                lo, _, hi = _series(seq, params)
                assert lo <= float(exact ** (Decimal(1) / Decimal(params.q))) <= hi
    assert long_pieces >= 4


def test_brackets_stay_tight_at_large_exponents():
    # At e1 + e2 = 64.5 an unhalved cut as long as its distance to the zero of g
    # has a Gauss term above the whole piece's sum: E = 1.08 S.
    seq = ErrorSequence("sigma", 2, [(0, 20475), (20475, 0)])
    parts, error = approx._series_parts(approx._lines(seq), 35.5, 29.0)
    total = math.fsum(parts)
    exact = _quarter_power_sums(seq, [(35.5, 29.0)])[35.5, 29.0]
    assert total * (1 - 1e-9) - error <= exact <= total * (1 + 1e-9) + error
    assert error <= 1e-4 * total
    # Halving stops where f is flat across a cut, so a 10^6-term piece stays cheap.
    seq = ErrorSequence("sigma", 2, [(0, Fraction(1, 10**6)), (10**6, 0)])
    parts, error = approx._series_parts(approx._lines(seq), 30.5, 29.0)
    assert len(parts) <= 10_000 and error <= 1e-4 * math.fsum(parts)


def test_interpolation_on_consecutive_nodes_is_exact():
    rng = random.Random(35)
    for degree in (0, 1, 2, 5, 17, 40):
        coefficients = [rng.randint(-10**30, 10**30) for _ in range(degree + 1)]
        poly = lambda m: sum(c * m**j for j, c in enumerate(coefficients))
        for n in (degree + 1, degree + 2, rng.randint(degree + 3, 10**6), 10**40 + 7):
            assert approx._interpolate([poly(m) for m in range(degree + 1)], n) == poly(n)


def test_a_larger_error_constant_widens_the_bracket(monkeypatch):
    # The bound is live on every long piece: inflating c20 or the L_n moves both ends out.
    xs = build_xs(squares_schedule(6), 4)
    seq, params = xs.sigma_sequence(), ApproxParams(0.5, 1)
    lo, _, hi = _series(seq, params)
    leibniz = approx._leibniz

    def inflated(by8, by40):
        def patched(e1, e2):
            rows, l8, l40 = leibniz(e1, e2)
            return rows, l8 * by8, l40 * by40
        return patched

    for name, value in (("GAUSS_ERROR", approx.GAUSS_ERROR * 1e60),
                        ("_leibniz", inflated(1e10, 1.0)), ("_leibniz", inflated(1.0, 1e60))):
        with monkeypatch.context() as patch:
            patch.setattr(approx, name, value)
            wide_lo, _, wide_hi = _series(seq, params)
        assert wide_lo < lo and hi < wide_hi, name


def test_envelope_stays_positive_at_large_q():
    # s^(-q/2) underflows past q ~ 2,100 at s = 2; the root of the sum does not.
    assert envelope(ApproxParams(1, 3000), 2) == pytest.approx(2**-0.5 * 2 ** (1 / 3000), rel=1e-15)
    assert envelope(ApproxParams(0.5, 3000), 2) == pytest.approx(2**-0.25, rel=1e-15)
    assert envelope(ApproxParams(2, 3000), 2) == pytest.approx(2**-0.5, rel=1e-15)


def _power_sums(top, n):
    """[S_0(n), ..., S_top(n)] with S_m(n) = 1^m + 2^m + ... + n^m, exact.

    Faulhaber's sums by Pascal's recurrence: summing (k+1)^(m+1) - k^(m+1)
    over k = 1..n gives (n+1)^(m+1) - 1 = sum_{j<=m} C(m+1, j) S_j(n).
    """
    sums = []
    for m in range(top + 1):
        rest = sum(math.comb(m + 1, j) * s for j, s in enumerate(sums))
        sums.append(((n + 1) ** (m + 1) - 1 - rest) // (m + 1))
    return sums


def _faulhaber_total(lines, e1, e2):
    """sum_k k^e1 (c0 + a1 k)^e2 over the lines, by the binomial expansion and power sums."""
    total = 0
    for lo, hi, c0, a1 in lines:
        upper, lower = _power_sums(e1 + e2, hi), _power_sums(e1 + e2, lo - 1)
        total += sum(math.comb(e2, j) * c0 ** (e2 - j) * a1**j * (upper[e1 + j] - lower[e1 + j])
                     for j in range(e2 + 1))
    return total


def _per_term_total(lines, e1, e2):
    return sum(Fraction(k) ** e1 * (c0 + a1 * k) ** e2
               for lo, hi, c0, a1 in lines for k in range(lo, hi + 1))


def test_largest_end_term_bounds_the_exact_sum_below():
    # The log2 bound that refuses huge integer exponents before summing never
    # exceeds the exact sum's log2, on int and Fraction knots.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 4)
        ks = [0] + sorted(rng.sample(range(1, 3000), n))
        powers = [rng.choice((rng.randint(0, 10**6), Fraction(rng.randint(1, 10**6), 7)))
                  for _ in range(n)] + [0]
        lines = approx._lines(ErrorSequence("sigma", 2, list(zip(ks, powers))))
        e1, e2 = rng.randint(0, 40), rng.randint(1, 20)
        total = Fraction(approx._exact_sum(lines, e1, e2))
        bound = approx._largest_end_log2(lines, float(e1), float(e2))
        assert -math.inf < bound <= math.log2(total.numerator) - math.log2(total.denominator)


@pytest.mark.parametrize("knots", [
    [(1, 4), (3, 0)],  # power(0) would extrapolate past the first knot
    [(0, 4), (3, 1)],  # power(3) would read 0
    [(0, 4), (0, 3), (2, 0)],  # a piece of zero width
    [(0, 4), (2, -1), (3, 0)],
    [],
])
def test_error_sequence_refuses_knots_off_its_contract(knots):
    with pytest.raises(ValueError):
        ErrorSequence("sigma", 2, knots)


def test_short_pieces_of_integer_series_are_summed_directly():
    # Pieces of 1, 9, 40 and 700 terms: at most d + 1 = 2q go term by term,
    # the rest through Newton's forward differences; the exact totals agree
    # with Faulhaber's.
    seq = ErrorSequence("sigma", 1, [(0, 900), (2, 880), (11, Fraction(1234, 3)), (51, 77), (751, 0)])
    lines = approx._lines(seq)
    for q in (2, 3, 100):
        params = ApproxParams(1, q)
        exact = _faulhaber_total(lines, q - 1, q)
        assert approx._exact_sum(lines, q - 1, q) == exact
        assert quasinorm_bracket(seq, params) == (_norm(seq) + _float_root(exact, q),) * 3


def test_exact_sum_matches_faulhaber_and_per_term_sums():
    # Seeded pieces of n terms, d = e1 + e2: n <= d + 1 (summed term by term),
    # d + 1 < n < (d + 1)^2 and n >= (d + 1)^2 (both by forward differences),
    # with int knots (scale 1) and Fraction knots (scale > 1).
    rng = random.Random(34)
    kinds = set()
    for _ in range(60):
        e1, e2 = rng.randint(0, 6), rng.randint(1, 5)
        d = e1 + e2
        lines, lo = [], rng.randint(1, 50)
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            bounds = ((1, d + 1), (d + 2, (d + 1) ** 2 - 1), ((d + 1) ** 2, 3000))[kind]
            n, scale = rng.randint(*bounds), rng.choice((1, 1, 3, 7, 12))
            c0, a1 = Fraction(rng.randint(-10**6, 10**6), scale), Fraction(rng.randint(-1000, 1000), scale)
            if scale == 1:
                c0, a1 = int(c0), int(a1)
            kinds.add((kind, math.lcm(c0.denominator, a1.denominator) > 1))
            lines.append((lo, lo + n - 1, c0, a1))
            lo += n
        got = approx._exact_sum(lines, e1, e2)
        assert got == _faulhaber_total(lines, e1, e2) == _per_term_total(lines, e1, e2), (e1, e2, lines)
        if all(type(c) is int and type(a) is int for _, _, c, a in lines):
            assert type(got) is int
    assert kinds == {(kind, frac) for kind in range(3) for frac in (False, True)}
    # Large integer q (alpha = 1, q = 1000 on p = 2) on pieces of at most d + 1 = 1500
    # terms; Faulhaber's recurrence would take some 30 s at degree 1499.
    for lines in ([(1, 1, 3, -1)], [(2, 9, 72, -1), (10, 40, Fraction(186, 5), Fraction(-6, 5))]):
        assert approx._exact_sum(lines, 999, 500) == _per_term_total(lines, 999, 500)
