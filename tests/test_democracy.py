"""Democracy functions: DP vs the h_l recurrence vs brute force, scans, CGHM."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedylab import (
    BlockSchedule,
    DemPoint,
    SpaceSpec,
    TruncationError,
    arithmetic_schedule,
    cghm_construct,
    condition71_check,
    demfun_dp,
    demfun_table,
    doubling_scan,
    gamma,
    prefix_norm_conjecture_check,
    squares_schedule,
)
from greedylab import alloc, democracy, explicit
from greedylab.democracy import one_plus_log2, sqrt_of
from greedylab.explicit import demfun_bruteforce
from greedylab.greedy import GreedyProfile
from greedylab.spaces import space_norm


TOY = SpaceSpec.block_sum([(2, 4), (3, 6)])


def _oracle_table(spec, max_n):
    """(h_l^p, h_r^p) tables for n = 0..max_n from the allocation-DP oracle."""
    return explicit.alloc_dp([(b.cap, b.size) for b in spec.blocks], max_n)


def _oracle_points(spec, max_n):
    """(h_l^p, h_r^p) at each n = 0..max_n from the allocation-DP oracle."""
    return list(zip(*_oracle_table(spec, max_n)))


def test_toy_dp_equals_bruteforce_all_n():
    assert _oracle_points(TOY, 10) == [demfun_bruteforce(TOY, n) for n in range(11)]


def test_dp_equals_bruteforce_on_shrunken_truncations():
    # Finite truncations with small universes, exhaustive over N and subsets.
    # (The brute force enumerates subsets of the finite universe, so the
    # comparison uses plain block sums, not infinite-schedule windows.)
    for blocks in ([(4, 12)], [(2, 5), (4, 8)]):
        spec = SpaceSpec.block_sum(blocks)
        total = sum(s for _, s in blocks)
        assert _oracle_points(spec, total) == [demfun_bruteforce(spec, n) for n in range(total + 1)]


def test_dp_oracle_refuses_n_past_the_blocks():
    blocks = [(2, 4), (3, 6)]
    assert explicit.alloc_dp(blocks, 10)[0][-1] == 5
    for max_n in (-1, 11):
        with pytest.raises(ValueError):
            explicit.alloc_dp(blocks, max_n)
    assert explicit.alloc_dp([], 0) == ([0], [0])
    with pytest.raises(ValueError):
        explicit.alloc_dp([], 1)


def test_toy_example_values():
    point = demfun_dp(TOY, 4)
    assert point.hl_power == 2  # all four in the first block
    assert point.hr_power == 4


def test_demfun_dp_at_zero_withholds_the_side_not_asked():
    # N = 0 once had its own answer, which filled h_r under which="hl".
    for spec in (TOY, SpaceSpec.from_schedule(arithmetic_schedule(3))):
        assert demfun_dp(spec, 0, which="hl") == DemPoint(0, 0, None, (), ())
        assert demfun_dp(spec, 0, which="hr") == DemPoint(0, None, 0, (), ())
        assert demfun_dp(spec, 0) == DemPoint(0, 0, 0, (), ())


def test_bruteforce_symmetric_space():
    spec = SpaceSpec.lp(1, 6)
    assert demfun_bruteforce(spec, 3) == (3, 3)
    assert demfun_bruteforce(spec, 0) == (0, 0)


def test_demfun_witnesses_achieve_their_values():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(3))
    for n in (1, 17, 40, 120):
        point = demfun_dp(spec, n)
        for witness, value in ((point.witness_l, point.hl_power), (point.witness_r, point.hr_power)):
            assert sum(m for _, m in witness) == n
            cost = sum(min(m, spec.blocks[b].cap) for b, m in witness)
            assert cost == value
    # h_r fills the caps first, then the rest of each block, in block order.
    assert demfun_dp(TOY, 7).witness_r == ((0, 4), (1, 3))


def test_dp_equals_extreme_on_random_block_structures():
    # The recurrence's two candidates rest on a concavity argument; check
    # them against the DP on arbitrary (cap, size) configurations, all n.
    rng = random.Random(99)
    for _ in range(60):
        blocks = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 18)
            blocks.append((rng.randint(1, size), size))
        spec = SpaceSpec.block_sum(blocks)
        total = sum(s for _, s in blocks)
        for n, dp in enumerate(_oracle_points(spec, total)):
            ex = demfun_dp(spec, n, method="extreme")
            assert dp == (ex.hl_power, ex.hr_power)


def test_dp_equals_extreme_on_schedules():
    for sched in (arithmetic_schedule(3), squares_schedule(2)):
        spec = SpaceSpec.from_schedule(sched)
        deepest = max(b.size for b in spec.blocks)
        caps = sum(b.cap for b in spec.blocks)
        oracle = _oracle_points(spec, 200)
        for n in range(1, 201):
            dp_l, dp_r = oracle[n]
            ex_l = demfun_dp(spec, n, method="extreme", which="hl").hl_power
            assert dp_l == ex_l, f"hl mismatch at n={n} on {sched.a}"
            if n <= caps:
                ex_r = demfun_dp(spec, n, method="extreme", which="hr").hr_power
                assert dp_r == ex_r == n


def test_spec_example_values_on_456():
    # The infinite space with leading multipliers 4,5,6 answers h_r(40)
    # once block 3 is materialized.
    spec = SpaceSpec.from_schedule(arithmetic_schedule(3))
    p20 = demfun_dp(spec, 20)
    assert (p20.hl_power, p20.hr_power) == (4, 20)
    p40 = demfun_dp(spec, 40)
    assert (p40.hl_power, p40.hr_power) == (20, 40)
    p1 = demfun_dp(spec, 1)
    assert (p1.hl_power, p1.hr_power) == (1, 1)


def test_adequacy_errors():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(3))  # sizes up to 840
    with pytest.raises(TruncationError):
        demfun_dp(spec, 1000, which="hl")
    with pytest.raises(TruncationError):
        demfun_dp(spec, 200, which="hr")  # caps sum to 144
    # h_l(200) is answerable even though h_r(200) is not: fill blocks 0 and 1
    # past their caps (4 + 20) and put the remaining 60 in block 2.
    assert demfun_dp(spec, 200, which="hl").hl_power == 84
    ad_hoc = SpaceSpec.block_sum([(2, 4), (3, 6)])
    with pytest.raises(ValueError):
        demfun_dp(ad_hoc, 11)
    with pytest.raises(ValueError):
        demfun_table(ad_hoc, -1)


def test_demfun_table_refuses_an_unknown_side():
    # which="foo" once skipped both truncation checks: a max_n = 300 table
    # with 141 h_l entries and h_r padded at 24.
    spec = SpaceSpec.from_schedule(arithmetic_schedule(2))
    with pytest.raises(ValueError, match="which"):
        demfun_table(spec, 300, which="foo")


def test_mixed_exponents_are_refused():
    # h^p = sum min(m_k, cap_k) holds only when inner_p == outer_p: here the
    # 4-point indicator norms run from 2 to sqrt(10), not from sqrt(2) to 2.
    spec = SpaceSpec.block_sum([(2, 4), (3, 6)], inner_p=1, outer_p=2)
    for query in (lambda: demfun_dp(spec, 4), lambda: demfun_table(spec, 4)):
        with pytest.raises(ValueError, match="inner_p == outer_p"):
            query()
    sched = BlockSchedule((4, 5, 6, 7), outer_p=2, inner_p=1)
    with pytest.raises(ValueError, match="inner_p == outer_p"):
        doubling_scan(sched, [1])
    with pytest.raises(ValueError, match="inner_p == outer_p"):
        prefix_norm_conjecture_check(sched, range(1, 5))


def test_table_monotone_and_doubling():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(4))
    table = demfun_table(spec, 140)
    hl = [table.hl_power(n) for n in range(141)]
    hr = [table.hr_power(n) for n in range(141)]
    assert all(a <= b for a, b in zip(hl, hl[1:]))
    assert all(a <= b for a, b in zip(hr, hr[1:]))
    assert all(l <= r for l, r in zip(hl, hr))
    for n in range(1, 71):
        assert hr[2 * n] <= 4 * hr[n]  # h_r(2N) <= 2 h_r(N) on squares


def test_table_withholds_unrequested_side():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(2))
    table = demfun_table(spec, 100, which="hl")
    with pytest.raises(TruncationError):
        table.hr_power(50)


# -- doubling scan -------------------------------------------------------------


def test_doubling_scan_4567():
    report = doubling_scan(arithmetic_schedule(3), [1, 2])
    k1, k2 = report.rows
    assert k1.ratio_sq == 5 and k1.bound_sq == Fraction(10, 3)
    assert k2.ratio_sq == 6 and k2.bound_sq == 4
    assert k1.bound_holds and k2.bound_holds
    assert k1.upper_equality and k2.upper_equality
    assert report.ratios_increasing and report.non_doubling_witnessed


def test_doubling_scan_refuses_shallow_schedule():
    with pytest.raises(TruncationError):
        doubling_scan(arithmetic_schedule(1), [1])
    with pytest.raises(TruncationError):
        doubling_scan(arithmetic_schedule(3), [3])
    # Every row is checked before any is answered, and the smallest k that
    # fails names the refusal: k = 3 needs a deeper block, k = 4 a multiplier.
    with pytest.raises(TruncationError, match="materialized block"):
        doubling_scan(arithmetic_schedule(3), [1, 4, 3])
    with pytest.raises(TruncationError, match="a_5"):
        doubling_scan(arithmetic_schedule(3), [4, 1])


def test_doubling_scan_refuses_no_k():
    # A report with no rows would pass having checked nothing.
    with pytest.raises(ValueError, match="^doubling scan needs at least one block index k"):
        doubling_scan(arithmetic_schedule(3), [])
    with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
        doubling_scan(arithmetic_schedule(3), [0, 1])


def test_doubling_scan_is_one_walk_of_two_states_per_row(monkeypatch):
    sched = arithmetic_schedule(201)
    spec = SpaceSpec.from_schedule(sched)
    states = _count_states(monkeypatch)
    report = doubling_scan(sched, range(1, 201))
    # Each row's two N skip every block type above the one that takes their
    # units, so the scan costs two states per row, not one per type and row.
    assert len(states) <= 2 * 201
    for row in report.rows:
        assert row.hl_n_power == demfun_dp(spec, row.n_k1, which="hl").hl_power
        assert row.hl_2n_power == demfun_dp(spec, 2 * row.n_k1, which="hl").hl_power


@pytest.mark.parametrize("sched", [arithmetic_schedule(401), squares_schedule(60)])
def test_doubling_ratio_is_the_next_multiplier_on_every_row(sched):
    # h_l(n_{k+1})^2 = n_k and h_l(2 n_{k+1})^2 = n_{k+1} on every row scanned,
    # so the squared ratio is exactly a_{k+1}, above the guaranteed (2/3) a_{k+1}.
    report = doubling_scan(sched, range(1, sched.num_blocks))
    assert len(report.rows) == sched.num_blocks - 1
    for row in report.rows:
        assert row.ratio_sq == row.a_k1 and row.upper_equality


# -- prefix-norm comparison ------------------------------------------------------


def test_prefix_matches_hl_at_small_n():
    report = prefix_norm_conjecture_check(arithmetic_schedule(3), [1, 20, 24])
    assert report.all_equal
    rows = {n: (pre, hl) for n, pre, hl in report.rows}
    assert rows[20] == (4, 4)
    assert rows[24] == (8, 8)
    assert rows[1] == (1, 1)


def test_prefix_counterexample_at_40_is_surfaced():
    # First 40 unit vectors fill Y0 and half of Y1: power 4 + 20 = 24,
    # but h_l(40)^2 = 20 (all 40 indices inside Y1).  The conjectured
    # equality fails here and must be reported, not hidden.
    report = prefix_norm_conjecture_check(arithmetic_schedule(3), range(1, 61))
    assert 40 in report.counterexamples
    row40 = next(r for r in report.rows if r[0] == 40)
    assert row40 == (40, 24, 20)
    assert not report.all_equal


def test_prefix_norm_bounds_hl_and_the_counterexamples_are_where_it_is_strict():
    # The prefix norm is h_l's first candidate, so h_l <= prefix norm at every N;
    # the prefix comes from the norm of the first N unit vectors, block 0 first.
    rng, strict = random.Random(35), 0
    for _ in range(10):
        a = [rng.randint(4, 6)]
        for _ in range(rng.randint(1, 3)):
            a.append(a[-1] + rng.randint(1, 3))
        sched = BlockSchedule(tuple(a))
        spec = SpaceSpec.from_schedule(sched)
        sizes, deepest = spec.sizes(), spec.sizes()[-1]
        prefix = []
        for n in range(deepest + 1):
            counts, left = {}, n
            for b, size in enumerate(sizes):
                counts[b] = min(size, left)
                left -= counts[b]
            prefix.append(space_norm(spec.indicator(counts), spec).power_exact)
        hl = demfun_table(spec, deepest, which="hl").hl_powers
        assert all(h <= pre for h, pre in zip(hl, prefix))
        report = prefix_norm_conjecture_check(sched, range(deepest + 1))
        assert list(report.rows) == [(n, prefix[n], hl[n]) for n in range(deepest + 1)]
        assert list(report.counterexamples) == [n for n in range(deepest + 1) if hl[n] < prefix[n]]
        strict += len(report.counterexamples)
    assert strict


def test_hl_table_reads_its_first_candidate_off_itself(monkeypatch):
    # The h_l table builds no prefix-norm column; prefix-check builds its own once.
    calls = []
    real = democracy._prefix_table
    monkeypatch.setattr(democracy, "_prefix_table", lambda *args: calls.append(1) or real(*args))
    sched = arithmetic_schedule(5)
    demfun_table(SpaceSpec.from_schedule(sched), 1200)
    assert len(calls) == 0
    prefix_norm_conjecture_check(sched, range(1, 1201))
    assert len(calls) == 1


def test_prefix_check_refuses_no_n():
    # A report with no rows would pass having checked nothing.
    with pytest.raises(ValueError, match="^no N to check$"):
        prefix_norm_conjecture_check(arithmetic_schedule(3), [])


def test_prefix_check_refuses_past_the_blocks_before_hl_does():
    sched = arithmetic_schedule(3)  # block sizes 20, 120 and 840: 980 in all
    # N past the deepest block (840) is refused by the h_l table, so 981 is never reached.
    with pytest.raises(TruncationError, match=r"^h_l\(990\) needs a materialized block"):
        prefix_norm_conjecture_check(sched, [1, 900, 981, 990])
    with pytest.raises(TruncationError, match=r"^h_l\(980\) needs"):
        prefix_norm_conjecture_check(sched, [1, 900, 980])


# -- CGHM and condition 7.1 -----------------------------------------------------


def test_cghm_acceptance_pair():
    seqs = cghm_construct(sqrt_of, one_plus_log2, 2.0, 0.25, 5)
    assert len(seqs.w) == 5 and not seqs.exhausted
    assert seqs.all_checks_pass()
    assert all(2 ** (r - 1) <= w < 2**r for w, r in zip(seqs.w, seqs.r_of_mu))
    assert all(n == w * k for w, k, n in zip(seqs.w, seqs.k, seqs.n))
    assert list(seqs.k) == sorted(set(seqs.k))
    report = condition71_check(sqrt_of, one_plus_log2, seqs.pairs, 1.0, 0.25)
    assert report.all_pass


def test_crossing_search_on_a_ratio_that_is_not_monotone():
    # h_r/h_l >= 2 only at N = 3 and N = 8: the doubling probes 1, 2, 4 step
    # over 3, so the search returns 8, a crossing between two probes, and the
    # per-term checks hold at the term it builds there.
    h_r = {n: 2.0 if n in (3, 8) else 1.0 for n in range(1, 17)}.__getitem__
    assert democracy._first_crossing(h_r, 2.0, 1, 2**63, "2") == (8, None)
    seqs = cghm_construct(h_r, lambda n: 1.0, 2.0, 0.0, 1)
    assert (seqs.w, seqs.r_of_mu, seqs.k) == ((1,), (1,), (8,)) and seqs.all_checks_pass()


def test_cghm_bounded_ratio_exhausts():
    seqs = cghm_construct(one_plus_log2, one_plus_log2, 2.0, 0.25, 3)
    assert seqs.exhausted and seqs.exhausted_reason
    assert len(seqs.w) < 3


def test_cghm_exhausts_in_the_w_search():
    # h_r/h_l = 1.6 meets C^1 = 1.5 at w = k = 1, but never reaches mu = 2.
    seqs = cghm_construct(lambda n: 1.6 * sqrt_of(n), sqrt_of, 1.5, 0.0, 2)
    assert (seqs.w, seqs.k, seqs.n) == ((1,), (1,), (1,)) and seqs.exhausted
    assert seqs.exhausted_reason == f"no N <= {2**63} with h_r/h_l >= 2"


def test_cghm_names_the_first_n_a_table_cannot_answer():
    # Tables on N < 5000: the k search from 362 doubles to 5792 and stops there,
    # long before the probe limit.
    table = lambda h: {n: h(n) for n in range(1, 5000)}.__getitem__
    seqs = cghm_construct(table(sqrt_of), table(one_plus_log2), 2.0, 0.25, 5)
    assert (seqs.w, seqs.k) == ((1,), (361,)) and seqs.exhausted
    assert seqs.exhausted_reason.startswith("h_r/h_l is not known at N = 5792,")
    assert str(2**63) not in seqs.exhausted_reason


def test_cghm_names_the_probe_limit_when_it_is_reached():
    seqs = cghm_construct(sqrt_of, one_plus_log2, 2.0, 0.25, 5, probe_limit=1000)
    assert (seqs.w, seqs.k) == ((1,), (361,)) and seqs.exhausted
    assert seqs.exhausted_reason.startswith("no N <= 1000 with h_r/h_l >= C^9 * 361^0.25")


def test_cghm_alpha_zero_still_constructs():
    seqs = cghm_construct(sqrt_of, one_plus_log2, 2.0, 0.0, 5)
    assert len(seqs.w) == 5 and seqs.all_checks_pass()


def test_cghm_rejects_non_doubling_hl():
    with pytest.raises(ValueError):
        cghm_construct(sqrt_of, lambda n: float(n), 1.5, 0.25, 3)


def _unread(n):
    raise AssertionError(f"h read at N = {n} before the parameters were checked")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["c_doubling", "alpha"])
def test_cghm_refuses_non_finite_parameters(name, value):
    params = {"c_doubling": 2.0, "alpha": 0.25, "count": 5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cghm_construct(_unread, _unread, **params)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["c", "alpha"])
def test_condition71_refuses_non_finite_parameters(name, value):
    params = {"c": 1.0, "alpha": 0.25, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        condition71_check(_unread, _unread, [(4, 8)], **params)


def test_condition71_refuses_an_empty_pair_list():
    # No rows would read all_pass = True having checked nothing.
    for pairs in ([], ()):
        with pytest.raises(ValueError, match="no \\(k, n\\) pairs"):
            condition71_check(_unread, _unread, pairs, 1.0, 0.25)


def test_condition71_failure_modes():
    # k = n fails growth beyond the first pair
    report = condition71_check(sqrt_of, one_plus_log2, [(4, 4), (8, 8)], 1.0, 0.25)
    assert not report.all_pass and not report.rows[1]["growth_ok"]
    # democratic tables: h_r = h_l = sqrt -> inequality fails for large n/k
    report = condition71_check(sqrt_of, sqrt_of, [(2, 4), (2, 2048)], 1.0, 0.5)
    assert not report.rows[1]["inequality_ok"]


@pytest.mark.parametrize("excess, accepted", [(5e-13, True), (2e-12, False)])
def test_float_checks_allow_a_relative_slack_of_1e_12(excess, accepted):
    # The doubling precondition and the 7.1 inequality are decisions on
    # floats that forgive a relative 1e-12, and no more.
    h_l = {1: 1.0, 2: 2.0 * (1 + excess)}.__getitem__  # h_l(2) / h_l(1) = C * (1 + excess)
    if accepted:
        assert cghm_construct(h_l, h_l, 2.0, 0.25, 1).exhausted  # h_r/h_l is 1 where known
    else:
        with pytest.raises(ValueError, match="^h_l is not 2\\.0-doubling at N=1:"):
            cghm_construct(h_l, h_l, 2.0, 0.25, 1)
    report = condition71_check(lambda n: 1.0 - excess, lambda n: 1.0, [(1, 1)], 1.0, 1.0)
    assert report.rows[0]["inequality_ok"] is accepted


# -- the h_l recurrence vs the oracles ---------------------------------------


@st.composite
def block_sums(draw, max_blocks=6, max_size=30):
    blocks = []
    for _ in range(draw(st.integers(1, max_blocks))):
        size = draw(st.integers(1, max_size))
        blocks.append((draw(st.integers(1, size)), size))
    return blocks


def _assert_witness(spec, n, witness, value):
    assert sum(m for _, m in witness) == n
    assert all(0 < m <= spec.blocks[b].size for b, m in witness)
    assert sum(min(m, spec.blocks[b].cap) for b, m in witness) == value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(block_sums())
def test_table_equals_dp_oracle_and_point_queries(blocks):
    spec = SpaceSpec.block_sum(blocks)
    total = sum(s for _, s in blocks)
    table = demfun_table(spec, total)
    dp_min, dp_max = explicit.alloc_dp(blocks, total)
    assert list(table.hl_powers) == dp_min
    assert list(table.hr_powers) == dp_max
    for n in range(total + 1):
        point = demfun_dp(spec, n, method="extreme")
        assert (point.hl_power, point.hr_power) == (dp_min[n], dp_max[n])
        _assert_witness(spec, n, point.witness_l, point.hl_power)
        _assert_witness(spec, n, point.witness_r, point.hr_power)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(block_sums(max_blocks=4, max_size=8).filter(lambda b: sum(s for _, s in b) <= 16))
def test_table_equals_bruteforce_on_small_universes(blocks):
    spec = SpaceSpec.block_sum(blocks)
    total = sum(s for _, s in blocks)
    table = demfun_table(spec, total)
    for n in range(total + 1):
        assert (table.hl_power(n), table.hr_power(n)) == demfun_bruteforce(spec, n)


@st.composite
def typed_block_sums(draw):
    """Up to 60 blocks drawn from 2-4 (cap, size) types."""
    types = []
    for _ in range(draw(st.integers(2, 4))):
        size = draw(st.integers(1, 8))
        types.append((draw(st.integers(1, size)), size))
    return draw(st.lists(st.sampled_from(types), min_size=1, max_size=60))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(typed_block_sums())
def test_table_and_points_equal_dp_oracle_on_typed_block_sums(blocks):
    spec = SpaceSpec.block_sum(blocks)
    max_n = min(sum(s for _, s in blocks), 120)
    table = demfun_table(spec, max_n)
    dp_min, dp_max = explicit.alloc_dp(blocks, max_n)
    assert list(table.hl_powers) == dp_min
    assert list(table.hr_powers) == dp_max
    for n in range(0, max_n + 1, 3):
        point = demfun_dp(spec, n)
        assert (point.hl_power, point.hr_power) == (dp_min[n], dp_max[n])
        _assert_witness(spec, n, point.witness_l, point.hl_power)
        _assert_witness(spec, n, point.witness_r, point.hr_power)


def _count_states(monkeypatch):
    """A list that gains one entry per state the concave_min kernel evaluates."""
    states, real = [], alloc._candidates
    monkeypatch.setattr(alloc, "_candidates", lambda *args: states.append(1) or real(*args))
    return states


def test_hl_states_grow_with_types_not_blocks(monkeypatch):
    blocks = [(2, 4)] * 200 + [(3, 7)] * 60
    spec = SpaceSpec.block_sum(blocks)
    max_n = 1200
    table = demfun_table(spec, max_n)
    assert list(table.hl_powers) == explicit.alloc_dp(blocks, max_n)[0]
    states = _count_states(monkeypatch)
    types = 2
    for n in (7, 300, 601, 1199, 1200):
        states.clear()
        point = demfun_dp(spec, n, which="hl")
        assert point.hl_power == table.hl_power(n)
        _assert_witness(spec, n, point.witness_l, point.hl_power)
        # One state per (type, N); one per (block, N) would be up to 260 * (N + 1).
        assert 1 <= len(states) <= types * (n + 1)


def test_hl_states_on_a_schedule_stay_below_the_block_count(monkeypatch):
    sched = arithmetic_schedule(30)
    spec = SpaceSpec.from_schedule(sched)
    states = _count_states(monkeypatch)
    rng = random.Random(30)
    ns = [sched.n(k) for k in range(1, 31)] + [2 * sched.n(k) for k in range(1, 30)]
    for n in ns + [rng.randint(1, spec.blocks[-1].size) for _ in range(40)]:
        states.clear()
        demfun_dp(spec, n, which="hl")
        # n enters at the highest block type that can take units: a full
        # prefix size n_k needs no state, any other n at most two.
        assert len(states) <= 2


@settings(derandomize=True, max_examples=100, deadline=None)
@given(block_sums(max_blocks=5, max_size=12))
def test_gamma_of_the_all_ones_vector_is_the_democracy_function(blocks):
    # The residual of the all-ones vector after N greedy steps is the
    # indicator of the T - N coordinates left, and every set of that size is
    # one tie resolution; the best N-term approximation leaves the cheapest
    # such set.  The table's bottom-up h_l shares no code with the kernel
    # gamma's best case runs on, nor with sigma's `alloc.min_plus` fold.
    spec = SpaceSpec.block_sum(blocks)
    total = sum(s for _, s in blocks)
    x = spec.indicator({b: size for b, (_, size) in enumerate(blocks)})
    table = demfun_table(spec, total)
    sigma = GreedyProfile(x, spec).sequence("sigma")
    for n in range(total + 1):
        out = gamma(x, n, spec)
        assert out.residual_max.power_exact == table.hr_power(total - n)
        assert out.residual_min.power_exact == table.hl_power(total - n)
        assert sigma.power(n) == table.hl_power(total - n)


def test_gamma_of_the_all_ones_window_needs_at_most_a_state_per_block(monkeypatch):
    sched = arithmetic_schedule(40)
    blocks = list(zip(sched.caps(), sched.sizes()))
    spec = SpaceSpec.block_sum(blocks)
    total = sum(s for _, s in blocks)
    x = spec.indicator({b: size for b, (_, size) in enumerate(blocks)})
    states = _count_states(monkeypatch)
    out = gamma(x, total // 2, spec)
    assert 1 <= len(states) <= 40
    assert out.residual_min.power_exact == demfun_dp(spec, total - total // 2, which="hl").hl_power


def test_hl_point_queries_need_no_recursion_on_deep_windows():
    sched = arithmetic_schedule(1100)
    deep = demfun_dp(SpaceSpec.from_schedule(sched), sched.n(1000), which="hl")
    assert deep.hl_power == sched.n(999)
    # 1,500 pairwise distinct blocks are 1,500 levels, past the default recursion limit.
    blocks = [(1 + i % 37, 1 + i % 37 + i // 37) for i in range(1500)]
    spec = SpaceSpec.block_sum(blocks)
    dp_min = explicit.alloc_dp(blocks, 30)[0]
    for n in (1, 7, 30):
        point = demfun_dp(spec, n, which="hl")
        assert point.hl_power == dp_min[n]
        _assert_witness(spec, n, point.witness_l, point.hl_power)


def test_table_refuses_indices_outside_its_range():
    table = demfun_table(SpaceSpec.from_schedule(arithmetic_schedule(3)), 50)
    assert (table.hl_power(50), table.hr_power(50)) == (20, 50)
    for lookup in (table.hl_power, table.hr_power):
        with pytest.raises(ValueError):
            lookup(-1)
        with pytest.raises(TruncationError):
            lookup(51)


def test_table_takes_blocks_past_the_index_range():
    # The 40-block arithmetic window has caps past 2^63: padding a short ramp
    # with such a cap must not ask for a negative repeat count that large.
    spec = SpaceSpec.from_schedule(arithmetic_schedule(40))
    assert spec.blocks[-1].cap > 2**63
    table = demfun_table(spec, 10, which="hl")
    assert list(table.hl_powers) == [demfun_dp(spec, n, which="hl").hl_power for n in range(11)]


def _wide_or_narrow_block(rng, max_n, wide):
    """A (cap, size) block with cap >= min(size, max_n) if wide, below it otherwise."""
    size = rng.randint(1 if wide else 2, 2 * max_n)
    floor = min(size, max_n)
    return (rng.randint(floor, size), size) if wide else (rng.randint(1, floor - 1), size)


def test_table_skipping_blocks_equals_dp_oracle():
    # Blocks with cap >= min(size, max_N) sit both before and after the
    # blocks reach max_N coordinates; only those after are skipped.
    wide_before = wide_after = 0
    for seed in range(120):
        rng = random.Random(seed)
        max_n = rng.randint(3, 40)
        blocks = []
        while sum(s for _, s in blocks) < max_n:
            blocks.append(_wide_or_narrow_block(rng, max_n, rng.random() < 0.5))
            wide_before += blocks[-1][0] >= min(blocks[-1][1], max_n)
        reached = len(blocks)
        blocks += [_wide_or_narrow_block(rng, max_n, rng.random() < 0.5)
                   for _ in range(rng.randint(1, 6))]
        wide_after += any(cap >= min(size, max_n) for cap, size in blocks[reached:])
        spec = SpaceSpec.block_sum(blocks)
        table = demfun_table(spec, max_n)
        dp_min, dp_max = explicit.alloc_dp(blocks, max_n)
        assert (list(table.hl_powers), list(table.hr_powers)) == (dp_min, dp_max), (seed, blocks)
    assert wide_before and wide_after


@pytest.mark.parametrize("num_blocks,max_n,visited", [(40, 10, 1), (12, 20000, 5)])
def test_table_visits_only_blocks_that_can_lower_it(monkeypatch, num_blocks, max_n, visited):
    # Past the blocks that first hold max_N coordinates, a schedule's caps
    # are all at least max_N: none of those blocks is visited.
    spec = SpaceSpec.from_schedule(arithmetic_schedule(num_blocks))
    visits, real = [], democracy._hl_add_block
    monkeypatch.setattr(democracy, "_hl_add_block", lambda *args: visits.append(1) or real(*args))
    table = demfun_table(spec, max_n, which="hl")
    assert len(spec.blocks) == num_blocks and len(visits) == visited
    rng = random.Random(max_n)
    for n in sorted({0, 1, max_n, *rng.sample(range(max_n), 8)}):
        assert table.hl_power(n) == demfun_dp(spec, n, which="hl").hl_power


def test_table_equals_dp_oracle_on_deep_schedule():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(5))
    table = demfun_table(spec, 2000)
    assert (list(table.hl_powers), list(table.hr_powers)) == _oracle_table(spec, 2000)


@pytest.mark.parametrize("start,step", [(s, d) for s in (4, 5, 6) for d in (1, 2)])
def test_table_equals_dp_oracle_on_benchmark_schedules(start, step):
    # The demfun-table workload's schedules: a_j = start + (j - 1) * step, 5 blocks.
    spec = SpaceSpec.from_schedule(BlockSchedule(tuple(range(start, start + 6 * step, step))))
    table = demfun_table(spec, 1200)
    assert (list(table.hl_powers), list(table.hr_powers)) == _oracle_table(spec, 1200)


def test_prefix_check_matches_per_n_dp_oracle():
    sched = arithmetic_schedule(4)
    spec = SpaceSpec.from_schedule(sched)
    report = prefix_norm_conjecture_check(sched, range(1, 201))
    oracle = _oracle_table(spec, 200)[0][1:]
    assert [hl for _, _, hl in report.rows] == oracle
    assert [n for n, _, _ in report.rows] == list(range(1, 201))
    assert list(report.counterexamples) == [
        n for n, pre, _ in report.rows if pre != oracle[n - 1]
    ]
    assert report.counterexamples  # the family does have counterexamples below 200


def test_demfun_dp_rejects_unknown_method():
    with pytest.raises(ValueError):
        demfun_dp(TOY, 3, method="auto")
    with pytest.raises(ValueError):
        demfun_dp(TOY, 3, method="dp")
