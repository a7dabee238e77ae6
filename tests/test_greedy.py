"""Greedy errors, best N-term errors and the oracle cross-checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greedylab import (
    CompressedVector,
    SpaceSpec,
    arithmetic_schedule,
    error_sequence,
    gamma,
    sigma_exact,
    space_norm,
)
from greedylab import alloc, explicit, greedy
from greedylab.acceptance import criterion_4_instances
from greedylab.explicit import sigma_oracle_grid, sigma_power_table
from greedylab.spaces import random_vector


# -- gamma --------------------------------------------------------------------


def test_gamma_l1_no_tie():
    spec = SpaceSpec.lp(1, 4)
    x = spec.vector([(0, 3, 1), (0, 2, 2), (0, 1, 1)])
    out = gamma(x, 1, spec)
    # keep the 3: residual l1 norm is 2+2+1 = 5
    assert out.residual_max.power_exact == 5
    assert out.residual_min.power_exact == 5


def test_gamma_two_block_tie_extremes():
    # Frozen from raw subset enumeration: allocations (2,0),(1,1) give
    # residual power 2; (0,2) leaves two coords under cap 1, power 1.
    spec = SpaceSpec.block_sum([(1, 4), (3, 6)])
    x = spec.indicator({0: 2, 1: 2})
    out = gamma(x, 2, spec)
    assert out.residual_max.power_exact == 2
    assert out.residual_min.power_exact == 1
    assert dict(out.witness_min) == {0: 0, 1: 2}
    vals = explicit.to_explicit(x, spec)
    assert explicit.gamma_raw(vals, 2, spec) == (2, 1)


def test_gamma_beyond_support_is_zero():
    spec = SpaceSpec.lp(2, 4)
    x = spec.vector([(0, 2, 2)])
    out = gamma(x, 7, spec)
    assert out.residual_max.power_exact == 0 and out.tie.empty


def _residual(x, spec, out, witness):
    """What a resolution leaves: everything below the threshold, and the
    threshold coordinates ``witness`` does not keep."""
    assert [b for b, _ in witness] == [b for b, _ in out.tie.available]
    assert sum(c for _, c in witness) == out.tie.choose
    keep = dict(witness)
    raw = []
    for b, m, c in x.groups:
        if m == out.tie.threshold:
            assert 0 <= keep[b] <= c
            raw.append((b, m, c - keep[b]))
        elif m < out.tie.threshold:
            raw.append((b, m, c))
    return spec.vector(raw)


def test_gamma_exact_on_large_tie_class():
    # 31 ways to resolve this tie; the worst keeps 28 ones in block 0.
    spec = SpaceSpec.block_sum([(2, 40), (2, 40)])
    x = spec.indicator({0: 30, 1: 30})
    out = gamma(x, 30, spec)
    assert (out.residual_max.power_exact, out.residual_min.power_exact) == (4, 2)
    for witness, value in ((out.witness_max, 4), (out.witness_min, 2)):
        residual = explicit.to_explicit(_residual(x, spec, out, witness), spec)
        assert explicit.norm_power(residual, spec) == value


def test_gamma_astronomical_tie_class():
    # 10^20 threes in each of three blocks with caps 2, 5, 7.  The worst
    # resolution leaves every block's cap full of threes: 9 * (2+5+7).
    # The best empties block 2 and leaves 9 * (2+5).
    big = 10**20
    spec = SpaceSpec.block_sum([(2, big + 5), (5, big + 9), (7, big)])
    x = spec.vector([(0, 3, big), (1, 3, big), (2, 3, big), (0, 1, 5), (1, 1, 9)])
    out = gamma(x, big + 17, spec)
    assert (out.residual_max.power_exact, out.residual_min.power_exact) == (126, 63)
    assert dict(out.witness_min)[2] == big
    for witness, value in ((out.witness_max, 126), (out.witness_min, 63)):
        assert space_norm(_residual(x, spec, out, witness), spec).power_exact == value


def test_gamma_compressed_equals_raw_enumeration_random():
    rng = random.Random(10)
    for _ in range(40):
        blocks = [(rng.randint(1, 3), rng.randint(3, 5)) for _ in range(2)]
        spec = SpaceSpec.block_sum(blocks)
        x = random_vector(spec, rng, max_mag=3)
        if x.is_zero:
            continue
        n = rng.randint(0, x.support_size)
        out = gamma(x, n, spec)
        vals = explicit.to_explicit(x, spec, rng)
        hi, lo = explicit.gamma_raw(vals, n, spec)
        assert out.residual_max.power_exact == hi
        assert out.residual_min.power_exact == lo
        assert lo <= hi


@st.composite
def small_tied_instances(draw):
    """l_p, trunc_block or 1-4 block sums on <= 12 coordinates, magnitudes
    in {1, 2, 3} so that ties are common."""
    variant = draw(st.sampled_from(("lp", "trunc_block", "block_sum")))
    if variant == "lp":
        spec = SpaceSpec.lp(draw(st.integers(1, 3)), draw(st.integers(1, 12)))
    elif variant == "trunc_block":
        size = draw(st.integers(1, 12))
        spec = SpaceSpec.trunc_block(draw(st.integers(1, size)), size, draw(st.integers(1, 2)))
    else:
        blocks, room = [], 12
        for _ in range(draw(st.integers(1, 4))):
            if room == 0:
                break
            size = draw(st.integers(1, min(room, 6)))
            blocks.append((draw(st.integers(1, size)), size))
            room -= size
        spec = SpaceSpec.block_sum(blocks)
    raw = [
        (b, draw(st.integers(0, 3)), 1)
        for b, block in enumerate(spec.blocks)
        for _ in range(block.size)
    ]
    return spec, spec.vector(raw)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(small_tied_instances())
def test_gamma_tie_extremes_match_raw_enumeration(instance):
    spec, x = instance
    values = explicit.to_explicit(x, spec)
    profile = greedy.GreedyProfile(x, spec)
    for n in range(x.support_size + 1):
        out = profile.gamma(n)
        hi, lo = out.residual_max.power_exact, out.residual_min.power_exact
        assert explicit.gamma_raw(values, n, spec) == (hi, lo)
        assert hi == profile.sequence("gamma").power(n)  # the point query and the sequence
        assert sigma_exact(x, n, spec).power_exact <= lo
        if out.tie.empty:
            assert hi == lo
            continue
        for witness, value in ((out.witness_max, hi), (out.witness_min, lo)):
            residual = explicit.to_explicit(_residual(x, spec, out, witness), spec)
            assert explicit.norm_power(residual, spec) == value


def test_gamma_best_case_takes_interior_points_of_intermediate_runs():
    # Each kept nine lowers the residual by 1 to 9 here.  Block 2's shift
    # is one run of slope -6, strictly between the earlier blocks' least and
    # largest slopes (-9 and -1), and the best resolution keeps 2 of its 7
    # nines, a count strictly inside that run: the run ends alone give 111.
    spec = SpaceSpec.block_sum([(3, 4), (6, 11), (7, 14)], inner_p=1, outer_p=1)
    x = spec.vector([(0, 9, 3), (0, 1, 1), (1, 9, 6), (1, 8, 1), (1, 3, 4), (2, 9, 7), (2, 3, 7)])
    out = gamma(x, 5, spec)
    assert (out.residual_max.power_exact, out.residual_min.power_exact) == (119, 106)
    assert explicit.gamma_raw(explicit.to_explicit(x, spec), 5, spec) == (119, 106)
    residual = explicit.to_explicit(_residual(x, spec, out, out.witness_min), spec)
    assert explicit.norm_power(residual, spec) == 106


def test_gamma_checks_the_best_witness(monkeypatch):
    # A witness whose residual misses the kernel's value, or whose counts do
    # not add up to choose, raises InvariantError (not assert: -O keeps it).
    from greedylab import InvariantError

    spec = SpaceSpec.block_sum([(1, 4), (3, 6)])
    x = spec.indicator({0: 2, 1: 2})
    real = greedy.concave_min
    for wrong in (lambda v, c: (v - 1, c), lambda v, c: (v, [0] * len(c))):
        monkeypatch.setattr(greedy, "concave_min",
                            lambda costs, ns: [wrong(v, c) for v, c in real(costs, ns)])
        with pytest.raises(InvariantError):
            gamma(x, 2, spec)


def test_gamma_ties_across_many_blocks_match_the_allocation_dp():
    # An indicator is one tie class.  Keeping N of its coordinates leaves
    # support - N of them, count_b - kept_b in block b, with residual power
    # sum min(left_b, cap_b): the allocation DP over (cap_b, count_b) gives
    # both extremes, for ties over more blocks than gamma_raw can enumerate.
    rng = random.Random(14)
    queries = 0
    for _ in range(16):
        counts, blocks = [], []
        for _ in range(rng.randint(5, 16)):
            count = rng.randint(0, 40)
            size = count + rng.randint(1, 10)
            counts.append(count)
            blocks.append((rng.randint(1, size), size))
        spec = SpaceSpec.block_sum(blocks)
        x = spec.indicator(dict(enumerate(counts)))
        support = x.support_size
        dp_min, dp_max = explicit.alloc_dp(
            [(cap, count) for (cap, _size), count in zip(blocks, counts)], support
        )
        for n in range(0, support + 1, 3):
            out = gamma(x, n, spec)
            lo = out.residual_min.power_exact
            assert (out.residual_max.power_exact, lo) == (dp_max[support - n], dp_min[support - n])
            if not out.tie.empty:
                assert space_norm(_residual(x, spec, out, out.witness_min), spec).power_exact == lo
            queries += 1
    assert queries > 900


# -- sigma --------------------------------------------------------------------


def test_sigma_l1_examples():
    spec = SpaceSpec.lp(1, 3)
    x = spec.vector([(0, 3, 1), (0, 2, 1), (0, 1, 1)])
    assert sigma_exact(x, 1, spec).power_exact == 3
    assert sigma_exact(x, 0, spec).power_exact == 6
    assert sigma_exact(x, 3, spec).power_exact == 0


def test_sigma_block_sum_example():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(2))
    x = spec.indicator({0: 20})
    assert sigma_exact(x, 16, spec).power_exact == 4  # residual 4 ones, cap 4


def test_sigma_matches_removal_bruteforce():
    rng = random.Random(11)
    for _ in range(40):
        blocks = [(rng.randint(1, 2), rng.randint(2, 4)) for _ in range(2)]
        spec = SpaceSpec.block_sum(blocks)
        x = random_vector(spec, rng, max_mag=4)
        n = rng.randint(0, x.support_size + 1)
        vals = explicit.to_explicit(x, spec, rng)
        assert sigma_exact(x, n, spec).power_exact == explicit.sigma_removals_bruteforce(
            vals, n, spec
        )


def test_sigma_table_equals_removal_bruteforce_at_every_n():
    # The two exact sigma oracles share no code: the tabulated min-plus over
    # per-block removal counts against the minimum over every removal set.
    rng = random.Random(48)
    spaces = [SpaceSpec.lp(1, 6), SpaceSpec.lp(3, 5), SpaceSpec.trunc_block(2, 6, 2),
              SpaceSpec.trunc_block(3, 5, 3), SpaceSpec.block_sum([(1, 3), (2, 4)], 2, 2)]
    for i in range(60):
        spec = spaces[i % len(spaces)]
        values = [Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3))) * rng.choice((-1, 1))
                  for _ in range(explicit.dimension(spec))]
        table = sigma_power_table(explicit.from_explicit(values, spec), spec)
        for n in range(len(values) + 1):
            want = explicit.sigma_removals_bruteforce(values, n, spec)
            assert (table[n] if n < len(table) else 0) == want, (spec, values, n)


def test_sigma_grid_oracle_trivials():
    assert sigma_oracle_grid([1, 1], 1, SpaceSpec.lp(2, 2)) == pytest.approx(1.0, abs=1e-9)
    assert sigma_oracle_grid([2, 2], 2, SpaceSpec.lp(1, 2)) == 0.0
    spec = SpaceSpec.lp(1, 3)
    assert sigma_oracle_grid([3, 2, 1], 1, spec) == pytest.approx(3.0, abs=1e-6)


def test_sigma_grid_oracle_validates_suppression_on_trunc_block():
    rng = random.Random(12)
    spec = SpaceSpec.trunc_block(2, 4, 2)
    for _ in range(10):
        values = [rng.randint(0, 8) for _ in range(4)]
        n = rng.randint(1, 3)
        x = explicit.from_explicit(values, spec)
        exact = float(sigma_exact(x, n, spec))
        assert abs(exact - sigma_oracle_grid(values, n, spec)) < 1e-6


_P3 = SpaceSpec.block_sum([(3, 3), (1, 1)], 3, 3)
_LP15 = SpaceSpec.lp(1.5, 4)  # a non-integer inner exponent
_MIXED = SpaceSpec.block_sum([(1, 2), (2, 2)], 2, 1)  # two blocks, outer / inner = 1/2
_PINNED_GRID_ORACLE = [
    ("lp1", [Fraction(-10, 7), -7, Fraction(4, 7), Fraction(44, 7)], 1, SpaceSpec.lp(1, 4),
     8.285714285714285),
    ("lp2_n2", [Fraction(11, 3), Fraction(-11, 3), -6, Fraction(3, 7)], 2, SpaceSpec.lp(2, 4),
     3.6916280844408207),
    ("lp2_n3", [Fraction(20, 3), Fraction(55, 7), -1, Fraction(27, 5)], 3, SpaceSpec.lp(2, 4),
     1.0000000000000004),
    ("lp3_n1", [-1, -3, Fraction(25, 7), Fraction(-5, 3)], 1, SpaceSpec.lp(3, 4),
     3.1954894011909016),
    ("lp3_n3", [Fraction(-1, 5), 7, Fraction(16, 7), Fraction(5, 7)], 3, SpaceSpec.lp(3, 4),
     0.20000000000000004),
    ("trunc_block", [4, 3.5, -2, 1], 2, SpaceSpec.trunc_block(2, 4, 2), 2.23606797749979),
    ("block_sum_n1", [Fraction(8, 7), Fraction(-36, 5), Fraction(-18, 7), Fraction(2, 3)], 1, _P3,
     2.6586249473642294),
    ("block_sum_n2", [5, -2, Fraction(-33, 7), Fraction(-3, 5)], 2, _P3, 2.0178403871082535),
    ("block_sum_n3", [Fraction(-32, 5), Fraction(-9, 5), 4, Fraction(13, 3)], 3, _P3,
     1.8),
    ("lp1_5_n1", [8, 8, Fraction(1, 3), Fraction(27, 5)], 1, _LP15, 10.774812670671585),
    ("lp1_5_n2", [Fraction(34, 5), Fraction(14, 3), Fraction(-27, 5), Fraction(12, 5)], 2,
     _LP15, 5.7531135551507235),
    ("lp1_5_n3", [Fraction(-6, 5), 2, Fraction(-38, 5), Fraction(-20, 3)], 3, _LP15,
     1.20000000000011),
    ("mixed_n1", [Fraction(-17, 3), -1, -5, Fraction(-54, 7)], 1, _MIXED, 10.192943167540667),
    ("mixed_n2", [5, 0, Fraction(33, 5), Fraction(16, 3)], 2, _MIXED, 5.0000000028962654),
    ("mixed_n3", [Fraction(-27, 7), -2, Fraction(-32, 7), Fraction(-16, 3)], 3, _MIXED,
     2.0000000040452237),
]


@pytest.mark.parametrize(
    "values, n, spec, expected",
    [case[1:] for case in _PINNED_GRID_ORACLE],
    ids=[case[0] for case in _PINNED_GRID_ORACLE],
)
def test_sigma_grid_oracle_values_are_pinned(values, n, spec, expected):
    # Floats compared with ==, recorded from earlier forms of the oracle:
    # norm_float afresh for every point (up to block_sum_n3), then one norm
    # mapped over whole residual vectors (lp1_5, mixed).  Assembling each
    # candidate's norm from per-coordinate power columns, and computing it
    # once per distinct tuple of powers in a scan, must not move a bit.
    # lp2_n3 and block_sum_n3 were re-pinned when refinement became
    # steepest descent (first-improvement moves gave 1.000000000000001 and
    # 1.800000000000001); both moved toward their exact values 1 and 9/5.
    # lp1, lp2_n2, lp3_n1, lp3_n3, block_sum_n1 and lp1_5_n1 moved by one
    # ulp when the norm's sums became correctly rounded (math.fsum) in
    # place of descending left-to-right adds; each now lies within 1.5 ulp
    # of the exact sigma.  Correct rounding makes them independent of the
    # order of the powers and of the Python version.
    assert sigma_oracle_grid(values, n, spec) == expected


@pytest.mark.parametrize(
    "spec",
    [SpaceSpec.lp(1, 4), SpaceSpec.trunc_block(2, 4, 2), _P3, _MIXED],
    ids=["lp1", "trunc_block", "block_sum", "mixed"],
)
def test_grid_oracle_norm_sums_are_correctly_rounded_and_order_free(spec):
    # Every block sum is the exact sum of the block's cap largest powers,
    # rounded once, and so is the sum of the blocks' outer powers: the
    # norm's bits cannot depend on the order of the powers within a block.
    norm = explicit._float_norm(spec)
    ratio, root = spec.outer_p / spec.inner_p, 1.0 / spec.outer_p
    rng = random.Random(21)
    for _ in range(200):
        blocks = [
            [rng.uniform(0, 8) ** spec.inner_p for _ in range(block.size)] for block in spec.blocks
        ]
        outer = sum(
            Fraction(float(sum(map(Fraction, sorted(powers)[-block.cap:]))) ** ratio)
            for powers, block in zip(blocks, spec.blocks)
        )
        expected = float(outer) ** root
        assert norm([w for powers in blocks for w in powers]) == expected
        for powers in blocks:
            rng.shuffle(powers)
        assert norm([w for powers in blocks for w in powers]) == expected


_SCAN_SPACES = {
    "lp1": SpaceSpec.lp(1, 4),
    "lp2": SpaceSpec.lp(2, 4),
    "lp1_5": _LP15,
    "trunc_block_p2": SpaceSpec.trunc_block(2, 4, 2),
    "trunc_block_p3": SpaceSpec.trunc_block(2, 4, 3),
    "block_sum": _P3,
    "mixed": _MIXED,
}


@pytest.mark.parametrize("spec", _SCAN_SPACES.values(), ids=_SCAN_SPACES.keys())
def test_grid_oracle_norm_scan_equals_the_norm_per_candidate(spec):
    # The scan maps the layout's stages over the product of the columns;
    # it must give the per-candidate norm's float for every candidate, in
    # product order, bit for bit.  Columns repeat entries and hold zeros.
    norm, scan = explicit._float_norm(spec), explicit._norm_scan(spec)
    rng = random.Random(22)
    for _ in range(40):
        columns = []
        for _ in range(spec.dimension()):
            pool = [0.0] + [rng.uniform(0, 8) ** spec.inner_p for _ in range(3)]
            columns.append([rng.choice(pool) for _ in range(rng.randint(1, 5))])
        assert scan(columns) == [norm(t) for t in itertools.product(*columns)]
    # Powers near the top of the float range: a sum that holds two of them
    # overflows.  The norm adds each block's cap largest powers, and the
    # blocks' sums too where outer_p == inner_p, so exactly the candidates
    # with two huge powers in one such sum are inf.
    huge = 1e308
    columns = [[1.0, huge, 0.0, huge]] * spec.dimension()
    found = scan(columns)
    assert found == [norm(t) for t in itertools.product(*columns)]
    offsets, one_sum = explicit.block_offsets(spec), spec.outer_p == spec.inner_p
    for t, value in zip(itertools.product(*columns), found):
        counts = [
            min(block.cap, t[off:off + block.size].count(huge))
            for off, block in zip(offsets, spec.blocks)
        ]
        assert (value == math.inf) == (sum(counts) >= 2 if one_sum else max(counts) >= 2), t
    assert 0 < found.count(math.inf) < len(found)


@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_sigma_grid_oracle_refuses_a_wrong_coordinate_count(n):
    with pytest.raises(ValueError, match="3 coordinates for a 4-dimensional space"):
        sigma_oracle_grid([1, 2, 3], n, SpaceSpec.lp(2, 4))


@pytest.mark.parametrize("n", [-1, -3])
@pytest.mark.parametrize(
    "oracle", [sigma_oracle_grid, explicit.gamma_raw, explicit.sigma_removals_bruteforce]
)
def test_oracles_refuse_a_negative_n(oracle, n):
    with pytest.raises(ValueError, match="need 0 <= n"):
        oracle([1, 2, 3, 4], n, SpaceSpec.lp(2, 4))


@pytest.mark.parametrize("values", [[1, 2, 3], [1, 2, 3, 4, 100]], ids=["3", "5"])
@pytest.mark.parametrize(
    "call",
    [
        lambda values, spec: explicit.norm_power(values, spec),
        lambda values, spec: explicit.gamma_raw(values, 1, spec),
        lambda values, spec: explicit.gamma_raw(values, 5, spec),
        lambda values, spec: explicit.sigma_removals_bruteforce(values, 1, spec),
        lambda values, spec: explicit.sigma_removals_bruteforce(values, 5, spec),
    ],
    ids=["norm_power", "gamma_raw", "gamma_raw_n5", "sigma_bruteforce", "sigma_bruteforce_n5"],
)
def test_exact_oracles_refuse_a_wrong_coordinate_count(call, values):
    with pytest.raises(ValueError, match=f"{len(values)} coordinates for a 4-dimensional space"):
        call(values, SpaceSpec.lp(2, 4))


def _full_scan_grid_oracle(values, n, spec):
    """sigma_oracle_grid visiting every candidate: (value, refinement moves).

    The reference for the scans that evaluate each distinct tuple of powers
    once: every step maps the norm over all 5^n candidates around the best
    point and moves to the first minimum while it beats the best value by
    more than 1e-15.
    """
    vals = [float(v) for v in values]
    norm, inner = explicit._float_norm(spec), float(spec.inner_p)
    grid = [float(c) for c in range(-explicit.GRID_COEFF_BOUND, explicit.GRID_COEFF_BOUND + 1)]

    def first_min(support, coeffs):
        free = dict(zip(support, coeffs))
        columns = [
            [abs(v - c) ** inner for c in free[i]] if i in free else [abs(v) ** inner]
            for i, v in enumerate(vals)
        ]
        found = list(map(norm, itertools.product(*columns)))
        best = min(found)
        point = next(itertools.islice(itertools.product(*coeffs), found.index(best), None))
        return best, list(point)

    best_overall, moves = math.inf, 0
    for support in itertools.combinations(range(len(vals)), n):
        best_val, best_pt = first_min(support, [grid] * n)
        step = 1.0
        while step > 1e-8:
            step /= 2.0
            offsets = (-2 * step, -step, 0.0, step, 2 * step)
            while True:
                val, point = first_min(support, [[b + d for d in offsets] for b in best_pt])
                if not val < best_val - 1e-15:
                    break
                best_val, best_pt = val, point
                moves += 1
        best_overall = min(best_overall, best_val)
    return best_overall, moves


def test_sigma_grid_oracle_equals_the_full_scan_on_rational_inputs():
    # The pinned inputs (a first-improvement scan gives other floats on
    # lp2_n3 and block_sum_n3), then six seeded rational inputs per space.
    cases = [case[1:4] for case in _PINNED_GRID_ORACLE]
    rng = random.Random(20)
    for spec in dict.fromkeys(case[3] for case in _PINNED_GRID_ORACLE):
        for n in (1, 1, 2, 2, 2, 3):
            values = []
            for _ in range(4):
                den = rng.choice((3, 5, 7))
                values.append(Fraction(rng.randint(-8 * den, 8 * den), den))
            cases.append((values, n, spec))
    total_moves = 0
    for values, n, spec in cases:
        expected, moves = _full_scan_grid_oracle(values, n, spec)
        assert sigma_oracle_grid(values, n, spec) == expected, (values, n, spec)
        total_moves += moves
    assert total_moves > 0  # the refinement moved off the grid point


def test_sigma_grid_oracle_equals_sigma_exact_on_criterion_4_inputs():
    # Criterion 4 allows 1e-6; on its own 50 inputs the floats are equal.
    instances = list(criterion_4_instances())
    assert len(instances) == 50
    for spec, values, n in instances:
        x = explicit.from_explicit(values, spec)
        assert sigma_oracle_grid(values, n, spec) == float(sigma_exact(x, n, spec))


def test_sigma_grid_oracle_norm_count_on_criterion_4_inputs(monkeypatch):
    # The gate's cost in norm evaluations, pinned so that a change to the
    # scan cannot slow criterion 4 unseen.  Each scan's result holds one
    # norm per candidate it evaluated.
    evaluations = 0
    norm_scan = explicit._norm_scan

    def counted(spec):
        scan = norm_scan(spec)

        def wrapped(columns):
            nonlocal evaluations
            found = scan(columns)
            evaluations += len(found)
            return found

        return wrapped

    monkeypatch.setattr(explicit, "_norm_scan", counted)
    for spec, values, n in criterion_4_instances():
        sigma_oracle_grid(values, n, spec)
    assert evaluations == 189_990


# -- joint properties ---------------------------------------------------------


def test_sigma_le_gamma_and_monotone_and_vanishing():
    rng = random.Random(13)
    specs = [
        SpaceSpec.lp(1, 6),
        SpaceSpec.lp(2, 6),
        SpaceSpec.block_sum([(2, 5), (3, 6)]),
    ]
    for spec in specs:
        for _ in range(25):
            x = random_vector(spec, rng)
            table = sigma_power_table(x, spec)
            gammas = [
                gamma(x, n, spec).residual_max.power_exact
                for n in range(x.support_size + 1)
            ]
            for n in range(x.support_size + 1):
                assert table[n] <= gammas[n]
            assert all(a >= b for a, b in zip(table, table[1:]))
            assert all(a >= b for a, b in zip(gammas, gammas[1:]))
            assert table[x.support_size] == 0 and gammas[x.support_size] == 0


def test_lp_gamma_equals_sigma_when_tie_free():
    rng = random.Random(14)
    for p in (1, 2, 3):
        spec = SpaceSpec.lp(p, 6)
        for _ in range(30):
            mags = rng.sample(range(1, 50), 5)
            x = spec.vector([(0, m, 1) for m in mags])
            table = sigma_power_table(x, spec)
            for n in range(x.support_size + 1):
                assert gamma(x, n, spec).residual_max.power_exact == table[n]


# -- error sequences ----------------------------------------------------------


def test_error_sequence_two_pool_values():
    spec = SpaceSpec.from_schedule(arithmetic_schedule(2))
    x = spec.vector([(0, 2, 20), (1, 1, 20)])
    seq = error_sequence(x, spec, "sigma")
    assert seq.support_size == 40
    assert seq.power(40) == 0
    # sigma_20: drop all ones -> residual 20 twos capped at 4 -> 16
    assert seq.power(20) == 16
    gam = error_sequence(x, spec, "gamma")
    assert gam.power(20) == 20  # residual is the 20 ones under cap 20


@st.composite
def sequence_instances(draw):
    """l_p (finite or infinite dimension), trunc_block or 1-4 block sums,
    with magnitudes in {1, 2, 3} (tie-heavy) or pairwise distinct."""
    variant = draw(st.sampled_from(("lp", "trunc_block", "block_sum")))
    p = draw(st.integers(1, 3))
    if variant == "lp":
        dim = draw(st.one_of(st.none(), st.integers(1, 16)))
        spec = SpaceSpec.lp(p, dim)
        sizes = [dim or draw(st.integers(1, 16))]
    elif variant == "trunc_block":
        size = draw(st.integers(1, 16))
        spec = SpaceSpec.trunc_block(draw(st.integers(1, size)), size, p)
        sizes = [size]
    else:
        # Blocks up to 20 wide, so that tied groups leave long linear runs.
        blocks = []
        for _ in range(draw(st.integers(1, 4))):
            size = draw(st.integers(1, 20))
            blocks.append((draw(st.integers(1, size)), size))
        spec = SpaceSpec.block_sum(blocks, p, p)
        sizes = [size for _cap, size in blocks]
    n = sum(sizes)
    if draw(st.booleans()):
        mags = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    else:
        mags = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    blocks_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    return spec, spec.vector([(b, m, 1) for b, m in zip(blocks_of, mags)])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(sequence_instances())
def test_error_sequences_match_dp_and_pointwise_gamma(instance):
    spec, x = instance
    sig = error_sequence(x, spec, "sigma").powers()
    gam = error_sequence(x, spec, "gamma").powers()
    assert sig == list(sigma_power_table(x, spec))
    assert gam == [gamma(x, k, spec).residual_max.power_exact for k in range(x.support_size + 1)]
    assert all(a >= b for a, b in zip(sig, sig[1:]))
    assert all(a >= b for a, b in zip(gam, gam[1:]))
    assert all(s <= g for s, g in zip(sig, gam))


@st.composite
def wide_block_sums(draw):
    """Sums of 5-10 blocks, each holding more coordinates than its cap, so
    that every block residual bends both ways; magnitudes in {1, 2, 3}
    (tie-heavy) or pairwise distinct."""
    p = draw(st.integers(1, 3))
    blocks, counts = [], []
    for _ in range(draw(st.integers(5, 10))):
        count = draw(st.integers(2, 9))
        blocks.append((draw(st.integers(1, count - 1)), count + draw(st.integers(0, 3))))
        counts.append(count)
    n = sum(counts)
    if draw(st.booleans()):
        mags = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    else:
        mags = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n, unique=True))
    blocks_of = [b for b, count in enumerate(counts) for _ in range(count)]
    spec = SpaceSpec.block_sum(blocks, p, p)
    return spec, spec.vector([(b, m, 1) for b, m in zip(blocks_of, mags)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_block_sums())
def test_sigma_sequences_match_dp_on_wide_block_sums(instance):
    spec, x = instance
    assert error_sequence(x, spec, "sigma").powers() == list(sigma_power_table(x, spec))


def test_pair_min_is_the_pointwise_minimum():
    # Random ranges that meet, where a range that starts or stops inside
    # the other does so no lower than the other.
    rng = random.Random(12)
    for _ in range(5000):
        fs = []
        for _ in range(2):
            lo, width = rng.randint(0, 8), rng.randint(1, 8)
            fs.append({lo + t: rng.randint(-9, 9) for t in range(width + 1)})
        if max(min(f) for f in fs) > min(max(f) for f in fs):
            continue  # the ranges do not meet
        ends = [(f, k) for f in fs for k in (min(f), max(f))]
        if any(f[k] < other[k] for f, k in ends for other in fs if k in other):
            continue
        got = alloc._pair_min(*(alloc.drop_collinear(sorted(f.items())) for f in fs))
        want = {k: min(f[k] for f in fs if k in f) for k in set(fs[0]) | set(fs[1])}
        assert (got[0][0], got[-1]) == (min(want), (max(want), want[max(want)]))
        for (k0, y0), (k1, y1) in zip(got, got[1:]):
            assert all(y0 + Fraction(y1 - y0, k1 - k0) * (k - k0) == want[k] for k in range(k0, k1))


def _tie_free_error_vector(spec, seed):
    """34 pairwise distinct magnitudes over blocks 0-3 of arithmetic_schedule(4),
    400 coordinates: the shape of the largest tie-free error tables."""
    rng = random.Random(seed)
    mags = iter(rng.sample(range(1, 400), 34))
    groups = [(0, next(mags), rng.randint(1, 4)) for _ in range(4)]
    groups += [(1, next(mags), rng.randint(3, 9)) for _ in range(10)]
    left = 400 - sum(c for _, _, c in groups)
    for i in range(20):
        count = left // (20 - i) + (rng.randint(-2, 2) if i < 19 else 0)
        groups.append((2 + i % 2, next(mags), count))
        left -= count
    return spec.vector(groups)


def test_sigma_envelope_work_is_bounded_by_convex_pieces(monkeypatch):
    spec = SpaceSpec.from_schedule(arithmetic_schedule(4))
    x = _tie_free_error_vector(spec, 0)
    runs = []
    real_envelope = alloc._envelope
    monkeypatch.setattr(
        alloc, "_envelope",
        lambda functions: runs.append(sum(len(f) - 1 for f in functions))
        or real_envelope(functions),
    )
    seq = error_sequence(x, spec, "sigma")
    assert seq.powers() == list(sigma_power_table(x, spec))
    # Shifting every run of one input onto every knot of the other handed
    # 1,652 runs to the envelope on this vector.
    assert 0 < sum(runs) < 1652 // 2


def test_sigma_sequence_bends_between_integers():
    # Removing the four ones first leaves 36 (four threes under cap 4);
    # removing threes only leaves 4 + 9 (9 - k).  The two cross at
    # k = 49/9, so the sequence needs knots at both k = 5 and k = 6.
    spec = SpaceSpec.block_sum([(6, 8), (4, 10), (9, 9)])
    x = spec.vector([(1, 3, 9), (2, 1, 4)])
    seq = error_sequence(x, spec, "sigma")
    assert seq.powers() == list(sigma_power_table(x, spec))
    assert {5, 6} <= {k for k, _ in seq.knots}


def test_error_sequence_canonicalizes_once(monkeypatch):
    # A canonical vector is only checked against the space.  A hand-built one
    # is canonicalized once, and the first-knot check reads that result.
    # Both bindings are counted: ``spec.vector`` calls the one in ``spaces``.
    from greedylab import spaces, vectors

    spec = SpaceSpec.from_schedule(arithmetic_schedule(3))
    x = spec.vector([(0, 2, 20), (1, 1, 20)])
    calls = []
    real = vectors.canonicalize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(vectors, "canonicalize", counted)
    monkeypatch.setattr(spaces, "canonicalize", counted)
    for kind in ("sigma", "gamma"):
        error_sequence(x, spec, kind)
    assert calls == []
    hand = CompressedVector(x.groups[::-1])
    for kind in ("sigma", "gamma"):
        assert error_sequence(hand, spec, kind).knots == error_sequence(x, spec, kind).knots
    assert len(calls) == 2


def test_error_sequences_compute_the_norm_once_per_profile(monkeypatch):
    # Both sequences' first knots are checked against one ||x||^p per profile.
    spec = SpaceSpec.from_schedule(arithmetic_schedule(3))
    x = spec.vector([(0, 2, 20), (1, 1, 20), (2, 3, 7)])
    calls, real = [], greedy.space_norm
    monkeypatch.setattr(greedy, "space_norm", lambda *args: calls.append(args) or real(*args))
    profile = greedy.GreedyProfile(x, spec)
    for kind in ("sigma", "gamma", "sigma", "gamma"):
        assert profile.sequence(kind).power(0) == real(x, spec).power_exact
    assert len(calls) == 1
    assert profile.norm_power == real(x, spec).power_exact and len(calls) == 1


def test_error_sequence_tabulated_matches_pointwise_calls():
    spec = SpaceSpec.block_sum([(2, 4), (2, 4)])
    x = spec.vector([(0, 3, 2), (0, 1, 1), (1, 1, 2)])
    sig = error_sequence(x, spec, "sigma")
    gam = error_sequence(x, spec, "gamma")
    for n in range(x.support_size + 1):
        assert sig.power(n) == sigma_exact(x, n, spec).power_exact
        assert gam.power(n) == gamma(x, n, spec).residual_max.power_exact


_D = 3 * 7 * 11 * 13


@st.composite
def rational_block_sums(draw):
    """Sums of 1-5 blocks on <= 12 coordinates, p in {1, 2, 3}, with
    magnitudes over the coprime denominators 3, 7, 11 and 13, drawn from a
    pool of at most four so that ties across blocks are common."""
    p = draw(st.integers(1, 3))
    blocks, room = [], 12
    for _ in range(draw(st.integers(1, 5))):
        if room == 0:
            break
        size = draw(st.integers(1, min(room, 5)))
        blocks.append((draw(st.integers(1, size)), size))
        room -= size
    spec = SpaceSpec.block_sum(blocks, p, p)
    mags = st.builds(Fraction, st.integers(1, 9), st.sampled_from((3, 7, 11, 13)))
    pool = draw(st.lists(mags, min_size=1, max_size=4))
    raw = [(b, draw(st.sampled_from(pool)), 1)
           for b, (_cap, size) in enumerate(blocks) for _ in range(draw(st.integers(0, size)))]
    return spec, spec.vector(raw)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_block_sums())
def test_rational_vectors_match_the_oracles_and_scale_exactly(instance):
    # The greedy layer scales x by the lcm of its denominators and divides
    # back once.  Scaling x by D outside must scale every power by D^p
    # exactly, move the tie threshold by D and leave every witness alone.
    spec, x = instance
    p, scaled = spec.outer_p, x.scale(_D)
    sig, gam = (error_sequence(x, spec, kind).powers() for kind in ("sigma", "gamma"))
    assert sig == list(sigma_power_table(x, spec))
    for kind, seq in (("sigma", sig), ("gamma", gam)):
        assert error_sequence(scaled, spec, kind).powers() == [_D**p * y for y in seq]
    values = explicit.to_explicit(x, spec)
    for n in range(x.support_size + 1):
        out, big = gamma(x, n, spec), gamma(scaled, n, spec)
        hi, lo = out.residual_max.power_exact, out.residual_min.power_exact
        assert explicit.gamma_raw(values, n, spec) == (hi, lo) and gam[n] == hi
        assert big.residual_max.power_exact == _D**p * hi
        assert big.residual_min.power_exact == _D**p * lo
        assert (big.witness_max, big.witness_min) == (out.witness_max, out.witness_min)
        assert big.tie.available == out.tie.available
        if not out.tie.empty:
            assert out.tie.threshold in {m for _b, m, _c in x.groups}
            assert big.tie.threshold == _D * out.tie.threshold


def test_one_profile_builds_each_block_residual_once(monkeypatch):
    # Both sequences and every gamma(n) and sigma(n) of one profile share
    # its block residuals and sequences, and agree with the public calls.
    spec = SpaceSpec.block_sum([(2, 6), (3, 8), (1, 5)], 2, 2)
    x = spec.vector([(0, Fraction(5, 3), 2), (0, Fraction(2, 7), 3), (1, Fraction(5, 3), 4),
                     (1, 1, 2), (2, Fraction(2, 7), 5)])
    ns = range(x.support_size + 1)
    want = ([gamma(x, n, spec) for n in ns], [sigma_exact(x, n, spec) for n in ns],
            [error_sequence(x, spec, kind).knots for kind in ("sigma", "gamma")])
    built = []
    real = greedy._residual
    monkeypatch.setattr(greedy, "_residual", lambda *args: built.append(args) or real(*args))
    profile = greedy.GreedyProfile(x, spec)
    seqs = [profile.sequence(kind) for kind in ("sigma", "gamma")]
    got = ([profile.gamma(n) for n in ns], [profile.sigma(n) for n in ns], [s.knots for s in seqs])
    assert got == want
    assert all(profile.sequence(seq.kind) is seq for seq in seqs)
    assert len(built) == len(x.blocks()) == 3


def test_gamma_builds_residuals_only_for_the_tied_blocks(monkeypatch):
    # A block outside the threshold class contributes one value of r_b,
    # read off its prefix powers; only the tied blocks need r_b's runs.
    spec = SpaceSpec.block_sum([(2, 6), (3, 8), (1, 5), (2, 4)], 2, 2)
    x = spec.vector([(0, 5, 2), (0, 3, 3), (1, 5, 4), (1, 2, 2), (2, 3, 5), (3, 1, 4)])
    built = []
    real = greedy._residual
    monkeypatch.setattr(greedy, "_residual", lambda *args: built.append(args) or real(*args))
    values = explicit.to_explicit(x, spec)
    for n in range(x.support_size + 1):
        built.clear()
        out = gamma(x, n, spec)
        assert len(built) == len(out.tie.available)
        hi, lo = out.residual_max.power_exact, out.residual_min.power_exact
        assert explicit.gamma_raw(values, n, spec) == (hi, lo)
    built.clear()
    # At n = 7 the tie at magnitude 3 spans blocks 0 and 2 of the four.
    assert len(gamma(x, 7, spec).tie.available) == 2 and len(built) == 2
