"""The route-oracle registry: each production route against its oracle in ``greedylab.explicit``.

``ROWS`` holds one row per (route, oracle) pair: the production function
(``route``), the function of ``greedylab.explicit`` that checks it
(``oracle``), seeded input families, how the answers compare, and the size
past which the oracle cannot run (``bound``).  ``answer(route, case)`` and
``expect(oracle, case)`` map one input to ints, Fractions, bools, None,
floats, or lists or tuples of them.  Values compare exactly, floats too,
unless ``tol`` gives ``pytest.approx`` arguments (a dict, or a function of
the input returning one or None).

``tests/test_oracles.py`` runs every pair, except a family with ``runs_in``:
that family runs under the test name it has always run as, built by
``named_tests`` in that test file.  To add a row, give ``ROWS`` a ``Row`` whose
``answer`` reads the route only through its ``route`` argument, with at least
one ``Family``: a cached function returning its inputs, from a seeded
``random.Random`` or from ``drawn(name, strategy, max_examples)``.
"""

from __future__ import annotations

import functools
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Optional

import pytest
from hypothesis import given, seed, settings, strategies as st

from greedylab import (
    ApproxParams,
    BlockSchedule,
    SpaceSpec,
    alloc,
    approx,
    arithmetic_schedule,
    build_xs,
    democracy,
    explicit,
    greedy,
    spaces,
    squares_schedule,
)


@dataclass(frozen=True)
class Family:
    inputs: Callable[[], list]  # cached: drawn once per session
    covers: Callable[[list], bool] = bool  # of the oracle's answers: what the family is there to reach
    runs_in: Optional[str] = None  # "module::test" or "module::test[id]" that runs it, not test_oracles


@dataclass(frozen=True)
class Row:
    route: Callable
    oracle: Callable
    families: dict[str, Family]
    answer: Callable[[Callable, Any], Any]  # (route, input) -> comparable value
    expect: Callable[[Callable, Any], Any]  # (oracle, input) -> comparable value
    bound: str  # where the oracle stops
    tol: Any = None  # None: exact; pytest.approx arguments; or a function of the input


def check(row: str, family: str, wrong_at: Optional[int] = None) -> None:
    """The row's route against its oracle on every input of the family.

    The route is called through a recorder: an answer that never calls it
    fails.  ``wrong_at`` makes the answer at that input wrong by one."""
    r, fam = ROWS[row], ROWS[row].families[family]
    wants = []
    for i, case in enumerate(fam.inputs()):
        calls = []
        got = r.answer(lambda *args, **kw: calls.append(args) or r.route(*args, **kw), case)
        assert calls, f"{row}: the answer never called {r.route.__name__}"
        tol = r.tol(case) if callable(r.tol) else r.tol
        if i == wrong_at:
            got = wrong(got, tol)
            assert got is not None, f"{row}: the answer holds no number to make wrong"
        want = r.expect(r.oracle, case)
        assert agrees(got, want, tol), f"{row} | {family}, input {i} {case!r:.300}: {got!r:.300} != {want!r:.300}"
        wants.append(want)
    assert fam.covers(wants), f"{row} | {family}: the inputs miss what the family is for"


def agrees(got, want, tol) -> bool:
    if tol is None and got == want:  # else lists against tuples, or a float tolerance
        return True
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(agrees(g, w, tol) for g, w in zip(got, want)))
    if tol is not None and isinstance(want, float):
        return got == pytest.approx(want, **tol)
    return got == want


def wrong(value, tol):
    """value wrong by one at its first number: an int or a bool + 1, a float
    moved by twice the tolerance, or to the next float where floats compare exactly."""
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            moved = wrong(item, tol)
            if moved is not None:
                return [*value[:i], moved, *value[i + 1:]]
        return None
    if isinstance(value, float):
        if tol is None:
            return math.nextafter(value, math.inf)
        return value + 2 * pytest.approx(value, **tol).tolerance
    if isinstance(value, (int, Fraction)):
        return value + 1
    return None


def drawn(name: str, strategy, max_examples: int) -> Callable[[], list]:
    """The inputs a derandomized hypothesis run draws from the strategy, cached;
    its seed is fixed by the family's name alone."""

    @functools.cache
    def inputs() -> list:
        found = []

        @seed(zlib.crc32(name.encode()))
        @settings(derandomize=True, max_examples=max_examples, deadline=None, database=None)
        @given(strategy)
        def draw(case):
            found.append(case)

        draw()
        return found

    return inputs


def named_tests(module: str) -> dict[str, Callable]:
    """The tests of the test file ``module`` (its ``__name__``) that run the
    families whose ``runs_in`` names it; ``[id]`` suffixes parametrize a name."""
    named: dict[str, dict[str, list]] = {}
    for row, r in ROWS.items():
        for family, f in r.families.items():
            if f.runs_in and f.runs_in.startswith(module + "::"):
                name, _, param = f.runs_in.removeprefix(module + "::").partition("[")
                named.setdefault(name, {}).setdefault(param.rstrip("]"), []).append((row, family))
    return {name: _runner(by_param) for name, by_param in named.items()}


def _runner(by_param: dict[str, list]) -> Callable:
    def run(pairs):
        for row, family in pairs:
            check(row, family)

    if "" in by_param:
        def test():
            run(by_param[""])
    else:
        test = pytest.mark.parametrize("pairs", list(by_param.values()), ids=list(by_param))(run)
    test.pairs = [pair for pairs in by_param.values() for pair in pairs]
    return test


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def block_sums(draw, max_blocks=6, max_size=30):
    blocks = []
    for _ in range(draw(st.integers(1, max_blocks))):
        size = draw(st.integers(1, max_size))
        blocks.append((draw(st.integers(1, size)), size))
    return blocks


@st.composite
def typed_block_sums(draw):
    """Up to 60 blocks drawn from 2-4 (cap, size) types."""
    types = []
    for _ in range(draw(st.integers(2, 4))):
        size = draw(st.integers(1, 8))
        types.append((draw(st.integers(1, size)), size))
    return draw(st.lists(st.sampled_from(types), min_size=1, max_size=60))


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


@st.composite
def knot_check_instances(draw):
    """The x_s bound checks' arguments around one instance's sequences:
    thresholds drawn around the actual powers and indices, and sigma and
    gamma sometimes swapped, so that each check comes out both ways."""
    spec, x = draw(sequence_instances())
    sigma, gamma = (greedy.error_sequence(x, spec, kind) for kind in ("sigma", "gamma"))
    if draw(st.booleans()):
        sigma, gamma = gamma, sigma
    support = sigma.support_size
    levels = st.sampled_from(sorted(set(sigma.powers()) | set(gamma.powers())))
    v = draw(st.one_of(st.integers(0, support + 1), levels))
    n_s = draw(st.integers(0, support + 2))
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return sigma, gamma, n_s, v, r, s


PARAMS = [ApproxParams(alpha, q) for alpha in (0.5, 0.7, 1, 1.5, 2) for q in (1, 1.5, 2, 3, 4, math.inf)]


# ---------------------------------------------------------------------------
# Families: each input is a Case, whose fields the rows below read by name


Case = SimpleNamespace


@functools.cache
def shuffled_layouts():
    """60 random vectors of a 2-block sum, each laid out 3 times in random slots and signs (seed 5)."""
    rng, spec, cases = random.Random(5), SpaceSpec.block_sum([(2, 5), (3, 6)]), []
    for _ in range(60):
        x = explicit.random_vector(spec, rng)
        cases += [Case(spec=spec, x=x, values=explicit.to_explicit(x, spec, rng)) for _ in range(3)]
    return cases


@functools.cache
def truncated_blocks():
    """150 p = 2 blocks, support <= 12, padded with zeros to one more than the support and to the cap (seed 2)."""
    rng, cases = random.Random(2), []
    for _ in range(150):
        support = rng.randint(0, 12)
        coords = [rng.randint(0, 6) for _ in range(support)]
        cap = rng.randint(1, 13)
        spec = SpaceSpec.trunc_block(cap, max(cap, support + 1))
        cases.append(Case(spec=spec, coords=coords, cap=cap,
                          values=coords + [0] * (spec.dimension() - support)))
    return cases


@functools.cache
def float_exponents():
    """240 rounds of nonzero integer coordinates on five spaces with a non-integer exponent (seed 15)."""
    rng, cases = random.Random(15), []
    specs = [SpaceSpec.lp(1.5, 5), SpaceSpec.trunc_block(2, 5, 2.5),
             SpaceSpec.block_sum([(2, 4), (3, 6)], 1.5, 1.5),
             SpaceSpec.block_sum([(2, 4), (3, 6)], 1.5, 3), SpaceSpec.trunc_block(2, 5, 1.5)]
    for _ in range(240):
        for spec in specs:
            values = [rng.randint(-9, 9) for _ in range(spec.dimension() - 1)] + [rng.randint(1, 9)]
            rng.shuffle(values)
            cases.append(Case(spec=spec, values=values))
    return cases


def _points(blocks, top, step=1):
    """Point queries (N, "both") on a block sum for N = 0, step, ... up to top."""
    return Case(spec=SpaceSpec.block_sum(blocks), queries=[(n, "both") for n in range(0, top + 1, step)])


def _size(blocks):
    return sum(s for _, s in blocks)


@functools.cache
def random_block_structures():
    """60 block sums of 1-4 arbitrary (cap, size) blocks, size <= 18, every N (seed 99)."""
    rng, cases = random.Random(99), []
    for _ in range(60):
        blocks = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 18)
            blocks.append((rng.randint(1, size), size))
        cases.append(_points(blocks, _size(blocks)))
    return cases


@functools.cache
def schedule_windows():
    """a = (4,5,6,7) and (4,9,16): h_l at N = 1..200, h_r where the caps hold N."""
    cases = []
    for sched in (arithmetic_schedule(3), squares_schedule(2)):
        spec = SpaceSpec.from_schedule(sched)
        caps = sum(b.cap for b in spec.blocks)
        cases.append(Case(spec=spec, queries=[(n, "hl") for n in range(1, 201)]
                          + [(n, "hr") for n in range(1, min(caps, 200) + 1)]))
    return cases


DRAWN_BLOCK_SUMS = drawn("block sums", block_sums(), 150)
DRAWN_TYPED = drawn("typed block sums", typed_block_sums(), 100)


def _typed_max_n(blocks):
    return min(_size(blocks), 120)


def _table_case(blocks, max_n):
    return Case(spec=SpaceSpec.block_sum(blocks), max_n=max_n)


@functools.cache
def blocks_past_max_n():
    """120 block sums whose blocks with cap >= min(size, max_N) sit both before
    and after the blocks reach max_N coordinates (seeds 0-119)."""
    cases, wide_before, wide_after = [], 0, 0
    for i in range(120):
        rng = random.Random(i)
        max_n = rng.randint(3, 40)
        blocks = []
        while _size(blocks) < max_n:
            blocks.append(_wide_or_narrow_block(rng, max_n, rng.random() < 0.5))
            wide_before += blocks[-1][0] >= min(blocks[-1][1], max_n)
        reached = len(blocks)
        blocks += [_wide_or_narrow_block(rng, max_n, rng.random() < 0.5)
                   for _ in range(rng.randint(1, 6))]
        wide_after += any(cap >= min(size, max_n) for cap, size in blocks[reached:])
        cases.append(_table_case(blocks, max_n))
    assert wide_before and wide_after
    return cases


def _wide_or_narrow_block(rng, max_n, wide):
    """A (cap, size) block with cap >= min(size, max_n) if wide, below it otherwise."""
    size = rng.randint(1 if wide else 2, 2 * max_n)
    floor = min(size, max_n)
    return (rng.randint(floor, size), size) if wide else (rng.randint(1, floor - 1), size)


def _window(schedule, max_n):
    return Case(spec=SpaceSpec.from_schedule(schedule), max_n=max_n)


@functools.cache
def tabulable_windows():
    """Windows with every k whose 2 n_(k+1) is at most 300 and inside the window (seed 6)."""
    rng = random.Random(6)
    schedules = [arithmetic_schedule(4), squares_schedule(3)] + [
        BlockSchedule(tuple(sorted(rng.sample(range(4, 13), rng.randint(3, 5))))) for _ in range(12)]
    return [Case(schedule=s, ks=[k for k in range(1, s.num_blocks)
                                 if 2 * s.n(k + 1) <= min(300, s.n(len(s.a)))])
            for s in schedules]


@functools.cache
def piecewise_linear_pairs():
    """400 pairs of integer functions on 0..T, T <= 60, linear on up to six runs
    of integer slopes in -9..9; over 300 of the 800 are not convex (seed 19)."""
    rng = random.Random(19)
    cases = [(_piecewise_linear(rng), _piecewise_linear(rng)) for _ in range(400)]
    assert sum(any(b - a > c - b for a, b, c in zip(t, t[1:], t[2:])) for pair in cases for t in pair) > 300
    return cases


def _piecewise_linear(rng):
    size = rng.randint(1, 60)
    ends = sorted(rng.sample(range(1, size), min(rng.randint(0, 5), size - 1))) + [size]
    values = [rng.randint(-20, 20)]
    for start, end in zip([0] + ends, ends):
        y0, a = values[-1], rng.randint(-9, 9)
        values += [y0 + a * t for t in range(1, end - start + 1)]
    return values


@functools.cache
def tied_random_vectors():
    """Up to 40 nonzero vectors of two blocks (cap <= 3, size 3-5), magnitudes <= 3,
    a random N and a layout in random slots and signs (seed 10)."""
    rng, cases = random.Random(10), []
    for _ in range(40):
        spec = SpaceSpec.block_sum([(rng.randint(1, 3), rng.randint(3, 5)) for _ in range(2)])
        x = explicit.random_vector(spec, rng, max_mag=3)
        if x.is_zero:
            continue
        ns = [rng.randint(0, x.support_size)]
        cases.append(Case(spec=spec, x=x, ns=ns, values=explicit.to_explicit(x, spec, rng)))
    return cases


@functools.cache
def small_tied_vectors():
    """Every N of small_tied_instances, laid out in order."""
    return [Case(spec=spec, x=x, ns=range(x.support_size + 1), values=explicit.to_explicit(x, spec))
            for spec, x in drawn("small tied vectors", small_tied_instances(), 500)()]


@functools.cache
def small_random_vectors():
    """40 vectors of two blocks (cap <= 2, size 2-4), magnitudes <= 4, N up to one
    past the support, laid out in random slots and signs (seed 11)."""
    rng, cases = random.Random(11), []
    for _ in range(40):
        spec = SpaceSpec.block_sum([(rng.randint(1, 2), rng.randint(2, 4)) for _ in range(2)])
        x = explicit.random_vector(spec, rng, max_mag=4)
        n = rng.randint(0, x.support_size + 1)
        cases.append(Case(spec=spec, x=x, n=n, values=explicit.to_explicit(x, spec, rng)))
    return cases


@functools.cache
def grid_trunc_block():
    """10 nonnegative vectors of the (2, 4) truncated block and N = 1..3 (seed 12)."""
    rng, spec, cases = random.Random(12), SpaceSpec.trunc_block(2, 4, 2), []
    for _ in range(10):
        values = [rng.randint(0, 8) for _ in range(4)]
        cases.append(Case(spec=spec, x=explicit.from_explicit(values, spec), values=values,
                          n=rng.randint(1, 3)))
    return cases


XS_PARAMS = [ApproxParams(1, 1), ApproxParams(0.5, 1), ApproxParams(2, 1),
             ApproxParams(0.5, 2), ApproxParams(2, 2), ApproxParams(1, math.inf)]


@functools.cache
def _xs(s):
    return build_xs(squares_schedule(4), s)


@functools.cache
def xs_sequences(s):
    return [Case(seq=seq, params=params)
            for seq in (_xs(s).sigma_sequence(), _xs(s).gamma_sequence()) for params in XS_PARAMS]


@functools.cache
def xs_bound_arguments(s):
    xs = _xs(s)
    return [(xs.sigma_sequence(), xs.gamma_sequence(), xs.n_s, xs.v, xs.r, xs.s)]


@functools.cache
def drawn_error_sequences():
    strategy = st.tuples(sequence_instances(), st.sampled_from(["sigma", "gamma"]), st.sampled_from(PARAMS))
    return [Case(seq=greedy.error_sequence(x, spec, kind), params=params)
            for (spec, x), kind, params in drawn("error sequences", strategy, 150)()]


@functools.cache
def vectors_and_params():
    """The seed-10 vectors, each on a per-term, an exact-sum and a sup route."""
    return [Case(spec=c.spec, x=c.x, values=c.values, params=params) for c in tied_random_vectors()
            for params in (ApproxParams(0.5, 1), ApproxParams(2, 2), ApproxParams(1, math.inf))]


# ---------------------------------------------------------------------------
# Answers


def _blocks(spec):
    return [(b.cap, b.size) for b in spec.blocks]


def _priced(spec, witness):
    """(units, norm power) of a (block, count) witness; None if a count does not fit its block."""
    if not all(0 < m <= spec.blocks[b].size for b, m in witness):
        return None
    return sum(m for _, m in witness), sum(min(m, spec.blocks[b].cap) for b, m in witness)


def _demfun_points(route, c):
    points = [route(c.spec, n, which=which) for n, which in c.queries]
    return [(p.hl_power, p.hr_power, _priced(c.spec, p.witness_l), _priced(c.spec, p.witness_r))
            for p in points]


def _alloc_dp_points(oracle, c):
    hl, hr = oracle(_blocks(c.spec), max(n for n, _ in c.queries))
    out = []
    for n, which in c.queries:
        left = (hl[n], (n, hl[n])) if which != "hr" else (None, (0, 0))
        right = (hr[n], (n, hr[n])) if which != "hl" else (None, (0, 0))
        out.append((left[0], right[0], left[1], right[1]))
    return out


def _table(route, c):
    table = route(c.spec, c.max_n)
    return [list(table.hl_powers), list(table.hr_powers)]


def _table_points(route, c):
    table = route(c.spec, c.max_n)
    return [(table.hl_power(n), table.hr_power(n)) for n in range(c.max_n + 1)]


def _doubling_oracle(oracle, c):
    s = c.schedule
    hl = oracle(list(zip(s.caps(), s.sizes())), 2 * s.n(c.ks[-1] + 1))[0]
    return [(k, hl[s.n(k + 1)], hl[2 * s.n(k + 1)]) for k in c.ks]


def _prefix_column(report, column):
    return [(row[0], row[column]) for row in report.rows]


def _prefix_hl(oracle, c):
    hl = oracle(_blocks(SpaceSpec.from_schedule(c.schedule)), max(c.ns))[0]
    return [(n, hl[n]) for n in c.ns]


def _prefix_norm(oracle, c):
    """The norm power of the first N unit vectors, on the first blocks that hold
    them, and the N where it is not h_l."""
    blocks = _blocks(SpaceSpec.from_schedule(c.schedule))
    used = next(j for j in range(1, len(blocks) + 1) if _size(blocks[:j]) >= max(c.ns))
    spec = SpaceSpec.block_sum(blocks[:used])
    hl = explicit.alloc_dp(blocks, max(c.ns))[0]
    prefix = [(n, oracle([1] * n + [0] * (spec.dimension() - n), spec)) for n in c.ns]
    return prefix, [n for n, power in prefix if power != hl[n]]


def _concave_min(route, values):
    costs = [alloc.drop_collinear(list(enumerate(v))) for v in values]
    return [(value, sum(counts.values()), _repriced(values, counts))
            for value, counts in route(costs, range(sum(len(v) - 1 for v in values) + 1))]


def _repriced(values, counts):
    """The cost of a (block: count) witness; None if a count is outside 1..size."""
    if not all(0 < m < len(values[b]) for b, m in counts.items()):
        return None
    return sum(values[b][m] for b, m in counts.items())


def _min_plus(route, tables):
    knots = route(*(alloc.drop_collinear(list(enumerate(t))) for t in tables))
    values = [knots[0][1]]
    for (k0, y0), (k1, y1) in zip(knots, knots[1:]):
        values += [alloc._at(k0, y0, k1, y1, n) for n in range(k0 + 1, k1 + 1)]
    return knots[0][0], values


def _least_sums(oracle, tables):
    return oracle(tables, sum(len(t) - 1 for t in tables))


def left_after(x, spec, out, witness):
    """What a greedy tie resolution leaves: everything below the threshold,
    and the threshold coordinates ``witness`` does not keep."""
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


def _gamma_points(route, c):
    """Both extremes at each N, and the norm power each witness leaves; with no
    tie, both are hi, so that the oracle's lo must equal it."""
    out = []
    for n in c.ns:
        g = route(c.x, n, c.spec)
        hi, lo = g.residual_max.power_exact, g.residual_min.power_exact
        priced = [hi if g.tie.empty else explicit.norm_power(
                      explicit.to_explicit(left_after(c.x, c.spec, g, witness), c.spec), c.spec)
                  for witness, value in ((g.witness_max, hi), (g.witness_min, lo))]
        out.append((hi, lo, *priced))
    return out


def _every_k(c):
    return range(c.x.support_size + 1)


def exact_route(p, params):
    """Whether quasinorm_bracket answers exactly: q = inf, or integer exponents
    e1 = q alpha - 1 >= 0 and e2 = q/p."""
    e1, e2 = params.q * params.alpha - 1.0, params.q / p
    return math.isinf(params.q) or (e1 >= 0 and e1.is_integer() and e2.is_integer())


def _series_tol(c):
    """1e-12 on an exact route; bit for bit where every piece is summed term by
    term, as the oracle sums it; else 1e-14 (Euler-Maclaurin on long pieces)."""
    if exact_route(c.seq.p, c.params):
        return {"rel": 1e-12}
    if all(hi - lo < approx.DIRECT for lo, hi, _, _ in approx._lines(c.seq)):
        return None
    return {"rel": 1e-14}


def _bracket(route, c):
    """The value, and whether its bracket holds it (with width 0 on an exact route)."""
    lo, value, hi = route(c.seq, c.params)
    return value, lo <= value <= hi and (lo == hi or not exact_route(c.seq.p, c.params))


def _vector_tol(c):
    return {"rel": 1e-12} if exact_route(c.spec.exact_p, c.params) else None


def _per_term(oracle, powers, c):
    """The per-term quasi-norm of a sequence given by its powers at k = 0..support."""
    seq = SimpleNamespace(power=powers.__getitem__, support_size=len(powers) - 1, p=c.spec.exact_p)
    return oracle(seq, c.params)


def _both_outcomes(wants):
    """Each check came out both True and False over the family."""
    seen = {item for want in wants for item in want}
    return len(seen) == 2 * len({name for name, _ in seen})


# ---------------------------------------------------------------------------
# The table


ROWS: dict[str, Row] = {
    "space_norm ~ norm_power": Row(
        spaces.space_norm, explicit.norm_power,
        {"shuffled signed layouts": Family(
            shuffled_layouts, runs_in="test_spaces::test_norm_blind_to_permutations_and_signs")},
        lambda route, c: route(c.x, c.spec).power_exact,
        lambda oracle, c: oracle(c.values, c.spec),
        "integer inner_p == outer_p; linear in the dimension"),
    "space_norm ~ sup_form_norm_oracle": Row(
        spaces.space_norm, explicit.sup_form_norm_oracle,
        {"truncated blocks": Family(
            truncated_blocks, runs_in="test_spaces::test_trunc_norm_equals_sup_oracle_exhaustively"),
         "ones in one block": Family(
             lambda: [Case(spec=SpaceSpec.trunc_block(2, 5, 2), coords=[1] * 5, cap=2, values=[1] * 5)],
             runs_in="test_spaces::test_block_sum_cross_checked_with_sup_oracle_on_shrunken_analogue")},
        lambda route, c: route(explicit.from_explicit(c.values, c.spec), c.spec).power_exact,
        lambda oracle, c: oracle(c.coords, c.cap).power_exact,
        f"p = 2; support <= {explicit.SUP_FORM_MAX_SUPPORT}"),
    "space_norm ~ norm_float": Row(
        spaces.space_norm, explicit.norm_float,
        {"float exponents": Family(
            float_exponents, runs_in="test_spaces::test_non_integer_exponents_match_the_float_oracle")},
        lambda route, c: (lambda nv: (nv.value, nv.power_exact))(
            route(explicit.from_explicit(c.values, c.spec), c.spec)),
        lambda oracle, c: (oracle(c.values, c.spec), None),
        "finite dimension; floats", tol={"rel": 1e-12}),
    "demfun_dp ~ alloc_dp": Row(
        democracy.demfun_dp, explicit.alloc_dp,
        {"random blocks": Family(
             random_block_structures,
             runs_in="test_democracy::test_dp_equals_extreme_on_random_block_structures"),
         "schedule windows": Family(
             schedule_windows, covers=lambda wants: all(
                 hr is None or wr == (hr, hr) for want in wants for _, hr, _, wr in want),
             runs_in="test_democracy::test_dp_equals_extreme_on_schedules"),
         "block sums": Family(
             functools.cache(lambda: [_points(b, _size(b)) for b in DRAWN_BLOCK_SUMS()]),
             runs_in="test_democracy::test_table_equals_dp_oracle_and_point_queries"),
         "typed block sums": Family(
             functools.cache(lambda: [_points(b, _typed_max_n(b), 3) for b in DRAWN_TYPED()]),
             runs_in="test_democracy::test_table_and_points_equal_dp_oracle_on_typed_block_sums")},
        _demfun_points, _alloc_dp_points, "quadratic in max N"),
    "demfun_dp ~ demfun_bruteforce": Row(
        democracy.demfun_dp, explicit.demfun_bruteforce,
        {"toy": Family(lambda: [_points([(2, 4), (3, 6)], 10)]),
         "shrunken truncations": Family(lambda: [_points(b, _size(b)) for b in ([(4, 12)], [(2, 5), (4, 8)])])},
        lambda route, c: [(p.hl_power, p.hr_power) for p in (route(c.spec, n) for n, _ in c.queries)],
        lambda oracle, c: [oracle(c.spec, n) for n, _ in c.queries],
        f"dimension <= {explicit.BRUTEFORCE_MAX_DIM}"),
    "demfun_table ~ alloc_dp": Row(
        democracy.demfun_table, explicit.alloc_dp,
        {"block sums": Family(
             functools.cache(lambda: [_table_case(b, _size(b)) for b in DRAWN_BLOCK_SUMS()]),
             runs_in="test_democracy::test_table_equals_dp_oracle_and_point_queries"),
         "typed block sums": Family(
             functools.cache(lambda: [_table_case(b, _typed_max_n(b)) for b in DRAWN_TYPED()]),
             runs_in="test_democracy::test_table_and_points_equal_dp_oracle_on_typed_block_sums"),
         "blocks past max_N": Family(
             blocks_past_max_n, runs_in="test_democracy::test_table_skipping_blocks_equals_dp_oracle"),
         "deep schedule": Family(
             lambda: [_window(arithmetic_schedule(5), 2000)],
             runs_in="test_democracy::test_table_equals_dp_oracle_on_deep_schedule"),
         **{f"benchmark schedule {s}-{d}": Family(
             lambda s=s, d=d: [_window(BlockSchedule(tuple(range(s, s + 6 * d, d))), 1200)],
             runs_in=f"test_democracy::test_table_equals_dp_oracle_on_benchmark_schedules[{s}-{d}]")
            for s in (4, 5, 6) for d in (1, 2)}},  # a_j = s + (j - 1) d
        _table, lambda oracle, c: list(oracle(_blocks(c.spec), c.max_n)), "quadratic in max N"),
    "demfun_table ~ demfun_bruteforce": Row(
        democracy.demfun_table, explicit.demfun_bruteforce,
        {"small universes": Family(
            functools.cache(lambda: [_table_case(b, _size(b)) for b in drawn(
                "small universes", block_sums(max_blocks=4, max_size=8).filter(lambda b: _size(b) <= 16), 50)()]),
            runs_in="test_democracy::test_table_equals_bruteforce_on_small_universes")},
        _table_points, lambda oracle, c: [oracle(c.spec, n) for n in range(c.max_n + 1)],
        f"dimension <= {explicit.BRUTEFORCE_MAX_DIM}"),
    "doubling_scan ~ alloc_dp": Row(
        democracy.doubling_scan, explicit.alloc_dp,
        {"tabulable windows": Family(tabulable_windows)},
        lambda route, c: [(r.k, r.hl_n_power, r.hl_2n_power) for r in route(c.schedule, c.ks)],
        _doubling_oracle, "quadratic in 2 n_(k+1)"),
    "prefix_norm_conjecture_check ~ alloc_dp": Row(
        democracy.prefix_norm_conjecture_check, explicit.alloc_dp,
        {"a = (4,...,8), N = 1..200": Family(
            lambda: [Case(schedule=arithmetic_schedule(4), ns=range(1, 201))],
            runs_in="test_democracy::test_prefix_check_matches_per_n_dp_oracle")},
        lambda route, c: _prefix_column(route(c.schedule, c.ns), 2),
        _prefix_hl, "quadratic in max N"),
    "prefix_norm_conjecture_check ~ norm_power": Row(
        democracy.prefix_norm_conjecture_check, explicit.norm_power,
        {"a = (4,...,8), N = 1..200": Family(
            lambda: [Case(schedule=arithmetic_schedule(4), ns=range(1, 201))],
            covers=lambda wants: all(counterexamples for _, counterexamples in wants),
            runs_in="test_democracy::test_prefix_check_matches_per_n_dp_oracle")},
        lambda route, c: (lambda report: (_prefix_column(report, 1), list(report.counterexamples)))(
            route(c.schedule, c.ns)),
        _prefix_norm, "linear in the dimension of the blocks that hold max N, per N"),
    "concave_min ~ min_plus_table": Row(
        alloc.concave_min, explicit.min_plus_table,
        {"concave costs": Family(
            drawn("concave costs", concave_values(), 400),
            runs_in="test_alloc::test_concave_min_equals_the_exhaustive_minimum")},
        _concave_min, lambda oracle, values: [(v, n, v) for n, v in enumerate(_least_sums(oracle, values))],
        "quadratic in the total size"),
    "min_plus ~ min_plus_table": Row(
        alloc.min_plus, explicit.min_plus_table,
        {"piecewise-linear pairs": Family(
            piecewise_linear_pairs, runs_in="test_alloc::test_min_plus_equals_the_tabulated_min_plus")},
        _min_plus, lambda oracle, tables: (0, _least_sums(oracle, tables)),
        "quadratic in the total size"),
    "sigma_exact ~ sigma_removals_bruteforce": Row(
        greedy.sigma_exact, explicit.sigma_removals_bruteforce,
        {"small random vectors": Family(
            small_random_vectors, runs_in="test_greedy::test_sigma_matches_removal_bruteforce")},
        lambda route, c: route(c.x, c.n, c.spec).power_exact,
        lambda oracle, c: oracle(c.values, c.n, c.spec),
        "C(support, N) removal sets"),
    "sigma_exact ~ sigma_power_table": Row(
        greedy.sigma_exact, explicit.sigma_power_table,
        {"small random vectors": Family(small_random_vectors)},
        lambda route, c: route(c.x, c.n, c.spec).power_exact,
        lambda oracle, c: (list(oracle(c.x, c.spec)) + [0])[c.n],
        "integer p; quadratic in the support"),
    "sigma_exact ~ sigma_oracle_grid": Row(
        greedy.sigma_exact, explicit.sigma_oracle_grid,
        {"(2, 4) truncated block": Family(
            grid_trunc_block, runs_in="test_greedy::test_sigma_grid_oracle_validates_suppression_on_trunc_block")},
        lambda route, c: float(route(c.x, c.n, c.spec)),
        lambda oracle, c: oracle(c.values, c.n, c.spec),
        "dimension <= 4, magnitudes <= 8", tol={"abs": math.nextafter(1e-6, 0)}),  # |diff| < 1e-6
    "error_sequence(sigma) ~ sigma_power_table": Row(
        greedy.error_sequence, explicit.sigma_power_table,
        {"wide block sums": Family(
            functools.cache(lambda: [Case(spec=spec, x=x) for spec, x in drawn("wide block sums", wide_block_sums(), 200)()]),
            runs_in="test_greedy::test_sigma_sequences_match_dp_on_wide_block_sums")},
        lambda route, c: route(c.x, c.spec, "sigma").powers(),
        lambda oracle, c: list(oracle(c.x, c.spec)),
        "integer p; quadratic in the support"),
    "error_sequence(sigma) ~ sigma_removals_bruteforce": Row(
        greedy.error_sequence, explicit.sigma_removals_bruteforce,
        {"small random vectors": Family(small_random_vectors)},
        lambda route, c: route(c.x, c.spec, "sigma").powers(),
        lambda oracle, c: [oracle(c.values, k, c.spec) for k in _every_k(c)],
        "C(support, N) removal sets"),
    "gamma ~ gamma_raw": Row(
        greedy.gamma, explicit.gamma_raw,
        {"tied random vectors": Family(
             tied_random_vectors, runs_in="test_greedy::test_gamma_compressed_equals_raw_enumeration_random"),
         "small tied vectors": Family(
             small_tied_vectors, runs_in="test_greedy::test_gamma_tie_extremes_match_raw_enumeration")},
        _gamma_points,
        lambda oracle, c: [(hi, lo, hi, lo) for hi, lo in (oracle(c.values, n, c.spec) for n in c.ns)],
        "C(tied, kept) resolutions"),
    "error_sequence(gamma) ~ gamma_raw": Row(
        greedy.error_sequence, explicit.gamma_raw,
        {"tied random vectors": Family(tied_random_vectors)},
        lambda route, c: route(c.x, c.spec, "gamma").powers(),
        lambda oracle, c: [oracle(c.values, k, c.spec)[0] for k in _every_k(c)],
        "C(tied, kept) resolutions"),
    "quasinorm_bracket ~ quasinorm_per_term": Row(
        approx.quasinorm_bracket, explicit.quasinorm_per_term,
        {"error sequences": Family(
            drawn_error_sequences, runs_in="test_approx::test_piecewise_series_match_per_term_oracle"),
         **{f"x_s at s = {s}": Family(
             functools.partial(xs_sequences, s), runs_in=f"test_approx::test_xs_routes_match_per_term_oracles[{s}]")
            for s in (2, 3, 4)}},
        _bracket, lambda oracle, c: (oracle(c.seq, c.params), True), "one term per k < support",
        tol=_series_tol),
    "approx_quasinorm ~ quasinorm_per_term": Row(
        approx.approx_quasinorm, explicit.quasinorm_per_term,
        {"tied random vectors": Family(vectors_and_params)},
        lambda route, c: route(c.x, c.spec, c.params),
        lambda oracle, c: _per_term(oracle, explicit.sigma_power_table(c.x, c.spec), c),
        "one term per k < support", tol=_vector_tol),
    "greedy_quasinorm ~ quasinorm_per_term": Row(
        approx.greedy_quasinorm, explicit.quasinorm_per_term,
        {"tied random vectors": Family(vectors_and_params)},
        lambda route, c: route(c.x, c.spec, c.params),
        lambda oracle, c: _per_term(oracle, [explicit.gamma_raw(c.values, k, c.spec)[0] for k in _every_k(c)], c),
        "one term per k < support", tol=_vector_tol),
    "sequence_bound_checks ~ sequence_bound_checks_per_k": Row(
        approx.sequence_bound_checks, explicit.sequence_bound_checks_per_k,
        {"knot checks": Family(
             drawn("knot checks", knot_check_instances(), 300), covers=_both_outcomes,
             runs_in="test_approx::test_knot_checks_match_per_k_oracle"),
         **{f"x_s at s = {s}": Family(
             functools.partial(xs_bound_arguments, s), covers=lambda wants: all(ok for w in wants for _, ok in w),
             runs_in=f"test_approx::test_xs_routes_match_per_term_oracles[{s}]") for s in (2, 3, 4)}},
        lambda route, args: sorted(route(*args).items()),
        lambda oracle, args: sorted(oracle(*args).items()),
        "one power per k <= support"),
}

NO_ROW = {  # exported functions with no row, and why
    "arithmetic_schedule": "builds a schedule: an input, not a computed quantity",
    "squares_schedule": "builds a schedule: an input, not a computed quantity",
    "canonicalize": "builds a vector: an input, not a computed quantity",
    "indicator": "builds a vector: an input, not a computed quantity",
    "space_from_json": "parses a space: an input, not a computed quantity",
    "cghm_construct": "cghm.py: float decisions with no oracle (ROADMAP item 4)",
    "condition71_check": "cghm.py: float decisions with no oracle (ROADMAP item 4)",
    "envelope": "a closed form in s, alpha and q, with nothing to enumerate",
    "build_xs": "composes doubling_scan, space_norm and the sequences (rows) with exact build-time checks",
    "optimality_experiment": "composes build_xs, sequence_bound_checks and quasinorm_bracket (rows)",
}
