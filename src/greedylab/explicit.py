"""Every oracle of the package, independent of the routes it checks.

Most of them work on a flat list of (possibly signed) coordinate values over
a small finite universe and answer by raw enumeration: subset brute force
for h_l / h_r, gamma and sigma, the sup-form norm, and a grid search over
free coefficients for sigma.  The rest are quadratic tabulations: one
tabulated min-plus (``min_plus_table``) for h_l / h_r on block sums and for
the sigma table, and the per-k / per-term x_s checks and quasi-norms.
``random_vector`` draws the small random vectors that ``lattice_check`` and
the tests use.

The module imports nothing from greedy, democracy, approx, alloc or
errorseq.  From spaces and vectors it imports the types ``SpaceSpec``,
``NormValue`` and ``CompressedVector``, ``canonicalize`` (a vector from raw
groups), ``_float_root`` (the float root of an exact power) and
``space_norm``, which only ``lattice_check`` reads: ``space_norm`` is what
it checks.  So no oracle shares code with the route it checks.

No oracle prunes its search space on theory: every candidate its
enumeration defines is accounted for, and where one is fast it only
evaluates candidates more cheaply (the brute force updates two coordinates
per subset; the grid search keeps each distinct power of a coordinate once
per column of candidate coefficients and computes a norm once per distinct
tuple of those powers, since candidates with equal powers have equal norms
and the first minimum of a scan is always one of those kept).  Its float
norm adds powers with ``math.fsum``: correctly rounded, so order-free and
the same on every Python version; a scan maps its stages over the
candidates in C, leaving out a power at exponent 1.0 (``x ** 1.0 == x``),
so no bit moves.  The size limits below refuse instances that enumeration
cannot finish.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError, OracleUnavailableError
from .exact import as_fraction, as_rational, pow_rational, simplify
from .spaces import NormValue, SpaceSpec, _float_root, space_norm
from .vectors import CompressedVector, canonicalize

BRUTEFORCE_MAX_DIM = 20  # demfun_bruteforce: universes up to 2^20 subsets
SUP_FORM_MAX_SUPPORT = 25  # sup_form_norm_oracle: supports it enumerates
GRID_COEFF_BOUND = 9  # sigma_oracle_grid: integer start grid [-9, 9]^n


def block_offsets(spec: SpaceSpec) -> list[int]:
    """Start offset of each block in the flat layout (finite spaces only)."""
    offsets = []
    pos = 0
    for b in spec.blocks:
        if b.size is None:
            raise ValueError("explicit backend needs finite block sizes")
        offsets.append(pos)
        pos += b.size
    return offsets


def dimension(spec: SpaceSpec) -> int:
    dim = spec.dimension()
    if dim is None:
        raise ValueError("explicit backend needs a finite-dimensional space")
    return dim


def to_explicit(
    x: CompressedVector, spec: SpaceSpec, rng=None
) -> list[Fraction]:
    """Lay a compressed vector out as explicit coordinates.

    With an rng, coordinates are shuffled within their block and given
    random signs; all norms must be blind to both.
    """
    offsets = block_offsets(spec)
    values = [Fraction(0)] * dimension(spec)
    for b in x.blocks():
        size = spec.blocks[b].size
        slots = list(range(size))
        if rng is not None:
            rng.shuffle(slots)
        pos = 0
        for mag, count in x.block_groups(b):
            for _ in range(count):
                sign = 1 if rng is None or rng.random() < 0.5 else -1
                values[offsets[b] + slots[pos]] = mag * sign
                pos += 1
    return values


def from_explicit(values: Sequence, spec: SpaceSpec) -> CompressedVector:
    offsets = block_offsets(spec)
    raw = []
    for b, off in enumerate(offsets):
        for slot in range(spec.blocks[b].size):
            v = as_rational(values[off + slot])
            raw.append((b, abs(v), 1))
    return canonicalize(raw, sizes=spec.sizes())


def norm_power(values: Sequence, spec: SpaceSpec):
    """Exact p-th power of the space norm (needs integer inner_p == outer_p)."""
    p = spec.exact_p
    if p is None:
        raise ValueError("exact explicit norm needs integer inner_p == outer_p")
    _check_count(values, spec)
    offsets = block_offsets(spec)
    total = 0
    for b, block in enumerate(spec.blocks):
        mags = sorted(
            (abs(as_rational(values[offsets[b] + j])) for j in range(block.size)),
            reverse=True,
        )
        total += sum(pow_rational(m, p) for m in mags[: block.cap])
    return simplify(total)


def norm_float(values: Sequence, spec: SpaceSpec) -> float:
    """Float space norm for arbitrary exponents (the grid oracle's objective)."""
    _check_count(values, spec)
    inner = float(spec.inner_p)
    return _float_norm(spec)([abs(float(v)) ** inner for v in values])


def _check_count(values: Sequence, spec: SpaceSpec) -> None:
    dim = dimension(spec)
    if len(values) != dim:
        raise ValueError(f"{len(values)} coordinates for a {dim}-dimensional space")


def _check_query(values: Sequence, n: int, spec: SpaceSpec) -> None:
    _check_count(values, spec)
    if n < 0:
        raise ValueError(f"need 0 <= n, got {n}")


def _norm_stages(spec: SpaceSpec) -> list[tuple]:
    """``_float_norm`` for the layout, as stages (function, more arguments) applied in turn."""
    ratio, root = spec.outer_p / spec.inner_p, 1.0 / spec.outer_p
    fsum = math.fsum
    layout = [
        (off, off + block.size, block.size if block.cap is None else block.cap)
        for off, block in zip(block_offsets(spec), spec.blocks)
    ]
    (_, size, cap), *more = layout
    if more:

        def blocks(powers: Sequence[float]) -> float:
            return fsum(fsum(sorted(powers[lo:hi])[-cap:]) ** ratio for lo, hi, cap in layout)

        stages = [(blocks, ())]  # 0.0 ** ratio is 0.0: ratio > 0
    else:
        stages = [(sorted, ()), (operator.itemgetter(slice(-cap, None)), ())] if cap < size else []
        stages += [(fsum, ()), (pow, (ratio,))]
    return [(func, args) for func, args in stages + [(pow, (root,))] if args != (1.0,)]


def _float_norm(spec: SpaceSpec):
    """The float space norm, as a function of the flat coordinates' powers.

    Each argument entry is ``|v_i| ** inner_p`` for one coordinate, in the
    flat layout; the caller checks their count.  Every block adds the
    ``cap`` largest of its powers (the largest magnitudes: ``x ** p`` is
    monotone for p > 0), and the blocks add their outer powers, each sum
    correctly rounded by ``math.fsum``: order-free, so powers permuted
    within a block give a bit-identical norm, on every Python version.
    Per layout (``_norm_stages``): ``fsum`` on one block that sees all its
    coordinates (every lp space), ``sorted``, the top ``cap`` and ``fsum``
    on one truncated block, one closure sorting each block on several;
    then the powers by ``ratio`` and ``root``, left out at exponent 1.0,
    where ``x ** 1.0 == x`` to the bit.  A sum or power past the float
    range (``OverflowError``) gives ``math.inf``.
    """
    stages = _norm_stages(spec)

    def norm(powers: Sequence[float]) -> float:
        try:
            for func, args in stages:
                powers = func(powers, *args)
            return powers
        except OverflowError:
            return math.inf

    return norm


def _norm_scan(spec: SpaceSpec):
    """``_float_norm`` of every tuple of ``itertools.product(*columns)``, bit for bit, as a list.

    Its stages are maps over the product.  A scan that raises ``OverflowError``
    runs again per candidate, so exactly those past the float range give inf."""
    # An endless repeat of each further argument serves every scan.
    chain = [(func, [*map(itertools.repeat, args)]) for func, args in _norm_stages(spec)]

    def scan(columns: Sequence[Sequence[float]]) -> list[float]:
        found = itertools.product(*columns)
        for func, args in chain:
            found = map(func, found, *args)
        try:
            return list(found)
        except OverflowError:
            return list(map(_float_norm(spec), itertools.product(*columns)))

    return scan


# ---------------------------------------------------------------------------
# Norm oracles: sup form and the lattice property


def sup_form_norm_oracle(coords: Sequence, cap: int) -> NormValue:
    """Independent p=2 oracle: sup over index sets of size <= cap.

    For each subset G the inner supremum over weight sequences in the l_2
    unit ball is attained at the normalized restriction, i.e. it equals the
    l_2 norm of the restricted vector; so only the subsets are enumerated.
    Feasible only for small supports, by design.
    """
    if len(coords) > 2**20:
        raise OracleUnavailableError("universe too large for the sup-form oracle")
    values = [as_fraction(abs(c)) for c in coords]
    support = [i for i, v in enumerate(values) if v != 0]
    if len(support) > SUP_FORM_MAX_SUPPORT:
        raise OracleUnavailableError(
            f"support {len(support)} exceeds oracle limit {SUP_FORM_MAX_SUPPORT}"
        )
    take = min(cap, len(support))
    best = 0
    for subset in itertools.combinations(support, take):
        power = sum(values[i] ** 2 for i in subset)
        if power > best:
            best = power
    return NormValue.from_power(best, 2)


def random_vector(spec: SpaceSpec, rng: random.Random, *, max_mag: int = 8) -> CompressedVector:
    """Small random canonical vector that respects the space's capacities:
    up to 3 groups per block, of 1 to 4 coordinates each."""
    raw = []
    for b, block in enumerate(spec.blocks):
        room = block.size if block.size is not None else 12
        for _ in range(rng.randint(0, 3)):
            if room <= 0:
                break
            count = rng.randint(1, min(4, room))
            mag = Fraction(rng.randint(0, max_mag * 4), 4)
            raw.append((b, mag, count))
            room -= count
    return spec.vector(raw)


@dataclass
class LatticeReport:
    passed: bool
    trials: int
    failures: list = field(default_factory=list)


def lattice_check(spec: SpaceSpec) -> LatticeReport:
    """Property-check the lattice inequality and basis normalization.

    For 200 random x (seed 0) and random per-coordinate factors
    |lambda| <= 1 the norm must not increase; every basis vector must have
    norm exactly 1.  All comparisons are exact (rational magnitudes,
    integer exponents).
    """
    rng = random.Random(0)
    report = LatticeReport(passed=True, trials=200)

    for b in range(spec.num_blocks):
        e = spec.indicator({b: 1})
        nv = space_norm(e, spec)
        if nv.power_exact != 1:
            report.passed = False
            report.failures.append({"kind": "normalization", "block": b, "norm": nv.value})

    for t in range(report.trials):
        x = random_vector(spec, rng)
        if x.is_zero:
            continue
        # Split groups so different coordinates get different shrink factors.
        raw = []
        for b, mag, count in x.groups:
            left = count
            while left > 0:
                part = rng.randint(1, left)
                lam = Fraction(rng.randint(0, 16), 16)
                raw.append((b, mag * lam, part))
                left -= part
        y = spec.vector(raw)
        nx, ny = space_norm(x, spec), space_norm(y, spec)
        ok = (
            ny.power_exact <= nx.power_exact
            if nx.is_exact() and ny.is_exact()
            else ny.value <= nx.value * (1 + 1e-9)
        )
        if not ok:
            report.passed = False
            report.failures.append(
                {"kind": "lattice", "trial": t, "x": x.to_json(), "y": y.to_json()}
            )
    return report


# ---------------------------------------------------------------------------
# Democracy functions: subset brute force


def demfun_bruteforce(spec: SpaceSpec, n: int):
    """Exact (h_l^p, h_r^p) by enumerating every index set of size n.

    The sets come in revolving-door order, each one index out and one in
    away from the last.  So a step updates two explicit coordinates and the
    sorted coordinate powers of their blocks, and re-sums the top cap of
    those blocks only; the first set's power is ``norm_power``'s.
    """
    dim = dimension(spec)
    if dim > BRUTEFORCE_MAX_DIM:
        raise OracleUnavailableError(
            f"universe {dim} exceeds brute-force limit {BRUTEFORCE_MAX_DIM}"
        )
    if not 0 <= n <= dim:
        raise ValueError(f"need 0 <= n <= {dim}")
    if n == 0:
        return 0, 0
    zero, one = 0, 1
    values = [one if i < n else zero for i in range(dim)]
    total = norm_power(values, spec)
    power_of = {v: pow_rational(abs(v), spec.inner_p) for v in (zero, one)}
    block_of = [b for b, block in enumerate(spec.blocks) for _ in range(block.size)]
    ranked: list[list] = [[] for _ in spec.blocks]  # |coordinate|^p, ascending
    for i, v in enumerate(values):
        bisect.insort(ranked[block_of[i]], power_of[v])
    caps = [len(r) if block.cap is None else min(block.cap, len(r))
            for r, block in zip(ranked, spec.blocks)]
    powers = [sum(r[len(r) - cap:]) for r, cap in zip(ranked, caps)]
    if sum(powers) != total:
        raise InvariantError(f"block powers sum to {sum(powers)}, not {total}")
    lo = hi = total
    prev = set(range(n))
    for subset in itertools.islice(_revolving_door(dim, n), 1, None):
        now = set(subset)
        (out,), (into,) = prev - now, now - prev
        for i, value in ((out, zero), (into, one)):
            b, r = block_of[i], ranked[block_of[i]]
            del r[bisect.bisect_left(r, power_of[values[i]])]
            bisect.insort(r, power_of[value])
            values[i] = value
            total -= powers[b]
            powers[b] = sum(r[len(r) - caps[b]:])
            total += powers[b]
        lo, hi, prev = min(lo, total), max(hi, total), now
    return lo, hi


def _revolving_door(dim: int, n: int):
    """Every n-subset of range(dim) as a sorted tuple, consecutive ones one swap apart.

    The subsets without dim - 1 in this order, then those with it in the
    reverse order of the (n - 1)-subsets; the seam is one swap too.
    """
    if n == 0 or n == dim:
        yield tuple(range(n))
        return
    yield from _revolving_door(dim - 1, n)
    for subset in reversed(list(_revolving_door(dim - 1, n - 1))):
        yield subset + (dim - 1,)


# ---------------------------------------------------------------------------
# Tabulated min-plus: the quadratic reference route for h_l / h_r and sigma


def min_plus_table(tables: Sequence[Sequence], limit: int) -> list:
    """Least sum of tables[b][m_b] over allocations of exactly n units, n = 0..limit.

    Block b takes 0 .. len(tables[b]) - 1 units.  The plain quadratic fold,
    one table at a time; each table past ``limit`` units is cut off, so the
    result to a smaller limit is a prefix.  Every n up to the tables' total
    size is reachable; a limit past it raises ValueError.
    """
    total = sum(len(table) - 1 for table in tables)
    if not 0 <= limit <= total:
        raise ValueError(f"no allocation of {limit} units fits tables of total size {total}")
    best = [0]
    for table in tables:
        last = min(len(table) - 1, limit)
        backward = table[last::-1]  # backward[i] = table[last - i]
        # best[j] + table[n - j] over j = max(0, n - last) .. min(n, len(best) - 1)
        best = [
            min(map(operator.add, best[max(0, n - last) : n + 1], backward[max(0, last - n) :]))
            for n in range(min(len(best) + last, limit + 1))
        ]
    return best


def alloc_dp(blocks: Sequence[tuple[int, int]], max_n: int) -> tuple[list, list]:
    """(h_l^p, h_r^p) tables for n = 0..max_n on (cap, size) blocks.

    The least and the largest sum of min(m_b, cap_b) over allocations of
    exactly n coordinates, m_b <= size_b: ``min_plus_table`` over those
    costs and over their negations.  A max_n past the blocks raises ValueError.
    """
    costs = [[min(m, cap) for m in range(min(size, max_n) + 1)] for cap, size in blocks]
    hr = min_plus_table([[-c for c in cost] for cost in costs], max_n)
    return min_plus_table(costs, max_n), [-v for v in hr]


# ---------------------------------------------------------------------------
# gamma and sigma: raw enumeration, removal-count table and grid search


def gamma_raw(values: Sequence, n: int, spec: SpaceSpec):
    """(max, min) residual norm power over every valid greedy keep-set.

    A keep-set is valid iff it contains all coordinates strictly above the
    threshold magnitude and fills up with any coordinates at the threshold.
    """
    _check_query(values, n, spec)
    vals = [as_rational(v) for v in values]
    dim = len(vals)
    if n >= dim:
        return 0, 0
    if n == 0:
        power = norm_power(vals, spec)
        return power, power
    order = sorted(range(dim), key=lambda i: abs(vals[i]), reverse=True)
    threshold = abs(vals[order[n - 1]])
    forced = [i for i in range(dim) if abs(vals[i]) > threshold]
    tied = [i for i in range(dim) if abs(vals[i]) == threshold]
    need = n - len(forced)
    best_hi = best_lo = None
    for chosen in itertools.combinations(tied, need):
        kept = set(forced) | set(chosen)
        residual = [0 if i in kept else vals[i] for i in range(dim)]
        power = norm_power(residual, spec)
        best_hi = power if best_hi is None or power > best_hi else best_hi
        best_lo = power if best_lo is None or power < best_lo else best_lo
    return best_hi, best_lo


def sigma_removals_bruteforce(values: Sequence, n: int, spec: SpaceSpec):
    """Best n-term error power, minimizing over all removal sets exactly."""
    _check_query(values, n, spec)
    vals = [as_rational(v) for v in values]
    support = [i for i, v in enumerate(vals) if v != 0]
    if n >= len(support):
        return 0
    if n == 0:
        return norm_power(vals, spec)
    best = None
    for removed in itertools.combinations(support, n):
        residual = list(vals)
        for i in removed:
            residual[i] = 0
        power = norm_power(residual, spec)
        best = power if best is None or power < best else best
    return best


def sigma_power_table(x: CompressedVector, spec: SpaceSpec) -> tuple:
    """sigma_k^p for k = 0..support: ``min_plus_table`` over per-block removal counts.

    Within each block removing the largest magnitudes first is optimal
    (block norms are symmetric and monotone), so only the split of the k
    removals across blocks is searched.  Each block's residuals come from
    its magnitudes laid out one by one in descending order, with prefix
    sums of their p-th powers.  Quadratic in the support.
    """
    p = spec.exact_p
    if p is None:
        raise ValueError("exact sigma table needs integer inner_p == outer_p")
    x = spec.conform(x)
    residuals = []
    for b in x.blocks():
        mags = [mag for mag, count in x.block_groups(b) for _ in range(count)]
        prefix = list(itertools.accumulate((pow_rational(m, p) for m in mags), initial=0))
        size, cap = len(mags), spec.blocks[b].cap
        window = size if cap is None else cap
        residuals.append([prefix[min(j + window, size)] - prefix[j] for j in range(size + 1)])
    dp = [simplify(v) for v in min_plus_table(residuals, x.support_size)]
    if len(dp) != x.support_size + 1 or dp[-1] != 0:
        raise InvariantError(f"sigma table of length {len(dp)} ends at {dp[-1]}")
    return tuple(dp)


def sigma_oracle_grid(values: Sequence, n: int, spec: SpaceSpec) -> float:
    """Brute-force sigma_n over supports AND free coefficients.

    Enumerates every support of size n; for each, minimizes the residual
    norm over coefficients on an integer grid followed by halving-window
    refinement (the objective is convex in the coefficients, so the local
    refinement reaches the global minimum).  Per support that is 19^n
    grid points, then 5^n candidates per step: the offsets
    (-2, -1, 0, 1, 2) * w of the best point, at each of the 27 halvings
    w of the window, repeated while a step moves.  Both phases scan
    ``itertools.product`` over per-coordinate columns of powers
    ``|v_i - c| ** inner_p`` (c = 0 for a fixed coordinate; grid and fixed
    columns built once per call) and take the first minimum, its point
    read off its index in mixed radix; a step moves to it while it beats
    the best value by more than 1e-15 (steepest descent).  A column keeps
    each distinct power once, at its first coefficient (``_distinct``), so
    the norm is computed once per distinct tuple of powers, by one
    ``_norm_scan`` per scan (``fsum`` and the powers mapped over the
    product in C, a power left out at exponent 1.0: bit for bit
    ``_float_norm``), and names the same candidate as visiting them all.
    Exists solely to validate that free coefficients never beat plain
    suppression.
    """
    _check_query(values, n, spec)
    dim = len(values)
    if dim > 4:
        raise ValueError("grid oracle is limited to dimension <= 4")
    vals = [float(v) for v in values]
    if any(abs(v) > 8 for v in vals):
        raise ValueError("grid oracle expects magnitudes <= 8")
    scan, inner = _norm_scan(spec), float(spec.inner_p)
    fixed = [(abs(v) ** inner,) for v in vals]
    if n == 0:
        return scan(fixed)[0]
    if n >= dim:
        return 0.0

    grid = [float(c) for c in range(-GRID_COEFF_BOUND, GRID_COEFF_BOUND + 1)]
    grid_columns = [_distinct(v, grid, inner) for v in vals]
    best_overall = math.inf

    def first_min(kept, bound):
        """(value, point) of the first minimum if below bound, else None; kept maps each
        support coordinate, in increasing order, to its column {power: first coefficient}."""
        found = scan([kept.get(i, column) for i, column in enumerate(fixed)])
        best = min(found)
        if best >= bound:
            return None
        at, point = found.index(best), []
        for first in reversed(kept.values()):  # the last column turns fastest
            at, digit = divmod(at, len(first))  # a fixed column adds no digit
            point.append(list(first.values())[digit])
        return best, point[::-1]

    for support in itertools.combinations(range(dim), n):
        best_val, best_pt = first_min({i: grid_columns[i] for i in support}, math.inf)
        step = 1.0
        while step > 1e-8:
            step /= 2.0
            offsets = (-2 * step, -step, 0.0, step, 2 * step)
            while hit := first_min(
                {i: _distinct(vals[i], [b + d for d in offsets], inner)
                 for i, b in zip(support, best_pt)},
                best_val - 1e-15,
            ):
                best_val, best_pt = hit
        best_overall = min(best_overall, best_val)
    return best_overall


def _distinct(v: float, coeffs: Sequence[float], inner: float) -> dict[float, float]:
    """{|v - c| ** inner: first c} over the coefficients, in their order."""
    first: dict[float, float] = {}
    for c in coeffs:
        first.setdefault(abs(v - c) ** inner, c)
    return first


# ---------------------------------------------------------------------------
# x_s bound checks and quasi-norms, one k at a time


def sequence_bound_checks_per_k(sigma, gamma, n_s: int, v: int, r: int, s: int) -> dict:
    """The x_s bounds of ``approx.sequence_bound_checks``, one power(k) per k."""
    support = sigma.support_size
    return {
        "gamma_ge_vs_up_to_ms": all(gamma.power(k) >= v for k in range(1, n_s + 1)),
        "ls2_sigma_tail": all(
            sigma.power(k) * s * s <= 9 * r * r * v for k in range(v, support + 1)
        ),
        "ls3_sigma_all": all(sigma.power(k) <= 9 * v for k in range(support + 1)),
        "sigma_le_gamma": all(sigma.power(k) <= gamma.power(k) for k in range(support + 1)),
    }


def quasinorm_per_term(seq, params) -> float:
    """The quasi-norm of ``approx.quasinorm_bracket``, one power(k) per term.

    ||x|| is the p-th root of power(0), the series the math.fsum of
    k^(q alpha - 1) power(k)^(q/p) (the sup of k^alpha power(k)^(1/p) at
    q = inf) over k = 1 .. support - 1.
    """
    alpha, q, p = params.alpha, params.q, seq.p
    ks, norm = range(1, seq.support_size), _float_root(seq.power(0), p)
    if math.isinf(q):
        return norm + max((k**alpha * float(seq.power(k)) ** (1.0 / p) for k in ks), default=0.0)
    series = math.fsum(k ** (q * alpha - 1.0) * float(seq.power(k)) ** (q / p) for k in ks)
    return norm + series ** (1.0 / q)
