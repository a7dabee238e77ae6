"""Every oracle of the package, independent of the routes it checks.

Most of them work on a flat list of (possibly signed) coordinate values over
a small finite universe and answer by raw enumeration: subset brute force
for h_l / h_r, gamma and sigma, the sup-form norm, and a grid search over
free coefficients for sigma.  The rest are quadratic tabulations: the
allocation DP for h_l / h_r, the removal-count DP for the sigma table, and
the per-k / per-term versions of the x_s checks and quasi-norms.  None of
them imports greedy, democracy, approx, alloc or errorseq, so an oracle
never shares code with the route it checks.  No oracle prunes its search
space on theory: every candidate its enumeration defines is accounted for,
and where one is fast it only evaluates candidates more cheaply (the brute
force updates two coordinates per subset; the grid search tabulates each
coordinate's power once per column of candidate coefficients and computes
a norm once per distinct tuple of those powers in a scan, since candidates
with equal powers have equal norms).  The size limits below refuse
instances that enumeration cannot finish.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError, OracleUnavailableError
from .exact import as_fraction, pow_rational, simplify
from .spaces import NormValue, SpaceSpec, _float_root, random_vector, space_norm
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
            v = as_fraction(values[off + slot])
            raw.append((b, abs(v), 1))
    return canonicalize(raw, sizes=spec.sizes())


def norm_power(values: Sequence, spec: SpaceSpec):
    """Exact p-th power of the space norm (needs integer inner_p == outer_p)."""
    if spec.inner_p != spec.outer_p or not isinstance(spec.inner_p, int):
        raise ValueError("exact explicit norm needs integer inner_p == outer_p")
    _check_count(values, spec)
    p = spec.inner_p
    offsets = block_offsets(spec)
    total = 0
    for b, block in enumerate(spec.blocks):
        mags = sorted(
            (abs(as_fraction(values[offsets[b] + j])) for j in range(block.size)),
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


def _float_norm(spec: SpaceSpec):
    """The float space norm, as a function of the flat coordinates' powers.

    Each argument entry is ``|v_i| ** inner_p`` for one coordinate, in the
    flat layout; the caller checks their count.  The block layout and the
    exponents are worked out once.  Each call takes the ``cap`` largest
    powers of every block in descending order (the order of their
    magnitudes: ``x ** p`` is monotone for p > 0) and adds them left to
    right from 0.0 (a loop, not ``sum``, which compensates rounding from
    Python 3.12 on), so equal inputs give bit-identical floats on every
    version.
    """
    ratio, root = spec.outer_p / spec.inner_p, 1.0 / spec.outer_p
    layout = [
        (off, off + block.size, block.cap)
        for off, block in zip(block_offsets(spec), spec.blocks)
    ]

    def norm(powers: Sequence[float]) -> float:
        total = 0.0
        for lo, hi, cap in layout:
            bp = 0.0
            for w in sorted(powers[lo:hi], reverse=True)[:cap]:
                bp += w
            total += bp**ratio  # 0.0 ** ratio is 0.0: ratio > 0
        return total**root

    return norm


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


@dataclass
class LatticeReport:
    passed: bool
    trials: int
    failures: list = field(default_factory=list)


def lattice_check(spec: SpaceSpec, trials: int = 200, seed: int = 0) -> LatticeReport:
    """Property-check the lattice inequality and basis normalization.

    For random x and random per-coordinate factors |lambda| <= 1 the norm
    must not increase; every basis vector must have norm exactly 1.  All
    comparisons are exact (rational magnitudes, integer exponents).
    """
    rng = random.Random(seed)
    report = LatticeReport(passed=True, trials=trials)

    for b in range(spec.num_blocks):
        e = spec.indicator({b: 1})
        nv = space_norm(e, spec)
        if nv.power_exact != 1:
            report.passed = False
            report.failures.append({"kind": "normalization", "block": b, "norm": nv.value})

    for t in range(trials):
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
    zero, one = Fraction(0), Fraction(1)
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
# Allocation DP: the quadratic reference route for h_l / h_r on block sums


_BIG = 1 << 62


def alloc_dp(blocks: Sequence[tuple[int, int]], max_n: int):
    """DP over (cap, size) blocks; returns (dp_min, dp_max, parent_min, parent_max).

    dp_min[j] / dp_max[j] are the extremes of sum min(m_k, cap_k) over
    allocations of exactly j coordinates; parents store the chosen m per
    block for witness reconstruction.  O(max_n^2) per block.
    """
    dp_min = [0] + [_BIG] * max_n
    dp_max = [0] + [-1] * max_n
    parent_min: list[list[int]] = []
    parent_max: list[list[int]] = []
    for cap, size in blocks:
        limit = min(size, max_n)
        ndp_min = [_BIG] * (max_n + 1)
        ndp_max = [-1] * (max_n + 1)
        pmin = [-1] * (max_n + 1)
        pmax = [-1] * (max_n + 1)
        for j in range(max_n + 1):
            lo = dp_min[j]
            hi = dp_max[j]
            if lo >= _BIG and hi < 0:
                continue
            for m in range(0, min(limit, max_n - j) + 1):
                slot = j + m
                cost = min(m, cap)
                if lo < _BIG and lo + cost < ndp_min[slot]:
                    ndp_min[slot] = lo + cost
                    pmin[slot] = m
                if hi >= 0 and hi + cost > ndp_max[slot]:
                    ndp_max[slot] = hi + cost
                    pmax[slot] = m
        dp_min, dp_max = ndp_min, ndp_max
        parent_min.append(pmin)
        parent_max.append(pmax)
    return dp_min, dp_max, parent_min, parent_max


def alloc_dp_point(blocks: Sequence[tuple[int, int]], n: int):
    """(h_l^p, h_r^p, witness_l, witness_r) at n, each witness as (block, count)."""
    dp_min, dp_max, parent_min, parent_max = alloc_dp(blocks, n)
    if dp_min[n] >= _BIG or dp_max[n] < 0:
        raise ValueError(f"no allocation of {n} coordinates fits the space")

    def walk(parents) -> tuple[tuple[int, int], ...]:
        j = n
        witness = []
        for b in range(len(blocks) - 1, -1, -1):
            m = parents[b][j]
            if m > 0:
                witness.append((b, m))
            j -= m
        if j != 0:
            raise InvariantError(f"DP witness for N={n} leaves {j} coordinates unplaced")
        return tuple(reversed(witness))

    return dp_min[n], dp_max[n], walk(parent_min), walk(parent_max)


# ---------------------------------------------------------------------------
# gamma and sigma: raw enumeration, removal-count DP and grid search


def gamma_raw(values: Sequence, n: int, spec: SpaceSpec):
    """(max, min) residual norm power over every valid greedy keep-set.

    A keep-set is valid iff it contains all coordinates strictly above the
    threshold magnitude and fills up with any coordinates at the threshold.
    """
    _check_query(values, n, spec)
    vals = [as_fraction(v) for v in values]
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
        residual = [Fraction(0) if i in kept else vals[i] for i in range(dim)]
        power = norm_power(residual, spec)
        best_hi = power if best_hi is None or power > best_hi else best_hi
        best_lo = power if best_lo is None or power < best_lo else best_lo
    return best_hi, best_lo


def sigma_removals_bruteforce(values: Sequence, n: int, spec: SpaceSpec):
    """Best n-term error power, minimizing over all removal sets exactly."""
    _check_query(values, n, spec)
    vals = [as_fraction(v) for v in values]
    support = [i for i, v in enumerate(vals) if v != 0]
    if n >= len(support):
        return 0
    if n == 0:
        return norm_power(vals, spec)
    best = None
    for removed in itertools.combinations(support, n):
        residual = list(vals)
        for i in removed:
            residual[i] = Fraction(0)
        power = norm_power(residual, spec)
        best = power if best is None or power < best else best
    return best


def sigma_power_table(x: CompressedVector, spec: SpaceSpec) -> tuple:
    """sigma_k^p for k = 0..support, by DP over per-block removal counts.

    Within each block removing the largest magnitudes first is optimal
    (block norms are symmetric and monotone), so only the split of the k
    removals across blocks is searched.  Each block's residuals come from
    its magnitudes laid out one by one in descending order, with prefix
    sums of their p-th powers.  Quadratic in the support.
    """
    p = spec.inner_p
    if spec.inner_p != spec.outer_p or not isinstance(p, int):
        raise ValueError("exact sigma table needs integer inner_p == outer_p")
    x = spec.conform(x)
    dp = [0]
    for b in x.blocks():
        mags = [mag for mag, count in x.block_groups(b) for _ in range(count)]
        prefix = list(itertools.accumulate((pow_rational(m, p) for m in mags), initial=0))
        size, cap = len(mags), spec.blocks[b].cap
        window = size if cap is None else cap
        residuals = [prefix[min(j + window, size)] - prefix[j] for j in range(size + 1)]
        ndp = [None] * (len(dp) + size)
        for j, prev in enumerate(dp):
            for jb, residual in enumerate(residuals):
                cand = prev + residual
                if ndp[j + jb] is None or cand < ndp[j + jb]:
                    ndp[j + jb] = cand
        dp = [simplify(v) for v in ndp]
    if len(dp) != x.support_size + 1 or dp[-1] != 0:
        raise InvariantError(f"sigma table of length {len(dp)} ends at {dp[-1]}")
    return tuple(dp)


def sigma_oracle_grid(values: Sequence, n: int, spec: SpaceSpec) -> float:
    """Brute-force sigma_n over supports AND free coefficients.

    Enumerates every support of size n; for each, minimizes the residual
    norm over coefficients on an integer grid followed by halving-window
    refinement (the objective is convex in the coefficients, so the local
    refinement reaches the global minimum).  Per support that is 19^n
    grid points, then 5^n candidates per refinement pass: one pass for
    each of the 27 halvings of the window, and one more after every pass
    that improved.  A candidate is a tuple of column indices, one column
    of powers ``|v_i - c| ** inner_p`` per coordinate: the 19 grid
    coefficients of a free coordinate, or its 5 offsets from the current
    best point in a pass, and 1 for a fixed one; the candidates come in
    ``itertools.product`` order.  The grid phase keeps the first minimum;
    a pass moves the best point to the first candidate below the best
    value by more than 1e-15, then goes on after it with columns rebuilt
    around the new point.  Each scan (``_first_below``) computes the norm
    (``_float_norm``) once per distinct tuple of powers and names the
    same candidate as visiting them all.  Exists solely to validate that
    free coefficients never beat plain suppression.
    """
    _check_query(values, n, spec)
    dim = len(values)
    if dim > 4:
        raise ValueError("grid oracle is limited to dimension <= 4")
    vals = [float(v) for v in values]
    if any(abs(v) > 8 for v in vals):
        raise ValueError("grid oracle expects magnitudes <= 8")
    if n == 0:
        return norm_float(vals, spec)
    if n >= dim:
        return 0.0

    norm = _float_norm(spec)
    inner = float(spec.inner_p)
    grid = [float(c) for c in range(-GRID_COEFF_BOUND, GRID_COEFF_BOUND + 1)]
    best_overall = math.inf

    def columns(support, coeffs) -> list[list[float]]:
        """Per coordinate, its residual powers in candidate order."""
        free = dict(zip(support, coeffs))
        return [
            [abs(v - c) ** inner for c in free[i]] if i in free else [abs(v) ** inner]
            for i, v in enumerate(vals)
        ]

    for support in itertools.combinations(range(dim), n):
        kept = [_distinct(col, range(len(col))) for col in columns(support, [grid] * n)]
        grid_values = list(map(norm, itertools.product(*kept)))
        best_val = min(grid_values)  # the first minimum, as a strict-< scan keeps
        at = _index_at(grid_values.index(best_val), kept)
        best_pt = [grid[at[i]] for i in support]

        step = 1.0
        while step > 1e-8:
            step /= 2.0
            offsets = (-2 * step, -step, 0.0, step, 2 * step)
            improved = True
            while improved:
                improved, at = False, None
                while True:
                    around = [[b + d for d in offsets] for b in best_pt]
                    hit = _first_below(norm, columns(support, around), best_val - 1e-15, at)
                    if hit is None:
                        break
                    best_val, at = hit
                    best_pt = [col[at[i]] for col, i in zip(around, support)]
                    improved = True
        best_overall = min(best_overall, best_val)
    return best_overall


def _first_below(norm, columns, threshold: float, after=None):
    """(value, column indices) of the first candidate below threshold, or None.

    The candidates are the index tuples of ``itertools.product`` over the
    columns: all of them, or those after the tuple ``after``, scanned as
    one product per position k from the last to the first (``after``
    before k, past it at k, anything later).  Each product keeps every
    distinct power of a column once, at its first index (``_distinct``),
    so it evaluates each distinct tuple of powers once.  A candidate's
    value depends only on its powers, and moving any coordinate to the
    first index of its power gives an earlier candidate of the same
    product: so the first that passes is one of those kept.
    """
    if after is None:
        pieces = [[range(len(col)) for col in columns]]
    else:
        pieces = (
            [[i] for i in after[:k]]
            + [range(after[k] + 1, len(columns[k]))]
            + [range(len(col)) for col in columns[k + 1:]]
            for k in reversed(range(len(columns)))
        )
    for piece in pieces:
        kept = [_distinct(col, indices) for col, indices in zip(columns, piece)]
        for rank, val in enumerate(map(norm, itertools.product(*kept))):
            if val < threshold:
                return val, _index_at(rank, kept)
    return None


def _distinct(column: Sequence[float], indices) -> dict[float, int]:
    """{power: first index} over the column's entries at indices, in index order."""
    first: dict[float, int] = {}
    for i in indices:
        first.setdefault(column[i], i)
    return first


def _index_at(rank: int, kept: Sequence[dict]) -> list[int]:
    """The column indices of the rank-th candidate of ``product(*kept)``."""
    at = []
    for first in reversed(kept):
        rank, r = divmod(rank, len(first))
        at.append(list(first.values())[r])
    return at[::-1]


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
