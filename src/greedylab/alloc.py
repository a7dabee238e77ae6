"""Allocation kernels: n units placed on blocks, at most ``size`` on each,
at the sum of what each block's units cost, given by knots: integers,
with integer slopes between them (greedy scales a vector to integers),
so every value is an int and an inexact division raises InvariantError.

* ``concave_min``: minima of costs concave per block, by a recurrence
  over the blocks sorted by size; h_l (psi) and gamma's best tie
  resolution (the tied blocks' shifts).
* ``min_plus``: the min-plus convolution of any two costs, merged by
  convex pieces; sigma folds the block residuals with it.
"""

from __future__ import annotations

import bisect
import functools
import math
from operator import itemgetter
from typing import Sequence

from .errors import InvariantError
from .exact import slope


def concave_min(costs: Sequence[Sequence[tuple]], ns: Sequence[int]) -> list[tuple]:
    """Least total cost of n units for each n in ns, as (value, {block: units})
    over the blocks that take units.

    costs[b] gives block b's cost by knots from (0, 0) to (size_b, full_b),
    concave in between, so some minimizer has at most one block strictly
    inside its range.  Blocks with identical knots form one type; over the
    first t types, sorted by size, H_t(n) = min over M of Psi_t(M) +
    H_{t-1}(n - M), with Psi_t(M) = (M // size) * full + cost(M % size).
    Its states (t, n), one ``_candidates`` call each, are found top-down
    and evaluated bottom-up, so all n share the lower levels.

    Skip rule: if type t's first run, (0, 0) to k1, has slope a >= largest,
    the largest earlier slope, then H_t(n) = H_{t-1}(n) at M = 0 for n <=
    min(S_{t-1}, k1), t's reach: each step of H_{t-1} is <= largest, so
    Psi_t(M) + H_{t-1}(n - M) >= a M + H_{t-1}(n) - largest M >= H_{t-1}(n).
    So n enters the walk at the highest type whose reach it exceeds; the
    min over (value, M) would pick the same M = 0 above it.
    """
    levels, sizes, fulls, reach = _levels(tuple(map(tuple, costs)))
    if ns and not 0 <= min(ns) <= max(ns) <= sizes[-1]:
        raise ValueError(f"not every n in {min(ns)}..{max(ns)} fits in {sizes[-1]} units")
    found, best = [{} for _ in sizes], [{} for _ in sizes]  # n -> candidates, (H_t(n), argmin)
    entry, starts = [bisect.bisect_left(reach, n) for n in ns], [set() for _ in sizes]
    for n, e in zip(ns, entry):  # n skips the types after its entry e
        starts[e].add(n)
    wanted = set()
    for t in range(len(levels), 0, -1):
        wanted = (wanted | starts[t]) - {0, sizes[t]}
        found[t] = {n: _candidates(levels[t - 1], n) for n in wanted}
        wanted = {n - j for n, js in found[t].items() for j in js}

    def h(t: int, n: int):
        return best[t][n][0] if n in best[t] else fulls[t] if n else 0

    for t in range(1, len(sizes)):
        size, full, runs = levels[t - 1][1:4]

        def psi(j: int):  # Psi_t(j), read off the run holding j % size
            q, r = divmod(j, size)
            for k0, k1, a, y0 in runs:
                if r <= k1:
                    return q * full + y0 + a * (r - k0)

        best[t] = {n: min((psi(j) + h(t - 1, n - j), j) for j in js) for n, js in found[t].items()}
    out = []
    for n, e in zip(ns, entry):
        counts, m, t = {}, n, e
        while m:  # M = j on type t: its first blocks full, the next one the rest
            ids, size = levels[t - 1][:2]
            j = best[t][m][1] if m in best[t] else len(ids) * size  # m = S_t: all full
            for i, b in enumerate(ids[:-(-j // size)]):
                counts[b] = min(size, j - i * size)
            m, t = m - j, t - 1
        out.append((h(e, n), counts))
    return out


def _levels(costs: tuple) -> tuple:
    """Per type: (ids, size, full, runs (k0, k1, slope, y0), S_{t-1}, the
    least and largest slope before it, their subset sums), then S_t, F_t and
    suffix minima of the reaches; one build per ``concave_min`` call."""
    by_knots: dict = {}
    for b, knots in enumerate(costs):
        by_knots.setdefault(knots, []).append(b)
    sizes, fulls, levels, sums, reach = [0], [0], [], [[0]], []
    least, largest = math.inf, -math.inf

    def subset_sums(t: int) -> list:  # of the first t types' block sizes, sorted
        while len(sums) <= t:
            ids, size, *_ = levels[len(sums) - 1]
            sums.append(sorted({s + q * size for s in sums[-1] for q in range(len(ids) + 1)}))
        return sums[t]

    for knots, ids in sorted(by_knots.items(), key=lambda item: (item[0][-1][0], item[0])):
        (size, full), t = knots[-1], len(levels)
        runs = [(k0, k1, slope(k0, y0, k1, y1), y0) for (k0, y0), (k1, y1) in zip(knots, knots[1:])]
        levels.append((ids, size, full, runs, sizes[-1], least, largest,
                       functools.partial(subset_sums, t)))
        reach.append(min(sizes[-1], runs[0][1]) if runs[0][2] >= largest else 0)
        sizes.append(sizes[-1] + len(ids) * size)
        fulls.append(fulls[-1] + len(ids) * full)
        least, largest = min(least, runs[-1][2]), max(largest, runs[0][2])  # slopes fall
    for t in range(len(reach) - 1, 0, -1):
        reach[t - 1] = min(reach[t - 1], reach[t])
    return tuple(levels), tuple(sizes), tuple(fulls), tuple(reach)


def _candidates(level: tuple, n: int) -> set[int]:
    """The M worth trying for H_t(n): one call per state of ``concave_min``.

    Psi_t is linear on each run of the knots, copied at each multiple of
    size, and each step of H_{t-1} lies between the least and the largest
    slope of the earlier types.  So a run whose slope is >= that largest
    has a minimum at its left end, one whose slope is <= that least at its
    right end.  On a run in between, a minimum is at an end or has every
    earlier block empty or full (moving units between two partial blocks
    is concave until one is at a bound), so n - M is a subset sum of their
    sizes.  psi (slopes 1, 0) and indicator ties (0, -1) never meet such a
    run; the subset sums are built only for the levels that do.
    """
    ids, size, _full, runs, below, least, largest, subset_sums = level
    lo, hi = max(0, n - below), min(n, len(ids) * size)
    out = {lo, hi}
    for k0, k1, a, _y0 in runs if lo < hi else ():
        if a >= largest:  # left ends q * size + k0 in [lo, hi)
            out.update(range(lo + (k0 - lo) % size, hi, size))
        elif a <= least:  # right ends q * size + k1 in (lo, hi]
            out.update(range(hi - (hi - k1) % size, lo, -size))
        else:
            sums = subset_sums()
            for base in range(lo - lo % size, hi, size):  # the copies meeting [lo, hi)
                u, v = max(lo, base + k0), min(hi, base + k1)
                if u < v:
                    inside = sums[bisect.bisect_right(sums, n - v):bisect.bisect_left(sums, n - u)]
                    out.update((u, v), (n - s for s in inside))
    return out


def drop_collinear(knots: Sequence[tuple]) -> list[tuple]:
    """The knots without those on the line through their neighbours."""
    out: list[tuple] = []
    for k, y in knots:
        while len(out) >= 2:
            (k0, y0), (k1, y1) = out[-2], out[-1]
            if (y1 - y0) * (k - k1) != (y - y1) * (k1 - k0):
                break
            out.pop()
        out.append((k, y))
    return out


def min_plus(f: Sequence[tuple], g: Sequence[tuple]) -> list[tuple]:
    """Knots of h(n) = min over i + j = n of f(i) + g(j).

    f and g are piecewise linear on 0..T_f and 0..T_g (T > 0), given by
    knots (k, value) that include both ends.  Each is the minimum of its
    maximal convex pieces, split at its concave knots, each piece +inf off
    its own range; min-plus distributes over that minimum.  Two convex
    pieces merge exactly by merging their runs in order of slope, so h is
    the lower envelope of one convex merge per pair of pieces.  The work
    grows with pairs of pieces and their knots, not with T.  Its oracle is
    ``explicit.min_plus_table``, the quadratic fold of f and g tabulated.
    """
    pieces_g = _convex_pieces(g)
    rows = [_envelope([_merge(p, q) for q in pieces_g]) for p in _convex_pieces(f)]
    return drop_collinear(_envelope(rows))


def _convex_pieces(knots: Sequence[tuple]) -> list[tuple]:
    """Maximal convex pieces, as (first knot, runs (slope, length)).

    Consecutive pieces share the knot between them.
    """
    pieces: list[tuple] = []
    for (k0, y0), (k1, y1) in zip(knots, knots[1:]):
        a = slope(k0, y0, k1, y1)
        if not pieces or a < pieces[-1][1][-1][0]:  # a concave knot at k0
            pieces.append(((k0, y0), []))
        pieces[-1][1].append((a, k1 - k0))
    return pieces


def _merge(p: tuple, q: tuple) -> list[tuple]:
    """Knots of the min-plus convolution of two convex pieces."""
    (k, y), (kq, yq) = p[0], q[0]
    k, y = k + kq, y + yq
    knots = [(k, y)]
    last = None
    for a, length in sorted(p[1] + q[1]):
        k, y = k + length, y + a * length
        if a == last:  # same slope: extend the run
            knots[-1] = (k, y)
        else:
            knots.append((k, y))
        last = a
    return knots


def _envelope(functions: list) -> list[tuple]:
    """Knots of the minimum of functions given by knots, each +inf off its range.

    Merged pairwise in a balanced tree, so every two adjacent groups of
    the functions must meet the condition of ``_pair_min``.  The merges of
    one piece with consecutive pieces do: their ranges overlap, and where
    one range starts or stops inside another, the merge with the
    neighbouring piece reaches the same split there, so it is no higher.
    The same holds for the rows of ``min_plus``, one per piece of f.
    """
    while len(functions) > 1:
        functions = [
            _pair_min(functions[i], functions[i + 1]) if i + 1 < len(functions) else functions[i]
            for i in range(0, len(functions), 2)
        ]
    return functions[0]


def _at(k0: int, y0: int, k1: int, y1: int, x: int) -> int:
    """Value at x of the line through (k0, y0) and (k1, y1), an int."""
    q, r = divmod((y1 - y0) * (x - k0), k1 - k0)
    if r:
        raise InvariantError(f"line ({k0}, {y0})-({k1}, {y1}) is not integral at {x}")
    return y0 + q


def _pair_min(f: Sequence[tuple], g: Sequence[tuple]) -> list[tuple]:
    """Knots of min(f, g), each +inf off its range.

    The ranges must meet, and where one starts or stops inside the other,
    the other must be no higher there.  Where both are finite, each is
    linear between consecutive knots of either, so the minimum switches at
    most once in between, where they cross; on the integers a crossing
    leaves knots at its floor and ceiling.  A knot where its function is
    above the other is left out.
    """
    if g[0][0] < f[0][0]:
        f, g = g, f
    i = bisect.bisect_left(f, g[0][0], key=itemgetter(0))
    out = f[:i]
    nf, ng, j = len(f), len(g), 0
    u = None
    while i < nf and j < ng:
        (kf, a), (kg, b) = f[i], g[j]
        if kf < kg:  # j > 0: f starts first
            x, b = kf, _at(*g[j - 1], kg, b, kf)
            keep = a <= b
            i += 1
        elif kg < kf:  # i > 0 for the same reason
            x, a = kg, _at(*f[i - 1], kf, a, kg)
            keep = b <= a
            j += 1
        else:
            x, keep = kf, True
            i += 1
            j += 1
        if u is not None and (pa < pb and b < a or pb < pa and a < b):
            # Both integers around the crossing are knots.
            width, du = x - u, pa - pb
            num, den = du * width, du - (a - b)
            for t in (num // den, -(-num // den)):
                if out[-1][0] < u + t:
                    fa, gb = _at(u, pa, x, a, u + t), _at(u, pb, x, b, u + t)
                    out.append((u + t, fa if fa < gb else gb))
        if keep and (not out or out[-1][0] < x):
            out.append((x, a if a < b else b))
        u, pa, pb = x, a, b
    return out + (f[i:] if i < nf else g[j:])  # past the overlap
