"""Allocation kernels: one per direction, over piecewise-linear per-block costs.

An allocation places n units on blocks, at most ``size`` on each, and
costs the sum of what each block's units cost.

* Minima come from ``min_plus``, the min-plus convolution of two costs,
  folded over the blocks.  It splits each cost into its maximal convex
  pieces, merges every pair of pieces exactly by merging their slopes,
  and takes the lower envelope of those merges, so it needs no
  concavity.  sigma folds the block residuals and reads every n; gamma's
  best tie resolution folds the tied blocks' shifts and reads one n, and
  ``split`` walks back through the folds to a witness.
* Maxima of costs that are concave per block come from ``greedy_max``:
  with non-increasing slopes per block, the n best unit gains overall
  form a prefix of every block.  It gives gamma's worst tie resolution
  and the h_r witness.

h_l is a minimum too, but on a schedule its min-plus fold has
2^(K+1) - 1 knots, so democracy.py keeps a recurrence for it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .exact import simplify, slope


def greedy_max(segments: Sequence[tuple], n: int):
    """Largest total gain of n units drawn from (block, slope, length) segments.

    Each unit of a segment gains ``slope``.  A block's segments must come
    in order of non-increasing slope, so the n best units overall take a
    prefix of every block.  Equal slopes are taken in segment order (the
    sort is stable).  Returns (gain, counts), counts mapping block -> units.
    """
    gain, counts, left = 0, {}, n
    for block, slope, length in sorted(segments, key=lambda s: -s[1]):
        if left == 0:
            break
        take = min(length, left)
        gain += slope * take
        counts[block] = counts.get(block, 0) + take
        left -= take
    if left:
        raise ValueError(f"no allocation of {n} coordinates fits the space")
    return gain, counts


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
    grows with pairs of pieces and their knots, not with T.
    """
    pieces_g = _convex_pieces(g)
    rows = [_envelope([_merge(p, q) for q in pieces_g]) for p in _convex_pieces(f)]
    return drop_collinear([(k, simplify(y)) for k, y in _envelope(rows)])


def split(f: Sequence[tuple], g: Sequence[tuple], n: int) -> tuple[int, int]:
    """A split i + j = n reaching the minimum of f(i) + g(j), as (i, j).

    f and g are given by knots that include both ends.  Over its range,
    f(i) + g(n - i) is linear between the knots of f and the points n - k
    for the knots k of g, and the range ends on such points, so one of
    them is a minimum; among equal ones the largest i is taken.
    """
    lo, hi = max(0, n - g[-1][0]), min(f[-1][0], n)
    splits = {k for k, _ in f if lo <= k <= hi} | {n - k for k, _ in g if lo <= n - k <= hi}
    i = min(sorted(splits, reverse=True), key=lambda i: value_at(f, i) + value_at(g, n - i))
    return i, n - i


def value_at(knots: Sequence[tuple], x: int):
    """Value at x, inside the knots' range, of the function they interpolate."""
    i = bisect.bisect_left(knots, x, key=itemgetter(0))
    if knots[i][0] == x:
        return knots[i][1]
    return _at(*knots[i - 1], *knots[i], x)


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


def _at(k0: int, y0, k1: int, y1, x: int):
    """Value at x of the line through (k0, y0) and (k1, y1), exactly."""
    num, width = (y1 - y0) * (x - k0), k1 - k0
    q, r = divmod(num, width)
    return y0 + q if r == 0 else y0 + Fraction(num, width)


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
