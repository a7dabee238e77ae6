"""Allocation kernels: extremes of concave per-block costs.

An allocation places n units on blocks, at most ``size`` on each.  h_l,
h_r and the tie extremes of gamma are all extremes of a sum of per-block
costs that are concave in the number of units a block takes:

* the minimum sits at a vertex of the allocation polytope, where every
  block is empty or full except at most one (``cheapest_vertex``),
* the maximum is a marginal-gain greedy: with non-increasing slopes per
  block, the n best unit gains overall form a prefix of every block
  (``greedy_max``).

sigma needs the minimum for every n at once, over per-block costs that
are piecewise linear but not concave: ``min_plus`` merges them one block
at a time on their knots, by the same vertex argument.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .exact import slope


def _lower(states: dict, key, cost: int, chosen: tuple[int, ...]) -> None:
    if key not in states or cost < states[key][0]:
        states[key] = (cost, chosen)


def _vertices(blocks: Sequence[tuple[int, int]], limit: int):
    """Vertices of the allocation polytope whose full blocks total <= limit.

    ``blocks`` lists (cost of the full block, size); for h_l that cost is
    the cap.  At a vertex every block is empty or full except at most one,
    the free block, which takes a remainder.  Returns two dicts of (cost
    sum, full block indices):

    * ``full[t]``: the cheapest set of full blocks with total size t,
    * ``free[(t, r)]``: the same, among sets that leave block r free.

    Blocks are added one at a time, and sets with the same key are merged
    into the cheapest, so the work is bounded by the number of distinct
    totals times the number of blocks, not by the number of subsets.
    """
    full: dict = {0: (0, ())}
    free: dict = {}
    for r, (cap, size) in enumerate(blocks):
        grown_full, grown_free = dict(full), dict(free)
        for t, (cost, chosen) in full.items():
            grown_free[(t, r)] = (cost, chosen)
            if t + size <= limit:
                _lower(grown_full, t + size, cost + cap, chosen + (r,))
        for (t, q), (cost, chosen) in free.items():
            if t + size <= limit:
                _lower(grown_free, (t + size, q), cost + cap, chosen + (r,))
        full, free = grown_full, grown_free
    return full, free


def cheapest_vertex(
    blocks: Sequence[tuple], n: int, free_cost: Callable[[int, int], object]
):
    """Cheapest vertex placing exactly n units, as (cost, witness).

    ``blocks`` lists (cost of the full block, size) as for ``_vertices``;
    an empty block costs 0 and a free block r holding 0 < rem <= size
    units costs ``free_cost(r, rem)``.  The witness lists (block, units)
    for every block that takes units, in block order.
    """
    full, free = _vertices(blocks, n)
    best = (full[n][0], full[n][1], ()) if n in full else None
    for (t, r), (cost, chosen) in free.items():
        rem = n - t
        if 0 < rem <= blocks[r][1]:
            total = cost + free_cost(r, rem)
            if best is None or total < best[0]:
                best = (total, chosen, ((r, rem),))
    if best is None:
        raise ValueError(f"no allocation of {n} coordinates fits the space")
    value, chosen, part = best
    return value, tuple(sorted([(b, blocks[b][1]) for b in chosen] + list(part)))


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
    knots (k, value) that include both ends.  Some optimal split has i or
    j at a knot: if neither is, moving units from one to the other keeps
    both on their linear runs, so the cost is linear in the move and does
    not rise in one direction until one of them reaches a knot.  So h is
    the lower envelope of the copies of g shifted onto each knot of f and
    of f shifted onto each knot of g.
    """
    f_runs, g_runs = _runs(f), _runs(g)
    runs = [(lo + i, hi + i, y + fi, a) for i, fi in f for lo, hi, y, a in g_runs]
    runs += [(lo + j, hi + j, y + gj, a) for j, gj in g for lo, hi, y, a in f_runs]
    return _lower_envelope(runs)


def _runs(knots: Sequence[tuple]) -> list[tuple]:
    return [(k0, k1, y0, slope(k0, y0, k1, y1))
            for (k0, y0), (k1, y1) in zip(knots, knots[1:])]


def _lower_envelope(runs: Sequence[tuple]) -> list[tuple]:
    """Knots of the pointwise minimum of the runs of ``min_plus``.

    A run (lo, hi, y, a) is the line y + a * (n - lo) on lo..hi, lo < hi.
    The run ends cut the range into elementary intervals; each run is
    registered on every interval it spans, by its value at the left cut.
    The intervals agree on the cuts they share: a copy that ends (starts)
    at a cut inside the range meets there a copy of the other function
    with the same value that goes on to the right (left).
    """
    cuts = sorted({run[0] for run in runs} | {run[1] for run in runs})
    index = {c: i for i, c in enumerate(cuts)}
    lines: list[list] = [[] for _ in cuts[1:]]
    for lo, hi, y, a in runs:
        for i in range(index[lo], index[hi]):
            lines[i].append((-a, y + a * (cuts[i] - lo)))
    knots: dict = {}
    for i, active in enumerate(lines):
        knots.update(_envelope_knots(active, cuts[i], cuts[i + 1]))
    return drop_collinear(sorted(knots.items()))


def _envelope_knots(lines: Sequence[tuple], u: int, w: int) -> list[tuple]:
    """Knots of the minimum of lines (-a, v): v + a * (n - u), on u..w.

    The lower hull, slopes descending, changes line at real crossings;
    on the integers the knots sit at their floor and ceiling.
    """
    width = w - u
    if width <= 3:  # cheaper than the hull: every point is a knot
        return [(u + t, min(v - b * t for b, v in lines)) for t in range(width + 1)]
    hull: list[tuple] = []
    for b, v in sorted(lines):
        if hull and hull[-1][0] == b:
            continue  # same slope, no lower start
        while len(hull) >= 2:
            (b1, v1), (b2, v2) = hull[-2], hull[-1]
            # Keep the last line if it undercuts the first one before the new one does.
            if (v - v1) * (b2 - b1) > (v2 - v1) * (b - b1):
                break
            hull.pop()
        hull.append((b, v))
    ts = {0, width}
    for (b1, v1), (b2, v2) in zip(hull, hull[1:]):
        rise, run = v2 - v1, b2 - b1
        for t in (rise // run, -(-rise // run)):  # floor, ceiling of the crossing
            if 0 < t < width:
                ts.add(t)
    return [(u + t, min(v - b * t for b, v in hull)) for t in sorted(ts)]
