"""Allocation kernels: extremes of concave per-block costs.

An allocation places n units on blocks, at most ``size`` on each.  h_l,
h_r and the tie extremes of gamma are all extremes of a sum of per-block
costs that are concave in the number of units a block takes:

* the minimum sits at a vertex of the allocation polytope, where every
  block is empty or full except at most one (``cheapest_vertex``),
* the maximum is a marginal-gain greedy: with non-increasing slopes per
  block, the n best unit gains overall form a prefix of every block
  (``greedy_max``).
"""

from __future__ import annotations

from typing import Callable, Sequence


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
