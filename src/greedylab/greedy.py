"""Greedy operator errors and best N-term errors, from block residual functions.

Every norm here is symmetric within blocks, so both errors read one
function per block: r_b(j), the power of block b after its j largest
coordinates are removed (``_residuals``, exact knots; b's own sigma).

sigma_N uses the suppression-projection reduction: for a normalized
lattice-unconditional basis the optimal N-term approximant matches the
vector on its support, so sigma_N is a minimum over removal sets, and
within one block it is always best to remove the largest magnitudes first.
So sigma is the min-plus merge of the r_b.  The reduction is not taken on
faith: a grid-search oracle over free coefficients validates it on small
instances (explicit.sigma_oracle_grid and the acceptance suite).

gamma_N is the worst residual over every tie resolution of the greedy
operator.  A resolution is a per-block count of kept coordinates at the
threshold magnitude.  Both extremes read the runs of each tied block's
r_b over the threshold class's window, which is concave there, with the
allocation kernels in alloc.py: the best is the recurrence for minima of
concave costs (the one h_l uses), the worst a marginal-gain greedy.
Neither enumerates resolutions, so both are exact for tie classes of any
multiplicity.

Both are built as whole piecewise-linear sequences (error_sequence); their
oracles, the removal-count DP sigma_power_table and the raw enumerations,
live in explicit.py.
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence, Union

from .alloc import concave_min, drop_collinear, greedy_max, min_plus
from .errors import InvariantError
from .errorseq import ErrorSequence
from .exact import pow_rational, simplify
from .explicit import sigma_power_table  # noqa: F401  (bench/run.py reads it here)
from .spaces import NormValue, SpaceSpec, _float_root, _group_power, random_vector
from .vectors import CompressedVector

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class TieDescriptor:
    """The freedom the greedy operator leaves open at the threshold magnitude.

    ``available`` lists, per block, how many coordinates sit exactly at the
    threshold; ``choose`` of them must be kept (in any combination).
    """

    threshold: Optional[Fraction]
    available: tuple[tuple[int, int], ...]  # (block, count at threshold)
    choose: int

    @property
    def empty(self) -> bool:
        return self.threshold is None


EMPTY_TIE = TieDescriptor(None, (), 0)


@dataclass(frozen=True)
class GreedyOutcome:
    """Extremes of the residual norm over all greedy tie resolutions."""

    residual_max: NormValue  # this is gamma_N
    residual_min: NormValue
    witness_max: tuple[tuple[int, int], ...]  # per-block kept counts at threshold
    witness_min: tuple[tuple[int, int], ...]
    tie: TieDescriptor


# ---------------------------------------------------------------------------
# Block residual functions


def _residuals(x: CompressedVector, spec: SpaceSpec, blocks) -> dict:
    """Block -> r_b, its power after its j largest coordinates are removed.

    The rest is re-truncated to the cap, so r_b(j) is the power of
    positions j .. j+cap-1 and bends where either end of that window
    crosses a group boundary.  Each r_b is an ErrorSequence of exact knots
    from (0, block power) to (count, 0): block b's own sigma sequence.
    """
    p = spec.inner_p
    if spec.inner_p != spec.outer_p or not isinstance(p, int):
        raise ValueError("exact greedy machinery needs integer inner_p == outer_p")
    out = {}
    for b in blocks:
        counts, powers, mags = [0], [0], []  # per group: end, prefix power, mag^p
        for mag, count in x.block_groups(b):
            mags.append(pow_rational(mag, p))
            counts.append(counts[-1] + count)
            powers.append(simplify(powers[-1] + mags[-1] * count))

        def top(t: int) -> Rational:
            """Power of the t largest magnitudes."""
            g = bisect.bisect_left(counts, t)  # counts[g-1] < t <= counts[g]
            if counts[g] == t:
                return powers[g]
            return powers[g - 1] + mags[g - 1] * (t - counts[g - 1])

        total, cap = counts[-1], spec.blocks[b].cap
        width = total if cap is None else cap
        cuts = sorted({max(c - width, 0) for c in counts}.union(counts))
        knots = [(j, simplify(top(min(j + width, total)) - top(j))) for j in cuts]
        out[b] = ErrorSequence("sigma", p, drop_collinear(knots))
    return out


# ---------------------------------------------------------------------------
# gamma: worst/best case over tie resolutions


def _classes(x: CompressedVector):
    """The magnitude classes of x, largest first: (k, size, magnitude, members, kept).

    k coordinates lie above the class, kept[b] of them in block b (updated
    in place when the walk resumes); members lists the class's (block,
    count) pairs in block order.  A greedy set of n coordinates keeps all
    above the first class with n - k < size, and n - k of that class.
    """
    classes: dict = {}
    for b, m, c in x.groups:
        # Keyed by the exact pair: a tuple hashes faster than a Fraction.
        classes.setdefault((m.numerator, m.denominator), (m, []))[1].append((b, c))
    kept = dict.fromkeys(x.blocks(), 0)
    k = 0
    for m, members in sorted(classes.values(), key=itemgetter(0), reverse=True):
        size = sum(c for _b, c in members)
        yield k, size, m, members, kept
        for b, c in members:
            kept[b] += c
        k += size


def gamma(x: CompressedVector, n: int, spec: SpaceSpec) -> GreedyOutcome:
    """Residual-norm extremes of the greedy operator at step n.

    Coordinates above the threshold magnitude are always kept.  Tied block
    b keeps k of its supply_b threshold coordinates, which changes its
    residual by s_b(k) = r_b(kept_b + k) - r_b(kept_b), read off the runs
    of r_b over the class window.  r_b is concave there: keeping one more
    tied coordinate removes tau^p and lets in the coordinate ``cap``
    places further down, and those only get smaller.  So the best
    resolution is alloc.concave_min over the s_b at ``choose``, with its
    witness; the worst is a marginal-gain greedy over the same runs.  No
    tie is an empty allocation, of value 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = spec.conform(x)
    counts = x.block_counts()
    forced, tie = counts, EMPTY_TIE  # n >= support keeps everything
    for k, size, m, members, kept in _classes(x):
        if n - k < size:
            forced = kept
            if n > k:
                tie = TieDescriptor(m, tuple(members), n - k)
            break
    # Only the blocks with coordinates left over have a residual.
    residuals = _residuals(x, spec, [b for b in counts if forced[b] < counts[b]])
    base = sum(r.power(forced[b]) for b, r in residuals.items())
    segments, shifts = [], []
    for b, supply in tie.available:
        runs = residuals[b].runs(forced[b], forced[b] + supply)
        segments += [(b, gain, length) for gain, length in runs]
        shifts.append([(0, 0)])
        for gain, length in runs:
            j, y = shifts[-1][-1]
            shifts[-1].append((j + length, y + gain * length))
    hi_gain, hi_counts = greedy_max(segments, tie.choose)
    [(lo_gain, lo_counts)] = concave_min(shifts, [tie.choose])
    lo = dict(zip((b for b, _ in tie.available), lo_counts))
    shift = sum(residuals[b].power(forced[b] + c) - residuals[b].power(forced[b])
                for b, c in lo.items())
    if sum(lo_counts) != tie.choose or shift != lo_gain:
        raise InvariantError(f"best resolution {lo} shifts by {shift}, not the kernel's {lo_gain}")
    p = spec.outer_p
    return GreedyOutcome(
        NormValue.from_power(base + hi_gain, p),
        NormValue.from_power(base + lo_gain, p),
        tuple((b, hi_counts.get(b, 0)) for b, _ in tie.available),
        tuple(lo.items()),
        tie,
    )


# ---------------------------------------------------------------------------
# sigma


def sigma_exact(x: CompressedVector, n: int, spec: SpaceSpec) -> NormValue:
    """Best n-term approximation error (exact, suppression projection)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return NormValue.from_power(error_sequence(x, spec, "sigma").power(n), spec.outer_p)


# ---------------------------------------------------------------------------
# Error sequences


def error_sequence(x: CompressedVector, spec: SpaceSpec, kind: str) -> ErrorSequence:
    """Full k -> sigma_k or gamma_k sequence for one vector, as knots.

    Built from the block residual functions, so the cost depends on the
    number of groups, not on the support size.  gamma uses the worst case
    over tie resolutions at every k.
    """
    if kind not in ("sigma", "gamma"):
        raise ValueError("kind must be 'sigma' or 'gamma'")
    x = spec.conform(x)
    residuals = _residuals(x, spec, x.blocks())
    knots = _sigma_knots(residuals) if kind == "sigma" else _gamma_knots(x, residuals)
    # The norm from the block powers, independent of the residual functions.
    start = sum(
        _group_power(x.block_groups(b), spec.blocks[b].cap, spec.inner_p) for b in x.blocks()
    )
    if knots[0] != (0, start) or knots[-1] != (x.support_size, 0):
        raise InvariantError(
            f"{kind} sequence runs from {knots[0]} to {knots[-1]}, "
            f"not from (0, {start}) to ({x.support_size}, 0)"
        )
    return ErrorSequence(kind, spec.outer_p, knots)


def _gamma_knots(x: CompressedVector, residuals) -> list:
    """Walk the magnitude classes in descending order.

    Inside a class, the worst resolution for each count is the
    marginal-gain fill of the runs of its blocks' residuals over the
    class window, so gamma follows those runs in order of decreasing gain.
    """
    y = sum(r.power(0) for r in residuals.values())
    knots = [(0, y)]
    for k, _size, _m, members, kept in _classes(x):
        runs = [run for b, c in members for run in residuals[b].runs(kept[b], kept[b] + c)]
        for gain, length in sorted(runs, key=lambda run: -run[0]):
            k, y = k + length, simplify(y + gain * length)
            knots.append((k, y))
    return drop_collinear(knots)


def _sigma_knots(residuals) -> Sequence[tuple]:
    """Min-plus merge of the block residual functions, fewest knots first."""
    blocks = sorted((r.knots for r in residuals.values()), key=len)
    return functools.reduce(min_plus, blocks) if blocks else [(0, 0)]


# ---------------------------------------------------------------------------
# Constant estimators


def greedy_constant(spec: SpaceSpec, num_samples: int = 100, seed: int = 0) -> float:
    """Sample supremum of gamma_N / sigma_N (the greedy constant witness).

    For l_p spaces this is exactly 1 (a greedy support is an optimal
    support).  On block sums, two-pool vectors at depth k witness ratios
    around sqrt(a_{k+1})/2, so the estimate grows with the materialized
    depth.  A sample supremum, not a certified constant.
    """
    rng = random.Random(seed)
    best = 0.0
    for _ in range(num_samples):
        x = random_vector(spec, rng)
        if not x.is_zero:
            best = max(best, _worst_ratio(x, spec, range(x.support_size)))
    if spec.variant == "block_sum":
        for hi in range(spec.num_blocks - 1):
            block, nxt = spec.blocks[hi], spec.blocks[hi + 1]
            count_lo = min(block.size, nxt.cap)
            x = spec.vector([(hi, 2, block.size), (hi + 1, 1, count_lo)])
            ks = [k for k in (block.size, block.size - block.cap) if k > 0]
            best = max(best, _worst_ratio(x, spec, ks))
    return best


def _worst_ratio(x: CompressedVector, spec: SpaceSpec, ks) -> float:
    """Largest gamma_k / sigma_k over the ks with sigma_k > 0 (0.0 if none)."""
    sig = error_sequence(x, spec, "sigma")
    gam = error_sequence(x, spec, "gamma")
    best = 0.0
    for k in ks:
        s_pow = sig.power(k)
        if s_pow != 0:
            best = max(best, _float_root(Fraction(gam.power(k), s_pow), spec.outer_p))
    return best


def democracy_constant(spec: SpaceSpec, n: int) -> float:
    """h_r(n) / h_l(n): worst ratio of indicator norms at cardinality n."""
    from . import democracy  # local import: democracy does not import greedy

    if n == 0 or spec.variant == "lp":
        return 1.0
    point = democracy.demfun_dp(spec, n)
    return _float_root(Fraction(point.hr_power, point.hl_power), spec.outer_p)
