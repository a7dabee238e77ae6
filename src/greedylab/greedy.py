"""Greedy operator errors and best N-term errors, from block residual functions.

Every norm here is symmetric within blocks, so both errors read one
function per block: r_b(j), the power of block b after its j largest
coordinates are removed (exact knots; b's own sigma).  A GreedyProfile
lays one vector out once, in ints, for every query below.

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
concave costs (the one h_l uses).  The worst is a prefix of the class's
fill, those runs by decreasing gain, which the gamma sequence walks too.
Neither enumerates resolutions, so both are exact for tie classes of any
multiplicity.

Both are also built as whole piecewise-linear sequences; their oracles,
sigma_power_table (the tabulated min-plus over removal counts) and the raw
enumerations, live in explicit.py.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Optional, Sequence

from .alloc import concave_min, drop_collinear, min_plus
from .errors import InvariantError
from .errorseq import ErrorSequence
from .exact import Rational, int_at_least
from .spaces import NormValue, SpaceSpec, space_norm
from .vectors import CompressedVector


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
# The per-vector profile


class GreedyProfile:
    """One vector laid out for the greedy layer, built once, in ints.

    Magnitudes are scaled by D, the lcm of their denominators, and powers
    divided by D^p where they leave, in a NormValue or an ErrorSequence;
    tie thresholds and witnesses keep the vector's own units.  Classes
    (k, scaled magnitude, magnitude, members) come largest first, k
    coordinates above each.  Each r_b and sequence, and ||x||^p, which both
    sequences' first knots are checked against, is built on first use.
    """

    def __init__(self, x: CompressedVector, spec: SpaceSpec):
        self.x, self.spec, self.p = spec.conform(x), spec, spec.inner_p
        if spec.inner_p != spec.outer_p or not isinstance(self.p, int):
            raise ValueError("exact greedy machinery needs integer inner_p == outer_p")
        scale = math.lcm(*(m.denominator for _b, m, _c in self.x.groups))
        self._dp, self._blocks, by_mag = scale**self.p, {}, {}
        for b, m, c in self.x.groups:  # _blocks[b]: scaled magnitudes, [0, count ends]
            mag = m if scale == 1 else m.numerator * (scale // m.denominator)
            mags, ends = self._blocks.setdefault(b, ([], [0]))
            mags.append(mag)
            ends.append(ends[-1] + c)
            by_mag.setdefault(mag, (m, []))[1].append((b, c))
        self._classes, self._ends = [], [0]  # _ends[i + 1]: coordinates down to class i
        for mag in sorted(by_mag, reverse=True):
            m, members = by_mag[mag]
            self._classes.append((self._ends[-1], mag, m, tuple(members)))
            self._ends.append(self._ends[-1] + sum(c for _b, c in members))
        self._tops, self._residuals, self._sequences = {}, {}, {}

    def above(self, b: int, mag: int) -> int:
        """How many of block b's coordinates exceed the scaled magnitude."""
        mags, ends = self._blocks[b]
        return ends[bisect.bisect_left(mags, -mag, key=neg)]

    def rest(self, b: int, j: int) -> int:
        """r_b(j) in scaled units, from block b's prefix powers alone."""
        if b not in self._tops:
            self._tops[b] = _top(*self._blocks[b], self.p)
        top, count = self._tops[b], self._blocks[b][1][-1]
        return top(min(j + (self.spec.blocks[b].cap or count), count)) - top(j)

    def residual(self, b: int) -> ErrorSequence:
        """r_b in scaled units."""
        if b not in self._residuals:
            self._residuals[b] = _residual(self, b)
        return self._residuals[b]

    @functools.cached_property
    def norm_power(self) -> Rational:
        """||x||^p from the block powers, independent of the residual functions."""
        return space_norm(self.x, self.spec).power_exact

    def unscale(self, y: int) -> Rational:
        """y / D^p exactly: a scaled power in the vector's own units."""
        return Fraction(y, self._dp) if y % self._dp else y // self._dp

    def gamma(self, n: int) -> GreedyOutcome:
        """Residual-norm extremes of the greedy operator at step n.

        Coordinates above the threshold magnitude are always kept.  Tied
        block b keeps k of its supply_b threshold coordinates, which
        changes its residual by s_b(k) = r_b(kept_b + k) - r_b(kept_b),
        read off the runs of r_b over the class window.  r_b is concave
        there: keeping one more tied coordinate removes tau^p and lets in
        the coordinate ``cap`` places further down, and those only get
        smaller.  So the best resolution is alloc.concave_min over the s_b
        at ``choose``, with its witness; the worst takes the first
        ``choose`` units of the class's fill, as the gamma sequence does.
        """
        n = int_at_least(n, 0, "n")
        i = bisect.bisect_right(self._ends, n) - 1  # n >= support: below every class
        k, mag, m, members = self._classes[i] if i < len(self._classes) else (n, 0, None, ())
        forced = {b: self.above(b, mag) for b in self._blocks}
        tie = TieDescriptor(m, members, n - k) if n > k else EMPTY_TIE
        base = sum(self.rest(b, kept) for b, kept in forced.items())  # r_b is built only if tied
        fill = self._fill(i) if tie.choose else []
        hi_gain, hi, left = 0, {}, tie.choose
        for b, gain, length in fill:
            if not left:
                break
            take = min(length, left)
            hi_gain, hi[b], left = hi_gain + gain * take, hi.get(b, 0) + take, left - take
        lo_gain, lo = hi_gain, hi
        if len(tie.available) > 1:  # else there is one resolution at most
            shifts = {b: [(0, 0)] for b, _ in tie.available}
            for b, gain, length in fill:  # each block's runs keep their order
                j, y = shifts[b][-1]
                shifts[b].append((j + length, y + gain * length))
            [(lo_gain, lo_counts)] = concave_min(list(shifts.values()), [tie.choose])
            lo = {tie.available[i][0]: lo_counts[i] for i in lo_counts}
            shift = sum(self.rest(b, forced[b] + c) - self.rest(b, forced[b])
                        for b, c in lo.items())
            if sum(lo.values()) != tie.choose or shift != lo_gain:
                raise InvariantError(
                    f"best resolution {lo} shifts by {shift}, not the kernel's {lo_gain}")
        return GreedyOutcome(
            NormValue.from_power(self.unscale(base + hi_gain), self.p),
            NormValue.from_power(self.unscale(base + lo_gain), self.p),
            tuple((b, hi.get(b, 0)) for b, _ in tie.available),
            tuple((b, lo.get(b, 0)) for b, _ in tie.available),
            tie,
        )

    def _fill(self, i: int) -> list[tuple]:
        """Class i's worst-case fill: the (block, gain, length) runs of each
        member's r_b over the class window, by decreasing gain.

        Each r_b is concave there, so its runs already fall in gain; the
        sort is stable (members, then runs, in order at equal gains), so
        the first u units of the fill are the worst resolution keeping u.
        """
        _k, mag, _m, members = self._classes[i]
        runs = [(b, gain, length) for b, c in members for j in [self.above(b, mag)]
                for gain, length in self.residual(b).runs(j, j + c)]
        return sorted(runs, key=lambda run: -run[1])

    def sigma(self, n: int) -> NormValue:
        """Best n-term approximation error (exact, suppression projection)."""
        return NormValue.from_power(self.sequence("sigma").power(int_at_least(n, 0, "n")), self.p)

    def sequence(self, kind: str) -> ErrorSequence:
        """Full k -> sigma_k or gamma_k sequence, as knots.

        Built from the block residual functions, so the cost depends on
        the number of groups, not on the support size.  gamma uses the
        worst case over tie resolutions at every k.
        """
        if kind not in ("sigma", "gamma"):
            raise ValueError("kind must be 'sigma' or 'gamma'")
        if kind not in self._sequences:
            residuals = [self.residual(b) for b in self._blocks]
            knots = _sigma_knots(residuals) if kind == "sigma" else _gamma_knots(self, residuals)
            knots = [(k, self.unscale(y)) for k, y in knots]
            want = [(0, self.norm_power), (self.x.support_size, 0)]
            if [knots[0], knots[-1]] != want:
                raise InvariantError(f"{kind} knots run {knots[0]}..{knots[-1]}, not {want}")
            self._sequences[kind] = ErrorSequence(kind, self.p, knots)
        return self._sequences[kind]


def _top(mags: Sequence[int], ends: Sequence[int], p: int):
    """top(t): the power of a block's t largest magnitudes (mags largest first)."""
    powers, prefix = [m**p for m in mags], [0]  # prefix[g]: power down to group g - 1
    for power, lo, hi in zip(powers, ends, ends[1:]):
        prefix.append(prefix[-1] + power * (hi - lo))

    def top(t: int) -> int:
        g = bisect.bisect_left(ends, t)  # ends[g-1] < t <= ends[g]
        return prefix[g] if ends[g] == t else prefix[g - 1] + powers[g - 1] * (t - ends[g - 1])

    return top


def _residual(profile: GreedyProfile, b: int) -> ErrorSequence:
    """r_b as knots from (0, block power) to (count, 0), b's own sigma; the power
    of positions j .. j+cap-1 bends where an end of that window meets a group end."""
    ends = profile._blocks[b][1]
    width = profile.spec.blocks[b].cap or ends[-1]
    cuts = sorted({max(c - width, 0) for c in ends}.union(ends))
    knots = [(j, profile.rest(b, j)) for j in cuts]
    return ErrorSequence("sigma", profile.p, drop_collinear(knots))


def _gamma_knots(profile: GreedyProfile, residuals) -> list:
    """Walk the magnitude classes in descending order.

    Inside a class, the worst resolution for each count is a prefix of
    the class's fill, so gamma follows its runs in order.
    """
    y = sum(r.power(0) for r in residuals)
    knots = [(0, y)]
    for i, k in enumerate(profile._ends[:-1]):  # class i starts after k coordinates
        for _b, gain, length in profile._fill(i):
            k, y = k + length, y + gain * length
            knots.append((k, y))
    return drop_collinear(knots)


def _sigma_knots(residuals) -> Sequence[tuple]:
    """Min-plus merge of the block residual functions, fewest knots first."""
    blocks = sorted((r.knots for r in residuals), key=len)
    return functools.reduce(min_plus, blocks) if blocks else [(0, 0)]


def gamma(x: CompressedVector, n: int, spec: SpaceSpec) -> GreedyOutcome:
    """Residual-norm extremes of the greedy operator at step n (GreedyProfile.gamma)."""
    return GreedyProfile(x, spec).gamma(n)


def sigma_exact(x: CompressedVector, n: int, spec: SpaceSpec) -> NormValue:
    """Best n-term approximation error (exact, suppression projection)."""
    return GreedyProfile(x, spec).sigma(n)


def error_sequence(x: CompressedVector, spec: SpaceSpec, kind: str) -> ErrorSequence:
    """Full k -> sigma_k or gamma_k sequence for one vector (GreedyProfile.sequence)."""
    return GreedyProfile(x, spec).sequence(kind)


def __getattr__(name: str):
    """``greedy.sigma_power_table``, read by bench/run.py: loads the oracle on that read only."""
    if name == "sigma_power_table":
        from .explicit import sigma_power_table

        return sigma_power_table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
