"""Error sequences k -> sigma_k / gamma_k for a fixed vector.

Two storage layouts: an explicit table (small supports, filled by the
generic machinery in ``greedy``) and O(1)-per-k closed forms for two-pool
vectors.  A two-pool vector puts one magnitude on part of one block and a
strictly smaller magnitude on part of another block; the counterexample
vectors are exactly of this shape, with supports far too large to tabulate.

All values are carried as exact p-th powers (plain ints for the integer
instances the experiments use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InvariantError
from .spaces import SpaceSpec
from .vectors import CompressedVector
from .exact import pow_rational, simplify

Rational = Union[int, Fraction]


class ErrorSequence:
    """Interface: exact power(k) plus float value(k), zero beyond support."""

    kind: str  # "sigma" | "gamma"
    support_size: int
    p: int

    def power(self, k: int) -> Rational:
        raise NotImplementedError

    def value(self, k: int) -> float:
        return float(self.power(k)) ** (1.0 / self.p)

    def powers(self, upto: Optional[int] = None) -> list[Rational]:
        last = self.support_size if upto is None else upto
        return [self.power(k) for k in range(last + 1)]


@dataclass(frozen=True)
class TabulatedErrorSequence(ErrorSequence):
    kind: str
    table: tuple[Rational, ...]  # index k, length support_size + 1
    p: int = 2

    @property
    def support_size(self) -> int:
        return len(self.table) - 1

    def power(self, k: int) -> Rational:
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.table[k] if k < len(self.table) else 0


@dataclass(frozen=True)
class TwoPoolParams:
    """Shape parameters of a two-pool vector.

    hi pool: ``count_hi`` coordinates of the larger magnitude in a block
    with cap ``cap_hi``; lo pool: ``count_lo`` coordinates of the smaller
    magnitude in a different block whose cap is at least count_lo (so the
    lo pool is never truncated).  ``g`` and ``l`` are the p-th powers of
    the two magnitudes.
    """

    g: Rational
    l: Rational
    count_hi: int
    cap_hi: int
    count_lo: int
    p: int = 2

    def __post_init__(self):
        if not self.g > self.l > 0:
            raise ValueError("two-pool needs magnitude powers g > l > 0")


def two_pool_params(x: CompressedVector, spec: SpaceSpec) -> Optional[TwoPoolParams]:
    """Recognize the two-pool shape, or return None.

    Requirements for the closed forms: exactly two groups in distinct
    blocks, integer inner_p == outer_p, and a lo pool small enough for its
    block cap.
    """
    if spec.inner_p != spec.outer_p or not isinstance(spec.inner_p, int):
        return None
    if len(x.groups) != 2:
        return None
    (b1, m1, c1), (b2, m2, c2) = x.groups
    if b1 == b2 or m1 == m2:
        return None
    (bh, mh, ch), (bl, ml, cl) = ((b1, m1, c1), (b2, m2, c2)) if m1 > m2 else (
        (b2, m2, c2),
        (b1, m1, c1),
    )
    p = spec.inner_p
    cap_hi = spec.blocks[bh].cap
    cap_lo = spec.blocks[bl].cap
    if cap_hi is None:
        cap_hi = ch
    if cap_lo is not None and cl > cap_lo:
        return None
    return TwoPoolParams(
        g=pow_rational(mh, p), l=pow_rational(ml, p),
        count_hi=ch, cap_hi=cap_hi, count_lo=cl, p=p,
    )


@dataclass(frozen=True)
class TwoPoolErrorSequence(ErrorSequence):
    kind: str
    params: TwoPoolParams

    @property
    def p(self) -> int:  # type: ignore[override]
        return self.params.p

    @property
    def support_size(self) -> int:  # type: ignore[override]
        return self.params.count_hi + self.params.count_lo

    def power(self, k: int) -> Rational:
        if k < 0:
            raise ValueError("k must be >= 0")
        q = self.params
        if k >= q.count_hi + q.count_lo:
            return 0
        if self.kind == "gamma":
            return _gamma_power(q, k)
        return _sigma_power(q, k)

    def pieces(self) -> list[tuple[int, int, Fraction, Fraction]]:
        """Cover [0, support] with ranges where power(k) = a0 + a1*k.

        Each piece is (k_lo, k_hi, a0, a1), endpoints inclusive; verified
        against power() at both endpoints.
        """
        q = self.params
        pieces = (_gamma_pieces(q) if self.kind == "gamma" else _sigma_pieces(q))
        for lo, hi, a0, a1 in pieces:
            for k in (lo, (lo + hi) // 2, hi):
                if a0 + a1 * k != self.power(k):
                    raise InvariantError(f"{self.kind} piece [{lo}, {hi}] misses power({k})")
        return pieces


def _gamma_power(q: TwoPoolParams, k: int) -> Rational:
    # Greedy keeps hi-pool coordinates first; all ties sit in one block,
    # so the residual is unique.
    if k <= q.count_hi:
        return simplify(q.g * min(q.count_hi - k, q.cap_hi) + q.l * q.count_lo)
    return simplify(q.l * (q.count_hi + q.count_lo - k))


def _sigma_power(q: TwoPoolParams, k: int) -> Rational:
    # Removal split: j from the hi pool, k - j from the lo pool.  The cost
    # g*min(H-j, c) + l*(V-k+j) is concave in j, so only the endpoints of
    # the feasible window need checking.
    h, v = q.count_hi, q.count_lo
    j_lo = max(0, k - v)
    j_hi = min(k, h)

    def cost(j: int) -> Rational:
        return q.g * min(h - j, q.cap_hi) + q.l * (v - (k - j))

    return simplify(min(cost(j_lo), cost(j_hi)))


def _gamma_pieces(q: TwoPoolParams) -> list[tuple[int, int, Fraction, Fraction]]:
    h, v, c = q.count_hi, q.count_lo, q.cap_hi
    g, l = Fraction(q.g), Fraction(q.l)
    pieces = []
    plateau_end = max(0, h - c)
    if plateau_end >= 1:
        pieces.append((0, plateau_end, g * min(h, c) + l * v, Fraction(0)))
        start = plateau_end + 1
    else:
        start = 0
    if start <= h:
        pieces.append((start, h, g * h + l * v, -g))
    if h + 1 <= h + v - 1:
        pieces.append((h + 1, h + v - 1, l * (h + v), -l))
    pieces.append((h + v, h + v, Fraction(0), Fraction(0)))
    return pieces


def _sigma_pieces(q: TwoPoolParams) -> list[tuple[int, int, Fraction, Fraction]]:
    h, v, c = q.count_hi, q.count_lo, q.cap_hi
    support = h + v

    def linear_on(lo: int, hi: int) -> tuple[Fraction, Fraction]:
        y0, y1 = Fraction(_sigma_power(q, lo)), Fraction(_sigma_power(q, hi))
        a1 = (y1 - y0) / (hi - lo) if hi > lo else Fraction(0)
        return y0 - a1 * lo, a1

    # Breakpoints of the two endpoint-cost branches, plus branch crossings.
    cuts = {0, support}
    for candidate in (v, h, h - c, h + v - c):
        if 0 < candidate < support:
            cuts.add(candidate)
    base = sorted(cuts)
    refined = set(base)
    for lo, hi in zip(base, base[1:]):
        if hi - lo < 2:
            continue
        # Within (lo, hi) both branches are linear; a crossing adds one cut.
        a0, a1 = _branch_coeffs(q, lo + 1, hi, which="lo")
        b0, b1 = _branch_coeffs(q, lo + 1, hi, which="hi")
        if a1 != b1:
            k_star = (b0 - a0) / (a1 - b1)
            for k_int in (math.floor(k_star), math.ceil(k_star)):
                if lo < k_int < hi:
                    refined.add(int(k_int))
    marks = sorted(refined)
    pieces = []
    prev = 0
    for mark in marks[1:]:
        lo, hi = prev, mark
        # Emit [lo, hi-1] as one linear piece and let the next piece start
        # at the cut itself; single points are fine.
        if hi - 1 >= lo:
            a0, a1 = linear_on(lo, max(lo, hi - 1))
            pieces.append((lo, max(lo, hi - 1), a0, a1))
        prev = hi
    a0, a1 = linear_on(prev, prev)
    pieces.append((prev, prev, a0, a1))
    return pieces


def _branch_coeffs(q: TwoPoolParams, lo: int, hi: int, which: str):
    """Linear coefficients of one endpoint branch over [lo, hi]."""
    h, v = q.count_hi, q.count_lo

    def branch(k: int) -> Fraction:
        j = max(0, k - v) if which == "lo" else min(k, h)
        return Fraction(q.g * min(h - j, q.cap_hi) + q.l * (v - (k - j)))

    y0, y1 = branch(lo), branch(hi)
    a1 = (y1 - y0) / (hi - lo) if hi > lo else Fraction(0)
    return y0 - a1 * lo, a1
