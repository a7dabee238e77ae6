"""Error sequences k -> sigma_k / gamma_k for a fixed vector.

sigma_k^p and gamma_k^p are linear in k between breakpoints set by the
group boundaries of the vector, so a sequence is stored as its knots:
exact powers at strictly increasing k, from (0, ||x||^p) to
(support, 0), linear in between and 0 beyond.  The constructor refuses
knots that break this contract (a first k other than 0, a k that does not
increase, a negative power, a last power other than 0) with ValueError;
pieces may rise, and an interior knot may be 0.  ``greedy.GreedyProfile``
builds them directly from the groups, whatever the support size, out of
one such sequence per block: the block's residual after its j largest
coordinates are removed, whose ``runs`` over a window give gamma's slopes.

All values are exact p-th powers.  The profile computes on the vector
scaled to integers and divides each sequence it hands out back once.
"""

from __future__ import annotations

import bisect
from operator import lt
from typing import Optional, Sequence

from .exact import Rational, int_at_least, simplify, slope


class ErrorSequence:
    """Exact power(k) of a piecewise-linear sequence, from its knots."""

    def __init__(self, kind: str, p: int, knots: Sequence[tuple[int, Rational]]):
        self.kind = kind  # "sigma" | "gamma"
        self.p = p
        self.knots = tuple(knots)
        self._ks = [k for k, _ in self.knots]
        if not self.knots or self._ks[0] != 0 or self.knots[-1][1] != 0:
            raise ValueError(f"knots must run from k = 0 to a last power of 0, "
                             f"got {self.knots[:1]} .. {self.knots[-1:]}")
        if not all(map(lt, self._ks, self._ks[1:])):
            raise ValueError("knot k must strictly increase")
        if min(y for _, y in self.knots) < 0:
            raise ValueError("knot powers cannot be negative")
        self._slopes = [
            slope(k0, y0, k1, y1)
            for (k0, y0), (k1, y1) in zip(self.knots, self.knots[1:])
        ]

    @property
    def support_size(self) -> int:
        return self._ks[-1]

    def power(self, k: int) -> Rational:
        k = int_at_least(k, 0, "k")
        i = bisect.bisect_right(self._ks, k) - 1
        if i >= len(self._slopes):
            return 0
        k0, y0 = self.knots[i]
        return simplify(y0 + self._slopes[i] * (k - k0))

    def powers(self, upto: Optional[int] = None) -> list[Rational]:
        """power(k) for k = 0..upto (default: the support), one run at a time."""
        last = self.support_size if upto is None else int_at_least(upto, 0, "upto")
        out: list[Rational] = []
        for k0, k1, y0, a in self.pieces():
            if k0 > last:
                break
            count = min(k1, last) - k0 + 1
            if isinstance(y0, int) and isinstance(a, int):
                out += [y0] * count if a == 0 else range(y0, y0 + a * count, a)
            else:
                out += [simplify(y0 + a * t) for t in range(count)]
        return out + [0] * (last + 1 - len(out))

    def runs(self, lo: int, hi: int) -> list[tuple[Rational, int]]:
        """(slope, length) of the runs from k = lo to k = hi, in order (hi <= support)."""
        i = bisect.bisect_right(self._ks, lo) - 1
        out = []
        while lo < hi:
            end = min(self._ks[i + 1], hi)
            out.append((self._slopes[i], end - lo))
            lo, i = end, i + 1
        return out

    def pieces(self) -> list[tuple[int, int, Rational, Rational]]:
        """(k_lo, k_hi, power(k_lo), slope) for each run between knots.

        The runs cover 0..support-1 once each (k_hi inclusive); on a run
        power(k) = power(k_lo) + slope * (k - k_lo).
        """
        return [
            (k0, k1 - 1, y0, a1)
            for (k0, y0), (k1, _y1), a1 in zip(self.knots, self.knots[1:], self._slopes)
        ]
