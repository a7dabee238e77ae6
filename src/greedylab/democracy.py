"""Democracy functions h_l / h_r and the non-optimality scaffolding.

For an indicator vector the block-sum norm power is sum_k min(m_k, cap_k)
over the per-block counts m_k, so h_l(N)^p and h_r(N)^p are integer
programs over allocations of N.  The production routes are:

* one recurrence for h_l: a block's cost psi(m) = min(m, cap) is
  concave, so h_l(N)^p = min of sum_b psi_b(m_b) over allocations of N
  is alloc.concave_min on psi's knots.  A point query walks it top-down
  over types of identical blocks, from the highest type that can take
  units (doubling_scan's rows, all in one walk).
  A table runs it bottom-up one block at a time: with one block added,
  the block takes either as much as it can or what the blocks before it
  cannot hold (past them, the prefix norm of the first N unit vectors),
  so h_l <= prefix norm, strictly where a later block's full fill is cheaper.
  Once the blocks hold max_N coordinates, a block whose cap is at least
  min(size, max_N) cannot lower the table and is skipped, so the table's
  cost grows with the blocks whose cap is below max_N,
* the closed form min(N, sum caps) for h_r, witnessed by filling the
  caps first, then the rest of each block, in block order.

Their oracles, the allocation DP (explicit.alloc_dp, a tabulated min-plus
quadratic in N) and subset brute force (explicit.demfun_bruteforce), live
in explicit.py; the tests and the acceptance suite check these routes
against them.

Truncation is never silently extrapolated: queries that a finite window
onto the infinite block space cannot answer exactly raise TruncationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .alloc import concave_min
from .errors import InvariantError, TruncationError
from .exact import int_at_least
from .schedule import BlockSchedule
from .spaces import SpaceSpec


@dataclass(frozen=True)
class DemPoint:
    """h_l and h_r at one cardinality, as exact norm powers with witnesses.

    A side is None when it was not requested (a shallow window can often
    answer h_l at an N whose h_r would need deeper caps).
    """

    n: int
    hl_power: Optional[int]
    hr_power: Optional[int]
    witness_l: tuple[tuple[int, int], ...]  # (block, count) achieving h_l
    witness_r: tuple[tuple[int, int], ...]


def _finite_blocks(spec: SpaceSpec) -> list[tuple[int, int]]:
    if spec.inner_p != spec.outer_p:
        # h^p = sum min(m_k, cap_k) needs one exponent throughout.
        raise ValueError("democracy functions need inner_p == outer_p")
    if any(b.cap is None or b.size is None for b in spec.blocks):
        raise ValueError("democracy functions need finite caps and sizes")
    return [(b.cap, b.size) for b in spec.blocks]


def _adequate_blocks(spec: SpaceSpec, n: int, which: str) -> list[tuple[int, int]]:
    """The (cap, size) blocks, refusing queries the window cannot answer exactly."""
    if which not in ("hl", "hr", "both"):
        raise ValueError("which must be 'hl', 'hr' or 'both'")
    blocks = _finite_blocks(spec)
    total_size = sum(s for _, s in blocks)
    if spec.schedule is not None:
        # Window onto the infinite space.  h_l folds into the deepest
        # materialized block as long as that block alone can host N;
        # h_r(N)^p = N needs N spread below caps.
        deepest = max(s for _, s in blocks)
        if which in ("hl", "both") and n > deepest:
            raise TruncationError(
                f"h_l({n}) needs a materialized block of size >= {n} "
                f"(deepest is {deepest}); extend the schedule"
            )
        if which in ("hr", "both") and n > sum(c for c, _ in blocks):
            raise TruncationError(
                f"h_r({n}) needs sum of caps >= {n} "
                f"(have {sum(c for c, _ in blocks)}); extend the schedule"
            )
    elif n > total_size:
        raise ValueError(f"no index set of size {n} in a {total_size}-point space")
    return blocks


def demfun_dp(
    spec: SpaceSpec, n: int, method: str = "extreme", which: str = "both"
) -> DemPoint:
    """Exact h_l(n)^p and h_r(n)^p with achieving allocations.

    h_l comes from alloc.concave_min over psi's knots, with the witness
    it traces; h_r from its closed form.  The only accepted ``method`` is
    "extreme", a name kept for earlier callers.
    ``which`` restricts the query to one side ("hl" or "hr"): a shallow
    window often answers h_l at N whose h_r would need deeper caps.
    """
    n = int_at_least(n, 0, "n")
    if method != "extreme":
        raise ValueError("method must be 'extreme'")
    blocks = _adequate_blocks(spec, n, which)
    hl, wit_l = _hl_points(blocks, [n])[0] if which != "hr" else (None, ())
    hr, wit_r = _hr_closed(blocks, n) if which != "hl" else (None, ())
    return DemPoint(n, hl, hr, wit_l, wit_r)


# ---------------------------------------------------------------------------
# The h_l recurrence and the closed-form h_r


def _hl_points(blocks: Sequence[tuple[int, int]], ns: Sequence[int]) -> list[tuple]:
    """h_l(n)^p and a witness (block, count) for each n, in one walk of the recurrence."""
    costs = [((0, 0), (cap, cap), (size, cap)) if cap < size else ((0, 0), (size, size))
             for cap, size in blocks]
    return [(value, tuple(sorted(counts.items()))) for value, counts in concave_min(costs, ns)]


def _ramp(base: int, cap: int, length: int) -> list[int]:
    """base + min(d, cap) for d = 0..length."""
    return list(range(base, base + min(cap, length) + 1)) + [base + cap] * max(0, length - cap)


def _prefix_table(blocks: Sequence[tuple[int, int]], max_n: int) -> list[int]:
    """The norm power of the first N unit vectors, block 0 first, for each N <= max_n they hold."""
    prefix = [0]
    for cap, size in blocks:
        prefix += _ramp(prefix[-1], cap, min(size, max_n + 1 - len(prefix)))[1:]
    return prefix


def _hl_table(blocks: Sequence[tuple[int, int]], max_n: int) -> list[int]:
    """h_l(N)^p for every N <= max_n, from the recurrence one block at a time.

    With one block the two candidates are M = max(0, N - S) (the block
    takes only what the blocks before it cannot hold; past S that costs
    the table's own h_l(S) plus min(N - S, cap)) and M = min(N, size).
    A block is skipped once the blocks before it hold max_n coordinates
    and its cap is at least min(size, max_n): it then prices its M units
    at M, and h_l^p rises by at most 1 per coordinate, so min over M of
    M + H(N - M) is H(N) and the table is unchanged.
    Every N <= max_n must be reachable (the caller checks adequacy).
    """
    hl, total = [0], 0  # hl over the blocks so far; total: their size
    for cap, size in blocks:
        if total < max_n or cap < min(size, max_n):
            hl = _hl_add_block(hl, total, cap, size, max_n)
        total += size
    return hl


def _hl_add_block(hl: list[int], total: int, cap: int, size: int, max_n: int) -> list[int]:
    """The h_l table with one more block, from the table over the blocks before it."""
    top = min(total + size, max_n)
    fill = min(size, top)
    low = hl + _ramp(hl[-1], cap, top - total)[1:]
    high = _ramp(0, cap, fill) + [cap + h for h in hl[1:top - fill + 1]]
    return list(map(min, low, high))


def _hr_closed(blocks: Sequence[tuple[int, int]], n: int):
    """h_r(n)^p = min(n, sum caps), witnessed by filling the caps first,
    then the rest of each block, in block order."""
    target = min(n, sum(c for c, _ in blocks))
    alloc, left = [0] * len(blocks), n
    for room in ([cap for cap, _ in blocks], [size - cap for cap, size in blocks]):
        for i, length in enumerate(room):
            take = min(length, left)
            alloc[i], left = alloc[i] + take, left - take
    if sum(alloc) != n:
        raise InvariantError(f"h_r witness for N={n} places {sum(alloc)} coordinates")
    value = sum(min(m, cap) for m, (cap, _) in zip(alloc, blocks))
    if value != target:
        raise InvariantError(f"h_r witness for N={n} has power {value}, not {target}")
    witness = tuple((i, m) for i, m in enumerate(alloc) if m > 0)
    return target, witness


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True)
class DemFunTable:
    """h_l / h_r powers for every N up to max_n.

    h_l comes from the recurrence, one block at a time; h_r from its
    closed form.  A side not requested at build time is withheld rather
    than served wrong, and so is any N past max_n: accessing either
    raises TruncationError.
    """

    spec: SpaceSpec
    max_n: int
    hl_powers: Optional[tuple[int, ...]]  # index N
    hr_powers: Optional[tuple[int, ...]]

    def hl_power(self, n: int) -> int:
        return self._power(self.hl_powers, "h_l", n)

    def hr_power(self, n: int) -> int:
        return self._power(self.hr_powers, "h_r", n)

    def _power(self, powers: Optional[tuple[int, ...]], side: str, n: int) -> int:
        if powers is None:
            raise TruncationError(f"table was built without the {side} side")
        if int_at_least(n, 0, "n") > self.max_n:
            raise TruncationError(f"{side}({n}) is past the table's max_n = {self.max_n}")
        return powers[n]


def demfun_table(spec: SpaceSpec, max_n: int, which: str = "both") -> DemFunTable:
    max_n = int_at_least(max_n, 0, "max_n")
    blocks = _adequate_blocks(spec, max_n, which)
    hl = tuple(_hl_table(blocks, max_n)) if which != "hr" else None
    hr = tuple(_ramp(0, sum(c for c, _ in blocks), max_n)) if which != "hl" else None
    return DemFunTable(spec, max_n, hl, hr)


# ---------------------------------------------------------------------------
# Doubling scan and the prefix-norm comparison


@dataclass(frozen=True)
class DoublingRow:
    k: int  # block index, 1-based
    n_k: int
    n_k1: int
    a_k1: int
    hl_n_power: int
    hl_2n_power: int
    ratio_sq: Fraction  # hl(2n_{k+1})^2 / hl(n_{k+1})^2
    bound_sq: Fraction  # (2/3) a_{k+1}
    bound_holds: bool
    upper_holds: bool  # hl(n_{k+1})^2 <= n_k
    upper_equality: bool


@dataclass(frozen=True)
class DoublingReport:
    rows: tuple[DoublingRow, ...]
    ratios_increasing: bool
    non_doubling_witnessed: bool


def doubling_scan(schedule: BlockSchedule, ks: Iterable[int]) -> DoublingReport:
    """Exact ratios h_l(2 n_{k+1}) / h_l(n_{k+1}) with guaranteed bounds.

    Each ratio is at least sqrt(2/3) * sqrt(a_{k+1}) and h_l(n_{k+1}) is
    at most sqrt(n_k); the growing multipliers make the ratio sequence
    unbounded, which is the non-doubling phenomenon.  Once every row has
    passed the window's checks, one walk of the recurrence answers all N.
    """
    spec = SpaceSpec.from_schedule(schedule)
    ks = sorted({int_at_least(k, 1, "k") for k in ks})
    if not ks:  # a report with no rows would pass having checked nothing
        raise ValueError("doubling scan needs at least one block index k")
    deepest, ns = schedule.n(len(schedule.a)), []
    for k in ks:  # the smallest k the window cannot answer names the refusal
        ns.append(schedule.n(k + 1))
        if 2 * ns[-1] > deepest:
            _adequate_blocks(spec, 2 * ns[-1], "hl")  # raises its TruncationError
    hl = [value for value, _ in _hl_points(_finite_blocks(spec), ns + [2 * n for n in ns])]
    rows = []
    for k, n_k1, hl_n, hl_2n in zip(ks, ns, hl, hl[len(ns):]):
        n_k = schedule.n(k)
        ratio_sq = Fraction(hl_2n, hl_n)
        bound_sq = Fraction(2, 3) * schedule.a[k]
        rows.append(
            DoublingRow(
                k=k,
                n_k=n_k,
                n_k1=n_k1,
                a_k1=schedule.a[k],
                hl_n_power=hl_n,
                hl_2n_power=hl_2n,
                ratio_sq=ratio_sq,
                bound_sq=bound_sq,
                bound_holds=ratio_sq >= bound_sq,
                upper_holds=hl_n <= n_k,
                upper_equality=hl_n == n_k,
            )
        )
    ratios = [row.ratio_sq for row in rows]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    return DoublingReport(tuple(rows), increasing, all(r.bound_holds for r in rows))


@dataclass(frozen=True)
class PrefixReport:
    rows: tuple[tuple[int, int, int], ...]  # (N, prefix_power, hl_power)
    counterexamples: tuple[int, ...]
    all_equal: bool


def prefix_norm_conjecture_check(
    schedule: BlockSchedule, n_values: Iterable[int]
) -> PrefixReport:
    """Compare h_l(N) with the norm of the first N unit vectors.

    The natural order fills block 0, then block 1, and so on.  Equality is
    reported where it holds; any N where the prefix norm exceeds h_l is a
    counterexample and is surfaced, not suppressed.
    """
    spec = SpaceSpec.from_schedule(schedule)
    ns = sorted({int_at_least(n, 0, "N") for n in n_values})
    if not ns:  # a report with no rows would pass having checked nothing
        raise ValueError("no N to check")
    # The table refuses past the deepest block, so the blocks hold every prefix.
    table = demfun_table(spec, ns[-1], which="hl")
    prefix = _prefix_table(_finite_blocks(spec), ns[-1])
    rows = [(n, prefix[n], table.hl_power(n)) for n in ns]
    bad = [n for n, pre, hl in rows if pre != hl]
    return PrefixReport(tuple(rows), tuple(bad), not bad)
