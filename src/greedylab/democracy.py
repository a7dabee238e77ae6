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
  so h_l <= prefix norm, strictly where a later block's full fill is cheaper,
* the closed form min(N, sum caps) for h_r, witnessed by filling the
  caps first, then the rest of each block, in block order.

Their oracles, the allocation DP (explicit.alloc_dp, quadratic in N) and
subset brute force (explicit.demfun_bruteforce), live in explicit.py; the
tests and the acceptance suite check these routes against them.

Truncation is never silently extrapolated: queries that a finite window
onto the infinite block space cannot answer exactly raise TruncationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .alloc import concave_min
from .errors import InvariantError, TruncationError
from .exact import json_int, json_number, json_shape
from .schedule import BlockSchedule
from .spaces import SpaceSpec

__all__ = [
    "DemPoint",
    "DemFunTable",
    "demfun_dp",
    "demfun_table",
    "doubling_scan",
    "DoublingRow",
    "prefix_norm_conjecture_check",
    "PrefixReport",
    "cghm_construct",
    "CghmSequences",
    "condition71_check",
    "Condition71Report",
    "one_plus_log2",
    "sqrt_of",
    "h_function_from_json",
]


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
    if n < 0:
        raise ValueError("n must be >= 0")
    if which not in ("hl", "hr", "both"):
        raise ValueError("which must be 'hl', 'hr' or 'both'")
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
    takes only what the blocks before it cannot hold) and M = min(N, size).
    Every N <= max_n must be reachable (the caller checks adequacy).
    """
    prefix, hl, total = _prefix_table(blocks, max_n), [0], 0  # hl over the blocks so far; total: their size
    for cap, size in blocks:
        top = min(total + size, max_n)
        fill = min(size, top)
        low = hl + prefix[total + 1:top + 1]
        high = _ramp(0, cap, fill) + [cap + h for h in hl[1:top - fill + 1]]
        hl = list(map(min, low, high))
        total += size
    return hl


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
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > self.max_n:
            raise TruncationError(f"{side}({n}) is past the table's max_n = {self.max_n}")
        return powers[n]


def demfun_table(spec: SpaceSpec, max_n: int, which: str = "both") -> DemFunTable:
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if which not in ("hl", "hr", "both"):
        raise ValueError("which must be 'hl', 'hr' or 'both'")
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
    sizes = spec.sizes()  # block k - 1 has cap n_k and size n_{k+1}
    ks = sorted(set(int(k) for k in ks))
    for k in ks:
        if k < 1:
            raise ValueError("block index k starts at 1")
        if k + 1 > len(schedule.a):
            raise TruncationError(f"scan at k={k} needs multiplier a_{k + 1}")
        if 2 * sizes[k - 1] > sizes[-1]:
            _adequate_blocks(spec, 2 * sizes[k - 1], "hl")  # raises its TruncationError
    blocks, ns = _finite_blocks(spec), [sizes[k - 1] for k in ks]
    hl = [value for value, _ in _hl_points(blocks, ns + [2 * n for n in ns])]
    rows = []
    for k, n_k1, hl_n, hl_2n in zip(ks, ns, hl, hl[len(ns):]):
        n_k = blocks[k - 1][0]
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
    blocks = _finite_blocks(spec)
    ns = sorted(set(int(n) for n in n_values))
    if ns and ns[0] < 0:
        raise ValueError("N must be >= 0")
    max_n = ns[-1] if ns else 0
    prefix = _prefix_table(blocks, max_n)
    deeper = [n for n in ns if n >= len(prefix)]
    if deeper:
        raise TruncationError(f"prefix of {deeper[0]} vectors needs a deeper schedule")
    table = demfun_table(spec, max_n, which="hl")
    rows = [(n, prefix[n], table.hl_power(n)) for n in ns]
    bad = [n for n, pre, hl in rows if pre != hl]
    return PrefixReport(tuple(rows), tuple(bad), not bad)


# ---------------------------------------------------------------------------
# CGHM sequence construction and the 7.1 condition


def one_plus_log2(n: int) -> float:
    return 1.0 + math.log2(n)


def sqrt_of(n: int) -> float:
    return math.sqrt(n)


def h_function_from_json(obj: dict) -> Callable[[int], float]:
    kind = json_shape(obj, dict)["kind"]
    if kind == "one_plus_log2":
        return one_plus_log2
    if kind == "sqrt":
        return sqrt_of
    if kind == "power":
        scale = float(json_number(obj.get("scale", 1.0)))
        exponent = float(json_number(obj["exponent"]))
        return lambda n: scale * float(n) ** exponent
    if kind == "table":
        values = {json_int(k): float(json_number(v))
                  for k, v in json_shape(obj["values"], dict).items()}
        return lambda n: values[n]  # KeyError beyond the table = probe exhausted
    raise ValueError(f"unknown h-function kind {kind!r}")


@dataclass(frozen=True)
class CghmSequences:
    w: tuple[int, ...]
    r_of_mu: tuple[int, ...]
    k: tuple[int, ...]
    n: tuple[int, ...]
    c_doubling: float
    alpha: float
    exhausted: bool
    exhausted_reason: Optional[str]
    checks: tuple[dict, ...]  # per-term cghm2/cghm3/chain booleans

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.k, self.n))

    def all_checks_pass(self) -> bool:
        return all(all(c.values()) for c in self.checks)


def _first_crossing(
    ratio, threshold: float, lo: int, probe_limit: int, target: str
) -> tuple[int, Optional[str]]:
    """(N, None) for an N >= lo with ratio(N) >= threshold, or (N, reason).

    Doubles from lo until the threshold is crossed, then binary-searches
    between the last two probes.  Where ratio is non-decreasing that is the
    first crossing; otherwise it is a crossing between two doubling probes,
    not always the first (ratio >= 2 only at N = 3 and N = 8 from lo = 1:
    the probes 1, 2, 4 step over 3, and the search returns 8).  (N, reason)
    names where the search stopped: the first doubling past probe_limit, or
    the first N ratio cannot answer.
    """
    n = lo
    try:
        if ratio(lo) >= threshold:
            return lo, None
        hi = lo
        while True:
            n = hi = hi * 2
            if hi > probe_limit:
                return hi, f"no N <= {probe_limit} with h_r/h_l >= {target}"
            if ratio(hi) >= threshold:
                break
        lo_fail = max(lo, hi // 2)
        while hi - lo_fail > 1:
            n = mid = (hi + lo_fail) // 2
            if ratio(mid) >= threshold:
                hi = mid
            else:
                lo_fail = mid
        return hi, None
    except (LookupError, OverflowError):
        return n, f"h_r/h_l is not known at N = {n}, before any N with h_r/h_l >= {target}"


def _require_finite(**values: float) -> None:
    """Refuse a nan or infinite parameter up front: its report could not be written as JSON."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def cghm_construct(
    h_r: Callable[[int], float],
    h_l: Callable[[int], float],
    c_doubling: float,
    alpha: float,
    count: int,
    probe_limit: int = 2**63,
) -> CghmSequences:
    """Build (w, r, k, n) witnessing the 7.1 condition from two h tables.

    Finite computation replaces limit conditions by explicit thresholds:
    w_mu is an N with h_r/h_l >= mu, r(mu) brackets w_mu between powers of
    two, k_mu is a later N whose ratio beats C^r(mu) * w_mu^alpha, and
    n_mu = w_mu * k_mu.  Both searches are ``_first_crossing``: the first
    such N where h_r/h_l is non-decreasing, otherwise a crossing between two
    doubling probes, which serves as well.  Every produced term
    re-verifies the doubling step, the threshold step and the final 7.1
    inequality numerically; running out of probe range, or of the range a
    table h-function answers, yields a partial result with an explicit
    marker instead of an error.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _require_finite(c_doubling=c_doubling, alpha=alpha)

    # Pre-condition: h_l doubling with the claimed constant on the probed
    # range, which ends at the first N a table cannot answer.
    probe = 1
    while probe <= probe_limit // 2:
        try:
            h_n, h_2n = h_l(probe), h_l(2 * probe)
        except LookupError:
            break
        if h_2n > c_doubling * h_n * (1 + 1e-12):
            raise ValueError(
                f"h_l is not {c_doubling}-doubling at N={probe}: "
                f"{h_2n} > {c_doubling} * {h_n}"
            )
        probe *= 4

    def ratio(n: int) -> float:
        return h_r(n) / h_l(n)

    ws: list[int] = []
    rs: list[int] = []
    ks: list[int] = []
    ns: list[int] = []
    checks: list[dict] = []
    exhausted = False
    reason = None

    w_prev = 0
    k_prev = 0
    for mu in range(1, count + 1):
        w, reason = _first_crossing(ratio, float(mu), w_prev + 1, probe_limit, str(mu))
        if reason:
            exhausted = True
            break
        r = w.bit_length()  # 2^(r-1) <= w < 2^r
        threshold = (c_doubling**r) * (w**alpha)
        target = f"C^{r} * {w}^{alpha}"
        k, reason = _first_crossing(ratio, threshold, max(k_prev + 1, w), probe_limit, target)
        if reason:
            exhausted = True
            break
        n = w * k
        try:
            h_n = h_l(n)
        except LookupError:
            exhausted, reason = True, f"h_l is not known at N = w * k = {n}, which the checks read"
            break
        checks.append(
            {
                "cghm2": h_n <= (c_doubling**r) * h_l(k) * (1 + 1e-12),
                "cghm3": ratio(k) >= threshold * (1 - 1e-12),
                "chain": h_r(k) / h_n >= (n / k) ** alpha * (1 - 1e-12),
            }
        )
        ws.append(w)
        rs.append(r)
        ks.append(k)
        ns.append(n)
        w_prev, k_prev = w, k

    return CghmSequences(
        tuple(ws), tuple(rs), tuple(ks), tuple(ns),
        c_doubling, alpha, exhausted, reason, tuple(checks),
    )


@dataclass(frozen=True)
class Condition71Report:
    rows: tuple[dict, ...]
    all_pass: bool


def condition71_check(
    h_r: Callable[[int], float],
    h_l: Callable[[int], float],
    pairs: Sequence[tuple[int, int]],
    c: float,
    alpha: float,
) -> Condition71Report:
    """Check the 7.1 condition on explicit (k_mu, n_mu) pairs.

    Growth means n/k strictly increases along the pairs; the inequality is
    h_r(k) / h_l(n) >= c * (n/k)^alpha per pair.
    """
    _require_finite(c=c, alpha=alpha)
    rows = []
    prev_ratio = None
    for mu, (k, n) in enumerate(pairs, start=1):
        if not 1 <= k <= n:
            raise ValueError(f"pair {mu}: need 1 <= k <= n")
        growth_ratio = Fraction(n, k)
        growth_ok = prev_ratio is None or growth_ratio > prev_ratio
        lhs = h_r(k) / h_l(n)
        rhs = c * float(growth_ratio) ** alpha
        inequality_ok = lhs >= rhs * (1 - 1e-12)
        rows.append(
            {
                "mu": mu,
                "k": k,
                "n": n,
                "n_over_k": float(growth_ratio),
                "lhs": lhs,
                "rhs": rhs,
                "growth_ok": growth_ok,
                "inequality_ok": inequality_ok,
                "passed": growth_ok and inequality_ok,
            }
        )
        prev_ratio = growth_ratio
    return Condition71Report(tuple(rows), all(r["passed"] for r in rows))
