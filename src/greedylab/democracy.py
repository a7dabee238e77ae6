"""Democracy functions h_l / h_r and the non-optimality scaffolding.

For an indicator vector the block-sum norm power is sum_k min(m_k, cap_k)
over the per-block counts m_k, so h_l(N)^p and h_r(N)^p are integer
programs over allocations of N.  The production routes are:

* a vertex search for h_l: the objective is concave, so the minimum sits
  at a vertex of the allocation polytope, where every block is empty or
  full except at most one.  One enumerator of those vertices answers a
  single N (up to the n_s-sized queries of the counterexample
  construction) and sweeps a whole table; identical (cap, size) blocks
  form one type, so its work grows with types, not blocks,
* the closed form min(N, sum caps) for h_r, witnessed by a marginal-gain
  greedy that fills caps first.

Both kernels live in alloc.py, which gamma's tie extremes share.

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
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

from .alloc import _vertices, cheapest_vertex, greedy_max
from .errors import InvariantError, TruncationError
from .schedule import BlockSchedule
from .spaces import SpaceSpec, _float_root

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
    blocks = []
    for b in spec.blocks:
        if b.cap is None or b.size is None:
            raise ValueError("democracy functions need finite caps and sizes")
        blocks.append((b.cap, b.size))
    return blocks


def _check_adequacy(spec: SpaceSpec, n: int, which: str = "both") -> None:
    """Refuse queries the materialized window cannot answer exactly."""
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


def demfun_dp(
    spec: SpaceSpec, n: int, method: str = "extreme", which: str = "both"
) -> DemPoint:
    """Exact h_l(n)^p and h_r(n)^p with achieving allocations.

    h_l comes from the vertex search, h_r from its closed form.  The only
    accepted ``method`` is "extreme", the name of that route.  ``which``
    restricts the query to one side ("hl" or "hr"): a shallow window often
    answers h_l at cardinalities whose h_r would need deeper caps.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if which not in ("hl", "hr", "both"):
        raise ValueError("which must be 'hl', 'hr' or 'both'")
    if method != "extreme":
        raise ValueError("method must be 'extreme'")
    if n == 0:
        return DemPoint(0, 0, 0, (), ())
    _check_adequacy(spec, n, which)
    blocks = _finite_blocks(spec)
    hl, wit_l = _hl_vertex(blocks, n) if which != "hr" else (None, ())
    hr, wit_r = _hr_closed(blocks, n) if which != "hl" else (None, ())
    return DemPoint(n, hl, hr, wit_l, wit_r)


# ---------------------------------------------------------------------------
# Vertex search for h_l and closed-form h_r


def _block_types(blocks: Sequence[tuple[int, int]]):
    """Identical (cap, size) blocks as types (cap, size, count), with their blocks."""
    members: dict = {}
    for b, block in enumerate(blocks):
        members.setdefault(block, []).append(b)
    return [(cap, size, len(bs)) for (cap, size), bs in members.items()], list(members.values())


def _hl_vertex(blocks: Sequence[tuple[int, int]], n: int):
    """h_l(n)^p as the cheapest vertex with n coordinates, plus its witness."""
    types, members = _block_types(blocks)
    value, witness = cheapest_vertex(types, n, lambda r, rem: min(rem, types[r][0]))
    unused = [iter(bs) for bs in members]
    return value, tuple(sorted((next(unused[r]), units) for r, units in witness))


def _hl_sweep(blocks: Sequence[tuple[int, int]], max_n: int) -> list[int]:
    """h_l(N)^p for every N <= max_n from one vertex enumeration.

    The free block of type r of a vertex with full part (t, cost) puts rem
    more coordinates in place for cost + min(rem, cap_r): a ramp of slope
    one up to cap_r, then flat up to size_r.  Each vertex lowers its slice
    of the table.  Every N <= max_n must be reachable (the caller checks
    adequacy).
    """
    types, _ = _block_types(blocks)
    hl = [max_n + 1] * (max_n + 1)  # above any real value: h_l(N)^p <= N
    states = _vertices(types, max_n)
    for (t, r), (cost, _) in states.items():
        if r is None:
            hl[t] = min(hl[t], cost)
            continue
        cap, size, _ = types[r]
        top = min(size, max_n - t)
        ramp = min(cap, top)
        lo, mid, hi = t + 1, t + ramp + 1, t + top + 1
        hl[lo:mid] = map(min, hl[lo:mid], range(cost + 1, cost + ramp + 1))
        hl[mid:hi] = map(min, hl[mid:hi], repeat(cost + cap, hi - mid))
    return hl


def _hr_closed(blocks: Sequence[tuple[int, int]], n: int):
    """h_r(n)^p = min(n, sum caps), witnessed by filling caps first."""
    total_caps = sum(c for c, _ in blocks)
    total_size = sum(s for _, s in blocks)
    if n > total_size:
        raise ValueError(f"no index set of size {n} in a {total_size}-point space")
    target = min(n, total_caps)
    segments = [(i, slope, length) for i, (cap, size) in enumerate(blocks)
                for slope, length in ((1, cap), (0, size - cap))]
    _gain, counts = greedy_max(segments, n)
    alloc = [counts.get(i, 0) for i in range(len(blocks))]
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

    h_l comes from one vertex sweep, h_r from its closed form.  A side not
    requested at build time is withheld rather than served wrong:
    accessing it raises.
    """

    spec: SpaceSpec
    max_n: int
    hl_powers: Optional[tuple[int, ...]]  # index N
    hr_powers: Optional[tuple[int, ...]]

    def hl_power(self, n: int) -> int:
        if self.hl_powers is None:
            raise TruncationError("table was built without the h_l side")
        return self.hl_powers[n]

    def hr_power(self, n: int) -> int:
        if self.hr_powers is None:
            raise TruncationError("table was built without the h_r side")
        return self.hr_powers[n]

    def hl(self, n: int) -> float:
        return _float_root(self.hl_power(n), self.spec.outer_p)

    def hr(self, n: int) -> float:
        return _float_root(self.hr_power(n), self.spec.outer_p)


def demfun_table(spec: SpaceSpec, max_n: int, which: str = "both") -> DemFunTable:
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    _check_adequacy(spec, max_n, which)
    blocks = _finite_blocks(spec)
    total_caps = sum(c for c, _ in blocks)
    return DemFunTable(
        spec,
        max_n,
        tuple(_hl_sweep(blocks, max_n)) if which != "hr" else None,
        tuple(min(n, total_caps) for n in range(max_n + 1)) if which != "hl" else None,
    )


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
    unbounded, which is the non-doubling phenomenon.
    """
    spec = SpaceSpec.from_schedule(schedule)
    rows = []
    for k in sorted(set(int(k) for k in ks)):
        if k < 1:
            raise ValueError("block index k starts at 1")
        if k + 1 > len(schedule.a):
            raise TruncationError(f"scan at k={k} needs multiplier a_{k + 1}")
        n_k = schedule.n(k)
        n_k1 = schedule.n(k + 1)
        # Raises TruncationError if the window is too shallow for these N.
        hl_n = demfun_dp(spec, n_k1, which="hl").hl_power
        hl_2n = demfun_dp(spec, 2 * n_k1, which="hl").hl_power
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
    prefix_powers = []
    for n in ns:
        remaining = n
        prefix_power = 0
        for cap, size in blocks:
            fill = min(size, remaining)
            prefix_power += min(fill, cap)
            remaining -= fill
            if remaining == 0:
                break
        if remaining > 0:
            raise TruncationError(f"prefix of {n} vectors needs a deeper schedule")
        prefix_powers.append(prefix_power)
    table = demfun_table(spec, ns[-1], which="hl") if ns else None
    rows = [(n, pre, table.hl_power(n)) for n, pre in zip(ns, prefix_powers)]
    bad = [n for n, pre, hl in rows if pre != hl]
    return PrefixReport(tuple(rows), tuple(bad), not bad)


# ---------------------------------------------------------------------------
# CGHM sequence construction and the 7.1 condition


def one_plus_log2(n: int) -> float:
    return 1.0 + math.log2(n)


def sqrt_of(n: int) -> float:
    return math.sqrt(n)


def h_function_from_json(obj: dict) -> Callable[[int], float]:
    kind = obj["kind"]
    if kind == "one_plus_log2":
        return one_plus_log2
    if kind == "sqrt":
        return sqrt_of
    if kind == "power":
        scale = float(obj.get("scale", 1.0))
        exponent = float(obj["exponent"])
        return lambda n: scale * float(n) ** exponent
    if kind == "table":
        values = {int(k): float(v) for k, v in obj["values"].items()}
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


def _first_crossing(ratio, threshold: float, lo: int, probe_limit: int) -> Optional[int]:
    """Smallest N >= lo with ratio(N) >= threshold, within the probe range.

    Doubles until the threshold is crossed, then binary-searches the
    bracketing interval.  Returns None when the probe range is exhausted.
    """
    try:
        if ratio(lo) >= threshold:
            return lo
        hi = lo
        while True:
            hi *= 2
            if hi > probe_limit:
                return None
            if ratio(hi) >= threshold:
                break
        lo_fail = max(lo, hi // 2)
        while hi - lo_fail > 1:
            mid = (hi + lo_fail) // 2
            if ratio(mid) >= threshold:
                hi = mid
            else:
                lo_fail = mid
        return hi
    except (LookupError, OverflowError):
        return None


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
    w_mu is the first N with h_r/h_l >= mu, r(mu) brackets w_mu between
    powers of two, k_mu is the first later N whose ratio beats
    C^r(mu) * w_mu^alpha, and n_mu = w_mu * k_mu.  Every produced term
    re-verifies the doubling step, the threshold step and the final 7.1
    inequality numerically; running out of probe range yields a partial
    result with an explicit marker instead of an error.
    """
    if count < 1:
        raise ValueError("count must be >= 1")

    # Pre-condition: h_l doubling with the claimed constant on the probed range.
    probe = 1
    while probe <= probe_limit // 2:
        if h_l(2 * probe) > c_doubling * h_l(probe) * (1 + 1e-12):
            raise ValueError(
                f"h_l is not {c_doubling}-doubling at N={probe}: "
                f"{h_l(2 * probe)} > {c_doubling} * {h_l(probe)}"
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
        w = _first_crossing(ratio, float(mu), w_prev + 1, probe_limit)
        if w is None:
            exhausted, reason = True, f"no N <= {probe_limit} with h_r/h_l >= {mu}"
            break
        r = w.bit_length()  # 2^(r-1) <= w < 2^r
        threshold = (c_doubling**r) * (w**alpha)
        k = _first_crossing(ratio, threshold, max(k_prev + 1, w), probe_limit)
        if k is None:
            exhausted, reason = True, (
                f"no N <= {probe_limit} with h_r/h_l >= C^{r} * {w}^{alpha}"
            )
            break
        n = w * k
        checks.append(
            {
                "cghm2": h_l(n) <= (c_doubling**r) * h_l(k) * (1 + 1e-12),
                "cghm3": ratio(k) >= threshold * (1 - 1e-12),
                "chain": h_r(k) / h_l(n) >= (n / k) ** alpha * (1 - 1e-12),
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
