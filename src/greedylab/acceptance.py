"""The acceptance suite: eleven exact-value and property criteria.

Each criterion is a function returning (passed, detail); run_all executes
them, wraps each outcome in a CheckResult with its runtime, prints one
pass/fail line per criterion, and is reused both by ``greedylab verify``
and by tests/test_acceptance.py.
Everything is seeded and exact where the criterion says exact.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import explicit
from .approx import ApproxParams, build_xs, optimality_experiment, xs_bound_checks
from .democracy import (
    cghm_construct,
    condition71_check,
    demfun_dp,
    demfun_table,
    doubling_scan,
    one_plus_log2,
    sqrt_of,
)
from .errors import TruncationError
from .greedy import GreedyProfile, error_sequence, gamma, sigma_exact
from .schedule import arithmetic_schedule, squares_schedule
from .spaces import SpaceSpec


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def criterion_1() -> tuple[bool, str]:
    """Democracy oracle equivalence on the 10-coordinate toy space."""
    blocks = [(2, 4), (3, 6)]
    toy = SpaceSpec.block_sum(blocks)
    dp_l, dp_r = explicit.alloc_dp(blocks, 10)
    for n in range(0, 11):
        hl_b, hr_b = explicit.demfun_bruteforce(toy, n)
        point = demfun_dp(toy, n)
        routes = (("dp", (dp_l[n], dp_r[n])), ("recurrence", (point.hl_power, point.hr_power)))
        for route, (hl, hr) in routes:
            if hl != hl_b or hr != hr_b:
                return False, f"mismatch at N={n}: {route}=({hl},{hr}) brute=({hl_b},{hr_b})"
    return True, "DP oracle and h_l recurrence == demfun_bruteforce for all N in [0,10]"


def criterion_2() -> tuple[bool, str]:
    """Non-doubling reproduction on a = (4,5,6,7), k = 1, 2, and its bounds to k = 100.

    h_l^2 at N = 20, 40, 120 and 240 is read off one allocation DP table to
    N = 240: the table to a smaller N is a prefix of it, since no allocation
    of N or fewer coordinates places more than N in one block.
    """
    sched = arithmetic_schedule(3)
    blocks = [(b.cap, b.size) for b in SpaceSpec.from_schedule(sched).blocks]
    expected = {20: 4, 40: 20, 120: 20, 240: 120}
    hl_power = explicit.alloc_dp(blocks, max(expected))[0]
    for n, want in expected.items():
        got = hl_power[n]
        if got != want:
            return False, f"h_l({n})^2 = {got}, expected {want}"
    report = doubling_scan(sched, [1, 2])
    for row in report.rows:
        if not row.bound_holds:
            return False, f"k={row.k}: ratio_sq {row.ratio_sq} < bound_sq {row.bound_sq}"
        if not row.upper_equality:
            return False, f"k={row.k}: h_l(n_k+1)^2 = {row.hl_n_power} != n_k = {row.n_k}"
    for row in doubling_scan(arithmetic_schedule(101), range(1, 101)).rows:
        if not (row.bound_holds and row.upper_holds):
            return False, f"k={row.k} of 101: bound {row.bound_holds}, upper {row.upper_holds}"
    return True, "h_l exact; ratios beat sqrt(2/3)sqrt(a_(k+1)) to k=100; upper witness tight"


def criterion_3() -> tuple[bool, str]:
    """h_r(N)^2 = N for N <= 1000, plus the capacity error path."""
    deep = SpaceSpec.from_schedule(arithmetic_schedule(5))  # caps sum to 7704
    for n in range(1, 1001):
        got = demfun_dp(deep, n, which="hr").hr_power
        if got != n:
            return False, f"h_r({n})^2 = {got} != {n}"
    shallow = SpaceSpec.from_schedule(arithmetic_schedule(3))  # caps sum to 144
    try:
        demfun_dp(shallow, 1000, which="hr")
        return False, "shallow window served h_r(1000) instead of refusing"
    except TruncationError:
        pass
    return True, "h_r identity exact on N <= 1000; shallow window refuses"


def criterion_4_instances():
    """Criterion 4's 50 (spec, values, n) instances, seeded."""
    rng = random.Random(4)
    spaces = [SpaceSpec.lp(1, 4), SpaceSpec.lp(2, 4), SpaceSpec.trunc_block(2, 4, 2)]
    for i in range(50):
        values = [rng.randint(0, 8) * rng.choice((-1, 1)) for _ in range(4)]
        yield spaces[i % 3], values, rng.randint(0, 4)


def criterion_4() -> tuple[bool, str]:
    """sigma_exact vs the free-coefficient grid oracle, 50 instances."""
    worst = 0.0
    for i, (spec, values, n) in enumerate(criterion_4_instances()):
        x = explicit.from_explicit(values, spec)
        exact = float(sigma_exact(x, n, spec))
        oracle = explicit.sigma_oracle_grid(values, n, spec)
        worst = max(worst, abs(exact - oracle))
        if abs(exact - oracle) > 1e-6:
            return False, f"instance {i}: |{exact} - {oracle}| > 1e-6 ({spec}, N={n})"
    return True, f"50 instances agree; worst |diff| = {worst:.2e}"


def criterion_5() -> tuple[bool, str]:
    """Compressed tie extremes == raw subset enumeration, 30 instances."""
    rng = random.Random(5)
    done = 0
    while done < 30:
        caps_sizes = [(rng.randint(1, 3), rng.randint(3, 5)) for _ in range(2)]
        spec = SpaceSpec.block_sum(caps_sizes)
        raw = []
        tie_counts = []
        for b, (_cap, size) in enumerate(caps_sizes):
            above = rng.randint(0, 1)
            tie = rng.randint(0, min(4, size - above - 1))
            below = rng.randint(0, size - above - tie)
            if above:
                raw.append((b, rng.randint(3, 5), above))
            if tie:
                raw.append((b, 2, tie))
            if below:
                raw.append((b, 1, below))
            tie_counts.append(tie)
        total_tie = sum(tie_counts)
        if not 2 <= total_tie <= 8 or min(tie_counts) == 0:
            continue
        x = spec.vector(raw)
        above_total = sum(c for _b, m, c in x.groups if m > 2)
        n = above_total + rng.randint(1, total_tie - 1)
        out = gamma(x, n, spec)
        vals = explicit.to_explicit(x, spec, rng)
        hi, lo = explicit.gamma_raw(vals, n, spec)
        if out.residual_max.power_exact != hi or out.residual_min.power_exact != lo:
            return False, (
                f"instance {done}: compressed ({out.residual_max.power_exact},"
                f"{out.residual_min.power_exact}) != raw ({hi},{lo})"
            )
        done += 1
    return True, "30 tied instances match the raw enumeration exactly"


def criterion_6() -> tuple[bool, str]:
    """gamma == sigma exactly in l_p for tie-free integer vectors."""
    rng = random.Random(6)
    for p in (1, 2, 3):
        for _ in range(100):
            dim = rng.randint(2, 6)
            spec = SpaceSpec.lp(p, dim)
            mags = rng.sample(range(1, 100), dim)
            x = spec.vector([(0, m, 1) for m in mags])
            table = explicit.sigma_power_table(x, spec)
            profile = GreedyProfile(x, spec)
            for n in range(dim + 1):
                out = profile.gamma(n)
                s_pow = table[n] if n < len(table) else 0
                if out.residual_max.power_exact != s_pow:
                    return False, f"p={p}, N={n}: gamma {out.residual_max.power_exact} != sigma {s_pow}"
                if not out.tie.empty:
                    return False, f"p={p}: unexpected tie on distinct magnitudes"
    return True, "gamma_N == sigma_N exactly for p in {1,2,3}, 100 vectors each, all N"


def criterion_7() -> tuple[bool, str]:
    """CGHM constructor on h_l = 1 + log2, h_r = sqrt."""
    seqs = cghm_construct(sqrt_of, one_plus_log2, c_doubling=2.0, alpha=0.25, count=5)
    if len(seqs.w) < 5 or seqs.exhausted:
        return False, f"only {len(seqs.w)} terms (exhausted={seqs.exhausted})"
    if not seqs.all_checks_pass():
        return False, f"internal chain checks failed: {seqs.checks}"
    report = condition71_check(sqrt_of, one_plus_log2, seqs.pairs, c=1.0, alpha=0.25)
    if not report.all_pass:
        return False, f"7.1 check failed: {report.rows}"
    return True, f"5 terms constructed (w={seqs.w}); 7.1 holds with C=1"


def criterion_8() -> tuple[bool, str]:
    """x_s inequality chain for s = 2, 3, 4 on a_j = (j+1)^2, all exact."""
    sched = squares_schedule(4)
    for s in (2, 3, 4):
        xs = build_xs(sched, s)  # raises if any build-time invariant fails
        checks = dict(xs.checks)
        checks.update(xs_bound_checks(xs))
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            return False, f"s={s}: failed checks {bad}"
    return True, "LS1-LS3, the democracy jump and the gamma lower bound hold exactly"


def criterion_9() -> tuple[bool, str]:
    """Optimality collapse: normalized ratio stable, raw ratio decreasing.

    Decided on brackets to s = 6 (support 38,102,400), each holding its value:
    every value in one bracket must beat every value in the other.
    """
    pairs = [ApproxParams(1, 1), ApproxParams(0.5, 2), ApproxParams(1, math.inf), ApproxParams(2, 1)]
    experiment = optimality_experiment(squares_schedule(6), range(2, 7), pairs)
    for key, runs in _runs_by_params(experiment).items():
        bad = [name for run in runs for name, ok in run.checks.items() if not ok]
        if bad:
            return False, f"{key}: failed checks {bad}"
        base_lo, base_hi = (b / runs[0].envelope for b in runs[0].ratio_bounds)
        for run in runs:
            lo, hi = (b / run.envelope for b in run.ratio_bounds)
            if not (0.5 * base_hi <= lo and hi <= 2.0 * base_lo):
                return False, (
                    f"{key}, s={run.s}: normalized bracket [{lo}, {hi}] not certified "
                    f"within factor 2 of [{base_lo}, {base_hi}]"
                )
        for a, b in zip(runs, runs[1:]):
            if not b.ratio_bounds[1] < a.ratio_bounds[0]:
                return False, (
                    f"{key}: ratio bracket at s={b.s} {b.ratio_bounds} does not lie "
                    f"below the one at s={a.s} {a.ratio_bounds}"
                )
    return True, (
        "normalized ratios within factor 2 of s=2; raw ratios strictly decreasing; "
        "both certified on brackets for s=2..6"
    )


def _runs_by_params(runs) -> dict[tuple, list]:
    """The runs per (alpha, q), in increasing s."""
    by_params: dict[tuple, list] = {}
    for run in runs:
        by_params.setdefault((run.alpha, run.q), []).append(run)
    for runs in by_params.values():
        runs.sort(key=lambda r: r.s)
    return by_params


def criterion_10() -> tuple[bool, str]:
    """Piecewise error sequences == generic DP on shrunken two-pool vectors."""
    cases = [
        (squares_schedule(2), 36, 36),  # H, V
        (arithmetic_schedule(2), 20, 20),
    ]
    for sched, h, v in cases:
        spec = SpaceSpec.from_schedule(sched)
        x = spec.vector([(0, 2, h), (1, 1, v)])
        sigma = error_sequence(x, spec, "sigma")
        gamma_seq = error_sequence(x, spec, "gamma")
        dp = explicit.sigma_power_table(x, spec)
        for k in range(h + v + 1):
            if sigma.power(k) != dp[k]:
                return False, f"{sched.a}: sigma mismatch at k={k}"
            got = gamma(x, k, spec).residual_max.power_exact
            if gamma_seq.power(k) != got:
                return False, f"{sched.a}: gamma mismatch at k={k}"
    return True, "piecewise sequences equal the removal-count DP and per-k gamma for every k"


def criterion_11() -> tuple[bool, str]:
    """h_l is stable under adding one more block, for all N <= n_(K+1).

    The K-block side is the production table.  The K+1-block side is the
    allocation DP: the table skips a block that cannot lower it, so it would
    never add the extra block and the check would pass by construction.
    """
    for big in (arithmetic_schedule(3), squares_schedule(2)):
        small = big.truncate(big.num_blocks - 1)
        max_n = small.n(len(small.a))  # n_(K+1), the K-block window's deepest block
        t_small = demfun_table(SpaceSpec.from_schedule(small), max_n, which="hl")
        dp_big = explicit.alloc_dp(list(zip(big.caps(), big.sizes())), max_n)[0]
        for n in range(max_n + 1):
            if t_small.hl_power(n) != dp_big[n]:
                return False, (
                    f"a={small.a}: h_l({n})^2 changed {t_small.hl_power(n)} -> "
                    f"{dp_big[n]} with one more block"
                )
    return True, "h_l identical with K and K+1 blocks on both schedules"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]], float]] = [
    (1, "democracy oracle equivalence (toy space)", criterion_1, 1.0),
    (2, "non-doubling h_l reproduction, a=(4,5,6,7)", criterion_2, 1.0),
    (3, "h_r(N)^2 = N identity and capacity check", criterion_3, 1.0),
    (4, "sigma reduction vs grid oracle", criterion_4, 10.0),
    (5, "tie extremes vs raw enumeration", criterion_5, 10.0),
    (6, "greedy basis sanity in l_p", criterion_6, 10.0),
    (7, "CGHM constructor and 7.1 check", criterion_7, 1.0),
    (8, "x_s inequality chain, s in {2,3,4}", criterion_8, 60.0),
    (9, "optimality collapse (LS5/LS6)", criterion_9, 60.0),
    (10, "piecewise vs DP error sequences", criterion_10, 10.0),
    (11, "truncation stability of h_l", criterion_11, 5.0),
]


def run_all(only: Optional[list[int]] = None) -> list[CheckResult]:
    """Run the criteria (those numbered in ``only``, if given), printing one line each."""
    results = []
    for number, name, func, _budget in CRITERIA:
        if only is not None and number not in only:
            continue
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result = CheckResult(number, name, passed, detail, elapsed)
        results.append(result)
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] criterion {number}: {name} ({elapsed:.2f}s) - {detail}")
    return results
