"""Approximation-space quasi-norms and the two-pool counterexample.

The quasi-norm of order (alpha, q) built from an error sequence e_N, which
starts at e_0 = ||x||, is e_0 + [sum_N (N^alpha e_N)^q / N]^(1/q), with the
sup form at q = inf.
Using sigma_N gives the approximation-space quasi-norm, gamma_N the
greedy-class quasi-norm; the two-pool vector x_s makes their ratio
collapse like (s^(-q alpha/2) + s^(-q/2))^(1/q), the non-optimality
reproduced by optimality_experiment, whose runs hold A and G as values
inside their certified brackets.

Series are finite (errors vanish at the support size), and the error
powers are linear in k between the knots of the sequence (``_lines``), so
no series costs O(support): integer exponents are summed exactly by
interpolating each piece's prefix sums (``_exact_sum``), q = inf reads
each piece's maximizer off a closed form (``_sup``), and any other series is one
math.fsum over its short pieces term by term and Euler-Maclaurin sums of
its long ones, O(log(support)) evaluations per piece (``_series_parts``).
``quasinorm_bracket`` returns that value together with a certified bracket:
the same fsum plus or minus a bound on what it leaves out, the
Gauss-Legendre and Euler-Maclaurin remainders, taken on each cut from the
Leibniz rule.  The bound checks of x_s are decided on the knots as well.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

from .errors import GreedyLabError, InvariantError, ScheduleTooShallowError
from .errorseq import ErrorSequence
from .exact import Rational, sqrt_plus_const_ge
from .greedy import GreedyProfile, error_sequence
from .schedule import BlockSchedule
from .spaces import SpaceSpec, _float_root, space_norm
from .vectors import CompressedVector
from . import democracy

DIRECT = 2048  # quasinorm sums a piece of at most this many terms term by term ...
NEAR = 64  # ... and, on longer pieces, the terms at most this far from a singular point


@dataclass(frozen=True)
class ApproxParams:
    """Finite rate weight alpha > 0 and Lorentz-type exponent q (math.inf allowed)."""

    alpha: float
    q: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not self.q > 0:  # refuses NaN and -inf, lets +inf through
            raise ValueError("q must be positive or infinity")


def quasinorm_bracket(seq: ErrorSequence, params: ApproxParams) -> tuple[float, float, float]:
    """The quasi-norm as (lo, value, hi): a float value and a certified bracket around it.

    ||x|| is the sequence's own e_0, the p-th root of power(0).  The series
    at q = inf is the closed form of ``_sup``, at integer exponents the q-th
    root of the exact ``_exact_sum``, and all three are ||x|| plus that.  Any other series
    is S, the math.fsum of the ``_series_parts`` floats (term by term on
    short pieces, Euler-Maclaurin on long ones, so its cost grows with
    log(support), not with the support), and E their bound on what S leaves
    out: the 20-point Gauss-Legendre error on each cut, at most
    (20!)^4 / (41 (40!)^3) w^41 max |f^(40)| (Abramowitz & Stegun 25.4.30),
    and the Euler-Maclaurin remainder after B_8, at most
    |B_8|/8! = 1/1209600 times the integral of |f^(8)| (Apostol 1999).  The
    series lies in [S (1 - 1e-9) - E, S (1 + 1e-9) + E], the relative margin
    absorbing float rounding.  On x_s over squares_schedule(42), s = 2..40,
    (alpha, q) in {(0.5, 1), (1, 1), (2, 1), (1, 1.5)}, E is below 1.1e-17 S
    and A and G brackets are at most 2e-9 wide (relative).  A series past the
    float range is (inf, inf, inf).
    """
    q, lines, norm = params.q, _lines(seq), _float_root(seq.power(0), seq.p)
    e1, e2 = q * params.alpha - 1.0, q / seq.p
    try:
        if math.isinf(q):
            return (norm + _sup(lines, params.alpha, seq.p),) * 3
        if e1 >= 0 and e1.is_integer() and e2.is_integer():  # e2 = q/p > 0
            total = _exact_sum(lines, int(e1), int(e2))
            return (norm + _float_root(total, int(q) if float(q).is_integer() else q),) * 3
        parts, error = _series_parts(lines, e1, e2)
        total = math.fsum(parts)
    except OverflowError:
        return (math.inf,) * 3
    lo, hi = max(0.0, total * (1 - 1e-9) - error), total * (1 + 1e-9) + error  # inf - inf: 0.0
    return norm + lo ** (1.0 / q), norm + total ** (1.0 / q), norm + hi ** (1.0 / q)


def _lines(seq: ErrorSequence) -> list[tuple[int, int, Rational, Rational]]:
    """(lo, hi, c0, a1) for each piece that meets k >= 1: power(k) = c0 + a1 k on lo..hi."""
    return [(max(k0, 1), hi, y - a1 * k0, a1) for k0, hi, y, a1 in seq.pieces() if hi >= 1]


# 20-point Gauss-Legendre rule on [0, 1]: (node, weight) for the nodes below 1/2,
# to 17 digits (the rule is symmetric about 1/2)
_HALF_RULE = (
    (0.0034357004074525377, 0.008807003569576059),
    (0.018014036361043106, 0.02030071490019347),
    (0.04388278587433705, 0.031336024167054534),
    (0.0804415140888906, 0.04163837078835238),
    (0.1268340467699246, 0.05096505990862022),
    (0.1819731596367425, 0.059097265980759206),
    (0.24456649902458646, 0.06584431922458832),
    (0.3131469556422902, 0.07104805465919102),
    (0.38610707442917747, 0.07458649323630187),
    (0.46173673943325133, 0.07637669356536292),
)
GAUSS = _HALF_RULE + tuple((1 - x, w) for x, w in _HALF_RULE)
EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)  # B_2j / (2j)!, j = 1..4
EM_REMAINDER = -EULER_MACLAURIN[-1]  # |B_8| / 8!: the remainder after B_8 is at most this times int |f^(8)|
GAUSS_ERROR = math.factorial(20) ** 4 / (41 * math.factorial(40) ** 3)  # 20-point error: this w^41 f^(40)(xi)


def _series_parts(lines, e1: float, e2: float) -> tuple[list[float], float]:
    """Floats whose math.fsum is the sum over k >= 1 of f(k) = k^e1 g(k)^e2, g the power,
    and a certified bound on what that sum leaves out.

    A piece (lo, hi, c0, a1) of at most DIRECT terms goes in term by term,
    as the floats of ``explicit.quasinorm_per_term``, so where every piece is
    that short the sum is that oracle's bit for bit.  On a longer piece so do
    the terms within NEAR of a singular point: k = 0 unless e1 is a
    non-negative integer, and the zero K of g (also where g^e2 is smooth, so
    that g is not 0 at the middle's ends).  The middle first..last is summed
    by Euler-Maclaurin: (f(first) + f(last))/2, the B_2..B_8 corrections,
    with f's odd derivatives by the Leibniz rule, and the integral of f by
    20-point Gauss-Legendre on cuts, halved on integer ends until each cut,
    widened by its length on both sides, meets no singular point:
    O(log(support)) cuts.  Distances are exact ints, and g at a node is
    float(g(a)) + a1 (x - a) from the cut's integer start a.  A last
    correction above 2^-52 of its piece's sum raises InvariantError.

    The bound: a cut [a, b] of width w lies at least w from each singular
    point (k = 0 needs no distance where (e1)_j vanishes), so by the Leibniz
    rule w^n |f^(n)| <= M L_n on it, M = max(a^e1, b^e1) max(g(a)^e2, g(b)^e2)
    and L_n from ``_leibniz``.  It adds GAUSS_ERROR w M L_40 for the Gauss
    rule and EM_REMAINDER M L_8 / w^7 for its share of the Euler-Maclaurin
    remainder; terms summed one by one add nothing.  A cut whose Gauss term
    exceeds both its Euler-Maclaurin term and 2^-52 of its Gauss sum is
    halved while M w is more than twice that sum, so while halving can still
    lower M (at large exponents f grows fast across a long cut).
    """
    rows, l8, l40 = _leibniz(e1, e2)
    at_zero = not (e1 >= 0 and e1.is_integer())
    parts: list[float] = []
    error = 0.0
    for lo, hi, c0, a1 in lines:
        scale = math.lcm(c0.denominator, a1.denominator)
        g0, g1 = int(c0 * scale), int(a1 * scale)  # scale g(k) = g0 + g1 k
        if hi - lo < DIRECT:
            parts += _terms(lo, hi, g0, g1, scale, e1, e2)
            continue
        first = max(lo, NEAR + 1 if at_zero else 1, -g0 // g1 + NEAR + 1 if g1 > 0 else 1)
        last = min(hi, -(g0 // g1) - NEAR - 1) if g1 < 0 else hi  # K = -g0/g1 more than NEAR away
        ends = []
        for k in (first, last):  # f and its odd derivatives to the 7th at k
            gk = g0 + g1 * k
            t, r = 1 / k, g1 / gk  # r = a1 / g(k)
            f = math.pow(k, e1) * math.pow(gk / scale, e2)
            ends.append([f] + [f * sum(c * t**j * r ** (len(row) - 1 - j) for j, c in enumerate(row))
                               for row in rows])
        (fa, *da), (fb, *db) = ends
        corrections = [c * (b - a) for c, a, b in zip(EULER_MACLAURIN, da, db)]
        piece = [(fa + fb) / 2, *corrections]
        piece += _terms(lo, first - 1, g0, g1, scale, e1, e2)
        piece += _terms(last + 1, hi, g0, g1, scale, e1, e2)
        slope, cuts = g1 / scale, [(first, last)]
        while cuts:
            a, b = cuts.pop()
            width = b - a
            if (at_zero and a < width) or min(g0 + g1 * (a - width), g0 + g1 * (b + width)) < 0:
                cuts += [(a, (a + b) // 2), ((a + b) // 2, b)]
                continue
            ga, x0, fw = (g0 + g1 * a) / scale, float(a), float(width)
            sw = slope * fw
            gauss = [w * fw * math.pow(x0 + fw * x, e1) * math.pow(ga + sw * x, e2) for x, w in GAUSS]
            top = math.pow(float(b) if e1 >= 0 else x0, e1) * math.pow(max(ga, ga + sw), e2)  # M
            rule, rest = GAUSS_ERROR * fw * l40, EM_REMAINDER * l8 * (1 / fw) ** 7  # fw**7 can overflow
            if (width > 1 and rule > rest and top * rule > 2**-52 * sum(gauss)
                    and top * fw > 2 * sum(gauss)):  # M w > 2 sum: halving can still lower M
                cuts += [(a, (a + b) // 2), ((a + b) // 2, b)]
                continue
            piece += gauss
            error += top * (rule + rest)
        if abs(corrections[-1]) > 2**-52 * sum(piece):
            raise InvariantError(f"Euler-Maclaurin on {first}..{last}: last correction {corrections[-1]}")
        parts += piece
    return parts, error


@lru_cache
def _leibniz(e1: float, e2: float) -> tuple[tuple[tuple[float, ...], ...], float, float]:
    """The Leibniz rows C(n, j) (e1)_j (e2)_(n-j), j = 0..n, of f^(n)/f for n = 1, 3, 5, 7,
    and L_8, L_40: the sums of |C(n, j) (e1)_j (e2)_(n-j)| at n = 8 and 40, with the
    falling factorials (e)_j = e (e - 1) ... (e - j + 1).  So that
    f^(n) = f sum_j C(n, j) (e1)_j k^-j (e2)_(n-j) (a1/g)^(n-j)."""
    f1, f2 = (list(accumulate((e - i for i in range(40)), mul, initial=1)) for e in (e1, e2))
    row = lambda n: tuple(math.comb(n, j) * f1[j] * f2[n - j] for j in range(n + 1))
    return tuple(map(row, (1, 3, 5, 7))), sum(map(abs, row(8))), sum(map(abs, row(40)))


def _terms(u: int, w: int, g0: int, g1: int, scale: int, e1: float, e2: float):
    """The floats k^e1 * power(k)^e2 for k = u..w, power(k) = (g0 + g1 k) / scale, by
    C-level maps: float(power) rounds like float(Fraction); k^e1 is skipped at e1 = 0
    and is k at e1 = 1, the same floats."""
    ks = range(u, w + 1)
    if g1:
        powers = range(g0 + g1 * u, g0 + g1 * (w + 1), g1)
        factors = map(math.pow, map(scale.__rtruediv__, powers) if scale > 1 else powers, repeat(e2))
    else:
        factors = repeat((g0 / scale) ** e2, len(ks))
    if e1:
        factors = map(mul, ks if e1 == 1 else map(math.pow, ks, repeat(e1)), factors)
    return factors


def _sup(lines, alpha: float, p: int | float) -> float:
    """The sup of k^alpha * power(k)^(1/p) over k >= 1, the series part at q = inf: on a
    piece, alpha log k + log(c0 + a1 k) / p is concave, so its maximum is at the floor or
    ceiling of k* = alpha p c0 / (-a1 (1 + alpha p)), computed exactly and clamped to the
    piece, if a1 < 0, and at the piece's last k otherwise."""
    best = 0.0
    ap = Fraction(alpha) * p
    # integral alpha: k**alpha in ints, rounded once (from 1024 on, k >= 2 overflows anyway)
    alpha = int(alpha) if float(alpha).is_integer() and alpha <= 1024 else alpha
    for lo, hi, c0, a1 in lines:
        k_star = ap * c0 / (-a1 * (1 + ap)) if a1 < 0 else hi
        for k in {min(max(j, lo), hi) for j in (math.floor(k_star), math.ceil(k_star))}:
            best = max(best, k**alpha * _float_root(c0 + a1 * k, p))
    return best


def _exact_sum(lines, e1: int, e2: int) -> Rational:
    """The sum over k >= 1 of k^e1 power(k)^e2 for integers e1, e2 >= 0, exact.

    On a piece lo..hi of n terms, scale^e2 times the term is the integer
    polynomial f(k) = k^e1 (g0 + g1 k)^e2 of degree d = e1 + e2, so the
    piece's prefix sums Q(m) = f(lo) + ... + f(lo + m - 1) are a polynomial
    of degree d + 1 in m, and the piece sums to Q(n), interpolated from
    Q(0), ..., Q(d + 1) (``_interpolate``).  A piece of at most d + 1 terms
    sums those terms.
    """
    d = e1 + e2
    total = 0
    for lo, hi, c0, a1 in lines:
        scale = math.lcm(c0.denominator, a1.denominator)
        g0, g1 = int(c0 * scale), int(a1 * scale)  # scale g(k) = g0 + g1 k
        n = hi - lo + 1
        values = [k**e1 * (g0 + g1 * k) ** e2 for k in range(lo, lo + min(n, d + 1))]
        if n > d + 1:
            values = [_interpolate(list(accumulate(values, initial=0)), n)]
        total += sum(values) if scale == 1 else Fraction(sum(values), scale**e2)
    return total


def _interpolate(ys: list[int], n: int) -> int:
    """P(n) for the integer polynomial P of degree <= D = len(ys) - 1 with P(m) = ys[m]: Lagrange
    on the nodes 0..D, D! P(n) = sum_i (-1)^(D-i) C(D, i) ys[i] prod_{j != i} (n - j), summed
    Horner-wise (times n - i as term i joins), with one exact division by D!."""
    d = len(ys) - 1
    total, left, binom = 0, 1, 1  # left = prod_{j<i} (n - j), binom = (-1)^i C(D, i)
    for i, y in enumerate(ys):
        total = total * (n - i) + binom * y * left
        left *= n - i
        binom = binom * (i - d) // (i + 1)
    total //= math.factorial(d)
    return -total if d % 2 else total


def approx_quasinorm(x: CompressedVector, spec: SpaceSpec, params: ApproxParams) -> float:
    """Approximation-space quasi-norm of x (sigma-based)."""
    return quasinorm_bracket(error_sequence(x, spec, "sigma"), params)[1]


def greedy_quasinorm(x: CompressedVector, spec: SpaceSpec, params: ApproxParams) -> float:
    """Greedy-class quasi-norm of x (gamma-based, worst-case ties)."""
    return quasinorm_bracket(error_sequence(x, spec, "gamma"), params)[1]


# ---------------------------------------------------------------------------
# The x_s construction


@dataclass(frozen=True)
class XsConstruction:
    """Two-magnitude counterexample vector over a block schedule.

    Magnitude 2 fills block ``hi_block`` entirely (n_s coordinates, the
    near-minimal-democracy set); magnitude 1 sits on v = ceil(n_s / r)
    coordinates of the next block, r = floor(sqrt(s)).  All defining
    inequalities are verified exactly at build time.  One GreedyProfile of
    x serves the sigma and gamma sequences, each built on first use.
    """

    s: int
    hi_block: int  # 0-based (the 1-based convention elsewhere is hi_block + 1)
    n_s: int
    c: int  # cap of the hi block = ||M_s||^2
    r: int
    v: int  # = ||V^s||^2
    schedule: BlockSchedule
    spec: SpaceSpec
    x: CompressedVector
    profile: GreedyProfile = field(repr=False, compare=False)  # serves both sequences
    checks: dict = field(default_factory=dict)

    @property
    def support_size(self) -> int:
        return self.n_s + self.v

    def sigma_sequence(self) -> ErrorSequence:
        return self.profile.sequence("sigma")

    def gamma_sequence(self) -> ErrorSequence:
        return self.profile.sequence("gamma")


def build_xs(schedule: BlockSchedule, s: int) -> XsConstruction:
    """Build and exactly verify the x_s vector for democracy-jump level s.

    Needs a block whose next multiplier is at least (s+1)^2 followed by a
    materialized successor block; raises ScheduleTooShallowError otherwise.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if schedule.inner_p != 2 or schedule.outer_p != 2:
        raise ValueError("the x_s construction is defined for p = 2")
    target = (s + 1) ** 2
    hi_block = None
    for i in range(schedule.num_blocks - 1):
        if schedule.a[i + 1] >= target:
            hi_block = i
            break
    if hi_block is None:
        raise ScheduleTooShallowError(
            f"schedule too shallow for s={s}: no materialized block with "
            f"next multiplier >= {target} and a materialized successor"
        )

    spec = SpaceSpec.from_schedule(schedule)
    n_s = schedule.size(hi_block)
    c = schedule.cap(hi_block)
    r = math.isqrt(s)
    v = -(-n_s // r)  # ceil
    x = spec.vector([(hi_block, 2, n_s), (hi_block + 1, 1, v)])

    row = democracy.doubling_scan(schedule, [hi_block + 1]).rows[0]  # h_l at n_s and 2 n_s
    m_power = space_norm(spec.indicator({hi_block: n_s}), spec).power_exact
    v_power = space_norm(spec.indicator({hi_block + 1: v}), spec).power_exact
    xs_power = space_norm(x, spec).power_exact

    checks = {
        # ||M_s||^2 = c = h_l(n_s)^2: zero slack (full-block realization).
        "m_is_hl_minimizer": m_power == c and row.upper_equality,
        "v_norm_power": v_power == v,
        # Defining jump: h_l(2 n_s) >= (s+1) h_l(n_s), on the squared ratio.
        "democracy_jump": row.ratio_sq >= (s + 1) ** 2,
        # (LS1): r sqrt(v) + 1 >= s sqrt(c).
        "ls1": sqrt_plus_const_ge(r, v, 1, s, c),
        # ||x_s||^2 = 4c + v <= 9v and the support fits in 2 #M_s.
        "xs_norm_power": xs_power == 4 * c + v,
        "xs_norm_le_3v": 4 * c + v <= 9 * v,
        "support_le_2ms": n_s + v <= 2 * n_s,
    }
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        raise GreedyLabError(f"x_s invariants failed at build time: {failed}")
    return XsConstruction(
        s=s, hi_block=hi_block, n_s=n_s, c=c, r=r, v=v,
        schedule=schedule, spec=spec, x=x, profile=GreedyProfile(x, spec), checks=checks,
    )


# ---------------------------------------------------------------------------
# The optimality-ratio experiment


def envelope(params: ApproxParams, s: int) -> float:
    """Collapse envelope (s^(-q alpha / 2) + s^(-q/2))^(1/q); max-form at q=inf.

    Where the sum underflows the normal float range (large q), s^(-m/2) with
    m = min(alpha, 1) is taken out of the root, so one of the terms is 1."""
    alpha, q = params.alpha, params.q
    if math.isinf(q):
        return max(s ** (-alpha / 2.0), s**-0.5)
    total = s ** (-q * alpha / 2.0) + s ** (-q / 2.0)
    if total >= sys.float_info.min:
        return total ** (1.0 / q)
    m = min(alpha, 1.0)
    return s ** (-m / 2.0) * (s ** (-q * (alpha - m) / 2.0) + s ** (-q * (1.0 - m) / 2.0)) ** (1.0 / q)


@dataclass(frozen=True)
class RatioRun:
    """A and G of one x_s run, each as (lo, value, hi) from ``quasinorm_bracket``."""

    s: int
    alpha: float
    q: float
    a: tuple[float, float, float]
    g: tuple[float, float, float]
    envelope: float
    checks: dict

    @property
    def ratio(self) -> float:
        return self.a[1] / self.g[1]

    @property
    def ratio_bounds(self) -> tuple[float, float]:
        return self.a[0] / self.g[2], self.a[2] / self.g[0]

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "alpha": self.alpha,
            "q": "inf" if math.isinf(self.q) else self.q,
            "A": self.a[1],
            "G": self.g[1],
            "ratio": self.ratio,
            "envelope": self.envelope,
            "normalized": self.ratio / self.envelope,
            "checks": dict(sorted(self.checks.items())),
            "A_bounds": [self.a[0], self.a[2]],
            "G_bounds": [self.g[0], self.g[2]],
            "ratio_bounds": list(self.ratio_bounds),
        }


def xs_bound_checks(xs: XsConstruction) -> dict:
    """Exact verification of the bounds the collapse argument rests on."""
    return sequence_bound_checks(
        xs.sigma_sequence(), xs.gamma_sequence(), xs.n_s, xs.v, xs.r, xs.s
    )


def sequence_bound_checks(
    sigma: ErrorSequence, gamma: ErrorSequence, n_s: int, v: int, r: int, s: int
) -> dict:
    """The x_s bounds on a sigma/gamma pair, decided on knots.

    Each check compares a linear function of the exact powers on a range
    of k, so it holds at every integer of the range iff it holds at both
    ends and at every knot inside (``explicit.sequence_bound_checks_per_k``
    is the per-k oracle).  sigma <= gamma uses the union of both knot sets.
    """
    support = sigma.support_size
    s_knots = [k for k, _ in sigma.knots]
    g_knots = [k for k, _ in gamma.knots]
    return {
        # gamma_k >= ||V^s|| for k <= #M_s
        "gamma_ge_vs_up_to_ms": _holds_on_knots(lambda k: gamma.power(k) >= v, g_knots, 1, n_s),
        # sigma_k <= 3 r ||V^s|| / s for k >= #V^s
        "ls2_sigma_tail": _holds_on_knots(
            lambda k: sigma.power(k) * s * s <= 9 * r * r * v, s_knots, v, support
        ),
        # sigma_k <= 3 ||V^s||
        "ls3_sigma_all": _holds_on_knots(lambda k: sigma.power(k) <= 9 * v, s_knots, 0, support),
        "sigma_le_gamma": _holds_on_knots(
            lambda k: sigma.power(k) <= gamma.power(k), s_knots + g_knots, 0, support
        ),
    }


def _holds_on_knots(pred, knots, lo: int, hi: int) -> bool:
    """pred(k) for every integer k in lo..hi, where pred compares functions
    that are linear between consecutive knots."""
    if lo > hi:
        return True
    return all(pred(k) for k in {lo, hi}.union(k for k in knots if lo < k < hi))


def optimality_experiment(
    schedule: BlockSchedule,
    s_values: Sequence[int],
    params_list: Sequence[ApproxParams],
) -> tuple[RatioRun, ...]:
    """Quasi-norm ratios of x_s across s and (alpha, q), with bound checks.

    Every run holds A and G as ``quasinorm_bracket`` gives them, a value
    inside its certified bracket (of width 0 wherever the quasi-norm has an
    exact per-piece route).  The bound checks run on the knots, and no step
    costs O(support).
    """
    runs = []
    for s in s_values:
        xs = build_xs(schedule, s)
        sigma = xs.sigma_sequence()
        gamma = xs.gamma_sequence()
        checks = dict(xs.checks)
        checks.update(xs_bound_checks(xs))
        runs.extend(
            RatioRun(
                s=s, alpha=params.alpha, q=params.q,
                a=quasinorm_bracket(sigma, params), g=quasinorm_bracket(gamma, params),
                envelope=envelope(params, s), checks=checks,
            )
            for params in params_list
        )
    return tuple(runs)
