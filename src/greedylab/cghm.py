"""h-functions, and the CGHM construction and check of the 7.1 condition.

The code reads an ``HFunction`` only through ``at`` (None where h is not
known) and decides doubling at its ``doubling_witnesses``.  The decisions
compare floats with a relative slack of 1e-12 (``_at_most``, ``_at_least``);
certified brackets are ROADMAP item 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exact import int_at_least, json_int, json_number, json_shape

_FORMULAS = {  # kind -> h(N); an OverflowError or a non-finite value is "past the float range"
    "sqrt": lambda h, n: math.sqrt(n),
    "one_plus_log2": lambda h, n: 1.0 + math.log2(n),
    "power": lambda h, n: h.scale * float(n) ** h.exponent,
    "table": lambda h, n: h.values.get(n),
}


@dataclass(frozen=True)
class HFunction:
    """An h-function of a JSON kind; ``scale`` and ``exponent`` are read by
    ``power``, ``values`` (N -> h(N)) by ``table``.

    A non-positive scale or table value, a negative exponent, a table key
    below 1 and a non-finite field are refused with a ValueError naming the
    field, so every value ``at`` returns is positive and finite.
    """

    kind: str
    scale: float = 1.0
    exponent: float = 0.0
    values: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValueError(f"unknown h-function kind {self.kind!r}")
        values = {int_at_least(n, 1, "table key"): float(v) for n, v in self.values.items()}
        object.__setattr__(self, "values", values)
        positive = {"scale": self.scale, **{f"table value at {n}": v for n, v in values.items()}}
        _require_finite(exponent=self.exponent, **positive)
        if self.exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {self.exponent}")
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")

    @classmethod
    def from_json(cls, obj) -> HFunction:
        """``{"kind": ...}``, with ``exponent`` and an optional ``scale`` for
        ``power``, and ``values`` ({"N": h(N), ...}) for ``table``."""
        kind = json_shape(obj, dict)["kind"]
        if kind == "power":
            return cls(kind, json_number(obj.get("scale", 1.0)), json_number(obj["exponent"]))
        if kind == "table":
            values = json_shape(obj["values"], dict).items()
            return cls(kind, values={json_int(n): json_number(v) for n, v in values})
        return cls(kind)

    def at(self, n: int) -> Optional[float]:
        """h(n) as a positive finite float, or None where h is not known:
        past a table, or past the float range."""
        try:
            value = _FORMULAS[self.kind](self, n)
        except OverflowError:
            return None
        return value if value is not None and math.isfinite(value) else None

    def doubling_witnesses(self, limit: int) -> list[int]:
        """The N at which h(2N) <= C h(N) decides that h is C-doubling.

        A closed form decides at N = 1: h(2N)/h(N) is 2^exponent at every N
        for ``power`` (and 2^0.5 for ``sqrt``), and (2 + log2 N)/(1 + log2 N)
        falls.  A table is known only where it is listed, so every listed N
        whose 2N is listed, with 2N <= limit, is a witness.
        """
        if self.kind != "table":
            return [1]
        return sorted(n for n in self.values if 2 * n <= limit and 2 * n in self.values)


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
    names where the search stopped: the first probe past probe_limit, which
    may be lo itself, or the first N where ratio is None (not known).
    """
    below, above, n = lo - 1, None, lo  # below < a crossing <= above
    while above is None or above - below > 1:
        if n > probe_limit:
            return n, f"no N <= {probe_limit} with h_r/h_l >= {target}"
        value = ratio(n)
        if value is None:
            return n, f"h_r/h_l is not known at N = {n}, before any N with h_r/h_l >= {target}"
        if value >= threshold:
            above = n
        else:
            below = n
        n = 2 * n if above is None else (above + below) // 2
    return above, None


def _at_most(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to a relative slack of 1e-12: a decision on floats."""
    return lhs <= rhs * (1 + 1e-12)


def _at_least(lhs: float, rhs: float) -> bool:
    """lhs >= rhs up to a relative slack of 1e-12: a decision on floats."""
    return lhs >= rhs * (1 - 1e-12)


def _require_finite(**values: float) -> None:
    """Refuse a nan or infinite parameter up front: its report could not be written as JSON."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def cghm_construct(
    h_r: HFunction,
    h_l: HFunction,
    c_doubling: float,
    alpha: float,
    count: int,
    probe_limit: int = 2**63,
) -> CghmSequences:
    """Build (w, r, k, n) witnessing the 7.1 condition from two h-functions.

    Finite computation replaces limit conditions by explicit thresholds:
    w_mu is an N with h_r/h_l >= mu, r(mu) brackets w_mu between powers of
    two, k_mu is a later N whose ratio beats C^r(mu) * w_mu^alpha, and
    n_mu = w_mu * k_mu.  Both searches are ``_first_crossing``: the first
    such N where h_r/h_l is non-decreasing, otherwise a crossing between two
    doubling probes, which serves as well.  Every produced term
    re-verifies the doubling step, the threshold step and the final 7.1
    inequality numerically; running out of probe range, of the range a
    table h-function answers, or of the float range a threshold needs, yields
    a partial result with an explicit marker instead of an error.
    """
    count = int_at_least(count, 1, "count")
    probe_limit = int_at_least(probe_limit, 1, "probe_limit")
    _require_finite(c_doubling=c_doubling, alpha=alpha)

    # Pre-condition: h_l is C-doubling, read at every N that decides it.
    for n in h_l.doubling_witnesses(probe_limit):
        h_n = h_l.at(n)
        h_2n = h_l.at(2 * n) or math.inf  # a closed form past the float range at 2N
        if not _at_most(h_2n, c_doubling * h_n):
            raise ValueError(f"h_l is not {c_doubling}-doubling at N={n}: {h_2n} > {c_doubling} * {h_n}")

    def ratio(n: int) -> Optional[float]:
        h_r_n, h_l_n = h_r.at(n), h_l.at(n)
        return None if h_r_n is None or h_l_n is None else h_r_n / h_l_n

    terms: list[tuple[int, int, int, int]] = []  # (w, r, k, n) per mu
    checks: list[dict] = []
    reason = None
    w = k = 0
    for mu in range(1, count + 1):
        w, reason = _first_crossing(ratio, float(mu), w + 1, probe_limit, str(mu))
        if reason:
            break
        r = w.bit_length()  # 2^(r-1) <= w < 2^r
        target = f"C^{r} * {w}^{alpha}"
        try:
            threshold = (c_doubling**r) * (w**alpha)
        except OverflowError:
            threshold = math.inf
        if math.isinf(threshold):  # no float ratio crosses it
            reason = f"the threshold {target} for mu = {mu} is past the float range"
            break
        k, reason = _first_crossing(ratio, threshold, max(k + 1, w), probe_limit, target)
        if reason:
            break
        n = w * k
        h_n = h_l.at(n)
        if h_n is None:
            reason = f"h_l is not known at N = w * k = {n}, which the checks read"
            break
        checks.append({"cghm2": _at_most(h_n, (c_doubling**r) * h_l.at(k)),
                       "cghm3": _at_least(ratio(k), threshold),
                       "chain": _at_least(h_r.at(k) / h_n, (n / k) ** alpha)})
        terms.append((w, r, k, n))

    ws, rs, ks, ns = tuple(zip(*terms)) or ((),) * 4
    return CghmSequences(
        ws, rs, ks, ns, c_doubling, alpha, reason is not None, reason, tuple(checks)
    )


@dataclass(frozen=True)
class Condition71Report:
    rows: tuple[dict, ...]
    all_pass: bool


def condition71_check(
    h_r: HFunction, h_l: HFunction, pairs: Sequence[tuple[int, int]], c: float, alpha: float
) -> Condition71Report:
    """Check the 7.1 condition on explicit (k_mu, n_mu) pairs.

    Growth means n/k strictly increases along the pairs; the inequality is
    h_r(k) / h_l(n) >= c * (n/k)^alpha per pair.  An N that h_l or h_r
    cannot answer is refused with a ValueError naming the side and the N.
    """
    _require_finite(c=c, alpha=alpha)
    if not pairs:  # a report with no rows would pass having checked nothing
        raise ValueError("no (k, n) pairs to check")
    rows = []
    prev_ratio = None
    for mu, (k, n) in enumerate(pairs, start=1):
        k = int_at_least(k, 1, f"pair {mu}: k")
        n = int_at_least(n, k, f"pair {mu}: n")
        growth_ratio = Fraction(n, k)
        growth_ok = prev_ratio is None or growth_ratio > prev_ratio
        h_k, h_n = h_r.at(k), h_l.at(n)
        for side, m, value in (("h_r", k, h_k), ("h_l", n, h_n)):
            if value is None:
                raise ValueError(f"pair {mu}: {side} is not known at N = {m}")
        lhs = h_k / h_n
        rhs = c * float(growth_ratio) ** alpha
        inequality_ok = _at_least(lhs, rhs)
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
