"""Explicit-coordinate oracle backend.

Everything here works on a flat list of (possibly signed) coordinate values
over a small finite universe and answers by raw enumeration, except the
allocation DP, which tabulates h_l / h_r over per-block counts in
O(N^2) per block.  It exists to cross-check the compressed implementations:
same quantities, independent route.  Deliberately unoptimized.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError, OracleUnavailableError
from .exact import as_fraction, pow_rational, simplify
from .spaces import SpaceSpec
from .vectors import CompressedVector, canonicalize


def block_offsets(spec: SpaceSpec) -> list[int]:
    """Start offset of each block in the flat layout (finite spaces only)."""
    offsets = []
    pos = 0
    for b in spec.blocks:
        if b.size is None:
            raise ValueError("explicit backend needs finite block sizes")
        offsets.append(pos)
        pos += b.size
    return offsets


def dimension(spec: SpaceSpec) -> int:
    dim = spec.dimension()
    if dim is None:
        raise ValueError("explicit backend needs a finite-dimensional space")
    return dim


def block_of_index(spec: SpaceSpec, idx: int) -> int:
    offsets = block_offsets(spec)
    for b in range(len(offsets) - 1, -1, -1):
        if idx >= offsets[b]:
            return b
    raise IndexError(idx)


def to_explicit(
    x: CompressedVector, spec: SpaceSpec, rng=None
) -> list[Fraction]:
    """Lay a compressed vector out as explicit coordinates.

    With an rng, coordinates are shuffled within their block and given
    random signs; all norms must be blind to both.
    """
    offsets = block_offsets(spec)
    values = [Fraction(0)] * dimension(spec)
    for b in x.blocks():
        size = spec.blocks[b].size
        slots = list(range(size))
        if rng is not None:
            rng.shuffle(slots)
        pos = 0
        for mag, count in x.block_groups(b):
            for _ in range(count):
                sign = 1 if rng is None or rng.random() < 0.5 else -1
                values[offsets[b] + slots[pos]] = mag * sign
                pos += 1
    return values


def from_explicit(values: Sequence, spec: SpaceSpec) -> CompressedVector:
    offsets = block_offsets(spec)
    raw = []
    for b, off in enumerate(offsets):
        for slot in range(spec.blocks[b].size):
            v = as_fraction(values[off + slot])
            raw.append((b, abs(v), 1))
    return canonicalize(raw, sizes=spec.sizes())


def norm_power(values: Sequence, spec: SpaceSpec):
    """Exact p-th power of the space norm (needs integer inner_p == outer_p)."""
    if spec.inner_p != spec.outer_p or not isinstance(spec.inner_p, int):
        raise ValueError("exact explicit norm needs integer inner_p == outer_p")
    p = spec.inner_p
    offsets = block_offsets(spec)
    total = 0
    for b, block in enumerate(spec.blocks):
        mags = sorted(
            (abs(as_fraction(values[offsets[b] + j])) for j in range(block.size)),
            reverse=True,
        )
        total += sum(pow_rational(m, p) for m in mags[: block.cap])
    return simplify(total)


def norm_float(values: Sequence, spec: SpaceSpec) -> float:
    """Float space norm for arbitrary exponents (used by the grid oracle)."""
    inner, outer = spec.inner_p, spec.outer_p
    offsets = block_offsets(spec)
    total = 0.0
    for b, block in enumerate(spec.blocks):
        mags = sorted(
            (abs(float(values[offsets[b] + j])) for j in range(block.size)),
            reverse=True,
        )
        bp = 0.0
        for m in mags[: block.cap]:
            bp += m**inner
        total += bp ** (outer / inner) if bp > 0 else 0.0
    return total ** (1.0 / outer)


def demfun_bruteforce(spec: SpaceSpec, n: int, max_dim: int = 20):
    """Exact (h_l^p, h_r^p) by enumerating every index set of size n."""
    dim = dimension(spec)
    if dim > max_dim:
        raise OracleUnavailableError(f"universe {dim} exceeds brute-force limit {max_dim}")
    if not 0 <= n <= dim:
        raise ValueError(f"need 0 <= n <= {dim}")
    if n == 0:
        return 0, 0
    lo = hi = None
    values = [Fraction(0)] * dim
    for subset in itertools.combinations(range(dim), n):
        for i in subset:
            values[i] = Fraction(1)
        power = norm_power(values, spec)
        for i in subset:
            values[i] = Fraction(0)
        lo = power if lo is None or power < lo else lo
        hi = power if hi is None or power > hi else hi
    return lo, hi


# ---------------------------------------------------------------------------
# Allocation DP: the quadratic reference route for h_l / h_r on block sums


_BIG = 1 << 62


def alloc_dp(blocks: Sequence[tuple[int, int]], max_n: int):
    """DP over (cap, size) blocks; returns (dp_min, dp_max, parent_min, parent_max).

    dp_min[j] / dp_max[j] are the extremes of sum min(m_k, cap_k) over
    allocations of exactly j coordinates; parents store the chosen m per
    block for witness reconstruction.  O(max_n^2) per block.
    """
    dp_min = [0] + [_BIG] * max_n
    dp_max = [0] + [-1] * max_n
    parent_min: list[list[int]] = []
    parent_max: list[list[int]] = []
    for cap, size in blocks:
        limit = min(size, max_n)
        ndp_min = [_BIG] * (max_n + 1)
        ndp_max = [-1] * (max_n + 1)
        pmin = [-1] * (max_n + 1)
        pmax = [-1] * (max_n + 1)
        for j in range(max_n + 1):
            lo = dp_min[j]
            hi = dp_max[j]
            if lo >= _BIG and hi < 0:
                continue
            for m in range(0, min(limit, max_n - j) + 1):
                slot = j + m
                cost = min(m, cap)
                if lo < _BIG and lo + cost < ndp_min[slot]:
                    ndp_min[slot] = lo + cost
                    pmin[slot] = m
                if hi >= 0 and hi + cost > ndp_max[slot]:
                    ndp_max[slot] = hi + cost
                    pmax[slot] = m
        dp_min, dp_max = ndp_min, ndp_max
        parent_min.append(pmin)
        parent_max.append(pmax)
    return dp_min, dp_max, parent_min, parent_max


def alloc_dp_point(blocks: Sequence[tuple[int, int]], n: int):
    """(h_l^p, h_r^p, witness_l, witness_r) at n, each witness as (block, count)."""
    dp_min, dp_max, parent_min, parent_max = alloc_dp(blocks, n)
    if dp_min[n] >= _BIG or dp_max[n] < 0:
        raise ValueError(f"no allocation of {n} coordinates fits the space")

    def walk(parents) -> tuple[tuple[int, int], ...]:
        j = n
        witness = []
        for b in range(len(blocks) - 1, -1, -1):
            m = parents[b][j]
            if m > 0:
                witness.append((b, m))
            j -= m
        if j != 0:
            raise InvariantError(f"DP witness for N={n} leaves {j} coordinates unplaced")
        return tuple(reversed(witness))

    return dp_min[n], dp_max[n], walk(parent_min), walk(parent_max)


def gamma_raw(values: Sequence, n: int, spec: SpaceSpec):
    """(max, min) residual norm power over every valid greedy keep-set.

    A keep-set is valid iff it contains all coordinates strictly above the
    threshold magnitude and fills up with any coordinates at the threshold.
    """
    vals = [as_fraction(v) for v in values]
    dim = len(vals)
    if n >= dim:
        return 0, 0
    if n == 0:
        power = norm_power(vals, spec)
        return power, power
    order = sorted(range(dim), key=lambda i: abs(vals[i]), reverse=True)
    threshold = abs(vals[order[n - 1]])
    forced = [i for i in range(dim) if abs(vals[i]) > threshold]
    tied = [i for i in range(dim) if abs(vals[i]) == threshold]
    need = n - len(forced)
    best_hi = best_lo = None
    for chosen in itertools.combinations(tied, need):
        kept = set(forced) | set(chosen)
        residual = [Fraction(0) if i in kept else vals[i] for i in range(dim)]
        power = norm_power(residual, spec)
        best_hi = power if best_hi is None or power > best_hi else best_hi
        best_lo = power if best_lo is None or power < best_lo else best_lo
    return best_hi, best_lo


def sigma_removals_bruteforce(values: Sequence, n: int, spec: SpaceSpec):
    """Best n-term error power, minimizing over all removal sets exactly."""
    vals = [as_fraction(v) for v in values]
    support = [i for i, v in enumerate(vals) if v != 0]
    if n >= len(support):
        return 0
    if n == 0:
        return norm_power(vals, spec)
    best = None
    for removed in itertools.combinations(support, n):
        residual = list(vals)
        for i in removed:
            residual[i] = Fraction(0)
        power = norm_power(residual, spec)
        best = power if best is None or power < best else best
    return best


def sequence_bound_checks_per_k(sigma, gamma, n_s: int, v: int, r: int, s: int) -> dict:
    """The x_s bounds of ``approx.sequence_bound_checks``, one power(k) per k."""
    support = sigma.support_size
    return {
        "gamma_ge_vs_up_to_ms": all(gamma.power(k) >= v for k in range(1, n_s + 1)),
        "ls2_sigma_tail": all(
            sigma.power(k) * s * s <= 9 * r * r * v for k in range(v, support + 1)
        ),
        "ls3_sigma_all": all(sigma.power(k) <= 9 * v for k in range(support + 1)),
        "sigma_le_gamma": all(sigma.power(k) <= gamma.power(k) for k in range(support + 1)),
    }


def quasinorm_per_term(norm_x: float, seq, params) -> float:
    """The quasi-norm of ``approx.quasinorm``, one power(k) per term.

    Sums k^(q alpha - 1) power(k)^(q/p) with math.fsum (the sup of
    k^alpha power(k)^(1/p) at q = inf) over k = 1 .. support - 1.
    """
    alpha, q, p = params.alpha, params.q, seq.p
    ks = range(1, seq.support_size)
    if math.isinf(q):
        return norm_x + max((k**alpha * float(seq.power(k)) ** (1.0 / p) for k in ks), default=0.0)
    series = math.fsum(k ** (q * alpha - 1.0) * float(seq.power(k)) ** (q / p) for k in ks)
    return norm_x + series ** (1.0 / q)
