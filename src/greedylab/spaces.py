"""Norm evaluators: l_p, truncated block spaces, and their direct sums.

The truncated block space with parameters (cap n, size N, p) is the
N-dimensional space whose norm is the l_p norm of the n largest coefficient
magnitudes.  A block sum combines such blocks with an outer l_p exponent.
Whenever the exponents are integers and the coefficients rational, norms are
carried as exact p-th powers next to the float; every inequality the test
suite asserts compares the exact powers.

The sup-form oracle and the lattice property check that cross-check these
evaluators live in explicit.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exact import Rational, int_at_least, json_int, json_shape, norm_exponent, pow_rational, simplify
from .schedule import BlockSchedule
from .vectors import CompressedVector, _check_sizes, canonicalize, indicator


@dataclass(frozen=True)
class Block:
    cap: Optional[int]  # how many top magnitudes the block norm sees
    size: Optional[int]  # dimension of the block; None = unbounded

    def __post_init__(self):
        for name in ("cap", "size"):  # each kept as the int it stands for
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int_at_least(value, 1, f"block {name}"))
        if None not in (self.cap, self.size) and self.cap > self.size:
            raise ValueError("block cap cannot exceed block size")


@dataclass(frozen=True)
class SpaceSpec:
    blocks: tuple[Block, ...]
    inner_p: int | float = 2
    outer_p: int | float = 2
    schedule: Optional[BlockSchedule] = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("block sum needs at least one block")
        for name in ("inner_p", "outer_p"):  # each kept as the number it stands for
            object.__setattr__(self, name, norm_exponent(getattr(self, name), name))

    @staticmethod
    def lp(p: int | float, dim: Optional[int] = None) -> "SpaceSpec":
        dim = None if dim is None else int_at_least(dim, 1, "dim")
        return SpaceSpec((Block(dim, dim),), p, p)

    @staticmethod
    def trunc_block(cap: int, size: int, p: int | float = 2) -> "SpaceSpec":
        return SpaceSpec((Block(cap, size),), p, p)

    @staticmethod
    def block_sum(
        blocks: Iterable[tuple[int, int]], inner_p: int | float = 2, outer_p: int | float = 2
    ) -> "SpaceSpec":
        return SpaceSpec(tuple(Block(c, s) for c, s in blocks), inner_p, outer_p)

    @staticmethod
    def from_schedule(schedule: BlockSchedule) -> "SpaceSpec":
        blocks = tuple(map(Block, schedule.caps(), schedule.sizes()))
        return SpaceSpec(blocks, schedule.inner_p, schedule.outer_p, schedule)

    @property
    def exact_p(self) -> Optional[int]:
        """The exact routes' one exponent: inner_p where it is an int equal to outer_p, else None."""
        return self.inner_p if self.inner_p == self.outer_p and type(self.inner_p) is int else None

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def sizes(self) -> list[Optional[int]]:
        return [b.size for b in self.blocks]

    def dimension(self) -> Optional[int]:
        sizes = self.sizes()
        return None if None in sizes else sum(sizes)

    def vector(self, raw) -> CompressedVector:
        """Canonicalize raw groups with this space's capacity checks."""
        return canonicalize(raw, sizes=self.sizes())

    def conform(self, x: CompressedVector) -> CompressedVector:
        """x, its block ids and per-block support checked against this space."""
        _check_sizes(x, self.sizes())
        return x

    def indicator(self, block_counts) -> CompressedVector:
        return indicator(block_counts, sizes=self.sizes())


def space_from_json(obj: dict) -> SpaceSpec:
    """Accept any of the documented space/schedule JSON shapes; every integer
    field goes through ``json_int``, every exponent through ``norm_exponent``."""
    obj = json_shape(obj, dict)
    if "schedule" in obj:
        obj = json_shape(obj["schedule"], dict)
    if "a" in obj:
        return SpaceSpec.from_schedule(BlockSchedule.from_json(obj))
    if "lp" in obj:
        dim = obj.get("dim")
        return SpaceSpec.lp(obj["lp"], None if dim is None else json_int(dim))
    if "cap" in obj and "size" in obj:
        return SpaceSpec.trunc_block(json_int(obj["cap"]), json_int(obj["size"]), obj.get("p", 2))
    if "blocks" in obj:
        return SpaceSpec.block_sum(
            [tuple(map(json_int, json_shape(b, list, 2))) for b in json_shape(obj["blocks"], list)],
            obj.get("inner_p", 2),
            obj.get("outer_p", 2),
        )
    raise ValueError("unrecognized space JSON (need 'a', 'lp', 'cap'/'size' or 'blocks')")


# ---------------------------------------------------------------------------
# Norm values


def _float_root(power: Rational, p: int | float) -> float:
    """power^(1/p) as a float; inf when the root itself exceeds the float range."""
    try:
        base = float(power)
    except OverflowError:
        # Past ~1.8e308: root 2^shift apart from the rest.  For an integer p
        # the shift is a multiple of p, so that factor roots exactly; where the
        # aligned rest overflows (p above ~960), 2^(spare/p) is taken apart too.
        shift = power.numerator.bit_length() - power.denominator.bit_length() - 64
        spare = shift % p if isinstance(p, int) else 0
        rest = Fraction(power) / (1 << shift)
        shift -= spare
        try:
            rest, spare = float(rest * (1 << spare)), 0
        except OverflowError:
            rest = float(rest)
        try:
            return rest ** (1.0 / p) * 2.0 ** (spare / p) * 2.0 ** (shift / p)
        except OverflowError:
            return math.inf
    return math.sqrt(base) if p == 2 else base ** (1.0 / p)


@dataclass(frozen=True)
class NormValue:
    """A norm carried as float plus (when available) its exact p-th power."""

    value: float
    power_exact: Optional[Rational]
    p: int | float

    @staticmethod
    def from_power(power: Rational, p: int | float) -> "NormValue":
        power = simplify(power)
        if power < 0:
            raise ValueError("norm power cannot be negative")
        return NormValue(_float_root(power, p), power, p)

    def is_exact(self) -> bool:
        return self.power_exact is not None

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Block and space norms


def _group_power(
    groups: Sequence[tuple[Fraction, int]], cap: Optional[int], p: int | float
) -> Rational | float:
    """p-th power of the block norm from (magnitude, multiplicity) groups.

    groups must be sorted by descending magnitude.  Exact when p is an
    integer, float otherwise.
    """
    take_total = sum(c for _, c in groups) if cap is None else cap
    exact = isinstance(p, int)
    total: Rational | float = 0 if exact else 0.0
    remaining = take_total
    for mag, count in groups:
        if remaining <= 0:
            break
        take = min(count, remaining)
        if exact:
            total += pow_rational(mag, p) * take
        else:
            total += float(mag) ** p * take
        remaining -= take
    return simplify(total) if exact else total


def space_norm(x: CompressedVector, spec: SpaceSpec) -> NormValue:
    """Norm of a compressed vector in the given space.

    Block sums combine per-block norms with the outer exponent; the result
    stays exact whenever outer_p == inner_p is an integer.
    """
    x = spec.conform(x)
    if x.is_zero:
        return NormValue.from_power(0, spec.outer_p)

    p = spec.exact_p
    if p is not None:
        return NormValue.from_power(
            sum(_group_power(x.block_groups(b), spec.blocks[b].cap, p) for b in x.blocks()), p
        )
    try:
        value = _float_norm(x, spec)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        # A power or a sum left the float range: factor the largest magnitude out.
        top = max(m for _b, m, _c in x.groups)
        scaled = spec.vector([(b, m / top, c) for b, m, c in x.groups])
        value = _float_root(top, 1) * _float_norm(scaled, spec)
    return NormValue(value, None, spec.outer_p)


def _float_norm(x: CompressedVector, spec: SpaceSpec) -> float:
    """The norm of x in floats: block roots combined with the outer exponent."""
    total = 0.0
    for b in x.blocks():
        bp = _group_power(x.block_groups(b), spec.blocks[b].cap, spec.inner_p)
        total += (float(bp) ** (1.0 / spec.inner_p)) ** spec.outer_p
    return total ** (1.0 / spec.outer_p)
