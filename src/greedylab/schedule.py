"""Block schedules: the multiplier sequence a_j and its prefix products.

A schedule a = (a_1, a_2, ...) with a_1 >= 4 and a strictly increasing
defines n_k = a_1 * ... * a_k.  Block k (0-based index i = k-1 here) has
cap n_k and size n_{k+1}, so a list of m multipliers materializes m - 1
blocks.  The truncation is a finite window onto an infinite space; the
democracy-function code checks explicitly that the window is deep enough
for each query instead of ever extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .exact import json_int, json_shape


@dataclass(frozen=True)
class BlockSchedule:
    """Multiplier sequence plus the norm exponents of the block sum."""

    a: tuple[int, ...]
    outer_p: int | float = 2
    inner_p: int | float = 2
    allow_slow_start: bool = False  # override the a_1 >= 4 requirement

    def __post_init__(self):
        if len(self.a) < 2:
            raise ValueError("schedule needs at least two multipliers (one block)")
        if any(x <= 1 for x in self.a):
            raise ValueError("multipliers must be >= 2")
        if any(self.a[i] >= self.a[i + 1] for i in range(len(self.a) - 1)):
            raise ValueError("multipliers must be strictly increasing")
        if not self.allow_slow_start and self.a[0] < 4:
            raise ValueError(
                "first multiplier must be >= 4 (pass allow_slow_start=True to override)"
            )

    @property
    def num_blocks(self) -> int:
        return len(self.a) - 1

    def n(self, k: int) -> int:
        """Prefix product n_k = a_1 ... a_k (n_0 = 1)."""
        out = 1
        for x in self.a[:k]:
            out *= x
        return out

    def cap(self, i: int) -> int:
        """Cap of 0-based block i (= n_{i+1})."""
        self._check_block(i)
        return self.n(i + 1)

    def size(self, i: int) -> int:
        """Size of 0-based block i (= n_{i+2})."""
        self._check_block(i)
        return self.n(i + 2)

    def caps(self) -> list[int]:
        """Every block's cap, n_1 .. n_{m-1}, from one running product."""
        return self._prefix_products()[1:-1]

    def sizes(self) -> list[int]:
        """Every block's size, n_2 .. n_m, from one running product."""
        return self._prefix_products()[2:]

    def _prefix_products(self) -> list[int]:
        """n_0 .. n_m, each one multiplication from the last."""
        return list(accumulate(self.a, mul, initial=1))

    def _check_block(self, i: int) -> None:
        if not 0 <= i < self.num_blocks:
            raise IndexError(f"block {i} not materialized (have {self.num_blocks})")

    def truncate(self, num_blocks: int) -> "BlockSchedule":
        if num_blocks > self.num_blocks:
            raise ValueError("cannot truncate to more blocks than materialized")
        return BlockSchedule(
            self.a[: num_blocks + 1], self.outer_p, self.inner_p, self.allow_slow_start
        )

    @staticmethod
    def from_json(obj: dict) -> "BlockSchedule":
        a = tuple(map(json_int, json_shape(obj["a"], list)))
        k = json_int(obj.get("K", len(a) - 1))
        if k + 1 > len(a):
            raise ValueError(f"K={k} blocks need {k + 1} multipliers, got {len(a)}")
        return BlockSchedule(
            a[: k + 1],
            obj.get("outer_p", 2),
            obj.get("inner_p", 2),
            json_shape(obj.get("allow_slow_start", False), bool),
        )


def arithmetic_schedule(num_blocks: int, start: int = 4, step: int = 1) -> BlockSchedule:
    """Schedule a_j = start + (j-1)*step; the default family is 4, 5, 6, ..."""
    a = tuple(start + j * step for j in range(num_blocks + 1))
    return BlockSchedule(a)


def squares_schedule(num_blocks: int) -> BlockSchedule:
    """Schedule a_j = (j+1)^2 = 4, 9, 16, 25, ... used for the x_s experiments."""
    a = tuple((j + 2) ** 2 for j in range(num_blocks + 1))
    return BlockSchedule(a)
