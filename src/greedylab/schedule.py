"""Block schedules: the multiplier sequence a_j and its prefix products.

A schedule a = (a_1, a_2, ...) with a_1 >= 4 and a strictly increasing
defines n_k = a_1 * ... * a_k.  Block k (0-based index i = k-1 here) has
cap n_k and size n_{k+1}, so a list of m multipliers materializes m - 1
blocks.  The truncation is a finite window onto an infinite space: n_k
past the last multiplier raises TruncationError, and the democracy-function
code checks explicitly that the window is deep enough for each query
instead of ever extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul

from .errors import TruncationError
from .exact import int_at_least, json_int, json_shape, norm_exponent


@dataclass(frozen=True)
class BlockSchedule:
    """Multiplier sequence plus the norm exponents of the block sum."""

    a: tuple[int, ...]
    outer_p: int | float = 2
    inner_p: int | float = 2
    allow_slow_start: bool = False  # override the a_1 >= 4 requirement

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int_at_least(x, 2, "multiplier") for x in self.a))
        for name in ("outer_p", "inner_p"):
            object.__setattr__(self, name, norm_exponent(getattr(self, name), name))
        if len(self.a) < 2:
            raise ValueError("schedule needs at least two multipliers (one block)")
        if any(self.a[i] >= self.a[i + 1] for i in range(len(self.a) - 1)):
            raise ValueError("multipliers must be strictly increasing")
        if not self.allow_slow_start and self.a[0] < 4:
            raise ValueError(
                "first multiplier must be >= 4 (pass allow_slow_start=True to override)"
            )

    @property
    def num_blocks(self) -> int:
        return len(self.a) - 1

    @cached_property
    def _n(self) -> tuple[int, ...]:
        """n_0 .. n_m, each one multiplication from the last, built once."""
        return tuple(accumulate(self.a, mul, initial=1))

    def n(self, k: int) -> int:
        """Prefix product n_k = a_1 ... a_k (n_0 = 1); past a_m, TruncationError."""
        if int_at_least(k, 0, "k") >= len(self._n):
            raise TruncationError(
                f"n_{k} needs multiplier a_{k}; the schedule ends at a_{len(self.a)}"
            )
        return self._n[k]

    def caps(self) -> list[int]:
        """Every block's cap, n_1 .. n_{m-1}."""
        return list(self._n[1:-1])

    def sizes(self) -> list[int]:
        """Every block's size, n_2 .. n_m."""
        return list(self._n[2:])

    def truncate(self, num_blocks: int) -> "BlockSchedule":
        if int_at_least(num_blocks, 1, "num_blocks") > self.num_blocks:
            raise ValueError("cannot truncate to more blocks than materialized")
        return BlockSchedule(
            self.a[: num_blocks + 1], self.outer_p, self.inner_p, self.allow_slow_start
        )

    @staticmethod
    def from_json(obj: dict) -> "BlockSchedule":
        a = tuple(map(json_int, json_shape(obj["a"], list)))
        k = json_int(obj.get("K", len(a) - 1))
        if k < 1:  # a[: k + 1] would slice multipliers off the end
            raise ValueError(f"K={k}: a schedule needs K >= 1 blocks")
        if k + 1 > len(a):
            raise ValueError(f"K={k} blocks need {k + 1} multipliers, got {len(a)}")
        return BlockSchedule(
            a[: k + 1],
            obj.get("outer_p", 2),
            obj.get("inner_p", 2),
            json_shape(obj.get("allow_slow_start", False), bool),
        )


def arithmetic_schedule(num_blocks: int) -> BlockSchedule:
    """Schedule a_j = j + 3 = 4, 5, 6, ..."""
    a = tuple(range(4, int_at_least(num_blocks, 1, "num_blocks") + 5))
    return BlockSchedule(a)


def squares_schedule(num_blocks: int) -> BlockSchedule:
    """Schedule a_j = (j+1)^2 = 4, 9, 16, 25, ... used for the x_s experiments."""
    a = tuple((j + 2) ** 2 for j in range(int_at_least(num_blocks, 1, "num_blocks") + 1))
    return BlockSchedule(a)
