"""Exception types shared across the package."""


class GreedyLabError(Exception):
    """Base class for all library errors."""


class CapacityError(GreedyLabError):
    """A vector puts more coordinates into a block than the block has."""

    def __init__(self, block: int, requested: int, size: int):
        self.block = block
        self.requested = requested
        self.size = size
        super().__init__(
            f"block {block} holds {size} coordinates but {requested} were requested"
        )


class TruncationError(GreedyLabError):
    """The materialized schedule is too shallow to answer exactly.

    Raised instead of returning a silently wrong value.
    """


class InvariantError(GreedyLabError):
    """An internal consistency check failed: a bug, never a property of the input.

    Raised explicitly rather than by ``assert`` so it still fires under
    ``python -O``.
    """


class OracleUnavailableError(GreedyLabError):
    """A brute-force oracle was asked for an instance beyond its feasible size."""


class ScheduleTooShallowError(GreedyLabError):
    """The schedule has no block satisfying the construction's growth requirement."""
