"""Compressed coefficient vectors over a block-structured index set.

A finitely supported vector is stored as groups (block, magnitude,
multiplicity).  Magnitudes are exact rationals (ints when integral, which
keeps sorting and powering them off the Fraction paths) and multiplicities
arbitrary-precision ints, because the counterexample experiments need
blocks whose sizes dwarf machine words.  Signs are never stored: every
norm in this package is a lattice norm, so only magnitudes matter
(coordinate signs and within-block permutations leave all norms
unchanged).  That convention is exactly what lattice unconditionality
buys, and the test suite checks it against an explicit signed backend
on small instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CapacityError
from .exact import Rational, as_fraction, json_int, json_number, json_shape, simplify

# (block id, magnitude, multiplicity); canonical order is by block then
# descending magnitude.
Group = tuple[int, Rational, int]


@dataclass(frozen=True)
class CompressedVector:
    groups: tuple[Group, ...]

    # Set only by ``canonicalize`` on what it returns; a hand-built vector
    # may hold its groups in any order, so ``SpaceSpec.conform`` canonicalizes it.
    _canonical = False

    @property
    def support_size(self) -> int:
        return sum(mult for _, _, mult in self.groups)

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def blocks(self) -> list[int]:
        seen: list[int] = []
        for b, _, _ in self.groups:
            if not seen or seen[-1] != b:
                seen.append(b)
        return seen

    def block_groups(self, block: int) -> list[tuple[Rational, int]]:
        """Magnitude groups of one block, descending magnitude."""
        return [(m, c) for b, m, c in self.groups if b == block]

    def block_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for b, _, c in self.groups:
            out[b] = out.get(b, 0) + c
        return out

    def scale(self, factor) -> "CompressedVector":
        f = abs(as_fraction(factor))
        return canonicalize((b, m * f, c) for b, m, c in self.groups)

    def to_json(self) -> dict:
        return {"groups": [[b, str(m), str(c)] for b, m, c in self.groups]}

    @staticmethod
    def from_json(obj: dict) -> "CompressedVector":
        """Groups [block, magnitude, multiplicity]: the block id and multiplicity
        through ``json_int``, the magnitude a string such as "3/2" or a number."""
        groups = (json_shape(g, list, 3) for g in json_shape(json_shape(obj, dict)["groups"], list))
        return canonicalize((json_int(b), Fraction(m if isinstance(m, str) else json_number(m)),
                             json_int(c)) for b, m, c in groups)

    @staticmethod
    def load(path: str) -> "CompressedVector":
        with open(path, "r", encoding="utf-8") as fh:
            return CompressedVector.from_json(json.load(fh))


def canonicalize(
    raw: Iterable[tuple[int, object, int]],
    sizes: Optional[Sequence[Optional[int]]] = None,
) -> CompressedVector:
    """Merge, sort and validate raw groups into canonical form.

    Zero magnitudes and zero multiplicities are dropped; identical
    (block, magnitude) pairs merge; integral magnitudes become ints; groups
    come out sorted by (block, descending magnitude).  Idempotent by
    construction.  When ``sizes`` is given (block id -> block size, None =
    unbounded), block ids are range-checked and per-block support is
    capacity-checked.
    """
    merged: dict[tuple[int, int, int], list] = {}
    for block, magnitude, multiplicity in raw:
        block = int(block)
        mult = int(multiplicity)
        mag = as_fraction(magnitude)
        if block < 0:
            raise ValueError(f"negative block id {block}")
        if mag < 0:
            raise ValueError(f"negative magnitude {mag} in block {block}")
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} in block {block}")
        if mag == 0 or mult == 0:
            continue
        # Keyed by exact ints: a tuple of ints hashes faster than a Fraction.
        key = (block, mag.numerator, mag.denominator)
        merged.setdefault(key, [block, simplify(mag), 0])[2] += mult

    rows = sorted(merged.values(), key=itemgetter(1), reverse=True)
    rows.sort(key=itemgetter(0))  # stable: descending magnitude within each block
    vec = CompressedVector(tuple(map(tuple, rows)))
    object.__setattr__(vec, "_canonical", True)
    if sizes is not None:
        _check_sizes(vec, sizes)
    return vec


def _check_sizes(vec: CompressedVector, sizes: Sequence[Optional[int]]) -> None:
    for block, count in vec.block_counts().items():
        if block >= len(sizes):
            raise ValueError(f"block id {block} outside the {len(sizes)}-block space")
        size = sizes[block]
        if size is not None and count > size:
            raise CapacityError(block, count, size)


def indicator(
    block_counts: Mapping[int, int],
    sizes: Optional[Sequence[Optional[int]]] = None,
) -> CompressedVector:
    """Vector with magnitude 1 on the given number of coordinates per block."""
    return canonicalize(((b, 1, c) for b, c in block_counts.items()), sizes)
