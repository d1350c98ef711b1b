"""Cycle structure of permutations and preserved-partition constructions.

Given any transformation of at least three points, :func:`find_preserved_partition`
produces a nontrivial partition that the map preserves (and preserves as a
unit when the map is a permutation), or reports that none exists.  The only
maps with no such partition are full cycles of prime length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SetPartition, Transformation, iter_partitions
from .membership import in_units


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of a permutation, fixed points included.

    Each cycle starts at its minimum element; cycles are sorted by those
    minima.  The orbits partition the ground set.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)

    def is_identity(self) -> bool:
        return all(len(c) == 1 for c in self.cycles)

    def is_full_cycle(self) -> bool:
        """True when there is a single cycle covering the whole ground set."""
        return len(self.cycles) == 1 and len(self.cycles[0]) == self.n

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)


def decompose(f: Transformation) -> CycleDecomposition:
    """Canonical cycle decomposition of a permutation."""
    if not f.is_bijection():
        raise ValueError("cycle decomposition needs a bijection")
    n = f.n
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        x = f.images[start]
        while x != start:
            orbit.append(x)
            seen[x] = True
            x = f.images[x]
        cycles.append(tuple(orbit))
    return CycleDecomposition(n, tuple(cycles))


def kernel_partition(f: Transformation) -> SetPartition:
    """The partition whose blocks are the classes of equal image.

    Defined (and nontrivial) exactly for maps that are neither bijective
    nor constant; the map preserves it, since each class lands on a single
    point.
    """
    classes: dict[int, list[int]] = {}
    for x, y in enumerate(f.images):
        classes.setdefault(y, []).append(x)
    if len(classes) == f.n:
        raise ValueError("bijection: its kernel partition is the trivial all-singletons one")
    if len(classes) == 1:
        raise ValueError(
            "constant map: every nontrivial partition works, use find_preserved_partition"
        )
    return SetPartition(tuple(tuple(block) for block in classes.values()))


def _smallest_proper_divisor(n: int) -> int | None:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return None


def _progression_partition(cycle: tuple[int, ...], m: int) -> SetPartition:
    """Blocks gathering every m-th element along the cycle.

    For the standard cycle 0 -> 1 -> ... -> n-1 -> 0 these are the residue
    classes mod m; an arbitrary full cycle is handled by reading positions
    along its own orbit, which amounts to conjugating the standard blocks
    by the relabeling.
    """
    return SetPartition(tuple(tuple(cycle[i::m]) for i in range(m)))


def _default_split(n: int) -> SetPartition:
    return SetPartition(((0,), tuple(range(1, n))))


def find_preserved_partition(f: Transformation) -> SetPartition | None:
    """A nontrivial partition that f preserves, or None if there is none.

    For a non-permutation the returned partition is preserved plainly (a
    constant map gets the canonical split {0 | rest}, anything else its
    kernel partition).  For a permutation it is preserved as a unit:
    the identity gets the canonical split, a non-full cycle splits into
    the support of its first cycle versus the rest, and a full cycle of
    composite length n gets the progression blocks for the smallest proper
    divisor of n.  Only full cycles of prime length admit nothing.
    """
    n = f.n
    if n < 3:
        raise ValueError("ground set needs at least 3 points to have a nontrivial partition")
    if not f.is_bijection():
        if len(set(f.images)) == 1:
            return _default_split(n)
        return kernel_partition(f)
    dec = decompose(f)
    if dec.is_identity():
        return _default_split(n)
    if not dec.is_full_cycle():
        moving = next(c for c in dec.cycles if len(c) > 1)
        support = set(moving)
        rest = tuple(x for x in range(n) if x not in support)
        return SetPartition((tuple(moving), rest))
    m = _smallest_proper_divisor(n)
    if m is None:
        return None
    return _progression_partition(dec.cycles[0], m)


def preserved_m_partition_exists(
    f: Transformation, m: int
) -> tuple[bool, SetPartition | None]:
    """Whether a full cycle is a unit for some nontrivial m-block partition.

    Requires f to be a full cycle and 1 < m < n.  True exactly when m
    divides n; the witness is the progression partition along the cycle.
    """
    dec = decompose(f) if f.is_bijection() else None
    if dec is None or not dec.is_full_cycle():
        raise ValueError("map is not a full cycle over the ground set")
    if not 1 < m < f.n:
        raise ValueError(f"block count m={m} must satisfy 1 < m < n={f.n}")
    if f.n % m:
        return False, None
    return True, _progression_partition(dec.cycles[0], m)


def search_unit_m_partition(f: Transformation, m: int) -> SetPartition | None:
    """Exhaustive oracle: first m-block partition (canonical order) for which
    f is a unit, or None.  Trivial partitions are skipped."""
    for p in iter_partitions(f.n, block_count=m):
        if not p.is_trivial and in_units(f, p):
            return p
    return None
