"""Exhaustive generators for the semigroups attached to a set partition.

Every generator yields transformations in lexicographic order of their
image tables, whatever the strategy, so different strategies can be
compared element by element.  Two strategies exist throughout:

* ``brute``: run through all n**n image tables and keep the members.
* ``constructive``: assemble members point by point (each preserving map
  is a free choice, per block, of a codomain block and a map into it),
  never touching a non-member.  One depth-first assembler serves T, Sigma,
  S and the idempotents of Sigma; the sets differ only in which images a
  point may take given the images before it.  It streams, so the first k
  members cost O(k * n) steps.

Both strategies produce only valid in-range tables, so they build their
maps without the validation that the public ``Transformation`` constructor
runs on untrusted input.

A work guard protects against accidentally enormous enumerations; it
bounds the number of candidate maps a call may visit, and it is checked
when the call is made.  It counts all n**n tables for ``brute``, the exact
member count for ``constructive``, and ``min(count, limit + 1)`` for a
constructive ``enumerate_*`` call with a ``limit``.  The idempotents of T
are a filter of T and keep T's full bound, as does ``brute``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial, prod
from typing import Iterator

from .core import (
    DEFAULT_GUARD,
    CharacterMap,
    PartitionProfile,
    SetPartition,
    Transformation,
    _trusted_character,
    _trusted_transformation,
    check_guard,
    profile_of,
)
from .counting import (
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
)
from .membership import in_sigma, in_units, is_idempotent

STRATEGIES = ("brute", "constructive")


@dataclass
class Enumeration:
    """A materialized enumeration, possibly cut off at a requested limit."""

    maps: list[Transformation] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[Transformation]:
        return iter(self.maps)

    def __getitem__(self, i: int) -> Transformation:
        return self.maps[i]


@dataclass(frozen=True)
class ChiClass:
    """One congruence class of Sigma under equal character maps."""

    character: CharacterMap
    size: int
    representative: Transformation


def _trusted_chi_class(
    character: CharacterMap, size: int, representative: Transformation
) -> ChiClass:
    """A ``ChiClass`` built without running the dataclass ``__init__``."""
    c = object.__new__(ChiClass)
    object.__setattr__(c, "character", character)
    object.__setattr__(c, "size", size)
    object.__setattr__(c, "representative", representative)
    return c


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _brute_preserving(p: SetPartition) -> Iterator[Transformation]:
    n = p.n
    blocks = p.blocks
    idx = p.block_index
    for images in itertools.product(range(n), repeat=n):
        ok = True
        for block in blocks:
            j = idx[images[block[0]]]
            for x in block:
                if idx[images[x]] != j:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield _trusted_transformation(images)


def _options(p: SetPartition, set_name: str):
    """The rule that tells the assembler which images point x may take.

    ``options(x, images)`` lists them ascending, given ``images[:x]``.  The
    lead of a block is its first point; the codomain block it picks holds
    the images of the rest of the block.  Every partial table a rule admits
    extends to a member, so the search never runs into a dead end.
    """
    idx = p.block_index
    blocks = p.blocks
    sizes = p.sizes
    points = tuple(range(p.n))
    lead = tuple(blocks[b][0] for b in idx)
    before = tuple(tuple(y for y in blocks[idx[x]] if y < x) for x in points)

    def untaken(pool, x: int, images: list[int]) -> list[int]:
        """The points of ``pool`` in blocks no lead before x has picked."""
        taken = {idx[images[block[0]]] for block in blocks[: idx[x]]}
        return [v for v in pool if idx[v] not in taken]

    def t_rule(x: int, images: list[int]):
        if lead[x] == x:
            return points
        return blocks[idx[images[lead[x]]]]

    def sigma_rule(x: int, images: list[int]):
        if lead[x] == x:
            return untaken(points, x, images)
        return blocks[idx[images[lead[x]]]]

    def units_rule(x: int, images: list[int]):
        if lead[x] == x:
            size = sizes[idx[x]]
            return untaken([v for v in points if sizes[idx[v]] == size], x, images)
        hit = {images[y] for y in before[x]}
        return [v for v in blocks[idx[images[lead[x]]]] if v not in hit]

    def idempotent_rule(x: int, images: list[int]):
        # every image is a fixed point: x fixes itself once a point of its
        # block (no other can) maps to x, and a smaller image is fixed already
        if any(images[y] == x for y in before[x]):
            return (x,)
        return [v for v in blocks[idx[x]] if v >= x or images[v] == v]

    return {"T": t_rule, "Sigma": sigma_rule, "S": units_rule, "E-Sigma": idempotent_rule}[set_name]


def _assemble(p: SetPartition, options) -> Iterator[Transformation]:
    """Depth-first, point by point, in lexicographic order of image tables."""
    build = _trusted_transformation  # every table a rule admits is in range
    last = p.n - 1
    images = [0] * p.n
    pending: list[Iterator[int]] = []  # pending[x]: images of x not yet tried
    x = 0
    while x >= 0:
        if x == last:
            head = tuple(images[:last])
            for v in options(last, images):
                yield build(head + (v,))
            x -= 1
            continue
        if x == len(pending):
            pending.append(iter(options(x, images)))
        v = next(pending[x], None)
        if v is None:
            pending.pop()
            x -= 1
        else:
            images[x] = v
            x += 1


def _members(
    p: SetPartition, set_name: str, strategy: str, guard: int, limit: int | None = None
) -> Iterator[Transformation]:
    """The members of T, Sigma, S, E-Sigma or E-T, checked against the guard.

    The guard is checked before the first member is produced.  A
    constructive call with a ``limit`` builds at most ``limit + 1`` members,
    so only ``min(count, limit + 1)`` of them count against the guard.
    """
    _check_strategy(strategy)
    if set_name == "E-T" or (set_name == "E-Sigma" and strategy == "brute"):
        # filters of another set, under that set's full bound
        base = iter_t if set_name == "E-T" else iter_sigma
        return (f for f in base(p, strategy, guard) if is_idempotent(f))
    if strategy == "brute":
        check_guard(p.n**p.n, guard, "brute-force candidate maps")
        if set_name == "Sigma":
            return (f for f in _brute_preserving(p) if in_sigma(f, p))
        if set_name == "S":
            return (f for f in _brute_preserving(p) if in_units(f, p))
        return _brute_preserving(p)
    if limit is None or limit >= guard:  # otherwise min(count, limit + 1) <= guard
        what, required = _member_count(profile_of(p), set_name, guard)
        check_guard(required if limit is None else min(required, limit + 1), guard, what)
    return _assemble(p, _options(p, set_name))


def _member_count(profile: PartitionProfile, set_name: str, guard: int) -> tuple[str, int]:
    """What the guard of a constructive route counts, and how many there are."""
    if set_name == "T":
        return "preserving maps", count_t(profile)
    if set_name == "Sigma":
        return "Sigma members", count_sigma_grouped(profile, guard)
    if set_name == "S":
        return "units", count_units(profile)
    return "Sigma idempotents", count_sigma_idempotents(profile)


def _idempotent_set(ambient: str) -> str:
    if ambient not in ("t", "sigma"):
        raise ValueError(f"unknown ambient {ambient!r}, expected 't' or 'sigma'")
    return "E-T" if ambient == "t" else "E-Sigma"


def iter_t(
    p: SetPartition, strategy: str = "constructive", guard: int = DEFAULT_GUARD
) -> Iterator[Transformation]:
    """All maps sending every block into a block, lexicographically."""
    return _members(p, "T", strategy, guard)


def iter_sigma(
    p: SetPartition, strategy: str = "constructive", guard: int = DEFAULT_GUARD
) -> Iterator[Transformation]:
    """All preserving maps whose image meets every block, lexicographically."""
    return _members(p, "Sigma", strategy, guard)


def iter_units(
    p: SetPartition, strategy: str = "constructive", guard: int = DEFAULT_GUARD
) -> Iterator[Transformation]:
    """All units among the preserving maps, lexicographically."""
    return _members(p, "S", strategy, guard)


def iter_idempotents(
    p: SetPartition,
    ambient: str = "sigma",
    strategy: str = "constructive",
    guard: int = DEFAULT_GUARD,
) -> Iterator[Transformation]:
    """Idempotents of the chosen ambient semigroup, lexicographically.

    ``ambient="t"`` filters the enumeration of preserving maps, since no
    blockwise assembly is available there.  ``ambient="sigma"`` has a
    constructive route: an independent idempotent selfmap per block.
    """
    return _members(p, _idempotent_set(ambient), strategy, guard)


def _collect(
    p: SetPartition, set_name: str, strategy: str, limit: int | None, guard: int
) -> Enumeration:
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    stream = _members(p, set_name, strategy, guard, limit)
    if limit is None:
        return Enumeration(list(stream), False)
    maps = list(itertools.islice(stream, limit + 1))
    return Enumeration(maps[:limit], len(maps) > limit)


def enumerate_t(
    p: SetPartition,
    strategy: str = "constructive",
    limit: int | None = None,
    guard: int = DEFAULT_GUARD,
) -> Enumeration:
    return _collect(p, "T", strategy, limit, guard)


def enumerate_sigma(
    p: SetPartition,
    strategy: str = "constructive",
    limit: int | None = None,
    guard: int = DEFAULT_GUARD,
) -> Enumeration:
    return _collect(p, "Sigma", strategy, limit, guard)


def enumerate_units(
    p: SetPartition,
    strategy: str = "constructive",
    limit: int | None = None,
    guard: int = DEFAULT_GUARD,
) -> Enumeration:
    return _collect(p, "S", strategy, limit, guard)


def enumerate_idempotents(
    p: SetPartition,
    ambient: str = "sigma",
    strategy: str = "constructive",
    limit: int | None = None,
    guard: int = DEFAULT_GUARD,
) -> Enumeration:
    return _collect(p, _idempotent_set(ambient), strategy, limit, guard)


def chi_classes(p: SetPartition, guard: int = DEFAULT_GUARD) -> list[ChiClass]:
    """The classes of Sigma under equal character maps.

    On a finite set the character of a Sigma member is a bijection, so
    there is exactly one class per permutation of the block indices, of
    size ``prod(|X_phi(i)| ** |X_i|)``.  Classes come in lexicographic
    order of their characters; the representative is the least member,
    sending each block constantly to the minimum of its codomain block.
    The classes, their characters and their representatives are valid by
    construction, so they are built without validation, and the guard
    counts the m! classes.
    """
    check_guard(factorial(p.m), guard, "character classes")
    sizes = p.sizes
    # power[i][j] = |X_j| ** |X_i|, the ways to send block i into block j
    power = [[sj**si for sj in sizes] for si in sizes]
    minima = [b[0] for b in p.blocks].__getitem__
    index = p.block_index
    get = list.__getitem__
    out: list[ChiClass] = []
    for phi in itertools.permutations(range(p.m)):
        # point x -> min of block phi(block of x)
        images = tuple(map(minima, map(phi.__getitem__, index)))
        out.append(
            _trusted_chi_class(
                _trusted_character(phi),
                prod(map(get, power, phi)),
                _trusted_transformation(images),
            )
        )
    return out
