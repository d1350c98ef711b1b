"""Exhaustive generators for the semigroups attached to a set partition.

Every generator yields transformations in lexicographic order of their
image tables, whatever the strategy, so different strategies can be
compared element by element.  The sets are the rows of
``membership.SETS``, each a filter of its base.  Two strategies exist:

* ``brute``: run through all n**n image tables and keep the members.  T
  decides each table in C from the block labels of its images; every
  other set filters T's stream with its test.
* ``constructive``: assemble members point by point (each preserving map
  is a free choice, per block, of a codomain block and a map into it),
  never touching a non-member.  For each partition and set, a loop nest
  with one ``for`` loop per point is generated as Python source and
  compiled; T, Sigma, S and the idempotents of Sigma differ only in which
  images a loop skips given the images before it.  It streams, so the
  first k members cost O(k * n) steps.  E-T, with no count formula,
  filters the stream of its base instead.

A partition's loop nests are compiled on first use, never at import:
about 0.3-0.6 ms per set for n <= 8, growing with n.  They are cached per
partition (keyed by its ``block_index``), at most ``core.CACHE_SIZE``
partitions with up to four compiled sets each, least recently used
dropped first.

Both strategies produce only valid in-range tables, so they build their
maps without the validation that the public ``Transformation`` constructor
runs on untrusted input.

A work guard protects against accidentally enormous enumerations; it
bounds the number of candidate maps a call may visit, and it is checked
when the call is made.  It counts all n**n tables for ``brute``, the exact
member count for ``constructive``, and ``min(count, limit + 1)`` for a
constructive ``enumerate_*`` call with a ``limit``.  A filter keeps its
base's full bound, except a constructive one under a ``limit`` (E-T): it
is charged the base members it draws, and raises, with its base's label,
once it would draw more than the guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, lru_cache
from math import factorial, prod
from operator import eq, itemgetter
from typing import Iterator

from .core import (
    CACHE_SIZE,
    DEFAULT_GUARD,
    CharacterMap,
    GuardExceededError,
    SetPartition,
    Transformation,
    _store_images,
    _trusted_character,
    _trusted_transformation,
    check_guard,
    profile_of,
)
from .counting import COUNTS
from .membership import SETS

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


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _brute_preserving(p: SetPartition) -> Iterator[Transformation]:
    """The preserving maps among all n**n image tables, lexicographically.

    Each table is decided in C from the block labels of its images, which
    ``product(block_index, repeat=n)`` yields in step with the tables.  A
    table preserves p exactly when every point's image lies in the same
    block as the image of its block's lead, the block's first point.
    ``lead`` reads, for every point, the label at its lead, so the test is
    one tuple comparison per table, and only members are built.
    """
    n = p.n
    tables = itertools.product(range(n), repeat=n)
    if n == 1:  # every table preserves; an itemgetter of one index returns a bare item
        return map(_trusted_transformation, tables)
    idx = p.block_index
    blocks = p.blocks
    lead = itemgetter(*(blocks[i][0] for i in idx))
    # two streams of the same labels, one read at the leads
    lead_labels = map(lead, itertools.product(idx, repeat=n))
    flags = map(eq, lead_labels, itertools.product(idx, repeat=n))
    return map(_trusted_transformation, itertools.compress(tables, flags))


# points per function of a compiled loop nest: CPython refuses more than 20
# statically nested blocks in one function
_STAGE_POINTS = 16


def _kernel_source(p: SetPartition, set_name: str) -> str:
    """The source of the loop nest that yields the members of one set, lexicographically.

    One ``for`` loop per point, in point order; loop variable ``v<x>`` is
    the image of point x.  The lead of a block is its first point; the
    block its image lies in holds the images of the rest of the block.
    Each set's rule is a test that skips an image:

    * T: a lead takes any point, a non-lead any point of its lead's block.
    * Sigma: as T, but a lead skips the blocks that earlier leads took,
      held as a bit mask of block indices in ``k<x>``.
    * S: as Sigma, but a lead takes only blocks of its own size, and a
      non-lead skips the images already placed.
    * E-Sigma: every point maps into its own block, onto a fixed point.
      The images of x's block so far are, below x, exactly its fixed
      points.  Once x is among them, x must take x; otherwise it takes x,
      a larger point or a smaller one among them.

    S and E-Sigma hold the images placed so far as one bit mask of points
    in ``u<x>``.  Each block's images lie in a codomain block that no other
    block's images meet, so testing a point of block i against the one
    mask is testing it against block i's own images.  The last point of a
    block adds nothing to the mask, since no later point of its block reads
    it.

    Every partial table that a rule admits extends to a member, so the
    search never runs into a dead end.  The nest is split into functions
    ``_s0``, ``_s1``, ... of ``_STAGE_POINTS`` points each.  Each hands the
    next one the images so far as the tuple ``head`` and at most two masks,
    so the source grows linearly with the partition's size.  It holds no
    text but integers taken from the partition, and no integer larger than
    the number of points.
    """
    idx = p.block_index
    blocks = p.blocks
    last_lead = blocks[-1][0]
    stage = _STAGE_POINTS
    lines: list[str] = []
    mask = ""  # the taken-blocks mask after the latest lead (Sigma and S)
    used = ""  # the placed-images mask after the latest update (S and E-Sigma)
    first = 0  # the first point of the current stage
    depth = 0

    def images(end: int) -> str:
        """The table of the points before ``end``, as an expression."""
        local = "".join(f"v{y}, " for y in range(first, end))
        return f"({local})" if first == 0 else f"head + ({local})"

    for x in range(p.n):
        if x % stage == 0:
            name = f"_s{x // stage}"
            live = [held for held in (mask, used) if held]
            if x:
                args = ", ".join([images(x), *live])
                lines.append(f"{'    ' * depth}yield from {name}(store, {args})")
                lines.append(f"def {name}(store, head, {', '.join(live)}):")
            else:
                lines.append(f"def {name}(store):")
            lines.append("    new, T, points, blocks, block_of, bit, same, pbit = _locals")
            first = x
            depth = 1
        i = idx[x]
        block = blocks[i]
        v = f"v{x}"
        body: list[str] = []  # statements before the next loop opens
        if set_name == "E-Sigma":
            pool = f"blocks[{i}]"
            if x != block[0]:
                forced_or_unfixed = f"{used} & pbit[{x}] or {v} < {x} and not {used} & pbit[{v}]"
                body.append(f"if {v} != {x} and ({forced_or_unfixed}): continue")
        elif x == block[0]:
            pool = f"same[{i}]" if set_name == "S" else "points"
            if set_name != "T":
                if mask:
                    body.append(f"if {mask} & bit[{v}]: continue")
                if x != last_lead:
                    body.append(f"k{x} = {mask + ' | ' if mask else ''}bit[{v}]")
                    mask = f"k{x}"
        else:
            lead = f"v{block[0]}" if block[0] >= first else f"head[{block[0]}]"
            pool = f"block_of[{lead}]"
            if set_name == "S":
                body.append(f"if {used} & pbit[{v}]: continue")
        if set_name in ("S", "E-Sigma") and x != block[-1]:
            body.append(f"u{x} = {used + ' | ' if used else ''}pbit[{v}]")
            used = f"u{x}"
        pad = "    " * depth
        lines.append(f"{pad}for {v} in {pool}:")
        lines.extend(f"{pad}    {line}" for line in body)
        depth += 1
    pad = "    " * depth
    lines.append(f"{pad}f = new(T)")
    lines.append(f"{pad}store(f, {images(p.n)})")
    lines.append(f"{pad}yield f")
    return "\n".join(lines) + "\n"


def _compile_kernel(p: SetPartition, set_name: str):
    """The function that, given the table store, starts the members of one set."""
    n = p.n
    idx = p.block_index
    blocks = p.blocks
    sizes = p.sizes
    by_size: dict[int, list[int]] = {}
    for x in range(n):
        by_size.setdefault(sizes[idx[x]], []).append(x)
    namespace = {
        "_locals": (
            object.__new__,
            Transformation,
            tuple(range(n)),
            blocks,
            tuple(blocks[i] for i in idx),
            tuple(1 << i for i in idx),
            tuple(tuple(by_size[size]) for size in sizes),
            tuple(1 << x for x in range(n)),
        )
    }
    exec(compile(_kernel_source(p, set_name), f"<{set_name} kernel>", "exec"), namespace)
    return namespace["_s0"]


@lru_cache(maxsize=CACHE_SIZE)
def _kernels(block_index: tuple[int, ...]) -> dict:
    """The kernels of one partition, keyed by set, each compiled when first asked for."""
    return {}


def _kernel(p: SetPartition, set_name: str):
    kernels = _kernels(p.block_index)
    kernel = kernels.get(set_name)
    if kernel is None:
        kernel = kernels[set_name] = _compile_kernel(p, set_name)
    return kernel


def _members(
    p: SetPartition, set_name: str, strategy: str, guard: int, limit: int | None = None
) -> Iterator[Transformation]:
    """The members of one set of ``membership.SETS``, checked against the guard.

    Brute T scans all n**n tables; any other brute set, and any set without
    a count formula, filters its base's stream with its test.  Every other
    set runs its kernel, charged its count (at most ``limit + 1``) first.
    A constructive filter under a ``limit`` asks its base for a prefix of
    ``guard`` members and is charged its draws: asking for one more raises.
    """
    _check_strategy(strategy)
    base, test, label = SETS[set_name]
    if strategy == "brute" and base is None:
        check_guard(p.n**p.n, guard, "brute-force candidate maps")
        return _brute_preserving(p)
    if strategy == "brute" or label is None:
        if strategy == "brute" or limit is None:
            stream = _members(p, base, strategy, guard)
        else:  # a prefix is charged the base members it draws, not the whole base
            stream = _drawn(_members(p, base, strategy, guard, guard - 1), guard, SETS[base][2])
        return (f for f in stream if test(f, p))
    if limit is None or limit >= guard:  # otherwise min(count, limit + 1) <= guard
        required = COUNTS[set_name][0](profile_of(p), guard)
        check_guard(required if limit is None else min(required, limit + 1), guard, label)
    return _kernel(p, set_name)(_store_images)


def _drawn(stream: Iterator[Transformation], guard: int, what: str) -> Iterator[Transformation]:
    """The first ``guard`` items of ``stream``; drawing one more raises, as
    a charge of ``guard + 1`` items would."""
    check_guard(0, guard, what)
    yield from itertools.islice(stream, guard)
    for _ in stream:
        raise GuardExceededError(what, guard + 1, guard)


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
    if limit is not None:
        if type(limit) is not int:
            raise ValueError(f"limit {limit!r} is not an int")
        if limit < 0:
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


def _class_count(m: int, guard: int) -> int:
    """m!, the number of character classes of a partition with m blocks,
    once the guard has allowed them."""
    count = factorial(m)
    check_guard(count, guard, "character classes")
    return count


def _class_table(
    p: SetPartition, guard: int = DEFAULT_GUARD, text: bool = False
) -> tuple[Iterator, Iterator, list[int]]:
    """The classes of Sigma under equal character maps, as three parallel columns.

    The columns are the characters, the image tables of the least members
    (each block sent constantly to the minimum of its image block) and the
    class sizes.  With ``text`` the first two hold the text that ``str``
    gives a ``CharacterMap`` and ``format_transformation`` a map, instead
    of tuples of ints.  Every column comes from ``itertools.permutations``
    over a sequence indexed by block: the block indices, the block minima
    and the block sizes.  ``permutations`` orders its output by position
    alone, so row k of every column belongs to the k-th permutation phi in
    lexicographic order.  The class of phi has ``prod(|X_phi(i)| ** |X_i|)``
    members, computed once per distinct tuple of permuted sizes.  The first
    two columns are lazy; the guard counts the m! classes.
    """
    m = p.m
    _class_count(m, guard)
    labels = list(range(m))
    minima = [b[0] for b in p.blocks]
    if text:
        labels, minima = list(map(str, labels)), list(map(str, minima))
    # point x -> the permuted minimum at the block of x; with singleton
    # blocks the permuted minima are already that table
    spread = itemgetter(*p.block_index) if p.n > m else tuple
    characters = itertools.permutations(labels)
    representatives = map(spread, itertools.permutations(minima))
    if text:
        characters = map(",".join, characters)
        representatives = map(",".join, representatives)
    sizes = p.sizes
    size_of = cache(lambda permuted: prod(map(pow, permuted, sizes)))
    return characters, representatives, list(map(size_of, itertools.permutations(sizes)))


def chi_classes(p: SetPartition, guard: int = DEFAULT_GUARD) -> list[ChiClass]:
    """The classes of Sigma under equal character maps.

    On a finite set the character of a Sigma member is a bijection, so
    there is exactly one class per permutation of the block indices, of
    size ``prod(|X_phi(i)| ** |X_i|)``.  Classes come in lexicographic
    order of their characters; the representative is the least member,
    sending each block constantly to the minimum of its codomain block.
    The characters and the representatives are valid by construction and
    skip their constructors' checks; the guard counts the m! classes.

    This is the object view of ``_class_table``, which ``partmaps
    quotient`` prints from directly, so the library and the CLI share one
    source of class order and class sizes.
    """
    characters, representatives, sizes = _class_table(p, guard)
    return [
        ChiClass(_trusted_character(phi), size, _trusted_transformation(images))
        for phi, images, size in zip(characters, representatives, sizes)
    ]
