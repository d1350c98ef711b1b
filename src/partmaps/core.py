"""Ground-set transformations, set partitions, and their text formats.

Everything lives on the 0-based ground set {0, ..., n-1}.  A transformation
is written as its image table, "1,0,2" meaning 0->1, 1->0, 2->2.  A set
partition is written block by block, "0,1|2"; block order in the input is
irrelevant, the canonical form sorts blocks by their minimum element and
points inside a block ascending.

Composition is left to right everywhere in this package: x(fg) = (xf)g,
so ``compose(f, g)`` applies f first.

The public constructors and parsers validate their input in full: every
point must be an ``int`` (``bool`` is rejected) in range.  Tables and blocks
that are valid by construction (composites, inverses, enumerated maps and
partitions, the characters and block maps of preserving maps, the character
classes of Sigma, the profiles of partitions, and text the parsers have
already checked point by point) skip that work through five private
builders, ``_trusted_transformation``, ``_trusted_partition``,
``_trusted_character``, ``_trusted_block_map_family`` and
``_trusted_profile``, which produce instances of exactly these classes, so
equality, order and hashing are the same whichever way an object was made.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator


DEFAULT_GUARD = 10**7

# answers kept by each per-profile cache (``profile_of`` and the counting
# formulas); one entry per profile, and n <= 14 has only 135 profiles
CACHE_SIZE = 1024


class ParseError(ValueError):
    """Malformed partition or transformation text."""


class GuardExceededError(RuntimeError):
    """An operation would exceed the configured work guard."""

    def __init__(self, what: str, required: int, guard: int):
        super().__init__(
            f"{what} needs {required} items, exceeds guard {guard}; "
            f"raise the guard or use a counting formula instead"
        )
        self.what = what
        self.required = required
        self.guard = guard


def check_guard(required: int, guard: int, what: str) -> None:
    if guard < 1:
        raise ValueError("guard must be positive")
    if required > guard:
        raise GuardExceededError(what, required, guard)


@dataclass(frozen=True, order=True)
class Transformation:
    """A total selfmap on {0, ..., n-1} stored as its image table.

    ``images[x]`` is the image of point x.  Instances are immutable and
    ordered by their image tables (lexicographically).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ValueError("transformation needs a nonempty ground set")
        for x, y in enumerate(images):
            if type(y) is not int:
                raise ValueError(f"image {y!r} of point {x} is not an int")
            if not 0 <= y < n:
                raise ValueError(f"image {y} of point {x} out of range for n={n}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Transformation") -> "Transformation":
        """Left-to-right composition: (f * g)(x) = g(f(x))."""
        return compose(self, other)

    def __str__(self) -> str:
        return format_transformation(self)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(tuple(range(n)))

    def is_bijection(self) -> bool:
        return len(set(self.images)) == self.n

    def inverse(self) -> "Transformation":
        if not self.is_bijection():
            raise ValueError("only a bijection has an inverse")
        inv = [0] * self.n
        for x, y in enumerate(self.images):
            inv[y] = x
        return _trusted_transformation(tuple(inv))

    def image_set(self) -> frozenset[int]:
        return frozenset(self.images)


@dataclass(frozen=True)
class SetPartition:
    """An ordered set partition of {0, ..., n-1} in canonical form.

    Blocks are pairwise disjoint, nonempty, and cover the ground set.  The
    constructor accepts blocks in any order and canonicalizes: blocks sorted
    ascending by minimum element, points inside each block ascending.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = [tuple(b) for b in self.blocks]
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if type(x) is not int:
                    raise ValueError(f"point {x!r} is not an int")
                if x in seen:
                    raise ValueError(f"duplicate point {x}")
                seen.add(x)
        n = len(seen)
        for x in range(n):
            if x not in seen:
                raise ValueError(f"points must be exactly 0..{n - 1}: missing {x}")
        object.__setattr__(self, "blocks", tuple(sorted(tuple(sorted(b)) for b in blocks)))

    @property
    def n(self) -> int:
        return len(self.block_index)

    @property
    def m(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        """Lookup table: point -> index of the block containing it."""
        total = sum(len(b) for b in self.blocks)
        idx = [0] * total
        for i, b in enumerate(self.blocks):
            for x in b:
                idx[x] = i
        return tuple(idx)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def is_trivial(self) -> bool:
        """True for the single-block and the all-singletons partition."""
        return self.m == 1 or self.m == self.n

    @property
    def is_uniform(self) -> bool:
        return len(set(self.sizes)) == 1

    def __str__(self) -> str:
        return format_partition(self)


@dataclass(frozen=True)
class PartitionProfile:
    """Distinct block sizes with multiplicities, ascending by size.

    ``entries`` is a tuple of (size, multiplicity) pairs; the constructor
    sorts by size and rejects repeated sizes.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple(sorted((int(s), int(c)) for s, c in self.entries))
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("profile needs at least one entry")
        sizes = [s for s, _ in entries]
        if len(set(sizes)) != len(sizes):
            dup = next(s for s in sizes if sizes.count(s) > 1)
            raise ValueError(f"repeated block size {dup} in profile")
        for s, c in entries:
            if s < 1:
                raise ValueError(f"block size {s} must be positive")
            if c < 1:
                raise ValueError(f"multiplicity {c} of size {s} must be positive")

    @property
    def n(self) -> int:
        return sum(s * c for s, c in self.entries)

    @property
    def m(self) -> int:
        """Number of blocks."""
        return sum(c for _, c in self.entries)

    @property
    def k(self) -> int:
        """Number of distinct block sizes."""
        return len(self.entries)

    def block_sizes(self) -> tuple[int, ...]:
        """The multiset of block sizes, expanded and ascending."""
        out: list[int] = []
        for s, c in self.entries:
            out.extend([s] * c)
        return tuple(out)


@dataclass(frozen=True, order=True)
class CharacterMap:
    """The selfmap induced on block indices by a block-preserving map."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        m = len(images)
        if m == 0:
            raise ValueError("character map needs at least one block")
        for i, j in enumerate(images):
            if not 0 <= j < m:
                raise ValueError(f"block image {j} out of range for m={m}")

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "CharacterMap") -> "CharacterMap":
        """Left-to-right composition on block indices."""
        if self.m != other.m:
            raise ValueError(f"block counts differ: {self.m} != {other.m}")
        return CharacterMap(tuple(other.images[j] for j in self.images))

    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.m

    # on a finite set a selfmap is injective iff surjective iff bijective;
    # the three names exist so call sites can state their intent
    is_surjective = is_injective = is_bijective

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images))

    def is_idempotent(self) -> bool:
        return all(self.images[j] == j for j in self.images)

    def as_transformation(self) -> Transformation:
        """The same map viewed as a transformation of the block indices."""
        return Transformation(self.images)

    def __str__(self) -> str:
        return ",".join(map(str, self.images))


@dataclass(frozen=True)
class BlockMap:
    """The restriction of a transformation to one block, into one block."""

    domain_index: int
    codomain_index: int
    domain: tuple[int, ...]
    codomain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != len(self.domain):
            raise ValueError("image table length must match the domain block")
        cod = set(self.codomain)
        for y in self.images:
            if y not in cod:
                raise ValueError(f"image {y} not in codomain block {self.codomain}")

    def __call__(self, x: int) -> int:
        return self.images[self.domain.index(x)]

    def is_selfmap(self) -> bool:
        return self.domain_index == self.codomain_index

    def is_bijection(self) -> bool:
        """True when the restriction maps its block onto the codomain block."""
        return len(set(self.images)) == len(self.codomain)

    def is_idempotent(self) -> bool:
        """True when the restriction is a selfmap of its block fixing its image."""
        if not self.is_selfmap():
            return False
        send = dict(zip(self.domain, self.images))
        return all(send[send[x]] == send[x] for x in self.domain)


@dataclass(frozen=True)
class BlockMapFamily:
    """One block map per block; gluing them reproduces a unique transformation."""

    partition: SetPartition
    maps: tuple[BlockMap, ...]

    def __iter__(self) -> Iterator[BlockMap]:
        return iter(self.maps)

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, i: int) -> BlockMap:
        return self.maps[i]

    def character(self) -> CharacterMap:
        return CharacterMap(tuple(bm.codomain_index for bm in self.maps))

    def glue(self) -> Transformation:
        images = [0] * self.partition.n
        for bm in self.maps:
            for x, y in zip(bm.domain, bm.images):
                images[x] = y
        return Transformation(tuple(images))


_new = object.__new__
_set = object.__setattr__


def _trusted_transformation(images: tuple[int, ...]) -> Transformation:
    """A ``Transformation`` around a table known to be a nonempty in-range tuple of ints.

    Skips validation; callers vouch for the table.
    """
    f = _new(Transformation)
    _set(f, "images", images)
    return f


def _trusted_partition(
    blocks: tuple[tuple[int, ...], ...], block_index: tuple[int, ...]
) -> SetPartition:
    """A ``SetPartition`` around canonical blocks and their point -> block table.

    Skips validation and canonicalization; callers vouch for both.
    """
    p = _new(SetPartition)
    _set(p, "blocks", blocks)
    _set(p, "block_index", block_index)
    return p


def _trusted_character(images: tuple[int, ...]) -> CharacterMap:
    """A ``CharacterMap`` around a table known to be a nonempty in-range tuple.

    Skips validation; callers vouch for the table.
    """
    c = _new(CharacterMap)
    _set(c, "images", images)
    return c


def _trusted_block_map_family(
    partition: SetPartition, character: tuple[int, ...], images: tuple[int, ...]
) -> BlockMapFamily:
    """The ``BlockMapFamily`` of a map's restrictions to the blocks of ``partition``.

    ``images`` is the map's image table and ``character`` its block-index
    map.  Skips validation; callers vouch that the map preserves the
    partition with that character.
    """
    blocks = partition.blocks
    get = images.__getitem__
    maps = []
    for i, j in enumerate(character):
        bm = _new(BlockMap)
        _set(bm, "domain_index", i)
        _set(bm, "codomain_index", j)
        _set(bm, "domain", blocks[i])
        _set(bm, "codomain", blocks[j])
        _set(bm, "images", tuple(map(get, blocks[i])))
        maps.append(bm)
    family = _new(BlockMapFamily)
    _set(family, "partition", partition)
    _set(family, "maps", tuple(maps))
    return family


def _trusted_profile(entries: tuple[tuple[int, int], ...]) -> PartitionProfile:
    """A ``PartitionProfile`` around (size, multiplicity) pairs of positive
    ints, ascending by size with no size repeated.

    Skips validation and sorting; callers vouch for the entries.
    """
    prof = _new(PartitionProfile)
    _set(prof, "entries", entries)
    return prof


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Left-to-right composition: x(fg) = (xf)g."""
    if f.n != g.n:
        raise ValueError(f"ground sets differ: {f.n} != {g.n}")
    return _trusted_transformation(tuple(g.images[y] for y in f.images))


def profile_of(p: SetPartition) -> PartitionProfile:
    """Block sizes of ``p`` with multiplicities.

    Partitions with the same block sizes may get the same (immutable)
    profile object.
    """
    return _profile_of_sizes(tuple(sorted(map(len, p.blocks))))


@lru_cache(maxsize=CACHE_SIZE)
def _profile_of_sizes(sizes: tuple[int, ...]) -> PartitionProfile:
    # the sizes ascend, so the counter lists them in ascending order
    return _trusted_profile(tuple(Counter(sizes).items()))


def parse_transformation(text: str, n: int | None = None) -> Transformation:
    """Parse "1,0,2" into a transformation on n points.

    With ``n=None`` the ground set has one point per image given.
    """
    tokens = [t.strip() for t in text.split(",")]
    if n is None:
        n = len(tokens)
    if n < 1:
        raise ParseError("ground-set size must be positive")
    if len(tokens) != n:
        raise ParseError(f"expected {n} images, got {len(tokens)}")
    images = []
    for tok in tokens:
        try:
            y = int(tok)
        except ValueError:
            raise ParseError(f"invalid image {tok!r}") from None
        if not 0 <= y < n:
            raise ParseError(f"image {y} out of range for n={n}")
        images.append(y)
    return _trusted_transformation(tuple(images))


def parse_partition(text: str, n: int | None = None) -> SetPartition:
    """Parse "0,1|2" into a canonical set partition of n points.

    With ``n=None`` the ground set runs up to the largest point given.
    """
    blocks: list[list[int]] = []
    for chunk in text.split("|"):
        if not chunk.strip():
            raise ParseError("empty block in partition text")
        block: list[int] = []
        for tok in chunk.split(","):
            tok = tok.strip()
            try:
                block.append(int(tok))
            except ValueError:
                raise ParseError(f"invalid point {tok!r}") from None
        blocks.append(block)
    if n is None:
        n = max(max(block) for block in blocks) + 1
    if n < 1:
        raise ParseError("ground-set size must be positive")
    seen: set[int] = set()
    for block in blocks:
        for x in block:
            if not 0 <= x < n:
                raise ParseError(f"point {x} out of range for n={n}")
            if x in seen:
                raise ParseError(f"duplicate point {x}")
            seen.add(x)
    if len(seen) != n:
        missing = next(x for x in range(n) if x not in seen)
        raise ParseError(f"missing point {missing}")
    # disjoint nonempty blocks sort by their minima once each block is sorted
    canonical = sorted(tuple(sorted(block)) for block in blocks)
    index = [0] * n
    for i, block in enumerate(canonical):
        for x in block:
            index[x] = i
    return _trusted_partition(tuple(canonical), tuple(index))


def format_transformation(f: Transformation) -> str:
    return ",".join(map(str, f.images))


def format_partition(p: SetPartition) -> str:
    return "|".join(",".join(str(x) for x in b) for b in p.blocks)


def iter_partitions(n: int, block_count: int | None = None) -> Iterator[SetPartition]:
    """All set partitions of {0, ..., n-1} in canonical order.

    Canonical order is lexicographic on restricted-growth strings (point i
    gets the index of its block).  With ``block_count`` set, only partitions
    with exactly that many blocks are produced, in the same order.
    """
    if n < 1:
        raise ValueError("ground-set size must be positive")
    if block_count is not None and not 1 <= block_count <= n:
        return
    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[SetPartition]:
        if i == n:
            if block_count is None or used == block_count:
                yield _partition_from_labels(labels, used)
            return
        top = used + 1
        if block_count is not None:
            # cannot exceed block_count labels, and must still be able to reach it
            top = min(top, block_count)
            if used + (n - i) < block_count:
                return
        for lab in range(top):
            labels[i] = lab
            yield from rec(i + 1, used + 1 if lab == used else used)

    yield from rec(0, 0)


def _partition_from_labels(labels: list[int], used: int) -> SetPartition:
    # a restricted-growth string lists its blocks by minimum, points ascending,
    # so the blocks are canonical and the labels are the block index
    blocks: list[list[int]] = [[] for _ in range(used)]
    for x, lab in enumerate(labels):
        blocks[lab].append(x)
    return _trusted_partition(tuple(map(tuple, blocks)), tuple(labels))
