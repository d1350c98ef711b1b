"""Ground-set transformations, set partitions, and their text formats.

Everything lives on the 0-based ground set {0, ..., n-1}.  A transformation
is written as its image table, "1,0,2" meaning 0->1, 1->0, 2->2.  A set
partition is written block by block, "0,1|2"; block order in the input is
irrelevant, the canonical form sorts blocks by their minimum element and
points inside a block ascending.

Composition is left to right everywhere in this package: x(fg) = (xf)g,
so ``compose(f, g)`` applies f first.

Each type is checked in one place, and both of its routes call that check:
``_image_table`` for maps and ``_canonical_blocks`` for partitions.  The
public constructors call it on the objects they are given; the parsers turn
text into ints and call the same check.  So a fault reads the same from the
library and from the CLI: every point and image must be an ``int`` (``bool``
is rejected) in range, every block nonempty, every point present once.
Three private builders skip that work on tables that are valid by
construction, each on a path whose cost a workload measures:

* ``_trusted_transformation``: the maps of the brute-force scan,
  composites, inverses and the tables the parsers have checked;
* ``_trusted_partition``: the partitions that ``iter_partitions`` yields
  and that ``parse_partition`` has checked;
* ``_trusted_character``: the character that ``membership.character``
  reads from a partition's block table.

They produce instances of exactly these classes, so equality, order and
hashing are the same whichever way an object was made.  Everything else,
profiles included, goes through its validating constructor.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator


DEFAULT_GUARD = 10**7

# entries kept by each bounded cache: the profiles ``profile_of`` keeps by
# block sizes and ``count`` keeps by text, each with its memo of counts and
# guard charges, the texts ``count`` keeps by its arguments, and
# ``enumeration``'s kernels; n <= 14 has only 135 profiles
CACHE_SIZE = 1024

# ints of fewer bits than this have fewer decimal digits than the smallest
# limit CPython accepts for str(), since 2**3 < 10, so str() writes them all
_STR_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 640)

# the int-to-str digit limit in force (0 when it is off, and before Python
# 3.11, which has none), and the default that stands in for it when off
_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_DEFAULT_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)


class ParseError(ValueError):
    """Malformed partition or transformation text."""


class GuardExceededError(RuntimeError):
    """An operation would exceed the configured work guard."""

    def __init__(self, what: str, required: int, guard: int):
        super().__init__(
            f"{what} needs {_int_text(required)} items, exceeds guard {_int_text(guard)}; "
            f"raise the guard or use a counting formula instead"
        )
        self.what = what
        self.required = required
        self.guard = guard

    def __reduce__(self):
        # rebuilt from its fields, so that it pickles, as from a worker process
        return type(self), (self.what, self.required, self.guard)


def check_guard(required: int, guard: int, what: str) -> None:
    if guard < 1:
        raise ValueError("guard must be positive")
    if required > guard:
        raise GuardExceededError(what, required, guard)


@dataclass(frozen=True, order=True, slots=True)
class Transformation:
    """A total selfmap on {0, ..., n-1} stored as its image table.

    ``images[x]`` is the image of point x.  Instances are immutable and
    ordered by their image tables (lexicographically).  The table is the
    only slot: instances have no ``__dict__`` and cannot be weakly
    referenced.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", _image_table(self.images))

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
        images = self.images
        return len(set(images)) == len(images)

    def inverse(self) -> "Transformation":
        if not self.is_bijection():
            raise ValueError("only a bijection has an inverse")
        inv = [0] * self.n
        for x, y in enumerate(self.images):
            inv[y] = x
        return _trusted_transformation(tuple(inv))

    def image_set(self) -> frozenset[int]:
        return frozenset(self.images)


@dataclass(frozen=True, slots=True)
class SetPartition:
    """An ordered set partition of {0, ..., n-1} in canonical form.

    Blocks are pairwise disjoint, nonempty, and cover the ground set.  The
    constructor accepts blocks in any order and canonicalizes: blocks sorted
    ascending by minimum element, points inside each block ascending.
    ``block_index`` maps each point to the index of its block; it is set
    on construction and takes no part in equality, hashing or repr.  The
    two tables are the only slots: instances have no ``__dict__`` and
    cannot be weakly referenced.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks, block_index = _canonical_blocks(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_index", block_index)

    @property
    def n(self) -> int:
        return len(self.block_index)

    @property
    def m(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

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

    ``entries`` is a tuple of (size, multiplicity) pairs of ``int``; the
    constructor sorts by size and rejects repeated sizes.

    Each profile also owns a memo, a dict in which ``counting`` keeps the
    profile's counts and guard charges; it starts empty and lives as long
    as the profile.  Sharing is decided by the caches that hand out
    profiles: ``profile_of`` keeps one profile per block sizes, so a sweep
    counts each profile once.  The memo is not a field: it takes no part
    in equality, hashing or repr, and a pickled or copied profile is
    rebuilt from its entries with an empty memo.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            given = tuple(self.entries)
        except TypeError:
            raise ValueError(
                f"profile entries {self.entries!r} are not a sequence of "
                f"(size, multiplicity) pairs"
            ) from None
        entries = []
        for entry in given:
            try:
                s, c = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"profile entry {entry!r} is not a (size, multiplicity) pair"
                ) from None
            entries.append((s, c))
        for s, c in entries:
            if type(s) is not int:
                raise ValueError(f"block size {s!r} is not an int")
            if type(c) is not int:
                raise ValueError(f"multiplicity {c!r} of size {s} is not an int")
        entries = tuple(sorted(entries))
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
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        return PartitionProfile, (self.entries,)

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


@dataclass(frozen=True, order=True, slots=True)
class CharacterMap:
    """The selfmap induced on block indices by a block-preserving map.

    The table is the only slot: instances have no ``__dict__`` and cannot
    be weakly referenced.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        m = len(images)
        if m == 0:
            raise ValueError("character map needs at least one block")
        for i, j in enumerate(images):
            if type(j) is not int:
                raise ValueError(f"block image {j!r} of block {i} is not an int")
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
        images = self.images
        return len(set(images)) == len(images)

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


def _image_table(images) -> tuple[int, ...]:
    """``images`` as a tuple, once it is a valid image table; else ``ValueError``.

    The table must be nonempty and hold ``int`` images (``bool`` is
    rejected) in 0..n-1, where n is its length.  This is the one check of a
    map: ``Transformation`` and ``parse_transformation`` both call it.
    """
    images = tuple(images)
    n = len(images)
    if n == 0:
        raise ValueError("transformation needs a nonempty ground set")
    for x, y in enumerate(images):
        if type(y) is not int:
            raise ValueError(f"image {y!r} of point {x} is not an int")
        if not 0 <= y < n:
            raise ValueError(f"image {y} out of range for n={n}")
    return images


def _canonical_blocks(
    blocks, n: int | None = None
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The canonical blocks of a valid partition and its point -> block table.

    Raises ``ValueError`` unless the blocks are nonempty and hold ``int``
    points (``bool`` is rejected) that cover 0..n-1, each once.  With
    ``n=None`` the ground set runs up to the largest point.  This is the
    one check of a partition: ``SetPartition`` and ``parse_partition``
    both call it.
    """
    blocks = tuple(map(tuple, blocks))
    if not blocks:
        raise ValueError("partition needs a nonempty ground set")
    for block in blocks:
        if not block:
            raise ValueError("empty block")
        for x in block:
            if type(x) is not int:
                raise ValueError(f"point {x!r} is not an int")
    # disjoint nonempty blocks sort by their minima once each block is sorted
    canonical = tuple(sorted(map(tuple, map(sorted, blocks))))
    if n is None:
        n = max([block[-1] for block in canonical]) + 1
    # the table holds one slot per point given, plus one: a larger n or point
    # could only leave more slots empty, so the table never outgrows the input
    slots = min(n, sum(map(len, canonical)) + 1)
    block_index = [-1] * slots
    for i, block in enumerate(canonical):
        for x in block:
            if not 0 <= x < slots:
                if 0 <= x < n:
                    continue  # in range, past the table: a smaller point is missing
                raise ValueError(f"point {x} out of range for n={n}")
            if block_index[x] >= 0:
                raise ValueError(f"duplicate point {x}")
            block_index[x] = i
    if -1 in block_index:
        raise ValueError(f"missing point {block_index.index(-1)}")
    return canonical, tuple(block_index)


_new = object.__new__
# store tables into a bare ``Transformation``, ``SetPartition`` or
# ``CharacterMap``, past the frozen ``__setattr__``; the generators build
# their maps with the first too
_store_images = Transformation.images.__set__
_store_blocks = SetPartition.blocks.__set__
_store_block_index = SetPartition.block_index.__set__
_store_character = CharacterMap.images.__set__


def _trusted_transformation(images: tuple[int, ...]) -> Transformation:
    """A ``Transformation`` around a table known to be a nonempty in-range tuple of ints.

    Skips validation; callers vouch for the table.
    """
    f = _new(Transformation)
    _store_images(f, images)
    return f


def _trusted_partition(
    blocks: tuple[tuple[int, ...], ...], block_index: tuple[int, ...]
) -> SetPartition:
    """A ``SetPartition`` around canonical blocks and their point -> block table.

    Skips validation and canonicalization; callers vouch for both.
    """
    p = _new(SetPartition)
    _store_blocks(p, blocks)
    _store_block_index(p, block_index)
    return p


def _trusted_character(images: tuple[int, ...]) -> CharacterMap:
    """A ``CharacterMap`` around a table known to be a nonempty in-range tuple.

    Skips validation; callers vouch for the table.
    """
    c = _new(CharacterMap)
    _store_character(c, images)
    return c


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Left-to-right composition: x(fg) = (xf)g."""
    if f.n != g.n:
        raise ValueError(f"ground sets differ: {f.n} != {g.n}")
    return _trusted_transformation(tuple(g.images[y] for y in f.images))


def profile_of(p: SetPartition) -> PartitionProfile:
    """Block sizes of ``p`` with multiplicities.

    Partitions with the same block sizes get the same (immutable) profile
    object, and so share its memo, while the last ``CACHE_SIZE`` distinct
    block sizes are kept.
    """
    return _profile_of_sizes(tuple(sorted(map(len, p.blocks))))


@lru_cache(maxsize=CACHE_SIZE)
def _profile_of_sizes(sizes: tuple[int, ...]) -> PartitionProfile:
    # the sizes ascend, so the counter lists them in ascending order
    return PartitionProfile(tuple(Counter(sizes).items()))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated ints of ``text``; blank text holds none."""
    tokens = text.split(",")
    try:
        return tuple(map(int, tokens))
    except ValueError:
        if not text.strip():
            return ()
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise ParseError(f"invalid {what} {tok.strip()!r}") from None


def parse_transformation(text: str, n: int | None = None) -> Transformation:
    """Parse "1,0,2" into a transformation on n points.

    With ``n=None`` the ground set has one point per image given.
    """
    images = _parse_ints(text, "image")
    if n is not None and len(images) != n:
        raise ParseError(f"expected {n} images, got {len(images)}")
    try:
        return _trusted_transformation(_image_table(images))
    except ValueError as exc:
        raise ParseError(*exc.args) from None


def parse_partition(text: str, n: int | None = None) -> SetPartition:
    """Parse "0,1|2" into a canonical set partition of n points.

    With ``n=None`` the ground set runs up to the largest point given.
    """
    blocks = [_parse_ints(chunk, "point") for chunk in text.split("|")]
    try:
        return _trusted_partition(*_canonical_blocks(blocks, n))
    except ValueError as exc:
        raise ParseError(*exc.args) from None


def format_transformation(f: Transformation) -> str:
    return ",".join(map(str, f.images))


def format_partition(p: SetPartition) -> str:
    return "|".join(",".join(str(x) for x in b) for b in p.blocks)


def _str_writes(value: int) -> bool:
    """Whether ``_int_text`` hands ``value`` to ``str()``: whether ``str()``
    writes it under the current digit limit and the default limit both.
    Past the default limit ``str()``, quadratic in the length, is the slower
    writer, so a raised or lifted limit does not move the hand-over.

    ``top`` is log2(10**limit) rounded down, or one less, so an int of at
    most ``top`` bits is short enough, one of more than ``top + 2`` bits
    too long, and a power of ten settles the two lengths between.
    """
    limit = min(_str_digits() or _DEFAULT_STR_DIGITS, _DEFAULT_STR_DIGITS)
    bits = value.bit_length()
    top = limit * 3321928094887 // 10**12  # log2(10) = 3.3219280948873...
    return bits <= top or (bits <= top + 2 and abs(value) < 10**limit)


def _int_text(value: int) -> str:
    """``str(value)`` for an int of any length, in less than quadratic time.

    Every integer the CLI prints is written here.  ``str()`` writes every
    int it accepts under ``sys.get_int_max_str_digits()``, up to the default
    4300 digits (see ``_str_writes``).  It refuses longer ones because its
    conversion takes time quadratic in the length.  A longer int is split
    at a power of two, high * 2**w + low, each half written the same way
    down to ``_STR_BITS`` bits, and the halves are joined in ``decimal``,
    where exact products of large numbers are fast and a whole number
    prints in linear time.  The limit is never lifted: it is one setting
    for the whole process.
    """
    if _str_writes(value):
        return str(value)
    import decimal  # here, so that a call printing short ints never loads it

    powers: dict[int, decimal.Decimal] = {}  # w -> 2**w

    def power(w: int) -> decimal.Decimal:
        got = powers.get(w)
        if got is None:
            half = w >> 1
            got = decimal.Decimal(1 << w) if w < _STR_BITS else power(half) * power(w - half)
            powers[w] = got
        return got

    def convert(n: int, w: int) -> decimal.Decimal:  # 0 <= n < 2**w
        if w < _STR_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        high = n >> half
        return convert(high, w - half) * power(half) + convert(n - (high << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # a rounded step raises, never prints
        text = str(convert(abs(value), value.bit_length()))
    return "-" + text if value < 0 else text


def iter_partitions(n: int, block_count: int | None = None) -> Iterator[SetPartition]:
    """All set partitions of {0, ..., n-1} in canonical order.

    Canonical order is lexicographic on restricted-growth strings (point i
    gets the index of its block).  With ``block_count`` set, only partitions
    with exactly that many blocks are produced, in the same order.  ``n``
    and ``block_count`` must be ``int`` (``bool`` is rejected).

    The walk is depth first over the prefixes of those strings, on an
    explicit stack of ``(next point, labels, blocks)``.  A child adds one
    point to its parent's tuples, either to block j or as a new block, so
    the blocks stay canonical and the labels are their ``block_index``.
    Children are pushed in reverse so that they pop in canonical order;
    those of the last point are yielded without a push.  A prefix is cut
    when it could not end with ``block_count`` blocks.
    """
    if type(n) is not int:
        raise ValueError(f"ground-set size {n!r} is not an int")
    if block_count is not None and type(block_count) is not int:
        raise ValueError(f"block count {block_count!r} is not an int")
    if n < 1:
        raise ValueError("ground-set size must be positive")
    if block_count is not None and not 1 <= block_count <= n:
        return
    # a prefix may open a block while it has fewer than most_blocks, and may
    # put a point into an old one while the points left can still reach
    # fewest_blocks
    most_blocks = fewest_blocks = block_count
    if block_count is None:
        most_blocks, fewest_blocks = n, 1
    last = n - 1
    stack = [(0, (), ())]
    push = stack.append
    pop = stack.pop
    while stack:
        i, labels, blocks = pop()
        used = len(blocks)
        if i == last:
            if used >= fewest_blocks:
                for j in range(used):
                    yield _trusted_partition(
                        blocks[:j] + (blocks[j] + (i,),) + blocks[j + 1 :], labels + (j,)
                    )
            if used < most_blocks:
                yield _trusted_partition(blocks + ((i,),), labels + (used,))
            continue
        if used < most_blocks:
            push((i + 1, labels + (used,), blocks + ((i,),)))
        if used + last - i >= fewest_blocks:
            for j in range(used - 1, -1, -1):
                push((i + 1, labels + (j,), blocks[:j] + (blocks[j] + (i,),) + blocks[j + 1 :]))
