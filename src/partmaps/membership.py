"""Membership predicates for transformations relative to a set partition.

Three nested families of maps are recognized here.  A map *preserves* the
partition when every block lands inside a single block.  Among those, the
maps whose image meets every block form a subsemigroup, and the invertible
elements of the preserving maps form its group of units.  Several of the
predicates below decide the same set through deliberately independent
routes (definition, induced block-index map, topology, pair relation) so
they can be cross-checked against each other.

Predicates whose very statement requires a preserving map (the character
based ones) raise :class:`NotPreservingError` instead of returning False,
so that equivalence checks compare them only on their common domain.
"""

from __future__ import annotations

from .core import (
    CharacterMap,
    SetPartition,
    Transformation,
    _trusted_character,
)


class NotPreservingError(ValueError):
    """The map does not send every block into a single block."""


class NotInSigmaError(ValueError):
    """The map is outside the image-meets-every-block subsemigroup."""


def _require_same_n(f: Transformation, p: SetPartition) -> None:
    """Raise the one error text for a map and a partition on different ground sets.

    The predicates test the two sizes inline and call this only when they
    differ, so the common case pays no extra call.
    """
    if len(f.images) != len(p.block_index):
        raise ValueError(f"ground sets differ: map on {f.n} points, partition of {p.n}")


def preserves(f: Transformation, p: SetPartition) -> bool:
    """True when the image of every block is contained in a single block."""
    idx = p.block_index
    img = f.images
    if len(img) != len(idx):
        _require_same_n(f, p)
    for block in p.blocks:
        j = idx[img[block[0]]]
        for x in block:
            if idx[img[x]] != j:
                return False
    return True


def character(f: Transformation, p: SetPartition) -> CharacterMap:
    """The induced map on block indices: i -> j when block i lands in block j.

    Every entry is a block index read from ``p``, so the result is built
    without validating it again.
    """
    idx = p.block_index
    img = f.images
    if len(img) != len(idx):
        _require_same_n(f, p)
    out = []
    for i, block in enumerate(p.blocks):
        j = idx[img[block[0]]]
        for x in block:
            jx = idx[img[x]]
            if jx != j:
                raise NotPreservingError(
                    f"block {i} ({','.join(map(str, block))}) splits across "
                    f"blocks {min(j, jx)} and {max(j, jx)}"
                )
        out.append(j)
    return _trusted_character(tuple(out))


def block_map_family(f: Transformation, p: SetPartition) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The restrictions of f to the blocks, each with the block it maps into.

    Entry i is ``(chi(i), images of block i)``, in block order: f sends
    block i into block chi(i), and the images are listed in the order of
    the block's points.  Raises :class:`NotPreservingError` when f does not
    preserve p.
    """
    get = f.images.__getitem__
    return tuple(
        (j, tuple(map(get, block))) for j, block in zip(character(f, p).images, p.blocks)
    )


def in_sigma(f: Transformation, p: SetPartition) -> bool:
    """True when f preserves p and the image of f meets every block."""
    if not preserves(f, p):
        return False
    idx = p.block_index
    hit = {idx[y] for y in f.images}
    return len(hit) == p.m


def sigma_via_character(f: Transformation, p: SetPartition) -> bool:
    """Sigma membership via surjectivity of the induced block-index map."""
    return character(f, p).is_surjective()


def sigma_via_topology(f: Transformation, p: SetPartition) -> bool:
    """Sigma membership via the topology with the blocks as a basis.

    Checks that the preimage of every block is a nonempty union of blocks.
    Open sets are exactly the unions of blocks and preimages commute with
    unions, so checking the basis decides all open sets at once.  The
    preimages of all blocks are gathered in one pass over the image table.
    """
    idx = p.block_index
    img = f.images
    if len(img) != len(idx):
        _require_same_n(f, p)
    blocks = p.blocks
    pre: list[set[int]] = [set() for _ in blocks]
    for x, y in enumerate(img):
        pre[idx[y]].add(x)
    for pre_j in pre:
        if not pre_j:
            return False
        for x in pre_j:
            if not pre_j.issuperset(blocks[idx[x]]):
                return False
    return True


def is_e_star_preserving(f: Transformation, p: SetPartition) -> bool:
    """True when x, y share a block exactly if their images share a block.

    Implemented as the literal check over all point pairs, independent of
    the character map.
    """
    idx = p.block_index
    img = f.images
    n = len(img)
    if n != len(idx):
        _require_same_n(f, p)
    for x in range(n):
        for y in range(x + 1, n):
            if (idx[x] == idx[y]) != (idx[img[x]] == idx[img[y]]):
                return False
    return True


def character_injective(f: Transformation, p: SetPartition) -> bool:
    """True when the induced block-index map has no repeated values."""
    return character(f, p).is_injective()


def in_units(f: Transformation, p: SetPartition) -> bool:
    """True when f is invertible within the preserving maps.

    Equivalent criteria: every block restriction is a bijection onto its
    codomain block and the induced block-index map is a bijection, or
    directly, f is a permutation and both f and its inverse preserve p.
    """
    if len(f.images) != len(p.block_index):
        _require_same_n(f, p)
    if not f.is_bijection():
        return False
    try:
        return character(f, p).is_bijective()
    except NotPreservingError:
        return False


def is_idempotent(f: Transformation) -> bool:
    """True when f composed with itself equals f.

    That holds exactly when every image is a fixed point, which is checked
    on the image table without building the composite.
    """
    img = f.images
    for y in img:
        if img[y] != y:
            return False
    return True


def sigma_idempotent_via_blocks(f: Transformation, p: SetPartition) -> bool:
    """Idempotence of a Sigma member, decided blockwise.

    True exactly when every block restriction is an idempotent selfmap of
    its own block, read from the image table: each point x of block i has
    its image in block i, and that image is fixed.  Raises
    :class:`NotInSigmaError` when f is not in Sigma.
    """
    if not in_sigma(f, p):
        raise NotInSigmaError(
            "map is not in Sigma(X, P): it must preserve the partition and "
            "its image must meet every block"
        )
    idx = p.block_index
    img = f.images
    for i, block in enumerate(p.blocks):
        for x in block:
            y = img[x]
            if idx[y] != i or img[y] != y:
                return False
    return True


# every set the package counts or enumerates, in CLI order: name -> (base,
# test, label).  A set is the members of ``base`` (every map when None) that
# pass ``test(f, p)``; ``label`` names what its count formula counts in guard
# texts, None without one.  Each test looks its predicate up when called, so
# a wrapper put on the module name (a tracer's, say) sees the call
SETS = {
    "T": (None, lambda f, p: preserves(f, p), "preserving maps"),
    "Sigma": ("T", lambda f, p: in_sigma(f, p), "Sigma members"),
    "S": ("T", lambda f, p: in_units(f, p), "units"),
    "E-Sigma": ("Sigma", lambda f, p: is_idempotent(f), "Sigma idempotents"),
    "E-T": ("T", lambda f, p: is_idempotent(f), None),
}
