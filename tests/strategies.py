"""Shared hypothesis strategies for partitions and transformations, and partition text."""

from hypothesis import strategies as st

from partmaps.core import SetPartition, Transformation


@st.composite
def partitions(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    relabel = {}
    blocks = []
    for x, lab in enumerate(labels):
        if lab not in relabel:
            relabel[lab] = len(blocks)
            blocks.append([])
        blocks[relabel[lab]].append(x)
    return SetPartition(tuple(tuple(b) for b in blocks))


@st.composite
def transformations(draw, n=None, max_n=7):
    if n is None:
        n = draw(st.integers(1, max_n))
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return Transformation(tuple(images))


@st.composite
def permutations(draw, n=None, max_n=8):
    if n is None:
        n = draw(st.integers(1, max_n))
    images = draw(st.permutations(list(range(n))))
    return Transformation(tuple(images))


@st.composite
def partition_with_map(draw, max_n=7):
    p = draw(partitions(max_n))
    f = draw(transformations(n=p.n))
    return p, f


@st.composite
def preserving_map(draw, p):
    """A map that sends every block of p into a single block."""
    images = [0] * p.n
    for block in p.blocks:
        target = p.blocks[draw(st.integers(0, p.m - 1))]
        for x in block:
            images[x] = draw(st.sampled_from(target))
    return Transformation(tuple(images))


@st.composite
def partition_with_preserving_map(draw, max_n=7):
    p = draw(partitions(max_n))
    return p, draw(preserving_map(p))


@st.composite
def partition_with_preserving_pair(draw, max_n=6):
    p = draw(partitions(max_n))
    return p, draw(preserving_map(p)), draw(preserving_map(p))


def shuffled_text(blocks, rng):
    """Partition text with the blocks, and the points in each block, in random order."""
    blocks = [rng.sample(b, len(b)) for b in blocks]
    rng.shuffle(blocks)
    return "|".join(",".join(map(str, b)) for b in blocks)
