"""Exact cardinality formulas for the semigroups attached to a partition.

All results are plain Python integers, so counts stay exact at any size.
The two Sigma counts are deliberately separate implementations: the direct
form sums over all block permutations one by one, the grouped form is a
dynamic programme over how many codomain blocks of each size class are
still free.  Keeping the direct form naive lets the two validate each
other.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .core import DEFAULT_GUARD, PartitionProfile, SetPartition, check_guard

import itertools


def idempotent_count(n: int) -> int:
    """Number of idempotent selfmaps on an n-point set."""
    if n < 1:
        raise ValueError("ground-set size must be positive")
    return sum(comb(n, j) * j ** (n - j) for j in range(1, n + 1))


def count_t(profile: PartitionProfile) -> int:
    """Number of maps sending every block into a block.

    A map is assembled blockwise; a block of size s has ``sum(m_j * s_j**s)``
    possible restrictions, one term per choice of codomain block.
    """
    entries = profile.entries
    return prod(
        sum(mult_j * size_j**size_i for size_j, mult_j in entries) ** mult_i
        for size_i, mult_i in entries
    )


def count_units(profile: PartitionProfile) -> int:
    """Size of the group of units: m_i! block arrangements per size class,
    times n_i! bijections per block."""
    return prod(factorial(mult) * factorial(size) ** mult for size, mult in profile.entries)


def count_sigma_direct(p: SetPartition, guard: int = DEFAULT_GUARD) -> int:
    """Sigma count as a sum over all block permutations.

    Each bijective assignment phi of codomain blocks contributes the product
    of |X_phi(i)| ** |X_i| over the blocks.  Kept naive on purpose; use
    :func:`count_sigma_grouped` for anything with many blocks.
    """
    sizes = p.sizes
    m = p.m
    check_guard(factorial(m), guard, "block permutations")
    total = 0
    for phi in itertools.permutations(range(m)):
        term = 1
        for i, j in enumerate(phi):
            term *= sizes[j] ** sizes[i]
        total += term
    return total


def count_sigma_grouped(profile: PartitionProfile, guard: int = DEFAULT_GUARD) -> int:
    """Sigma count by placing the domain blocks one at a time.

    A state records how many codomain blocks of each size class are still
    free.  Sending a block of size s to one of the ``left[b]`` free blocks
    of size n_b multiplies the weight by ``left[b] * n_b**s``; after every
    block is placed one state is left, whose weight is the permutation sum.
    Each of the ``prod(m_b + 1)`` states is visited once, and the guard
    counts them (less the start state).
    """
    entries = profile.entries
    check_guard(prod(mult + 1 for _, mult in entries) - 1, guard, "Sigma count states")
    ways = {tuple(mult for _, mult in entries): 1}
    for size_a in profile.block_sizes():
        step: dict[tuple[int, ...], int] = {}
        for left, w in ways.items():
            for b, (size_b, _) in enumerate(entries):
                if left[b]:
                    key = left[:b] + (left[b] - 1,) + left[b + 1 :]
                    step[key] = step.get(key, 0) + w * left[b] * size_b**size_a
        ways = step
    (total,) = ways.values()
    return total


def count_sigma_idempotents(profile: PartitionProfile) -> int:
    """Number of idempotents among the maps whose image meets every block.

    Such idempotents restrict to an independent idempotent selfmap on each
    block, so the count is a product of per-block idempotent counts.
    """
    return prod(idempotent_count(size) ** mult for size, mult in profile.entries)
