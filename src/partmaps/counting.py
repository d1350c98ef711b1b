"""Exact cardinality formulas for the semigroups attached to a partition.

All results are plain Python integers, so counts stay exact at any size.
The two Sigma counts are deliberately separate implementations: the direct
form sums over all block permutations one by one, the grouped form is a
dynamic programme over how many codomain blocks of each size class are
still free.  Keeping the direct form naive lets the two validate each
other.

Every count except the direct Sigma form depends only on the profile, so
each is computed by a private kernel on ``profile.entries`` and kept in the
memo the profile owns (see ``PartitionProfile``).  ``profile_of`` hands out
one profile per block sizes, so a sweep over all partitions of n evaluates
each formula once per profile, not once per partition, and a repeated count
costs one dict read.  The memo is the one home of a count, its guard
charges and the text that ``count`` prints, which it keeps in one record
per set with the charges that text was written under, so a repeated
``count`` reads one record and compares each charge with its guard.  Every
guard is checked on every call, so a kept answer never skips a guard.
Every caller counts a set through its row of :data:`COUNTS`, which also
holds the float bound on the count's size and the rounds of its kernel
that the guard charges, so a new count is a kernel and one row.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb, factorial, fsum, inf, lgamma, log, log10, prod

from .core import DEFAULT_GUARD, PartitionProfile, SetPartition, _int_text, check_guard

import itertools


def idempotent_count(n: int) -> int:
    """Number of idempotent selfmaps on an n-point set; ``n`` must be an
    ``int`` (``bool`` is rejected)."""
    if type(n) is not int:
        raise ValueError(f"ground-set size {n!r} is not an int")
    if n < 1:
        raise ValueError("ground-set size must be positive")
    return sum(comb(n, j) * j ** (n - j) for j in range(1, n + 1))


def count_t(profile: PartitionProfile) -> int:
    """Number of maps sending every block into a block.

    A map is assembled blockwise; a block of size s has ``sum(m_j * s_j**s)``
    possible restrictions, one term per choice of codomain block.
    """
    memo = profile._memo
    try:
        return memo["T"]
    except KeyError:
        count = memo["T"] = _count_t(profile.entries)
        return count


def _count_t(entries: tuple[tuple[int, int], ...]) -> int:
    return prod(
        sum(mult_j * size_j**size_i for size_j, mult_j in entries) ** mult_i
        for size_i, mult_i in entries
    )


def count_units(profile: PartitionProfile) -> int:
    """Size of the group of units: m_i! block arrangements per size class,
    times n_i! bijections per block."""
    memo = profile._memo
    try:
        return memo["S"]
    except KeyError:
        count = memo["S"] = _count_units(profile.entries)
        return count


def _count_units(entries: tuple[tuple[int, int], ...]) -> int:
    return prod(factorial(mult) * factorial(size) ** mult for size, mult in entries)


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


# the guard text of the grouped Sigma count's states, and their key in the memo
_SIGMA_STATES = "Sigma count states"


def count_sigma_grouped(profile: PartitionProfile, guard: int = DEFAULT_GUARD) -> int:
    """Sigma count by placing the domain blocks one at a time.

    A state records how many codomain blocks of each size class are still
    free.  Sending a block of size s to one of the ``left[b]`` free blocks
    of size n_b multiplies the weight by ``left[b] * n_b**s``; after every
    block is placed one state is left, whose weight is the permutation sum.
    Each of the ``prod(m_b + 1)`` states is visited once, and the guard
    counts them (less the start state).
    """
    memo = profile._memo
    try:
        states = memo[_SIGMA_STATES]
    except KeyError:
        states = memo[_SIGMA_STATES] = prod(mult + 1 for _, mult in profile.entries) - 1
    check_guard(states, guard, _SIGMA_STATES)
    try:
        return memo["Sigma"]
    except KeyError:
        count = memo["Sigma"] = _count_sigma_grouped(profile.entries)
        return count


def _count_sigma_grouped(entries: tuple[tuple[int, int], ...]) -> int:
    ways = {tuple(mult for _, mult in entries): 1}
    for size_a in (size for size, mult in entries for _ in range(mult)):
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
    memo = profile._memo
    try:
        return memo["E-Sigma"]
    except KeyError:
        count = memo["E-Sigma"] = _count_sigma_idempotents(profile.entries)
        return count


def _count_sigma_idempotents(entries: tuple[tuple[int, int], ...]) -> int:
    return prod(idempotent_count(size) ** mult for size, mult in entries)


def _log10_sum(logs: Iterable[float]) -> float:
    """log10 of a sum of positive terms, given the terms' log10s, in one pass."""
    top, scaled = -inf, 0.0  # the sum is scaled * 10**top
    for x in logs:
        if x > top:
            top, scaled = x, scaled * 10.0 ** (top - x) + 1.0
        else:
            scaled += 10.0 ** (x - top)
    return top + log10(scaled)


def _log10_factorial(k: int) -> float:
    return lgamma(k + 1) / log(10)


def _log10_t(entries: tuple[tuple[int, int], ...]) -> float:
    return fsum(
        mult_i * _log10_sum(log10(mult_j) + size_i * log10(size_j) for size_j, mult_j in entries)
        for size_i, mult_i in entries
    )


def _log10_units(entries: tuple[tuple[int, int], ...]) -> float:
    return fsum(_log10_factorial(mult) + mult * _log10_factorial(size) for size, mult in entries)


def _log10_sigma_idempotents(entries: tuple[tuple[int, int], ...]) -> float:
    return fsum(mult * _log10_idempotent_count(size) for size, mult in entries)


def _log10_idempotent_count(n: int) -> float:
    """log10 of :func:`idempotent_count`, from the terms a float can hold.

    The term of image size j is C(n, j) * j**(n - j).  Its log is concave
    in j, so the largest term is found by ternary search.  The sum runs
    over the terms within 20 decades of it, from the smallest j up, as
    ``_log10_sum`` would run over all n: every term further out lies
    below the rounding of the sum.  That is a few thousand terms, not n.
    """
    top_n = _log10_factorial(n)

    def term(j: int) -> float:
        return top_n - _log10_factorial(j) - _log10_factorial(n - j) + (n - j) * log10(j)

    lo, hi = 1, n
    while hi - lo > 2:
        third = (hi - lo) // 3
        if term(lo + third) < term(hi - third):
            lo += third + 1
        else:
            hi -= third
    peak = max(range(lo, hi + 1), key=term)
    floor = term(peak) - 20
    first = last = peak
    while first > 1 and term(first - 1) >= floor:
        first -= 1
    while last < n and term(last + 1) >= floor:
        last += 1
    return _log10_sum(map(term, range(first, last + 1)))


def _charge_count(profile: PartitionProfile, set_name: str, guard: int) -> tuple[int, str]:
    """Charge ``guard`` with a bound on the work of counting and writing a count.

    A set is charged the decimal digits of its row's ``log10`` bound, times
    its row's rounds when it has any: such a count takes rounds of exact
    arithmetic on numbers as long as the count.  The charge is kept in the
    profile's memo under its guard text, checked on every call, and
    returned as ``(required, guard text)``.
    """
    _, log10, rounds = COUNTS[set_name]
    what = f"{set_name} count digits" if rounds is None else f"{set_name} count digit rounds"
    memo = profile._memo
    try:
        required = memo[what]
    except KeyError:
        required = int(log10(profile.entries)) + 1
        if rounds is not None:
            required *= rounds(profile.entries)
        memo[what] = required
    check_guard(required, guard, what)
    return required, what


def _count_text(profile: PartitionProfile, set_name: str, guard: int) -> str:
    """The decimal text of a set's count, kept in the profile's memo.

    The memo keeps one record per set: the text and the guard charges of
    the call that wrote it, ``(required, guard text)`` in the order they are
    checked, the digit charge first and then, for Sigma, its count's
    states.  A kept record answers with no count call; every charge is
    still checked on every call, ``check_guard`` called only to refuse.
    The first call charges the digits, runs the row's count, writes the
    text and keeps the record.
    """
    memo = profile._memo
    key = set_name, "count text"
    try:
        text, charges = memo[key]
    except KeyError:
        charges = (_charge_count(profile, set_name, guard),)
        count = COUNTS[set_name][0](profile, guard)
        if set_name == "Sigma":  # the grouped count charged its own states
            charges += ((memo[_SIGMA_STATES], _SIGMA_STATES),)
        text = _int_text(count)
        memo[key] = text, charges
        return text
    for required, what in charges:
        if required > guard or guard < 1:
            check_guard(required, guard, what)
    return text


# name -> (count(profile, guard), log10(entries), rounds(entries) or None)
# for each set of membership.SETS with a label.  Each count looks its
# function up when called, so a wrapper put on the module name (a tracer's,
# say) sees the call.  ``log10`` is log10 of the count in floating point,
# built from the closed form without the integer, to a relative error far
# below 1e-9; Sigma, with no float form, has its base T's, which bounds it.
# ``rounds`` is there when the kernel makes rounds of exact arithmetic on
# numbers no longer than the count: the grouped Sigma count places m
# blocks, and E-Sigma's ``idempotent_count(s)`` sums s terms for each block
# size s, the largest size the most
COUNTS = {
    "T": (lambda profile, guard: count_t(profile), _log10_t, None),
    "Sigma": (
        lambda profile, guard: count_sigma_grouped(profile, guard),
        _log10_t,
        lambda entries: sum(mult for _, mult in entries),
    ),
    "S": (lambda profile, guard: count_units(profile), _log10_units, None),
    "E-Sigma": (
        lambda profile, guard: count_sigma_idempotents(profile),
        _log10_sigma_idempotents,
        lambda entries: entries[-1][0],
    ),
}
