"""Brute-force reference implementations used as independent test oracles.

Everything here works on raw image tuples and tuples of block tuples, and
deliberately shares no code with the package under test.
"""

import itertools
from math import comb, factorial


def lookup(blocks, n):
    table = [None] * n
    for i, block in enumerate(blocks):
        for x in block:
            table[x] = i
    return table


def o_preserves(images, blocks, table):
    return all(len({table[images[x]] for x in block}) == 1 for block in blocks)


def o_in_sigma(images, blocks, table):
    if not o_preserves(images, blocks, table):
        return False
    return len({table[y] for y in images}) == len(blocks)


def o_inverse(images):
    inv = [0] * len(images)
    for x, y in enumerate(images):
        inv[y] = x
    return tuple(inv)


def o_in_units(images, blocks, table):
    if len(set(images)) != len(images):
        return False
    return o_preserves(images, blocks, table) and o_preserves(
        o_inverse(images), blocks, table
    )


def o_is_idempotent(images):
    return all(images[images[x]] == images[x] for x in range(len(images)))


def o_character(images, blocks, table):
    return tuple(table[images[block[0]]] for block in blocks)


def all_maps(n):
    return itertools.product(range(n), repeat=n)


def census(blocks, n):
    """Sorted member lists (t, sigma, units, e_t, e_sigma) as image tuples."""
    table = lookup(blocks, n)
    t, sigma, units, e_t, e_sigma = [], [], [], [], []
    for images in all_maps(n):
        if not o_preserves(images, blocks, table):
            continue
        t.append(images)
        idem = o_is_idempotent(images)
        if idem:
            e_t.append(images)
        if o_in_sigma(images, blocks, table):
            sigma.append(images)
            if idem:
                e_sigma.append(images)
        if o_in_units(images, blocks, table):
            units.append(images)
    return t, sigma, units, e_t, e_sigma


def all_partitions(n):
    """All set partitions of {0..n-1} as canonical tuples of block tuples.

    Insertion recursion, a different algorithm from the package's
    restricted-growth generator.
    """

    def rec(k):
        if k == 0:
            yield ()
            return
        x = k - 1
        for smaller in rec(k - 1):
            for i in range(len(smaller)):
                yield smaller[:i] + (smaller[i] + (x,),) + smaller[i + 1 :]
            yield smaller + ((x,),)

    for part in rec(n):
        yield tuple(sorted(tuple(sorted(b)) for b in part))


def restricted_growth_strings(n, k=None):
    """Restricted-growth strings of length n in lexicographic order, lazily.

    With k set, only the strings with exactly k distinct labels.  Each
    string comes from the one before by a successor rule: raise the
    rightmost label that can still be raised, then fill the rest with the
    least completion.  This shares nothing with the package's prefix walk.
    """
    if n < 1 or (k is not None and not 1 <= k <= n):
        return
    fewest, most = (1, n) if k is None else (k, k)

    def least_completion(prefix):
        labels = max(prefix) + 1
        opened = max(fewest - labels, 0)
        zeros = n - len(prefix) - opened
        return prefix + [0] * zeros + list(range(labels, labels + opened))

    s = least_completion([0])
    while True:
        yield tuple(s)
        for pos in range(n - 1, 0, -1):
            labels = max(s[:pos]) + 1
            raised = [
                v
                for v in range(s[pos] + 1, labels + 1)
                if fewest <= max(labels, v + 1) + (n - pos - 1)
                and max(labels, v + 1) <= most
            ]
            if raised:
                s = least_completion(s[:pos] + [raised[0]])
                break
        else:
            return


def two_class_sigma(a, p, b, q):
    """|Sigma| for p blocks of size a and q of size b, summed over the number
    j of size-a blocks sent into size-b blocks (as many go the other way)."""
    return (
        factorial(p)
        * factorial(q)
        * sum(
            comb(p, j) * comb(q, j)
            * a ** (a * (p - j)) * b ** (a * j) * a ** (b * j) * b ** (b * (q - j))
            for j in range(min(p, q) + 1)
        )
    )
