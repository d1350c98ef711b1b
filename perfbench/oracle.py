"""Independent reference routes for the benchmark's expected answers.

Nothing here imports partmaps.  Maps are raw image tuples and partitions are
tuples of block tuples.  Every answer is reached by a different route from
the package's: membership by literal definitions, member sequences by a
point-by-point depth-first search checked at the leaf, |Sigma| and |S| as
permanents or per-block products instead of per-profile formulas, and the
harness case counts by re-deriving each law's loop from brute-force lists.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial

SETS = ("T", "Sigma", "S", "E-Sigma", "E-T")


# -- partitions and text ------------------------------------------------------


def canonical(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partition_text(blocks) -> str:
    return "|".join(",".join(str(x) for x in b) for b in canonical(blocks))


def map_text(images) -> str:
    return ",".join(str(y) for y in images)


def all_partitions(n: int):
    """Set partitions of {0..n-1}, canonical, by inserting points one by one."""
    parts = [()]
    for x in range(n):
        grown = []
        for part in parts:
            for i in range(len(part)):
                grown.append(part[:i] + (part[i] + (x,),) + part[i + 1 :])
            grown.append(part + ((x,),))
        parts = grown
    return sorted(canonical(p) for p in parts)


def sizes_of(blocks) -> tuple[int, ...]:
    return tuple(len(b) for b in canonical(blocks))


def profile_text(sizes) -> str:
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return ",".join(f"{s}:{c}" for s, c in sorted(counts.items()))


def expand_profile(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for chunk in text.split(","):
        size, mult = chunk.split(":")
        out.extend([int(size)] * int(mult))
    return tuple(out)


# -- membership by definition -------------------------------------------------


def lookup(blocks, n: int) -> list[int]:
    table = [0] * n
    for i, block in enumerate(canonical(blocks)):
        for x in block:
            table[x] = i
    return table


def preserves(images, blocks, table) -> bool:
    return all(len({table[images[x]] for x in b}) == 1 for b in blocks)


def in_sigma(images, blocks, table) -> bool:
    return preserves(images, blocks, table) and len({table[y] for y in images}) == len(blocks)


def e_star(images, table) -> bool:
    n = len(images)
    return all(
        (table[x] == table[y]) == (table[images[x]] == table[images[y]])
        for x in range(n)
        for y in range(n)
    )


def in_units(images, blocks, table) -> bool:
    if len(set(images)) != len(images):
        return False
    inverse = [0] * len(images)
    for x, y in enumerate(images):
        inverse[y] = x
    return preserves(images, blocks, table) and preserves(inverse, blocks, table)


def is_idempotent(images) -> bool:
    return all(images[y] == y for y in images)


def blockwise_idempotent(images, blocks) -> bool:
    """Every block is mapped into itself by an idempotent restriction."""
    for b in blocks:
        inside = set(b)
        if any(images[x] not in inside or images[images[x]] != images[x] for x in b):
            return False
    return True


def character(images, blocks, table) -> tuple[int, ...]:
    return tuple(table[images[b[0]]] for b in blocks)


def member(kind: str, images, blocks, table) -> bool:
    if kind == "T":
        return preserves(images, blocks, table)
    if kind == "Sigma":
        return in_sigma(images, blocks, table)
    if kind == "S":
        return in_units(images, blocks, table)
    if kind == "E-Sigma":
        return in_sigma(images, blocks, table) and is_idempotent(images)
    if kind == "E-T":
        return preserves(images, blocks, table) and is_idempotent(images)
    raise ValueError(kind)


# -- members in lexicographic order ------------------------------------------


def lex_members(blocks, kind: str, limit: int | None = None, reverse: bool = False):
    """Members of ``kind`` in (reverse) lexicographic order of image tables.

    Points are fixed left to right.  A prefix is cut only when no member can
    extend it: two points of one block must land in one block, and for the
    sets whose character is a bijection two blocks may not share a codomain
    block (units also need distinct images).  Every leaf is checked in full
    with :func:`member`.
    """
    blocks = canonical(blocks)
    n = sum(len(b) for b in blocks)
    table = lookup(blocks, n)
    bijective_character = kind in ("Sigma", "S", "E-Sigma")
    injective = kind == "S"
    order = range(n - 1, -1, -1) if reverse else range(n)
    images = [0] * n
    target = [-1] * len(blocks)  # codomain block of each domain block
    owner = [-1] * len(blocks)  # domain block that took each codomain block
    used = [False] * n
    found = 0

    def rec(x):
        nonlocal found
        if x == n:
            if member(kind, images, blocks, table):
                found += 1
                yield tuple(images)
            return
        b = table[x]
        fresh = target[b] == -1
        for v in order:
            j = table[v]
            if not fresh and j != target[b]:
                continue
            if fresh and bijective_character and owner[j] != -1:
                continue
            if injective and used[v]:
                continue
            images[x] = v
            used[v] = injective
            if fresh:
                target[b], owner[j] = j, b
            yield from rec(x + 1)
            if fresh:
                target[b], owner[j] = -1, -1
            used[v] = False
            if limit is not None and found >= limit:
                return

    return list(rec(0))


def brute_census(blocks):
    """All members of every set, by filtering all n**n image tables."""
    blocks = canonical(blocks)
    n = sum(len(b) for b in blocks)
    table = lookup(blocks, n)
    out = {kind: [] for kind in SETS}
    for images in itertools.product(range(n), repeat=n):
        for kind in SETS:
            if member(kind, images, blocks, table):
                out[kind].append(images)
    return out


# -- counts by routes other than the package's formulas ------------------------


def permanent(matrix) -> int:
    """Permanent by dynamic programming over the set of used columns."""
    m = len(matrix)
    ways = {0: 1}
    for row in matrix:
        step: dict[int, int] = {}
        for mask, value in ways.items():
            for j in range(m):
                if row[j] and not mask >> j & 1:
                    key = mask | 1 << j
                    step[key] = step.get(key, 0) + value * row[j]
        ways = step
    return ways.get((1 << m) - 1, 0)


def count_t(sizes) -> int:
    """Product over blocks of the restrictions each block can take."""
    per_size = {s: sum(t**s for t in sizes) for s in set(sizes)}
    total = 1
    for s in sizes:
        total *= per_size[s]
    return total


def count_sigma(sizes) -> int:
    """|Sigma| is the permanent of A[i][j] = s_j ** s_i."""
    return permanent([[t**s for t in sizes] for s in sizes])


def count_units(sizes) -> int:
    """Per block: a bijection onto its target, and a target of equal size not
    yet taken by an earlier block of that size."""
    total = 1
    seen: dict[int, int] = {}
    for s in sizes:
        seen[s] = seen.get(s, 0) + 1
        total *= factorial(s) * seen[s]
    return total


@cache
def idempotents_on(size: int) -> int:
    """Idempotent selfmaps of a size-point set: a fixed set, the rest into it."""
    return sum(
        len(fixed) ** (size - len(fixed))
        for r in range(1, size + 1)
        for fixed in itertools.combinations(range(size), r)
    )


def count_sigma_idempotents(sizes) -> int:
    per_size = {s: idempotents_on(s) for s in set(sizes)}
    total = 1
    for s in sizes:
        total *= per_size[s]
    return total


def count(kind: str, sizes) -> int:
    return {
        "T": count_t,
        "Sigma": count_sigma,
        "S": count_units,
        "E-Sigma": count_sigma_idempotents,
    }[kind](sizes)


# -- cycle constructions, as documented for find-partition -----------------


def cycles_of(images) -> list[tuple[int, ...]]:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = images[x]
        out.append(tuple(orbit))
    return out


def smallest_divisor(n: int) -> int | None:
    return next((d for d in range(2, n) if n % d == 0), None)


def preserved_partition(images, m: int | None = None):
    """The partition find-partition documents for this map, or None.

    With ``m`` the map is a full cycle and the answer is the m-block
    progression along it when m divides n.
    """
    n = len(images)
    orbits = cycles_of(images)
    if m is not None:
        return None if n % m else canonical(orbits[0][i::m] for i in range(m))
    if len(set(images)) < n:
        if len(set(images)) == 1:
            return canonical([(0,), range(1, n)])
        classes: dict[int, list[int]] = {}
        for x, y in enumerate(images):
            classes.setdefault(y, []).append(x)
        return canonical(classes.values())
    if all(len(c) == 1 for c in orbits):
        return canonical([(0,), range(1, n)])
    if len(orbits) > 1:
        moving = next(c for c in orbits if len(c) > 1)
        return canonical([moving, [x for x in range(n) if x not in moving]])
    d = smallest_divisor(n)
    return None if d is None else canonical(orbits[0][i::d] for i in range(d))


# -- cases the verification harness reports, law by law ----------------------

PAIRWISE_N_MAX = 4


def harness_cases(n_max: int) -> dict[str, int]:
    """Case counts per law of ``verify --n-max n_max``, from brute-force lists."""
    pairwise = min(n_max, PAIRWISE_N_MAX)
    cases = dict.fromkeys(
        [
            "cardinality-formulas-vs-enumeration",
            "brute-vs-constructive-enumeration",
            "containments-and-idempotent-intersection",
            "sigma-four-way-equivalence",
            f"character-homomorphism(n<={pairwise})",
            "units-criterion-and-block-images",
            "sigma-idempotent-blockwise",
            "t-idempotent-character",
            "chi-quotient-classes",
            "full-cycle-divisibility",
            "full-cycle-units-uniform",
        ],
        0,
    )
    for n in range(1, n_max + 1):
        for blocks in all_partitions(n):
            lists = brute_census(blocks)
            table = lookup(blocks, n)
            m = len(blocks)
            cases["cardinality-formulas-vs-enumeration"] += 5
            cases["brute-vs-constructive-enumeration"] += 4
            cases["containments-and-idempotent-intersection"] += 3
            cases["sigma-four-way-equivalence"] += len(lists["T"])
            if n <= PAIRWISE_N_MAX:
                cases[f"character-homomorphism(n<={pairwise})"] += len(lists["T"]) ** 2
            cases["units-criterion-and-block-images"] += len(lists["T"]) + m * len(lists["S"])
            cases["sigma-idempotent-blockwise"] += len(lists["Sigma"]) + len(lists["E-Sigma"])
            cases["t-idempotent-character"] += sum(
                1 + len(set(character(f, blocks, table))) for f in lists["E-T"]
            )
            cases["chi-quotient-classes"] += 2 + 2 * factorial(m)
            cases["full-cycle-units-uniform"] += 2 * sum(
                1 for f in lists["S"] if len(cycles_of(f)) == 1
            )
        if n >= 3:
            cases["full-cycle-divisibility"] += 2 * (n - 2) + 1
    return cases


def harness_members(n_max: int) -> int:
    """Maps the harness enumerates: T by brute force, then T, Sigma, S and
    E(Sigma) constructively, for every partition up to n_max."""
    total = 0
    for n in range(1, n_max + 1):
        for blocks in all_partitions(n):
            sizes = sizes_of(blocks)
            total += 2 * count_t(sizes) + count_sigma(sizes)
            total += count_units(sizes) + count_sigma_idempotents(sizes)
    return total
