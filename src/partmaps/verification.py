"""Cross-validation harness: formulas versus enumerations versus predicates.

Runs every structural law the package relies on over all set partitions of
all ground sets up to a requested size, using brute-force enumeration as
the reference on one side of each comparison.  The laws are one table,
:data:`LAWS`, in report order: each row is a name and a function called
once per partition as ``law(tally, p, data, guard)``, and a law that
covers only some partitions returns early on the others, so a new law is
one new row.  Each law gets one named result with a pass flag, a case
count and its own wall time in seconds, so a caller can render a
pass/fail matrix; the run also reports the time spent building the shared
brute-force census.  Most laws check their cases in bulk: the pass flags
of many cases come from C-level ``map`` calls over the census lists and
are counted at once.  Failure text is built only for failing cases, and
only for the first three of each law.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import factorial
from operator import attrgetter, eq, itemgetter
from time import perf_counter
from typing import Callable, Iterable

from .core import (
    DEFAULT_GUARD,
    CharacterMap,
    SetPartition,
    Transformation,
    check_guard,
    iter_partitions,
    profile_of,
)
from .counting import (
    count_sigma_direct,
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
)
from .cycles import (
    _smallest_proper_divisor,
    decompose,
    find_preserved_partition,
    preserved_m_partition_exists,
    search_unit_m_partition,
)
from .enumeration import chi_classes, iter_idempotents, iter_sigma, iter_t, iter_units
from .membership import (
    character,
    in_sigma,
    in_units,
    is_e_star_preserving,
    is_idempotent,
    preserves,
    sigma_idempotent_via_blocks,
    sigma_via_character,
    sigma_via_topology,
)

# all-pairs homomorphism checking is quadratic in |T|, so it is capped
# at a smaller ground set than the rest of the harness
PAIRWISE_N_MAX = 4


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""
    seconds: float = 0.0


class VerificationRun(list):
    """The results of :func:`run_verification`, one per law in report order.

    ``census_seconds`` is the time spent building the brute-force census
    that every law reads; each result's ``seconds`` is its law's own time.
    """

    census_seconds: float = 0.0


@dataclass
class _Tally:
    name: str
    cases: int = 0
    failures: int = 0
    seconds: float = 0.0
    examples: list[str] = field(default_factory=list)

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        """Count one case; ``describe`` builds its text only if it is kept.

        ``describe`` runs before ``check`` returns, so a lambda closing over
        loop variables sees the values of the failing case.
        """
        self.check_all((ok,), lambda i: describe())

    def check_all(self, flags: Iterable[bool], describe: Callable[[int], str]) -> None:
        """Count one case per pass flag; ``describe(i)`` builds the text of case i.

        Case i is the i-th flag.  Text is built only for failing cases, and
        only while fewer than three examples are stored, counting those of
        earlier ``check`` and ``check_all`` calls.
        """
        flags = list(flags)
        self.cases += len(flags)
        if all(flags):
            return
        failed = [i for i, ok in enumerate(flags) if not ok]
        self.failures += len(failed)
        for i in failed[: 3 - len(self.examples)]:
            self.examples.append(describe(i))

    def run(self, law: Callable[..., None], p: SetPartition, data: dict, guard: int) -> None:
        """Run ``law(self, p, data, guard)`` and add its wall time to this tally."""
        start = perf_counter()
        law(self, p, data, guard)
        self.seconds += perf_counter() - start

    def result(self) -> CheckResult:
        detail = f"{self.cases} cases"
        if self.failures:
            detail += f", {self.failures} failures: " + "; ".join(self.examples)
        return CheckResult(self.name, self.failures == 0, self.cases, detail, self.seconds)


def _census(p: SetPartition, guard: int) -> dict[str, list[Transformation]]:
    t_maps = list(iter_t(p, strategy="brute", guard=guard))
    sigma = [f for f in t_maps if in_sigma(f, p)]
    return {
        "t": t_maps,
        "sigma": sigma,
        "units": [f for f in t_maps if in_units(f, p)],
        "e_t": [f for f in t_maps if is_idempotent(f)],
        "e_sigma": [f for f in sigma if is_idempotent(f)],
    }


def run_verification(n_max: int, guard: int = DEFAULT_GUARD) -> VerificationRun:
    """Run every law of :data:`LAWS` on every partition of every n up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # fail fast instead of grinding through the small ground sets first
    check_guard(n_max**n_max, guard, "brute-force candidate maps at the largest ground set")
    k = min(n_max, PAIRWISE_N_MAX)
    laws = [(_Tally(name.format(k=k)), law) for name, law in LAWS]
    census_seconds = 0.0
    for p in chain.from_iterable(map(iter_partitions, range(1, n_max + 1))):
        start = perf_counter()
        data = _census(p, guard)
        census_seconds += perf_counter() - start
        for tally, law in laws:
            tally.run(law, p, data, guard)
    run = VerificationRun(tally.result() for tally, _ in laws)
    run.census_seconds = census_seconds
    return run


def _check_cardinalities(tally, p, data, guard):
    profile = profile_of(p)
    tally.check(len(data["t"]) == count_t(profile), lambda: f"|T| at {p}")
    sigma_n = len(data["sigma"])
    tally.check(sigma_n == count_sigma_direct(p, guard), lambda: f"|Sigma| direct at {p}")
    tally.check(sigma_n == count_sigma_grouped(profile, guard), lambda: f"|Sigma| grouped at {p}")
    tally.check(len(data["units"]) == count_units(profile), lambda: f"|S| at {p}")
    tally.check(
        len(data["e_sigma"]) == count_sigma_idempotents(profile),
        lambda: f"|E(Sigma)| at {p}",
    )


def _check_strategies(tally, p, data, guard):
    tally.check(
        data["t"] == list(iter_t(p, strategy="constructive", guard=guard)),
        lambda: f"T sequences at {p}",
    )
    tally.check(
        data["sigma"] == list(iter_sigma(p, strategy="constructive", guard=guard)),
        lambda: f"Sigma sequences at {p}",
    )
    tally.check(
        data["units"] == list(iter_units(p, strategy="constructive", guard=guard)),
        lambda: f"unit sequences at {p}",
    )
    tally.check(
        data["e_sigma"]
        == list(iter_idempotents(p, ambient="sigma", strategy="constructive", guard=guard)),
        lambda: f"E(Sigma) sequences at {p}",
    )


def _check_containments(tally, p, data, guard):
    t_set = set(data["t"])
    sigma_set = set(data["sigma"])
    tally.check(sigma_set <= t_set, lambda: f"Sigma inside T at {p}")
    tally.check(set(data["units"]) <= sigma_set, lambda: f"units inside Sigma at {p}")
    tally.check(
        set(data["e_sigma"]) == sigma_set & set(data["e_t"]),
        lambda: f"E(Sigma) = Sigma intersect E(T) at {p}",
    )


def _check_four_way(tally, p, data, guard):
    t_maps = data["t"]
    # every route runs on every member of T
    a, b, c, d = (
        list(map(route, t_maps, repeat(p)))
        for route in (in_sigma, sigma_via_character, is_e_star_preserving, sigma_via_topology)
    )
    tally.check_all(
        [w == x == y == z for w, x, y, z in zip(a, b, c, d)],
        lambda i: f"{t_maps[i]} at {p}",
    )


def _reader(table: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map s -> tuple(s[x] for x in table), as one C-level call."""
    if len(table) > 1:
        return itemgetter(*table)
    (x,) = table
    return lambda s: (s[x],)  # itemgetter of one index returns a bare item


def _check_homomorphism(tally, p, data, guard):
    if p.n > PAIRWISE_N_MAX:
        return
    # chi(fg) = chi(f)chi(g) on image tables: T is closed under composition,
    # so chi(fg) is looked up instead of recomputed once per pair, and a
    # composite outside T finds no entry and fails its case
    t_maps = data["t"]
    tables = [f.images for f in t_maps]
    chars = [chi.images for chi in map(character, t_maps, repeat(p))]
    lookup = dict(zip(tables, chars)).get
    for f, table, cf in zip(t_maps, tables, chars):
        # one batch per f: case i is the pair (f, g) with g the i-th member
        tally.check_all(
            map(eq, map(lookup, map(_reader(table), tables)), map(_reader(cf), chars)),
            lambda i: f"{f};{t_maps[i]} at {p}",
        )


def _check_units(tally, p, data, guard):
    t_maps, units = data["t"], data["units"]
    unit_set = set(units)
    tally.check_all(
        [
            (f in unit_set)
            == (f.is_bijection() and preserves(f, p) and preserves(f.inverse(), p))
            for f in t_maps
        ],
        lambda i: f"unit criteria disagree on {t_maps[i]} at {p}",
    )
    # one case per unit and block, blocks innermost
    blocks = p.blocks
    flags: list[bool] = []
    for f in units:
        get = f.images.__getitem__
        for block in blocks:
            image = tuple(sorted(map(get, block)))
            flags.append(image in blocks and len(image) == len(block))
    tally.check_all(flags, lambda i: f"block image of {units[i // len(blocks)]} at {p}")


def _check_sigma_idempotents(tally, p, data, guard):
    sigma, e_sigma = data["sigma"], data["e_sigma"]
    tally.check_all(
        map(eq, map(is_idempotent, sigma), map(sigma_idempotent_via_blocks, sigma, repeat(p))),
        lambda i: f"blockwise idempotence of {sigma[i]} at {p}",
    )
    tally.check_all(
        map(CharacterMap.is_identity, map(character, e_sigma, repeat(p))),
        lambda i: f"character of idempotent {e_sigma[i]} at {p}",
    )


def _check_t_idempotents(tally, p, data, guard):
    # per idempotent: its character, then the block map of each block in
    # the character's image, an idempotent selfmap of block i when every
    # point of the block lands in block i on a fixed point of f;
    # ``cases[i]`` is (f, None) or (f, block index)
    idx = p.block_index
    blocks = p.blocks
    cases: list[tuple[Transformation, int | None]] = []
    flags: list[bool] = []
    for f in data["e_t"]:
        chi = character(f, p)
        cases.append((f, None))
        flags.append(chi.is_idempotent())
        img = f.images
        for i in set(chi.images):
            cases.append((f, i))
            flags.append(all(idx[img[x]] == i and img[img[x]] == img[x] for x in blocks[i]))

    def describe(k: int) -> str:
        f, i = cases[k]
        if i is None:
            return f"character of {f} at {p}"
        return f"block map {i} of {f} at {p}"

    tally.check_all(flags, describe)


def _check_quotient(tally, p, data, guard):
    classes = chi_classes(p, guard=guard)
    tally.check(len(classes) == factorial(p.m), lambda: f"class count at {p}")
    grouped = Counter(map(attrgetter("images"), map(character, data["sigma"], repeat(p))))
    # two cases per class: its size, then its representative
    flags: list[bool] = []
    for cls in classes:
        rep = cls.representative
        flags.append(grouped.get(cls.character.images, 0) == cls.size)
        flags.append(in_sigma(rep, p) and character(rep, p) == cls.character)

    def describe(k: int) -> str:
        chi = classes[k // 2].character
        if k % 2 == 0:
            return f"class {chi} size at {p}"
        return f"representative of {chi} at {p}"

    tally.check_all(flags, describe)
    tally.check(
        sum(cls.size for cls in classes) == len(data["sigma"]),
        lambda: f"class sizes sum at {p}",
    )


def _check_divisibility(tally, p, data, guard):
    # once per ground set of at least 3 points, at its one-block partition
    n = p.n
    if n < 3 or p.m > 1:
        return
    cycle = Transformation(tuple((x + 1) % n for x in range(n)))
    for m in range(2, n):
        exists, witness = preserved_m_partition_exists(cycle, m)
        tally.check(exists == (n % m == 0), lambda: f"existence for n={n}, m={m}")
        if exists:
            tally.check(
                witness is not None
                and witness.m == m
                and not witness.is_trivial
                and in_units(cycle, witness),
                lambda: f"witness for n={n}, m={m}",
            )
        else:
            tally.check(
                search_unit_m_partition(cycle, m) is None,
                lambda: f"exhaustive search for n={n}, m={m}",
            )
    found = find_preserved_partition(cycle)
    is_prime = _smallest_proper_divisor(n) is None
    tally.check((found is None) == is_prime, lambda: f"prime-length cycle rule at n={n}")


def _check_full_cycle_units(tally, p, data, guard):
    for f in data["units"]:
        dec = decompose(f)
        if not dec.is_full_cycle():
            continue
        chi = character(f, p)
        chi_dec = decompose(chi.as_transformation())
        tally.check(chi_dec.is_full_cycle(), lambda: f"character cycle of {f} at {p}")
        tally.check(p.is_uniform, lambda: f"uniformity for {f} at {p}")


# every law of the harness, in report order: one row per law, each called
# once per partition as law(tally, p, data, guard); "{k}" in a name stands
# for the largest ground set the pairwise law reaches
LAWS: tuple[tuple[str, Callable[..., None]], ...] = (
    ("cardinality-formulas-vs-enumeration", _check_cardinalities),
    ("brute-vs-constructive-enumeration", _check_strategies),
    ("containments-and-idempotent-intersection", _check_containments),
    ("sigma-four-way-equivalence", _check_four_way),
    ("character-homomorphism(n<={k})", _check_homomorphism),
    ("units-criterion-and-block-images", _check_units),
    ("sigma-idempotent-blockwise", _check_sigma_idempotents),
    ("t-idempotent-character", _check_t_idempotents),
    ("chi-quotient-classes", _check_quotient),
    ("full-cycle-divisibility", _check_divisibility),
    ("full-cycle-units-uniform", _check_full_cycle_units),
)
