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
are counted at once.  Members are compared, and kept in sets, by their
image tables.  Failure text is built only for failing cases, and only for
the first three of each law.

No partition's census or laws read another's, so a run splits the
partitions into interleaved shares, one per usable CPU (the CPUs of
``os.sched_getaffinity`` where it exists, else ``os.cpu_count()``) and at
most one per partition; there is no option for it.  The caller runs the
first share and forks one worker per other share, which sends its tallies
back through a pipe; a share whose pipe or fork fails (a process or memory
limit, say) is run by the caller after its own.  The tallies merge in
partition order, so the report is the one a single process gives, except
that ``seconds`` and ``census_seconds`` are summed over the processes.
Nothing forks where ``os.fork`` is missing or the process runs more than
one thread.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
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
from .counting import COUNTS, count_sigma_direct
from .cycles import (
    _smallest_proper_divisor,
    decompose,
    find_preserved_partition,
    preserved_m_partition_exists,
    search_unit_m_partition,
)
from .enumeration import _members, chi_classes
from .membership import (
    SETS,
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

# members are compared and hashed by their image tables, plain tuples of
# ints, which skips the dataclass methods of ``Transformation``
_tables = attrgetter("images")


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
    # the first three failures, each as (position of its partition in the run, text)
    examples: list[tuple[int, str]] = field(default_factory=list)
    position: int = 0  # the position of the partition being checked

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
            self.examples.append((self.position, describe(i)))

    def check_equal(self, got: list, want: list, describe: Callable[[int], str]) -> None:
        """Count one case per position of two lists of equal length.

        Case i passes when ``got[i] == want[i]``.  The lists are compared
        whole first, and per-case flags are built only when they differ.
        """
        if got == want:
            self.cases += len(got)
        else:
            self.check_all(map(eq, got, want), describe)

    def run(
        self, law: Callable[..., None], p: SetPartition, data: dict, guard: int, position: int = 0
    ) -> None:
        """Run ``law(self, p, data, guard)`` and add its wall time to this tally.

        ``position`` is p's place in the run, kept with each failure text.
        """
        self.position = position
        start = perf_counter()
        law(self, p, data, guard)
        self.seconds += perf_counter() - start

    def result(self) -> CheckResult:
        detail = f"{self.cases} cases"
        if self.failures:
            detail += f", {self.failures} failures: " + "; ".join(text for _, text in self.examples)
        return CheckResult(self.name, self.failures == 0, self.cases, detail, self.seconds)


def _census(p: SetPartition, guard: int) -> dict[str, list]:
    """The brute-force members of each set of ``membership.SETS`` at p, by set name."""
    data: dict[str, list] = {}
    for name, (base, test, _) in SETS.items():
        if base is None:
            data[name] = list(_members(p, name, "brute", guard))
        else:
            data[name] = list(compress(data[base], map(test, data[base], repeat(p))))
    return data


def run_verification(n_max: int, guard: int = DEFAULT_GUARD) -> VerificationRun:
    """Run every law of :data:`LAWS` on every partition of every n up to n_max.

    The partitions are split into :func:`_split` shares, as many as
    :func:`_ways` gives.  The caller runs the first share and one forked
    worker runs each other share, or the caller runs it after its own if
    :func:`_fork` raises ``OSError``; every worker is reaped before this
    returns or raises, and killed first if it is still running then.  An
    exception raised by a law or the census, in any process, is raised here
    with its type and message: the one raised at the earliest partition,
    as a run in one process would raise it.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # fail fast instead of grinding through the small ground sets first, at
    # the first n whose n**n maps pass the guard, so no power much past the
    # guard is built
    for n in range(1, n_max + 1):
        check_guard(n**n, guard, f"brute-force candidate maps at n={n}")
    k = min(n_max, PAIRWISE_N_MAX)
    names = [name.format(k=k) for name, _ in LAWS]
    partitions = list(enumerate(chain.from_iterable(map(iter_partitions, range(1, n_max + 1)))))
    own, *others = _split(partitions, _ways(len(partitions)))
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    mine = [own]  # the shares this process runs
    try:
        for share in others:
            try:
                workers.append(_fork(share, names, guard))
            except OSError:  # no pipe or no process to be had: run the share here
                mine.append(share)
        shares = [_run_share(share, names, guard) for share in mine]
        shares += map(_receive, workers)
    finally:
        _stop(workers)
    raised = [at for _, _, at in shares if at is not None]
    if raised:
        raise min(raised, key=itemgetter(0))[1]
    run = VerificationRun(_merge(parts).result() for parts in zip(*(t for t, _, _ in shares)))
    run.census_seconds = sum(seconds for _, seconds, _ in shares)
    return run


def _ways(count: int) -> int:
    """How many shares a run of ``count`` partitions splits into.

    One per usable CPU, the caller's included, and at most one per
    partition; one, so that nothing forks, where ``os.fork`` is missing or
    the process runs more than one thread (a forked child gets only the
    forking thread, and a lock another thread held stays held in it).
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, count)


def _split(items: list, ways: int) -> list[list]:
    """``items`` dealt into ``ways`` interleaved shares: share i holds items i, i + ways, ...

    The partitions of a run grow in size along the list, so dealing them
    out gives each share about as much work.
    """
    return [items[i::ways] for i in range(ways)]


# a share's result: its tallies in law order, its census time, and the
# (position, exception) of the raise that stopped it, or None
_Share = tuple[list[_Tally], float, tuple[int, Exception] | None]


def _run_share(share: list[tuple[int, SetPartition]], names: list[str], guard: int) -> _Share:
    """Run every law on each (position, partition) of ``share``, in order, up to the first raise."""
    tallies = [_Tally(name) for name in names]
    census_seconds = 0.0
    for position, p in share:
        try:
            start = perf_counter()
            data = _census(p, guard)
            census_seconds += perf_counter() - start
            for tally, (_, law) in zip(tallies, LAWS):
                tally.run(law, p, data, guard, position)
        except Exception as exc:  # noqa: BLE001 - the caller raises the earliest of all shares
            return tallies, census_seconds, (position, exc)
    return tallies, census_seconds, None


def _fork(share: list[tuple[int, SetPartition]], names: list[str], guard: int) -> tuple[int, int]:
    """Start a worker running ``share``: (its pid, the read end of the pipe it answers on).

    The worker sends its :func:`_run_share` result and exits; it never
    returns from this call.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            _send(write, _run_share(share, names, guard))
        finally:
            os._exit(0)  # skips the caller's cleanup and stdio flushes, which are not ours
    os.close(write)
    return pid, read


def _send(fd: int, result: _Share) -> None:
    """Write ``result`` pickled to ``fd`` and close it.

    A raised exception that would not come back whole from pickle goes as
    a ``RuntimeError`` naming its type and message.
    """
    import pickle  # here, so that a process that never forks never loads it

    tallies, census_seconds, raised = result
    if raised is not None:
        position, exc = raised
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001 - any failure to round-trip
            raised = position, RuntimeError(f"{type(exc).__name__}: {exc}")
    with open(fd, "wb") as pipe:
        pickle.dump((tallies, census_seconds, raised), pipe)


def _receive(worker: tuple[int, int]) -> _Share:
    """The result a worker sends, read to the end of its pipe."""
    import pickle

    pid, fd = worker
    with open(fd, "rb", closefd=False) as pipe:
        payload = pipe.read()
    if not payload:
        raise RuntimeError(f"verification worker {pid} ended without a result")
    return pickle.loads(payload)


def _stop(workers: list[tuple[int, int]]) -> None:
    """Close each worker's pipe, kill the worker if it still runs, and reap it."""
    import signal  # here, like pickle

    for pid, fd in workers:
        os.close(fd)
        os.kill(pid, signal.SIGKILL)  # a worker that has exited stays a zombie till reaped
        os.waitpid(pid, 0)


def _merge(parts: tuple[_Tally, ...]) -> _Tally:
    """One law's tallies from every share as one: sums, and the first three failures by position.

    Each share keeps its own first three, in position order, so the first
    three of the run are among them; the sort is stable, so failures at one
    partition keep their order.
    """
    examples = sorted(chain.from_iterable(t.examples for t in parts), key=itemgetter(0))
    return _Tally(
        parts[0].name,
        sum(t.cases for t in parts),
        sum(t.failures for t in parts),
        sum(t.seconds for t in parts),
        examples[:3],
    )


def _check_cardinalities(tally, p, data, guard):
    # every closed form, then the direct Sigma form as a check of the grouped one
    profile = profile_of(p)
    for name, (count, _, _) in COUNTS.items():
        tally.check(len(data[name]) == count(profile, guard), lambda: f"|{name}| at {p}")
    tally.check(
        len(data["Sigma"]) == count_sigma_direct(p, guard), lambda: f"|Sigma| direct at {p}"
    )


def _check_strategies(tally, p, data, guard):
    for name, (_, _, label) in SETS.items():
        if label is not None:  # a set with a count formula has a compiled kernel
            tally.check(
                list(map(_tables, data[name]))
                == list(map(_tables, _members(p, name, "constructive", guard))),
                lambda: f"{name} sequences at {p}",
            )


def _check_containments(tally, p, data, guard):
    t_set, sigma_set, s_set, e_sigma_set, e_t_set = (
        set(map(_tables, data[name])) for name in ("T", "Sigma", "S", "E-Sigma", "E-T")
    )
    tally.check(sigma_set <= t_set, lambda: f"Sigma inside T at {p}")
    tally.check(s_set <= sigma_set, lambda: f"units inside Sigma at {p}")
    tally.check(
        e_sigma_set == sigma_set & e_t_set,
        lambda: f"E(Sigma) = Sigma intersect E(T) at {p}",
    )


def _check_four_way(tally, p, data, guard):
    t_maps = data["T"]
    # every route runs on every member of T; in_sigma's are the census's Sigma
    a = map(set(map(_tables, data["Sigma"])).__contains__, map(_tables, t_maps))
    b, c, d = (
        list(map(route, t_maps, repeat(p)))
        for route in (sigma_via_character, is_e_star_preserving, sigma_via_topology)
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
    t_maps = data["T"]
    tables = [f.images for f in t_maps]
    chars = [chi.images for chi in map(character, t_maps, repeat(p))]
    lookup = dict(zip(tables, chars)).get
    for f, table, cf in zip(t_maps, tables, chars):
        # one batch per f: case i is the pair (f, g) with g the i-th member
        tally.check_equal(
            list(map(lookup, map(_reader(table), tables))),
            list(map(_reader(cf), chars)),
            lambda i: f"{f};{t_maps[i]} at {p}",
        )


def _check_units(tally, p, data, guard):
    t_maps, units = data["T"], data["S"]
    unit_set = set(map(_tables, units))
    tally.check_all(
        [
            (f.images in unit_set)
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
    sigma, e_sigma = data["Sigma"], data["E-Sigma"]
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
    for f in data["E-T"]:
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
    grouped = Counter(map(attrgetter("images"), map(character, data["Sigma"], repeat(p))))
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
        sum(cls.size for cls in classes) == len(data["Sigma"]),
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
    for f in data["S"]:
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
