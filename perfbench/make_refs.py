"""Regenerate the stored reference answers under perfbench/refs/.

    python3 perfbench/make_refs.py

Every expected answer comes from perfbench/oracle.py, which shares no code
with partmaps.  This is the only benchmark process that lifts Python's
4300-digit limit on int-to-str conversion: the true digits of the huge
counts are needed here, while the measuring process must keep the limit so
that the CLI's failure on those counts stays visible.  The queries pool is
drawn with a fixed seed, so the output is the same on every run.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from math import factorial, prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from workloads import (  # noqa: E402
    CENSUS_BRUTE_N_MAX,
    CENSUS_COUNT_N,
    CENSUS_ENUM_N_MAX,
    CENSUS_SETS,
    LIMIT,
    MIX,
    VERIFY_N_MAX,
    REFS,
)

POOL_SEED = 2006_04242
GUARD = 10**7
DIGIT_LIMIT = 4300
# outputs longer than this are stored as a digest
INLINE_BYTES = 512


def expected(argv, exit_code, stdout, cls):
    op = {"cls": cls, "argv": argv, "exit": exit_code}
    if len(stdout) <= INLINE_BYTES:
        op["stdout"] = stdout
    else:
        data = stdout.encode()
        op["sha256"] = hashlib.sha256(data).hexdigest()
        op["bytes"] = len(data)
    return op


# -- random inputs ----------------------------------------------------------


def random_blocks(rng, n, m=None):
    m = m or rng.randint(1, n)
    points = list(range(n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    return oracle.canonical(
        points[a:b] for a, b in zip([0] + cuts, cuts + [n])
    )


def scrambled_text(rng, blocks):
    """Partition text with blocks and points in random order."""
    shuffled = [list(b) for b in blocks]
    for b in shuffled:
        rng.shuffle(b)
    rng.shuffle(shuffled)
    return "|".join(",".join(str(x) for x in b) for b in shuffled)


def random_member(rng, blocks, kind):
    n = sum(len(b) for b in blocks)
    if kind == "any":
        return tuple(rng.randrange(n) for _ in range(n))
    m = len(blocks)
    images = [0] * n
    if kind == "T":
        for b in blocks:
            target = blocks[rng.randrange(m)]
            for x in b:
                images[x] = rng.choice(target)
    elif kind == "Sigma":
        order = list(range(m))
        rng.shuffle(order)
        for b, j in zip(blocks, order):
            for x in b:
                images[x] = rng.choice(blocks[j])
    elif kind == "S":
        by_size: dict[int, list[int]] = {}
        for i, b in enumerate(blocks):
            by_size.setdefault(len(b), []).append(i)
        for same in by_size.values():
            targets = same[:]
            rng.shuffle(targets)
            for i, j in zip(same, targets):
                values = list(blocks[j])
                rng.shuffle(values)
                for x, y in zip(blocks[i], values):
                    images[x] = y
    elif kind == "E-Sigma":
        for b in blocks:
            fixed = rng.sample(b, rng.randint(1, len(b)))
            for x in b:
                images[x] = x if x in fixed else rng.choice(fixed)
    return tuple(images)


def full_cycle(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    images = [0] * n
    for i, x in enumerate(order):
        images[x] = order[(i + 1) % n]
    return tuple(images)


def random_profile(rng, max_size, max_mult, max_sizes=3):
    sizes = rng.sample(range(1, max_size + 1), rng.randint(1, max_sizes))
    return {s: rng.randint(1, max_mult) for s in sizes}


def profile_arg(profile):
    return ",".join(f"{s}:{c}" for s, c in sorted(profile.items()))


def arrangements(profile):
    return factorial(sum(profile.values())) // prod(factorial(c) for c in profile.values())


# -- queries pool -----------------------------------------------------------


def check_outcome(pred, images, blocks, table):
    """(exit code, stdout) that `partmaps check` documents for this input."""
    preserving = oracle.preserves(images, blocks, table)
    sigma = oracle.in_sigma(images, blocks, table)
    if pred == "sigma-character" and not preserving:
        return 2, ""  # character-based predicates reject non-preserving maps
    if pred == "sigma-idempotent" and not sigma:
        return 2, ""  # defined on Sigma only
    result = {
        "preserves": preserving,
        "sigma": sigma,
        "sigma-character": sigma,
        "sigma-topology": sigma,
        "estar": oracle.e_star(images, table),
        "units": oracle.in_units(images, blocks, table),
        "idempotent": oracle.is_idempotent(images),
        "sigma-idempotent": oracle.blockwise_idempotent(images, blocks),
    }[pred]
    return (0, "true\n") if result else (1, "false\n")


def make_check(rng, pred):
    n = rng.randint(3, 12)
    blocks = random_blocks(rng, n)
    kind = rng.choice(["any"] * 4 + ["T", "Sigma", "S", "E-Sigma"])
    images = random_member(rng, blocks, kind)
    table = oracle.lookup(blocks, n)
    argv = ["check", "-p", scrambled_text(rng, blocks), "-f", oracle.map_text(images)]
    argv += ["--predicate", pred]
    code, out = check_outcome(pred, images, blocks, table)
    return expected(argv, code, out, f"check-{pred}")


def make_character(rng):
    n = rng.randint(3, 12)
    blocks = random_blocks(rng, n)
    images = random_member(rng, blocks, rng.choice(["T", "Sigma", "S"]))
    chi = oracle.character(images, blocks, oracle.lookup(blocks, n))
    argv = ["character", "-p", scrambled_text(rng, blocks), "-f", oracle.map_text(images)]
    return expected(argv, 0, oracle.map_text(chi) + "\n", "character")


def find_outcome(images, m=None):
    found = oracle.preserved_partition(images, m)
    if found is None:
        return 1, "none\n"
    return 0, oracle.partition_text(found) + "\n"


def make_find(rng, cls):
    n = rng.randint(3, 12)
    m = None
    if cls == "find-partition-map":
        if rng.random() < 0.1:
            images = (rng.randrange(n),) * n
        else:
            images = random_member(rng, random_blocks(rng, n), "any")
            if len(set(images)) == n:
                images = (images[1],) + images[1:]
    elif cls == "find-partition-perm":
        images = list(range(n))
        if rng.random() > 0.1:
            rng.shuffle(images)
        images = tuple(images)
        if len(oracle.cycles_of(images)) == 1:
            images = images[1:2] + images[0:1] + images[2:]
    else:
        images = full_cycle(rng, n)
        if rng.random() < 0.5:
            m = rng.randint(2, n - 1)
    argv = ["find-partition", "-f", oracle.map_text(images), "--verify"]
    if m is not None:
        argv += ["-m", str(m)]
    code, out = find_outcome(images, m)
    return expected(argv, code, out, cls)


def count_input(rng, cls, kind):
    """A profile for this count class, and whether its answer fits the class."""
    if cls == "count-small":
        profile = random_profile(rng, 8, 4)
        return profile, lambda digits: arrangements(profile) <= 500 and digits < 4000
    if cls == "count-large":
        if kind == "Sigma":
            return random_profile(rng, 90, 2), lambda digits: digits < 4000
        profile = random_profile(rng, 12 if kind == "E-Sigma" else 40, 100, max_sizes=2)
        return profile, lambda digits: 500 <= digits < 4000
    if cls == "count-sigma-heavy":
        # 12 blocks in three size classes of 4: 34650 multiset arrangements
        return dict.fromkeys(rng.sample(range(1, 9), 3), 4), lambda digits: True
    # answers beyond the interpreter's default limit on int-to-str conversion
    profile = {rng.randint(2, 3): rng.randint(1000, 10000)}
    return profile, lambda digits: digits > DIGIT_LIMIT


def make_count(rng, cls, index):
    if cls == "count-sigma-heavy":
        kind = "Sigma"
    elif cls == "count-over-4300-digits":
        kind = ("T", "S", "E-Sigma")[index % 3]
    else:
        kind = ("T", "Sigma", "S", "E-Sigma")[index % 4]
    while True:
        profile, fits = count_input(rng, cls, kind)
        sizes = oracle.expand_profile(profile_arg(profile))
        value = oracle.count(kind, sizes)
        if fits(len(str(value))):
            break
    if cls == "count-small" and rng.random() < 0.3:
        # the same profile given as a concrete partition
        points = list(range(sum(sizes)))
        rng.shuffle(points)
        blocks, at = [], 0
        for s in sizes:
            blocks.append(points[at : at + s])
            at += s
        source = ["-p", scrambled_text(rng, oracle.canonical(blocks))]
    else:
        source = ["--profile", profile_arg(profile)]
    return expected(["count", *source, "--set", kind], 0, f"{value}\n", cls)


def enumerate_outcome(blocks, kind, limit):
    members = oracle.lex_members(blocks, kind, limit=limit + 1)
    lines = [oracle.map_text(f) for f in members[:limit]]
    suffix = " (truncated)" if len(members) > limit else ""
    return "".join(line + "\n" for line in lines) + f"# total: {len(lines)}{suffix}\n"


def make_enumerate(rng, cls):
    if cls == "enumerate-limit-lazy":
        while True:
            n = rng.randint(7, 10)
            blocks = random_blocks(rng, n)
            kind = rng.choice(["T", "Sigma"])
            size = oracle.count(kind, oracle.sizes_of(blocks))
            if 10**4 <= size <= GUARD:
                break
    elif cls == "enumerate-units-prefix":
        kind, blocks = "S", tuple((x,) for x in range(8))
    elif cls == "enumerate-esigma-prefix":
        kind, blocks = "E-Sigma", random_blocks(rng, 10, 2)
        while not 30000 <= oracle.count("E-Sigma", oracle.sizes_of(blocks)) <= 40000:
            blocks = random_blocks(rng, 10, 2)
    else:  # the full family is beyond the guard, the requested prefix is not
        kind, blocks = "T", tuple((x,) for x in range(9))
    argv = ["enumerate", "-p", scrambled_text(rng, blocks), "--set", kind]
    argv += ["--limit", str(LIMIT)]
    return expected(argv, 0, enumerate_outcome(blocks, kind, LIMIT), cls)


def quotient_outcome(blocks):
    sizes = oracle.sizes_of(blocks)
    m = len(sizes)
    lines, total = [], 0

    def perms(prefix, rest):
        if not rest:
            yield prefix
        for i, j in enumerate(rest):
            yield from perms(prefix + (j,), rest[:i] + rest[i + 1 :])

    classes = 0
    for phi in perms((), tuple(range(m))):
        size = prod(sizes[j] ** sizes[i] for i, j in enumerate(phi))
        lines.append(f"{oracle.map_text(phi)} {size}\n")
        total += size
        classes += 1
    sigma = oracle.count_sigma(sizes)
    ok = str(classes == factorial(m) and total == sigma).lower()
    lines.append(
        f"# classes: {classes} (expected {factorial(m)}), total: {total}, "
        f"sigma: {sigma}, consistent: {ok}\n"
    )
    return "".join(lines)


def make_quotient(rng, cls):
    if cls == "quotient-7":
        blocks = random_blocks(rng, rng.randint(7, 10), 7)
    else:
        n = rng.randint(3, 10)
        blocks = random_blocks(rng, n, rng.randint(1, min(5, n)))
    argv = ["quotient", "-p", scrambled_text(rng, blocks)]
    return expected(argv, 0, quotient_outcome(blocks), cls)


def make_op(rng, cls, index):
    if cls.startswith("check-"):
        return make_check(rng, cls[len("check-") :])
    if cls == "character":
        return make_character(rng)
    if cls.startswith("find-partition"):
        return make_find(rng, cls)
    if cls.startswith("count-"):
        return make_count(rng, cls, index)
    if cls.startswith("enumerate-"):
        return make_enumerate(rng, cls)
    return make_quotient(rng, cls)


def queries_pool():
    rng = random.Random(POOL_SEED)
    pool = {}
    for cls, per_round in MIX.items():
        pool[cls] = [make_op(rng, cls, i) for i in range(max(16, 5 * per_round))]
    return pool


# -- census and verify --------------------------------------------------------


def census_refs():
    enum = {}
    for n in range(1, CENSUS_ENUM_N_MAX + 1):
        for blocks in oracle.all_partitions(n):
            sizes = oracle.sizes_of(blocks)
            text = oracle.partition_text(blocks)
            for kind in CENSUS_SETS:
                first = oracle.lex_members(blocks, kind, limit=1)[0]
                last = oracle.lex_members(blocks, kind, limit=1, reverse=True)[0]
                enum[f"{text} {kind}"] = [oracle.count(kind, sizes), first, last]
            if n <= 4:  # the search and the formulas against plain filtering
                lists = oracle.brute_census(blocks)
                for kind in CENSUS_SETS:
                    got = enum[f"{text} {kind}"]
                    want = [len(lists[kind]), lists[kind][0], lists[kind][-1]]
                    assert got == want, (text, kind, got, want)
    counts = {}
    for blocks in oracle.all_partitions(CENSUS_COUNT_N):
        key = oracle.profile_text(oracle.sizes_of(blocks))
        if key not in counts:
            sizes = oracle.expand_profile(key)
            counts[key] = [oracle.count(kind, sizes) for kind in CENSUS_SETS]
    return {
        "enum_n_max": CENSUS_ENUM_N_MAX,
        "brute_n_max": CENSUS_BRUTE_N_MAX,
        "count_n": CENSUS_COUNT_N,
        "count_partitions": len(oracle.all_partitions(CENSUS_COUNT_N)),
        "enumerations": enum,
        "counts": counts,
    }


def verify_refs():
    partitions = sum(len(oracle.all_partitions(n)) for n in range(1, VERIFY_N_MAX + 1))
    return {
        "n_max": VERIFY_N_MAX,
        "cases": oracle.harness_cases(VERIFY_N_MAX),
        "members": oracle.harness_members(VERIFY_N_MAX),
        "partitions": partitions,
    }


def main():
    sys.set_int_max_str_digits(0)
    REFS.mkdir(exist_ok=True)
    for name, build in (
        ("census", census_refs),
        ("verify", verify_refs),
        ("queries", queries_pool),
    ):
        path = REFS / f"{name}.json"
        path.write_text(json.dumps(build(), indent=0, sort_keys=True) + "\n")
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
