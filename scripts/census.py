#!/usr/bin/env python3
"""Tabulate the member counts for every set partition of an n-point set.

For each partition the four closed-form counts are printed, one per row
of ``partmaps.counting.COUNTS``.  With --check each partition also runs
two laws of the cross-validation harness (``partmaps verify``): the
closed forms against brute-force enumeration, and the brute-force against
the constructive enumerations.  The script exits 1 if either law fails.

Usage:
    python scripts/census.py --n 5
    python scripts/census.py --n 4 --check
"""

import argparse
import sys
from operator import add
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from partmaps.core import DEFAULT_GUARD, format_partition, iter_partitions, profile_of
from partmaps.counting import COUNTS
from partmaps.verification import LAWS, _census, _Tally

CHECKED = ("cardinality-formulas-vs-enumeration", "brute-vs-constructive-enumeration")


def row(label, cells):
    """One line of the table: the label, then one right-aligned cell per count."""
    return f"{label:<24}" + "".join(f" {cell:>10}" for cell in cells)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4, help="ground-set size")
    parser.add_argument(
        "--check", action="store_true", help="cross-check formulas against enumeration"
    )
    args = parser.parse_args()

    laws = [(_Tally(name), dict(LAWS)[name]) for name in CHECKED]
    header = row("partition", (f"|{name}|" for name in COUNTS))
    print(header)
    print("-" * len(header))
    totals = [0] * len(COUNTS)
    for p in iter_partitions(args.n):
        profile = profile_of(p)
        counts = [count(profile, DEFAULT_GUARD) for count, _, _ in COUNTS.values()]
        if args.check:
            data = _census(p, DEFAULT_GUARD)
            for tally, law in laws:
                tally.run(law, p, data, DEFAULT_GUARD)
        totals = list(map(add, totals, counts))
        print(row(format_partition(p), counts))
    print("-" * len(header))
    print(row("sum", totals))
    if not args.check:
        return 0
    results = [tally.result() for tally, _ in laws]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
