#!/usr/bin/env python3
"""Tabulate the member counts for every set partition of an n-point set.

For each partition the four closed-form counts are printed.  With --check
each partition also runs two laws of the cross-validation harness
(``partmaps verify``): the closed forms against brute-force enumeration,
and the brute-force against the constructive enumerations.  The script
exits 1 if either law fails.

Usage:
    python scripts/census.py --n 5
    python scripts/census.py --n 4 --check
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from partmaps.core import DEFAULT_GUARD, format_partition, iter_partitions, profile_of
from partmaps.counting import (
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
)
from partmaps.verification import LAWS, _census, _Tally

CHECKED = ("cardinality-formulas-vs-enumeration", "brute-vs-constructive-enumeration")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4, help="ground-set size")
    parser.add_argument(
        "--check", action="store_true", help="cross-check formulas against enumeration"
    )
    args = parser.parse_args()

    laws = [(_Tally(name), dict(LAWS)[name]) for name in CHECKED]
    header = f"{'partition':<24} {'|T|':>10} {'|Sigma|':>10} {'|S|':>8} {'|E(Sigma)|':>10}"
    print(header)
    print("-" * len(header))
    totals = [0, 0, 0, 0]
    for p in iter_partitions(args.n):
        label = format_partition(p)
        profile = profile_of(p)
        counts = [
            count_t(profile),
            count_sigma_grouped(profile),
            count_units(profile),
            count_sigma_idempotents(profile),
        ]
        if args.check:
            data = _census(p, DEFAULT_GUARD)
            for tally, law in laws:
                tally.run(law, p, data, DEFAULT_GUARD)
        for i, c in enumerate(counts):
            totals[i] += c
        print(
            f"{label:<24} {counts[0]:>10} {counts[1]:>10} "
            f"{counts[2]:>8} {counts[3]:>10}"
        )
    print("-" * len(header))
    print(f"{'sum':<24} {totals[0]:>10} {totals[1]:>10} {totals[2]:>8} {totals[3]:>10}")
    if not args.check:
        return 0
    results = [tally.result() for tally, _ in laws]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
