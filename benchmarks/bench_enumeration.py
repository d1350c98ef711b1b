"""Time the generators of T, Sigma, S, E(Sigma) and of set partitions for one or more source trees.

Usage::

    python benchmarks/bench_enumeration.py --src before=../old/src --src after=src \
        --rounds 10 --out BENCH_6.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement times, after building the partitions untimed:

* ``census_cold_s`` and ``census_warm_s``: consuming ``iter_t``,
  ``iter_sigma``, ``iter_units`` and ``iter_idempotents`` (constructive)
  on every partition with at most 6 points; these are the enumerations of
  the census benchmark.  The cold sweep runs first in a fresh interpreter
  and pays any first-use set-up, such as compiling a partition's
  generators; the warm sweep runs the same calls again;
* ``<set>_us_per_member``: the warm sweep of each set, per member yielded;
* ``brute_t_us_per_member``: brute-force ``iter_t`` on every partition
  with at most 5 points, per member yielded;
* ``partitions_us_per_partition``: consuming ``iter_partitions(10)``, per
  partition;
* ``lengths_single6_ms``: the body of the enumeration test
  ``test_lengths_match_counting_formulas`` on the 6-point single block,
  which runs under a 200 ms deadline;
* ``units_n8_s``: the loop of acceptance criterion 08, ``enumerate_units``
  on every partition with at most 8 points, in an interpreter of its own
  so that it pays its first-use set-up too.
"""

from __future__ import annotations

import paired

# runs in the interpreter of its own that ``units_n8_s`` takes; prints
# the seconds and the member count
UNITS_N8 = """
from time import perf_counter
from partmaps.core import iter_partitions
from partmaps.enumeration import enumerate_units
start = perf_counter()
members = sum(len(enumerate_units(p)) for n in range(1, 9) for p in iter_partitions(n))
print(perf_counter() - start, members)
"""

# runs inside the child interpreter; prints one JSON object
MEASURE = (
    f"UNITS_N8 = {UNITS_N8!r}\n"
    + """
import json
import subprocess
import sys
from time import perf_counter
from partmaps import enumeration as e
from partmaps.core import SetPartition, iter_partitions, profile_of
from partmaps.counting import count_sigma_direct, count_sigma_idempotents, count_t, count_units

def per_set(generate, parts):
    members = 0
    start = perf_counter()
    for p in parts:
        for _ in generate(p):
            members += 1
    return perf_counter() - start, members

upto6 = [p for n in range(1, 7) for p in iter_partitions(n)]
upto5 = [p for p in upto6 if p.n <= 5]
for p in upto6:
    p.block_index  # a lazy cache in some trees; fill it before timing
out = {"members": {}}
for sweep in ("cold", "warm"):
    total = 0.0
    for name, generate in (
        ("t", e.iter_t),
        ("sigma", e.iter_sigma),
        ("units", e.iter_units),
        ("e_sigma", e.iter_idempotents),
    ):
        seconds, out["members"][name] = per_set(generate, upto6)
        total += seconds
        out[f"{name}_us_per_member"] = seconds / out["members"][name] * 1e6
    out[f"census_{sweep}_s"] = total
seconds, out["members"]["brute_t"] = per_set(lambda p: e.iter_t(p, "brute"), upto5)
out["brute_t_us_per_member"] = seconds / out["members"]["brute_t"] * 1e6

start = perf_counter()
count = sum(1 for _ in iter_partitions(10))
out["partitions_us_per_partition"] = (perf_counter() - start) / count * 1e6

p = SetPartition((tuple(range(6)),))
start = perf_counter()
prof = profile_of(p)
assert len(e.enumerate_t(p)) == count_t(prof)
assert len(e.enumerate_sigma(p)) == count_sigma_direct(p)
assert len(e.enumerate_units(p)) == count_units(prof)
assert len(e.enumerate_idempotents(p, "sigma")) == count_sigma_idempotents(prof)
out["lengths_single6_ms"] = (perf_counter() - start) * 1e3

seconds, members = subprocess.run(
    [sys.executable, "-c", UNITS_N8], check=True, capture_output=True, text=True
).stdout.split()
out["units_n8_s"] = float(seconds)
out["members"]["units_n8"] = int(members)

print(json.dumps(out))
"""
)

METRICS = (
    "census_cold_s",
    "census_warm_s",
    "t_us_per_member",
    "sigma_us_per_member",
    "units_us_per_member",
    "e_sigma_us_per_member",
    "brute_t_us_per_member",
    "partitions_us_per_partition",
    "lengths_single6_ms",
    "units_n8_s",
)


def main(argv: list[str] | None = None) -> int:
    args = paired.parse_args(paired.parser(__doc__, default_out="BENCH_6.json"), argv)
    return paired.compare(
        args,
        code=MEASURE,
        argv=[],
        metrics=METRICS,
        benchmark="per-member cost of the generators and of iter_partitions(10)",
        script="benchmarks/bench_enumeration.py",
    )


if __name__ == "__main__":
    raise SystemExit(main())
