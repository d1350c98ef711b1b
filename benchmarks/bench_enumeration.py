"""Time the generators of T, Sigma, S, E(Sigma) and of set partitions for one or more source trees.

Usage::

    python benchmarks/bench_enumeration.py --src before=../old/src --src after=src \
        --rounds 10 --out BENCH_6.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement times, after building the partitions untimed:

* ``<set>_us_per_member``: consuming ``iter_t``, ``iter_sigma``,
  ``iter_units`` and ``iter_idempotents`` (constructive) on every
  partition with at most 6 points, per member yielded; these are the
  enumerations of the census benchmark;
* ``brute_t_us_per_member``: brute-force ``iter_t`` on every partition
  with at most 5 points, per member yielded;
* ``partitions_us_per_partition``: consuming ``iter_partitions(10)``, per
  partition;
* ``lengths_single6_ms``: the body of the enumeration test
  ``test_lengths_match_counting_formulas`` on the 6-point single block,
  which runs under a 200 ms deadline.
"""

from __future__ import annotations

import paired

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import json
from time import perf_counter
from partmaps import enumeration as e
from partmaps.core import SetPartition, iter_partitions, profile_of
from partmaps.counting import count_sigma_direct, count_sigma_idempotents, count_t, count_units

def per_member(generate, parts):
    members = 0
    start = perf_counter()
    for p in parts:
        for _ in generate(p):
            members += 1
    return (perf_counter() - start) / members * 1e6, members

upto6 = [p for n in range(1, 7) for p in iter_partitions(n)]
upto5 = [p for p in upto6 if p.n <= 5]
for p in upto6:
    p.block_index  # a lazy cache in some trees; fill it before timing
out = {"members": {}}
for name, generate, parts in (
    ("t", e.iter_t, upto6),
    ("sigma", e.iter_sigma, upto6),
    ("units", e.iter_units, upto6),
    ("e_sigma", e.iter_idempotents, upto6),
    ("brute_t", lambda p: e.iter_t(p, "brute"), upto5),
):
    out[f"{name}_us_per_member"], out["members"][name] = per_member(generate, parts)

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

print(json.dumps(out))
"""

METRICS = (
    "t_us_per_member",
    "sigma_us_per_member",
    "units_us_per_member",
    "e_sigma_us_per_member",
    "brute_t_us_per_member",
    "partitions_us_per_partition",
    "lengths_single6_ms",
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
