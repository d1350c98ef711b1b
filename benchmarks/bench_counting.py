"""Time the partitions of 9 points and their closed-form counts for one or more source trees.

Usage::

    python benchmarks/bench_counting.py --src before=../old/src --src after=src \
        --rounds 10 --out OUT.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement times, per partition of 9 points (there are
21 147) and in this order:

* ``partitions9_us``: consuming ``iter_partitions(9)``;

then builds the partitions untimed and times:

* ``sweep9_cold_us``: ``profile_of`` plus ``count_t``,
  ``count_sigma_grouped``, ``count_units`` and
  ``count_sigma_idempotents``, the count phase of the census benchmark, in
  a fresh interpreter, so any per-profile cache starts empty;
* ``sweep9_warm_us``: the same sweep again in the same interpreter, as
  every census round after the first;
* ``profile_of_us``: ``profile_of`` alone;
* ``formulas_us``: the four formulas alone, on profiles built beforehand;
* ``count_phase9_us``: generating the partitions with ``iter_partitions(9)``
  plus ``profile_of`` and the four formulas on each, the count phase of
  every census round after the first as it runs.
"""

from __future__ import annotations

import paired

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import json
from time import perf_counter
from partmaps.core import iter_partitions, profile_of
from partmaps.counting import count_sigma_grouped, count_sigma_idempotents, count_t, count_units

start = perf_counter()
generated = sum(1 for _ in iter_partitions(9))
partitions9_us = (perf_counter() - start) / generated * 1e6
parts = list(iter_partitions(9))
assert len(parts) == generated

def sweep():
    out = []
    for p in parts:
        prof = profile_of(p)
        out.append(
            (count_t(prof), count_sigma_grouped(prof), count_units(prof), count_sigma_idempotents(prof))
        )
    return out

def per_partition(work):
    start = perf_counter()
    result = work()
    return (perf_counter() - start) / len(parts) * 1e6, result

def count_phase():
    out = []
    for p in iter_partitions(9):
        prof = profile_of(p)
        out.append(
            (count_t(prof), count_sigma_grouped(prof), count_units(prof), count_sigma_idempotents(prof))
        )
    return out

out = {"partitions9_us": partitions9_us}
out["sweep9_cold_us"], cold = per_partition(sweep)
out["sweep9_warm_us"], warm = per_partition(sweep)
assert warm == cold
out["profile_of_us"], profiles = per_partition(lambda: [profile_of(p) for p in parts])
out["formulas_us"], counts = per_partition(
    lambda: [
        (count_t(prof), count_sigma_grouped(prof), count_units(prof), count_sigma_idempotents(prof))
        for prof in profiles
    ]
)
assert counts == cold
out["count_phase9_us"], phase = per_partition(count_phase)
assert phase == cold
out["partitions"] = len(parts)
out["profiles"] = len(set(profiles))
out["count_digest"] = sum(map(sum, cold)) % (10**9 + 7)
print(json.dumps(out))
"""

METRICS = (
    "partitions9_us",
    "sweep9_cold_us",
    "sweep9_warm_us",
    "profile_of_us",
    "formulas_us",
    "count_phase9_us",
)


def main(argv: list[str] | None = None) -> int:
    args = paired.parse_args(paired.parser(__doc__), argv)
    return paired.compare(
        args,
        code=MEASURE,
        argv=[],
        metrics=METRICS,
        benchmark="iter_partitions(9), profile_of and the four closed-form counts over every partition of 9 points, per partition",
        script="benchmarks/bench_counting.py",
    )


if __name__ == "__main__":
    raise SystemExit(main())
