"""Time the partitions of 9 points and their closed-form counts for one or more source trees.

Usage::

    python benchmarks/bench_counting.py --src before=../old/src --src after=src \
        --rounds 10 --out OUT.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement builds the partitions of 9 points (there are
21 147) and times, per partition:

* ``sweep9_cold_us``: ``profile_of`` plus ``count_t``,
  ``count_sigma_grouped``, ``count_units`` and
  ``count_sigma_idempotents``, the count phase of the census benchmark, in
  a fresh interpreter, so any per-profile cache starts empty;

and then, warm:

* ``partitions9_us``: consuming ``iter_partitions(9)``;
* ``sweep9_warm_us``: the same sweep again in the same interpreter, as
  every census round after the first;
* ``profile_of_us``: ``profile_of`` alone;
* ``formulas_us``: the four formulas alone, on profiles built beforehand;
* ``count_phase9_us``: generating the partitions with ``iter_partitions(9)``
  plus ``profile_of`` and the four formulas on each, the count phase of
  every census round after the first as it runs.

The cold sweep runs once.  Each warm metric is the fastest of ``PASSES``
(15) passes, and the five take turns pass by pass.  A shared machine
changes speed by half or more for a second or so at a time; a pass takes
tens of milliseconds, so one pass, or several in a row, can fall wholly
in a slow spell, while passes spread over the whole run rarely all do.
"""

from __future__ import annotations

import paired

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import json
from time import perf_counter
from partmaps.core import iter_partitions, profile_of
from partmaps.counting import count_sigma_grouped, count_sigma_idempotents, count_t, count_units

PASSES = 15

parts = list(iter_partitions(9))

def counts(profiles):
    return [
        (count_t(prof), count_sigma_grouped(prof), count_units(prof), count_sigma_idempotents(prof))
        for prof in profiles
    ]

def sweep():
    return counts(profile_of(p) for p in parts)

def count_phase():
    return counts(profile_of(p) for p in iter_partitions(9))

start = perf_counter()
cold = sweep()
out = {"sweep9_cold_us": (perf_counter() - start) / len(parts) * 1e6}
profiles = [profile_of(p) for p in parts]
# name -> (work, its answer); the passes of all five take turns, so that
# each metric's passes spread over the whole run
warm = {
    "partitions9_us": (lambda: sum(1 for _ in iter_partitions(9)), len(parts)),
    "sweep9_warm_us": (sweep, cold),
    "profile_of_us": (lambda: [profile_of(p) for p in parts], profiles),
    "formulas_us": (lambda: counts(profiles), cold),
    "count_phase9_us": (count_phase, cold),
}
best = dict.fromkeys(warm, float("inf"))
for _ in range(PASSES):
    for name, (work, answer) in warm.items():
        start = perf_counter()
        got = work()
        best[name] = min(best[name], perf_counter() - start)
        assert got == answer, name
for name, seconds in best.items():
    out[name] = seconds / len(parts) * 1e6
out["partitions"] = len(parts)
out["passes"] = PASSES
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
