"""Time ``run_verification(5)``, its census and each of its laws for one or more source trees.

Usage::

    python benchmarks/bench_verify.py --src before=../old/src --src after=src \
        --rounds 10 --out OUT.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement times:

* ``verify_s``: one ``run_verification(n_max)`` call, the work of
  ``partmaps verify --n-max 5``;
* ``homomorphism_s``: the character-homomorphism law alone over every
  partition with at most ``PAIRWISE_N_MAX`` points, on a census built
  beforehand and not timed;
* ``brute_t_s``: the brute-force scan of T alone, every member of
  ``_members(p, "T", "brute", guard)`` drawn for every partition with at
  most ``n_max`` points, so the scan is timed apart from the filters that
  the census runs on its stream;
* ``census_seconds`` and ``<law>_seconds``: the parts of that
  ``run_verification`` call as it reports them, the brute-force census and
  each law's own time (``<law>`` is the law's name up to any
  parenthesis).
"""

from __future__ import annotations

import sys
from pathlib import Path

import paired

# the law names, and so the metric names, come from this checkout; every
# tree measured must report the same laws
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from partmaps.verification import LAWS

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import json, sys
from collections import deque
from time import perf_counter
from partmaps import verification as v
from partmaps.core import iter_partitions
from partmaps.enumeration import _members

n_max = int(sys.argv[1])
start = perf_counter()
results = v.run_verification(n_max)
verify_s = perf_counter() - start
assert all(r.passed for r in results), [r.detail for r in results if not r.passed]

census = [
    (p, v._census(p, v.DEFAULT_GUARD))
    for n in range(1, min(n_max, v.PAIRWISE_N_MAX) + 1)
    for p in iter_partitions(n)
]
tally = v._Tally("homomorphism")
start = perf_counter()
for p, data in census:
    v._check_homomorphism(tally, p, data, v.DEFAULT_GUARD)
homomorphism_s = perf_counter() - start
assert tally.failures == 0

partitions = [p for n in range(1, n_max + 1) for p in iter_partitions(n)]
start = perf_counter()
for p in partitions:
    deque(_members(p, "T", "brute", v.DEFAULT_GUARD), maxlen=0)
brute_t_s = perf_counter() - start

print(json.dumps({
    "verify_s": verify_s,
    "homomorphism_s": homomorphism_s,
    "brute_t_s": brute_t_s,
    "census_seconds": results.census_seconds,
    **{r.name.split("(")[0] + "_seconds": r.seconds for r in results},
    "cases": {r.name: r.cases for r in results},
}))
"""

METRICS = (
    "verify_s",
    "homomorphism_s",
    "brute_t_s",
    "census_seconds",
    *(f"{name.split('(')[0]}_seconds" for name, _ in LAWS),
)


def main(argv: list[str] | None = None) -> int:
    parser = paired.parser(__doc__)
    parser.add_argument("--n-max", type=int, default=5, dest="n_max")
    args = paired.parse_args(parser, argv)
    return paired.compare(
        args,
        code=MEASURE,
        argv=[str(args.n_max)],
        metrics=METRICS,
        benchmark=(
            f"run_verification({args.n_max}), its census, its laws, its homomorphism law "
            "and the brute scan of T"
        ),
        script="benchmarks/bench_verify.py",
        options=f"--n-max {args.n_max}",
    )


if __name__ == "__main__":
    raise SystemExit(main())
