"""Time single in-process ``partmaps.cli.main`` calls for one or more source trees.

Usage::

    python benchmarks/bench_cli.py --src before=../old/src --src after=src \
        --rounds 10 --out BENCH_8.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement imports the CLI, times its first ``main`` call,
then times repeated calls with stdout and stderr captured, as a program
that calls ``main`` many times would see them.  The metrics, in
milliseconds, are medians of the repetitions except the first:

* ``first_call_ms``: the first ``main`` call (a ``check``), made once,
  which pays any one-time set-up of the CLI;
* ``check_<predicate>_ms``: ``check -p 0,1|2,3 -f 2,3,0,1`` with each
  predicate;
* ``count_sigma_ms``: ``count --profile 2:30,3:30 --set Sigma``;
* ``enumerate_s_ms``: ``enumerate --set S --limit 3`` on 8 singletons;
* ``quotient7_ms``: ``quotient`` on 7 singletons (5040 classes);
* ``chi_classes7_ms``: ``enumeration.chi_classes`` on 7 singletons alone.

The exit code of every call is recorded, and all repetitions of a call
must print the same stdout.
"""

from __future__ import annotations

import paired

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import io, json, statistics
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from partmaps import cli
from partmaps.core import parse_partition
from partmaps.enumeration import chi_classes

def call(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds

def median_ms(argv, reps):
    codes, outs, times = set(), set(), []
    for _ in range(reps):
        code, stdout, seconds = call(argv)
        codes.add(code)
        outs.add(stdout)
        times.append(seconds)
    assert len(codes) == len(outs) == 1, argv
    return statistics.median(times) * 1e3, codes.pop()

CHECK = ["check", "-p", "0,1|2,3", "-f", "2,3,0,1", "--predicate"]
CALLS = [(f"check_{pred.replace('-', '_')}_ms", CHECK + [pred], 101) for pred in cli.PREDICATES]
CALLS += [
    ("count_sigma_ms", ["count", "--profile", "2:30,3:30", "--set", "Sigma"], 101),
    ("enumerate_s_ms", ["enumerate", "-p", "|".join(map(str, range(8))), "--set", "S",
                        "--limit", "3"], 101),
    ("quotient7_ms", ["quotient", "-p", "|".join(map(str, range(7)))], 11),
]

out = {"exits": {}}
code, _, seconds = call(CHECK + ["sigma"])
out["first_call_ms"] = seconds * 1e3
for name, argv, reps in CALLS:
    out[name], out["exits"][name] = median_ms(argv, reps)

p = parse_partition("|".join(map(str, range(7))))
times = []
for _ in range(11):
    start = perf_counter()
    classes = chi_classes(p)
    times.append(perf_counter() - start)
assert len(classes) == 5040
out["chi_classes7_ms"] = statistics.median(times) * 1e3
print(json.dumps(out))
"""

PREDICATES = (
    "preserves",
    "sigma",
    "sigma_character",
    "sigma_topology",
    "estar",
    "units",
    "idempotent",
    "sigma_idempotent",
)
METRICS = (
    "first_call_ms",
    *(f"check_{pred}_ms" for pred in PREDICATES),
    "count_sigma_ms",
    "enumerate_s_ms",
    "quotient7_ms",
    "chi_classes7_ms",
)


def main(argv: list[str] | None = None) -> int:
    args = paired.parse_args(paired.parser(__doc__, default_out="BENCH_8.json"), argv)
    return paired.compare(
        args,
        code=MEASURE,
        argv=[],
        metrics=METRICS,
        benchmark="in-process cli.main calls, per-call medians, and chi_classes on 7 blocks",
        script="benchmarks/bench_cli.py",
    )


if __name__ == "__main__":
    raise SystemExit(main())
