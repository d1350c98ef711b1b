"""Time single in-process ``partmaps.cli.main`` calls for one or more source trees.

Usage::

    python benchmarks/bench_cli.py --src before=../old/src --src after=src \
        --rounds 10 --out OUT.json

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
* ``count_big_ms``: ``count --profile 3:5914 --set T``, an answer of about
  30 800 digits, printed again on every repetition;
* ``count_profile_ms``: ``count --profile 2:2 --set S``, the same profile
  text on every repetition;
* ``count_partition_ms``: ``count -p 0,1|2,3 --set S``, the same partition
  text on every repetition;
* ``enumerate_s_ms``: ``enumerate --set S --limit 3`` on 8 singletons;
* ``quotient7_ms``: ``quotient`` on 7 singletons (5040 classes);
* ``quotient7_mixed_ms``: ``quotient`` on ``0|1,2|3|4,5,6|7|8,9|10``, seven
  blocks of sizes 1 to 3;
* ``quotient7_json_ms``: ``quotient --format json`` on 7 singletons;
* ``chi_classes7_ms``: ``enumeration.chi_classes`` on 7 singletons alone.

Four more metrics time parsing and the library's construction paths
alone, in microseconds per call, as medians over 11 passes:

* ``parse_args_us``: ``cli._parse_args`` on the argvs of the timed
  ``main`` calls above, all plain calls, 50 times over;

* ``parse_partition_us``: ``parse_partition`` on the text of every
  partition with n <= 7 (1 082 texts);
* ``set_partition_us``: ``SetPartition`` on the blocks of the same
  partitions;
* ``parse_transformation_us``: ``parse_transformation`` on the text of
  every map with n <= 4 (288 texts).

The exit code of every call is recorded, and all repetitions of a call
must print the same stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import paired

# the predicate names, and so the metric names, come from this checkout;
# every tree measured must report the same predicates
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from partmaps.cli import PREDICATES

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import io, json, statistics
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from partmaps import cli
from itertools import product
from partmaps.core import SetPartition, iter_partitions, parse_partition, parse_transformation
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
    ("count_big_ms", ["count", "--profile", "3:5914", "--set", "T"], 101),
    ("count_profile_ms", ["count", "--profile", "2:2", "--set", "S"], 101),
    ("count_partition_ms", ["count", "-p", "0,1|2,3", "--set", "S"], 101),
    ("enumerate_s_ms", ["enumerate", "-p", "|".join(map(str, range(8))), "--set", "S",
                        "--limit", "3"], 101),
    ("quotient7_ms", ["quotient", "-p", "|".join(map(str, range(7)))], 11),
    ("quotient7_mixed_ms", ["quotient", "-p", "0|1,2|3|4,5,6|7|8,9|10"], 11),
    ("quotient7_json_ms", ["quotient", "-p", "|".join(map(str, range(7))), "--format", "json"], 11),
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

def median_us(build, inputs):
    times = []
    for _ in range(11):
        start = perf_counter()
        for arg in inputs:
            build(arg)
        times.append(perf_counter() - start)
    return statistics.median(times) / len(inputs) * 1e6

out["parse_args_us"] = median_us(cli._parse_args, [argv for _, argv, _ in CALLS] * 50)
partitions = [q for n in range(1, 8) for q in iter_partitions(n)]
maps = [",".join(map(str, f)) for n in range(1, 5) for f in product(range(n), repeat=n)]
out["parse_partition_us"] = median_us(parse_partition, [str(q) for q in partitions])
out["set_partition_us"] = median_us(SetPartition, [q.blocks for q in partitions])
out["parse_transformation_us"] = median_us(parse_transformation, maps)
print(json.dumps(out))
"""

METRICS = (
    "first_call_ms",
    *(f"check_{pred.replace('-', '_')}_ms" for pred in PREDICATES),
    "count_sigma_ms",
    "count_big_ms",
    "count_profile_ms",
    "count_partition_ms",
    "enumerate_s_ms",
    "quotient7_ms",
    "quotient7_mixed_ms",
    "quotient7_json_ms",
    "chi_classes7_ms",
    "parse_args_us",
    "parse_partition_us",
    "set_partition_us",
    "parse_transformation_us",
)


def main(argv: list[str] | None = None) -> int:
    args = paired.parse_args(paired.parser(__doc__), argv)
    return paired.compare(
        args,
        code=MEASURE,
        argv=[],
        metrics=METRICS,
        benchmark=(
            "in-process cli.main calls, per-call medians, chi_classes on 7 blocks, "
            "argv parsing per call, and the parsers and SetPartition per object"
        ),
        script="benchmarks/bench_cli.py",
    )


if __name__ == "__main__":
    raise SystemExit(main())
