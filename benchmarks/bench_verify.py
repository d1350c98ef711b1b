"""Time ``run_verification(5)`` and its homomorphism law for one or more source trees.

Usage::

    python benchmarks/bench_verify.py --src before=../old/src --src after=src \
        --rounds 10 --out BENCH_4.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package.  Every measurement runs in a fresh interpreter with that directory
first on ``sys.path``.  The trees take turns within each round, and the
order flips from round to round, so slow drift of a shared machine hits
all of them alike.  One measurement times:

* ``verify_s``: one ``run_verification(n_max)`` call, the work of
  ``partmaps verify --n-max 5``;
* ``homomorphism_s``: the character-homomorphism law alone over every
  partition with at most ``PAIRWISE_N_MAX`` points, on a census built
  beforehand and not timed.

The JSON holds every sample, the median and the quartiles per tree and
metric, and the machine and Python that ran them.  With two or more trees
it also gives, for each later tree, the ratio of its median to the first
tree's and the number of rounds in which it was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import json, sys
from time import perf_counter
from partmaps import verification as v
from partmaps.core import iter_partitions

n_max = int(sys.argv[1])
start = perf_counter()
results = v.run_verification(n_max)
verify_s = perf_counter() - start
assert all(r.passed for r in results), [r.detail for r in results if not r.passed]

census = [
    (p, v._census(p, v.DEFAULT_GUARD), str(p))
    for n in range(1, min(n_max, v.PAIRWISE_N_MAX) + 1)
    for p in iter_partitions(n)
]
tally = v._Tally("homomorphism")
start = perf_counter()
for p, data, label in census:
    # keywords, so that every argument order of the law's signature works
    v._check_homomorphism(p=p, data=data, homomorphism=tally, label=label)
homomorphism_s = perf_counter() - start
assert tally.failures == 0

print(json.dumps({
    "verify_s": verify_s,
    "homomorphism_s": homomorphism_s,
    "cases": {r.name: r.cases for r in results},
}))
"""

METRICS = ("verify_s", "homomorphism_s")


def measure(src: str, n_max: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", MEASURE, str(n_max)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--src",
        action="append",
        required=True,
        metavar="LABEL=DIR",
        help="a labelled directory holding the partmaps package; repeat to compare",
    )
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--n-max", type=int, default=5, dest="n_max")
    parser.add_argument("--out", default="BENCH_4.json")
    args = parser.parse_args(argv)
    trees = [tuple(item.split("=", 1)) for item in args.src]
    if any(len(t) != 2 for t in trees):
        parser.error("--src takes LABEL=DIR")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")

    samples = {label: {m: [] for m in METRICS} for label, _ in trees}
    cases = {}
    for r in range(args.rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for label, src in order:
            got = measure(src, args.n_max)
            for m in METRICS:
                samples[label][m].append(got[m])
            cases[label] = got["cases"]
            print(f"round {r + 1} {label}: " + ", ".join(f"{m}={got[m]:.3f}" for m in METRICS))

    labels = [label for label, _ in trees]
    report = {
        "benchmark": f"run_verification({args.n_max}) and its homomorphism law",
        "command": "python benchmarks/bench_verify.py "
        + " ".join(f"--src {label}=<dir>" for label in labels)
        + f" --rounds {args.rounds} --n-max {args.n_max}",
        "rounds": args.rounds,
        "order": "trees alternate within each round; the order flips every round",
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpu_count": os.cpu_count(),
        },
        "python": {
            "version": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "trees": {
            label: {"cases": cases[label], **{m: summary(samples[label][m]) for m in METRICS}}
            for label in labels
        },
    }
    base = labels[0]
    report["comparison"] = {
        label: {
            m: {
                "median_ratio": statistics.median(samples[label][m])
                / statistics.median(samples[base][m]),
                "rounds_faster": sum(
                    a < b for a, b in zip(samples[label][m], samples[base][m])
                ),
            }
            for m in METRICS
        }
        for label in labels[1:]
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
