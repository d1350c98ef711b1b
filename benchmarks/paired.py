"""Time a measurement on several source trees in turn and write the comparison as JSON.

The bench scripts in this directory share this module.  Each ``--src
LABEL=DIR`` names a directory holding the ``partmaps`` package.  Every
sample runs the script's measurement code in a fresh interpreter with that
directory on ``PYTHONPATH``; the code prints one JSON object.  The trees
take turns within each round, and the order flips from round to round, so
slow drift of a shared machine hits all of them alike.

The JSON holds every sample, the median and the quartiles per tree and
metric, the non-metric fields of each tree's last sample, and the machine
and Python that ran them.  With two or more trees it also gives, for each
later tree, the ratio of its median to the first tree's, the number of
rounds in which it was faster, and the median and quartiles of its per-round
ratio to the first tree.  The trees of one round run seconds apart, so that
ratio cancels the slow swings of a shared machine's speed, which move the
raw samples of every tree together.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def parser(doc: str) -> argparse.ArgumentParser:
    """The options every bench script takes; scripts may add their own.

    ``--out`` has no default, so that no run overwrites a committed result
    unasked.
    """
    out = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    out.add_argument(
        "--src",
        action="append",
        required=True,
        metavar="LABEL=DIR",
        help="a labelled directory holding the partmaps package; repeat to compare",
    )
    out.add_argument("--rounds", type=int, default=10)
    out.add_argument("--out", required=True, help="the JSON file to write")
    return out


def parse_args(parser: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    args = parser.parse_args(argv)
    args.src = [tuple(item.split("=", 1)) for item in args.src]
    if any(len(tree) != 2 for tree in args.src):
        parser.error("--src takes LABEL=DIR")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")
    return args


def measure(src: str, code: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(samples: list[float]) -> dict:
    return {**quartiles(samples), "samples": samples}


def compared(later: list[float], first: list[float]) -> dict:
    """How a later tree's samples of one metric compare with the first tree's.

    The ratios are null when a sample of the first tree is 0, as for a
    measure that reads 0 on a tree without the thing it measures.
    """
    nonzero = all(first)
    return {
        "median_ratio": statistics.median(later) / statistics.median(first) if nonzero else None,
        "rounds_faster": sum(a < b for a, b in zip(later, first)),
        "round_ratio": quartiles([a / b for a, b in zip(later, first)]) if nonzero else None,
    }


def compare(
    args: argparse.Namespace,
    *,
    code: str,
    argv: list[str],
    metrics: tuple[str, ...],
    benchmark: str,
    script: str,
    options: str = "",
) -> int:
    """Run ``args.rounds`` alternating rounds over ``args.src`` and write ``args.out``.

    ``script`` and its own ``options`` are recorded with ``--src`` and
    ``--rounds`` so that the JSON says how to repeat the run.
    """
    trees = args.src
    samples = {label: {m: [] for m in metrics} for label, _ in trees}
    extra = {}
    for r in range(args.rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for label, src in order:
            got = measure(src, code, argv)
            for m in metrics:
                samples[label][m].append(got.pop(m))
            extra[label] = got
            print(
                f"round {r + 1} {label}: "
                + ", ".join(f"{m}={samples[label][m][-1]:.3f}" for m in metrics)
            )

    labels = [label for label, _ in trees]
    report = {
        "benchmark": benchmark,
        "command": " ".join(
            ["python", script]
            + [f"--src {label}=<dir>" for label in labels]
            + [f"--rounds {args.rounds}"]
            + ([options] if options else [])
        ),
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
            label: {**extra[label], **{m: summary(samples[label][m]) for m in metrics}}
            for label in labels
        },
    }
    base = labels[0]
    report["comparison"] = {
        label: {m: compared(samples[label][m], samples[base][m]) for m in metrics}
        for label in labels[1:]
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0
