"""Benchmark for partmaps: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; the package is imported from src/.  Every
line but the last is for people; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run.  ``--workload
all`` runs each workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import REFS, WORKLOADS, known_defect  # noqa: E402

SETUP_REPEATS = 9
# (name, unit): the order in which the end-to-end metrics are reported
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("members_per_s", "1/s"),
    ("partitions_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def fresh_import():
    """Import partmaps and its CLI from src/, discarding earlier imports."""
    for name in [m for m in sys.modules if m == "partmaps" or m.startswith("partmaps.")]:
        del sys.modules[name]
    pm = importlib.import_module("partmaps")
    cli = importlib.import_module("partmaps.cli")
    return pm, cli


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum when there are too few samples for one."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def set_up(workload, seed, clock):
    """``SETUP_REPEATS`` set-ups, each importing the package afresh:
    (partmaps, partmaps.cli, the set-up times)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        pm, cli = fresh_import()
        workload.setup(pm, seed)
        times.append(clock() - start)
    return pm, cli, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, pm, cli, seconds, clock):
    """Rounds of the workload until ``seconds`` have passed, at least one, and
    the peak resident memory after the first round.

    Every round does the same work, so later rounds add only the benchmark's
    own samples; reading the peak after one round keeps a faster program,
    which fits more rounds into the run, from showing more memory.
    """
    rounds = []
    peak = None
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        rounds.append(workload.run_round(pm, cli, clock))
        if peak is None:
            peak = peak_rss_mb()
    return rounds, peak


def failure_summary(rounds):
    by_class: dict[tuple, int] = {}
    for r in rounds:
        for cls, outcome in r.failures:
            by_class[(cls, str(outcome))] = by_class.get((cls, str(outcome)), 0) + 1
    return by_class


def end_to_end(rounds, setup_times, peak_mb):
    latencies = [x for r in rounds for x in r.latencies]
    tail_value, percentile = tail(latencies)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall for r in rounds),
        "members_per_s": statistics.median(r.members / r.members_time for r in rounds),
        "partitions_per_s": statistics.median(
            r.partitions / r.partitions_time for r in rounds
        ),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_value,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "op_tail_ms": f"p{percentile:.3f} of {len(latencies)} samples",
        "op_p50_ms": f"{len(latencies)} samples",
        "wall_s": f"median of {len(rounds)} rounds",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "peak_rss_mb": "ru_maxrss after set-up and the first round",
        "success_rate": f"error_rate {failed / attempted:.6f} = {failed} failed / {attempted} attempted",
    }
    return values, notes, attempted, failed


def run_one(args) -> int:
    if not (ROOT / "src" / "partmaps" / "__init__.py").is_file():
        print(f"error: no partmaps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not all((REFS / f"{name}.json").is_file() for name in WORKLOADS):
        print(f"error: reference answers missing under {REFS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    if args.trace:
        pm, cli, _ = set_up(workload, args.seed, time.perf_counter)
        # untraced and traced rounds alternate, so both see the same machine
        tracer = tracing.Tracer()
        untraced, rounds = [], []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < args.seconds:
            untraced.append(workload.run_round(pm, cli, time.perf_counter))
            restore = tracing.install(tracer)
            try:
                rounds.append(workload.run_round(pm, cli, time.perf_counter, tracer))
            finally:
                tracing.uninstall(restore)
        traced_wall = statistics.median(r.wall for r in rounds)
        untraced_wall = statistics.median(r.wall for r in untraced)
        overhead = traced_wall - untraced_wall
        values = tracing.layer_values(tracer, rounds, overhead)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans, {"workload": args.workload, "seed": args.seed, "rounds": len(rounds)})
        print(f"# {args.workload}: {len(rounds)} traced rounds, spans in {spans.relative_to(ROOT)}")
        print(f"# traced wall_s {traced_wall:.4f}, untraced {untraced_wall:.4f} "
              f"(medians of {len(untraced)} pairs of rounds), overhead {overhead:.4f} s")
        for name, _, _ in tracing.LAYER_METRICS:
            print(f"{args.workload} {name} {values[name]:.6g} {units[name]}")
        attempted = sum(r.attempted for r in rounds)
        failed = sum(len(r.failures) for r in rounds)
    else:
        with SpeedProbe() as probe:
            pm, cli, setup_times = set_up(workload, args.seed, probe.clock)
            rounds, peak_mb = measure(workload, pm, cli, args.seconds, probe.clock)
        values, notes, attempted, failed = end_to_end(rounds, setup_times, peak_mb)
        notes["wall_s"] += f"; machine at {1 / probe.factor():.3f} of reference speed"
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{args.workload} {name} {values[name]:.6g} {unit}{note}")

    failures = failure_summary(rounds)
    for (cls, outcome), count in sorted(failures.items()):
        reason = known_defect(cls, outcome)
        known = f"known defect: {reason}" if reason else "UNEXPECTED"
        print(f"# failed {count}x {cls} (exit {outcome}) - {known}")
    correct = all(known_defect(cls, outcome) for cls, outcome in failures)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their lines, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
