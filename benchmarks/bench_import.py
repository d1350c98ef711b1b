"""Time importing partmaps and starting fresh CLI processes for one or more source trees.

Usage::

    python benchmarks/bench_import.py --src before=../old/src --src after=src \
        --rounds 10 --out OUT.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  One measurement times, in milliseconds:

* ``import_source_ms``: ``import partmaps, partmaps.cli`` after dropping
  every ``partmaps`` module from ``sys.modules``, as perfbench's set-up
  does, with bytecode neither read nor written, so each import compiles
  every module it runs; median of 9;
* ``import_cached_ms``: the same import with bytecode cached (after one
  import that writes it); median of 9;
* ``check_ms``, ``count_ms``, ``verify_ms``: the wall time of a fresh
  ``python -m partmaps`` process running ``check -p 0,1|2 -f 2,2,0
  --predicate sigma``, ``count --profile 2:2 --set S`` and ``verify
  --n-max 1``, with bytecode cached; median of 5;
* ``python_ms``: a fresh ``python -c pass``, the floor under the three
  process times; median of 5.

Bytecode goes to temporary directories (``sys.pycache_prefix`` in process,
``PYTHONPYCACHEPREFIX`` for the CLI processes), so no ``__pycache__`` a
tree happens to hold is read.  The exit code, the stdout and the stderr
of every CLI process are recorded, and all repetitions of a call must
give the same ones.
"""

from __future__ import annotations

import paired

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import importlib, json, os, statistics, subprocess, sys, tempfile
from time import perf_counter

def fresh_import():
    for name in [m for m in sys.modules if m == "partmaps" or m.startswith("partmaps.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("partmaps")
    importlib.import_module("partmaps.cli")
    return perf_counter() - start

def median_ms(times):
    return statistics.median(times) * 1e3

CALLS = {
    "check_ms": ["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma"],
    "count_ms": ["count", "--profile", "2:2", "--set", "S"],
    "verify_ms": ["verify", "--n-max", "1"],
}

out = {"outputs": {}}
with tempfile.TemporaryDirectory() as source_prefix, tempfile.TemporaryDirectory() as cached:
    sys.pycache_prefix = source_prefix
    sys.dont_write_bytecode = True
    out["import_source_ms"] = median_ms([fresh_import() for _ in range(9)])
    sys.pycache_prefix = cached
    sys.dont_write_bytecode = False
    fresh_import()
    out["import_cached_ms"] = median_ms([fresh_import() for _ in range(9)])

    env = dict(os.environ, PYTHONPYCACHEPREFIX=cached)
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def process(argv):
        start = perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        return perf_counter() - start, (proc.returncode, proc.stdout, proc.stderr)

    for name, argv in CALLS.items():
        process(["-m", "partmaps", *argv])  # writes the bytecode of what the call runs
        runs = [process(["-m", "partmaps", *argv]) for _ in range(5)]
        outputs = {answer for _, answer in runs}
        assert len(outputs) == 1, (argv, outputs)
        out[name] = median_ms([seconds for seconds, _ in runs])
        out["outputs"][name] = outputs.pop()
    process(["-c", "pass"])
    out["python_ms"] = median_ms([process(["-c", "pass"])[0] for _ in range(5)])
print(json.dumps(out))
"""

METRICS = (
    "import_source_ms",
    "import_cached_ms",
    "check_ms",
    "count_ms",
    "verify_ms",
    "python_ms",
)


def main(argv: list[str] | None = None) -> int:
    args = paired.parse_args(paired.parser(__doc__), argv)
    return paired.compare(
        args,
        code=MEASURE,
        argv=[],
        metrics=METRICS,
        benchmark=(
            "fresh in-process imports of partmaps and partmaps.cli, from source and "
            "from cached bytecode, and fresh python -m partmaps processes"
        ),
        script="benchmarks/bench_import.py",
    )


if __name__ == "__main__":
    raise SystemExit(main())
