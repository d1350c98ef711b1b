"""Time the CLI's integer writer against ``str()`` on long ints for one or more source trees.

Usage::

    python benchmarks/bench_decimal.py --src before=../old/src --src after=src \
        --rounds 10 --out OUT.json

Each ``--src LABEL=DIR`` names a directory holding the ``partmaps``
package; ``paired.py`` says how the trees take turns and what the JSON
holds.  The writer measured is ``partmaps.cli._int_text``, which writes
every integer the CLI prints; where that function is plain ``str()``, the
two metrics of a size time the same thing.  One measurement lifts the
interpreter's int-to-str digit limit in its own process, so that ``str()``
writes every size, and times, in milliseconds, for random ints of about
2 k, 5 k, 30 k, 100 k and 300 k decimal digits:

* ``writer_<size>_ms``: the writer, median of the repetitions;
* ``str_<size>_ms``: ``str()``, median of the repetitions.

The repetitions fall with the size: 21, 21, 9, 5 and 3.  One write of an
int of about 8 k digits comes first, untimed, so that no size pays for
importing ``decimal``.  Every text the writer gives must equal ``str()``'s.
"""

from __future__ import annotations

import paired

# (label, decimal digits, repetitions)
SIZES = (
    ("2k", 2_000, 21),
    ("5k", 5_000, 21),
    ("30k", 30_000, 9),
    ("100k", 100_000, 5),
    ("300k", 300_000, 3),
)

# runs inside the child interpreter; prints one JSON object
MEASURE = """
import json, random, statistics, sys
from time import perf_counter

import partmaps.cli

SIZES = {sizes!r}
write = partmaps.cli._int_text
sys.set_int_max_str_digits(0)

def median_ms(fn, value, reps):
    times, texts = [], set()
    for _ in range(reps):
        start = perf_counter()
        text = fn(value)
        times.append(perf_counter() - start)
        texts.add(text)
    (text,) = texts
    return statistics.median(times) * 1e3, text

write(7 ** 10_000)
out = {{"digits": {{}}}}
for label, digits, reps in SIZES:
    value = random.Random(digits).randrange(10 ** (digits - 1), 10**digits)
    out[f"writer_{{label}}_ms"], text = median_ms(write, value, reps)
    out[f"str_{{label}}_ms"], want = median_ms(str, value, reps)
    assert text == want, label
    out["digits"][label] = len(want)
print(json.dumps(out))
"""

METRICS = tuple(f"{kind}_{label}_ms" for label, _, _ in SIZES for kind in ("writer", "str"))


def main(argv: list[str] | None = None) -> int:
    args = paired.parse_args(paired.parser(__doc__), argv)
    return paired.compare(
        args,
        code=MEASURE.format(sizes=SIZES),
        argv=[],
        metrics=METRICS,
        benchmark=(
            "the CLI's integer writer against str() with the digit limit "
            "lifted, on random ints of 2 k to 300 k decimal digits"
        ),
        script="benchmarks/bench_decimal.py",
    )


if __name__ == "__main__":
    raise SystemExit(main())
