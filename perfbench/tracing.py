"""Per-layer tracing from outside the package.

The tracer wraps partmaps' public functions at every binding site (each
``partmaps.*`` module namespace that holds the name), wraps construction of
``Transformation`` and ``SetPartition`` at the class, and wraps the
iterators that ``iter_*`` return so that each ``next()`` is its own span:
time a consumer spends between two items is never charged to the
generator.  Spans nest on a stack; a span's self time is its duration minus
the durations of its direct children.  Totals are kept per span name, and
the first ``keep`` spans are kept in memory and written out at the end.
Nothing under src/ changes.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

FUNCTIONS = {
    "core": ("compose", "format_transformation", "profile_of"),
    "membership": (
        "preserves",
        "in_sigma",
        "in_units",
        "character",
        "block_map_family",
        "sigma_via_character",
        "sigma_via_topology",
        "is_e_star_preserving",
        "is_idempotent",
        "sigma_idempotent_via_blocks",
    ),
    "enumeration": ("chi_classes",),
    "counting": (
        "count_t",
        "count_units",
        "count_sigma_grouped",
        "count_sigma_direct",
        "count_sigma_idempotents",
    ),
    "cycles": (
        "find_preserved_partition",
        "decompose",
        "preserved_m_partition_exists",
        "search_unit_m_partition",
    ),
    "verification": ("run_verification",),
}
# both text parsers report under one name
PARSERS = ("parse_transformation", "parse_partition")
CLASSES = ("Transformation", "SetPartition")
STRATEGY_ITERATORS = ("iter_t", "iter_sigma", "iter_units", "iter_idempotents")
STRATEGIES = ("constructive", "brute")
# these three visit image tables themselves; brute iter_idempotents delegates
TABLE_VISITORS = ("iter_t", "iter_sigma", "iter_units")
CLI_COMMANDS = ("check", "count", "enumerate", "quotient", "character", "find-partition", "verify")
EXIT_CODES = (0, 1, 2, 3)


def _layer_metrics():
    out = []

    def timed(span, count="calls"):
        out.append((f"{span}.{count}", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))

    for cls in CLASSES:
        timed(f"core.{cls}")
    timed("core.iter_partitions", "items")
    for name in ("compose", "format_transformation", "parse", "profile_of"):
        timed(f"core.{name}")
    for name in FUNCTIONS["membership"]:
        timed(f"membership.{name}")
    for name in STRATEGY_ITERATORS:
        for strategy in STRATEGIES:
            timed(f"enumeration.{name}.{strategy}", "items")
    out.append(("enumeration.brute.yield_ratio", "ratio", "higher"))
    out.append(("enumeration.prefix.built_per_yielded", "ratio", "lower"))
    timed("enumeration.chi_classes")
    for name in FUNCTIONS["counting"]:
        timed(f"counting.{name}")
    for name in FUNCTIONS["cycles"]:
        timed(f"cycles.{name}")
    timed("verification.run_verification")
    out.append(("verification.cases", "count", "higher"))
    for cmd in CLI_COMMANDS:
        timed(f"cli.main.{cmd}")
    out.append(("cli.stdout_bytes", "bytes", "lower"))
    for code in EXIT_CODES:
        out.append((f"cli.exit.{code}", "count", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = _layer_metrics()


class Tracer:
    """Nested spans with per-name call counts and self time."""

    def __init__(self, clock=time.perf_counter, keep=50_000):
        self.clock = clock
        self.keep = keep
        self.stats: dict[str, list] = {}  # name -> [spans, self seconds]
        self.items: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (root id, id, parent id, name, start, end)
        self.span_count = 0
        self.brute: list[TracedIterator] = []
        self._stack: list[list] = []  # [name, start, child seconds, id, root id]

    def enter(self, name: str) -> None:
        self.span_count += 1
        sid = self.span_count
        stack = self._stack
        root = stack[0][3] if stack else sid
        stack.append([name, self.clock(), 0.0, sid, root])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        name, start, child, sid, root = stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - child
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        if len(self.spans) < self.keep:
            self.spans.append((root, sid, parent, name, start, end))

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def yield_ratio(self) -> float:
        """Members yielded per image table visited, over brute-force iterators."""
        yielded = visited = 0
        for it in self.brute:
            yielded += it.items
            visited += it.tables_visited()
        return yielded / visited if visited else 0.0

    def write(self, path, header: dict) -> None:
        with open(path, "w") as out:
            header = dict(header, spans_total=self.span_count, spans_kept=len(self.spans))
            out.write(json.dumps(header) + "\n")
            for root, sid, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"op": root, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


class TracedIterator:
    """Times each ``next()`` of a wrapped iterator as one span."""

    __slots__ = ("_it", "_name", "_tracer", "items", "last", "done", "n")

    def __init__(self, it, name, tracer, n=0):
        self._it = it
        self._name = name
        self._tracer = tracer
        self.items = 0
        self.last = None
        self.done = False
        self.n = n

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            item = next(self._it)
        except StopIteration:
            self.done = True
            raise
        finally:
            tracer.exit()
        self.items += 1
        tracer.items[self._name] = tracer.items.get(self._name, 0) + 1
        self.last = item
        return item

    def tables_visited(self) -> int:
        """Tables a lexicographic brute-force scan read up to where it stopped."""
        n = self.n
        if self.done:
            return n**n
        if self.last is None:
            return 0
        rank = 0
        for y in self.last.images:
            rank = rank * n + y
        return rank + 1


def _wrap_function(fn, name, tracer):
    enter, exit_ = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    traced.__wrapped__ = fn
    return traced


def _wrap_iterator(fn, base, tracer, split):
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        name = base
        bound = None
        if split:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            name = f"{base}.{bound.arguments['strategy']}"
        tracer.enter(name)
        try:
            it = fn(*args, **kwargs)
        finally:
            tracer.exit()
        wrapped = TracedIterator(it, name, tracer)
        if bound is not None and bound.arguments["strategy"] == "brute":
            if fn.__name__ in TABLE_VISITORS:
                wrapped.n = bound.arguments["p"].n
                tracer.brute.append(wrapped)
        return wrapped

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced name in every loaded partmaps module.

    Returns the (owner, attribute, original) triples that :func:`uninstall`
    puts back.
    """
    modules = [m for key, m in sys.modules.items() if key == "partmaps" or key.startswith("partmaps.")]
    home = {m.__name__.rpartition(".")[2]: m for m in modules}
    targets = []
    for layer, names in FUNCTIONS.items():
        for name in names:
            original = getattr(home[layer], name)
            targets.append((original, _wrap_function(original, f"{layer}.{name}", tracer)))
    for name in PARSERS:
        original = getattr(home["core"], name)
        targets.append((original, _wrap_function(original, "core.parse", tracer)))
    original = home["core"].iter_partitions
    targets.append((original, _wrap_iterator(original, "core.iter_partitions", tracer, False)))
    for name in STRATEGY_ITERATORS:
        original = getattr(home["enumeration"], name)
        targets.append(
            (original, _wrap_iterator(original, f"enumeration.{name}", tracer, True))
        )
    restore = []
    for original, wrapper in targets:
        attr = original.__name__
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                restore.append((module, attr, original))
    for name in CLASSES:
        cls = getattr(home["core"], name)
        restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = _wrap_function(cls.__init__, f"core.{name}", tracer)
    return restore


def uninstall(restore: list[tuple]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def layer_values(tracer: Tracer, rounds: list, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, per traced round."""
    count = len(rounds)
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls(span) / count
        elif stat == "items":
            values[name] = tracer.items.get(span, 0) / count
        elif stat == "self_s":
            values[name] = tracer.self_time(span) / count
    values["enumeration.brute.yield_ratio"] = tracer.yield_ratio()
    built = tracer.counters.get("prefix.built", 0)
    yielded = tracer.counters.get("prefix.yielded", 0)
    values["enumeration.prefix.built_per_yielded"] = built / max(yielded, 1)
    values["verification.cases"] = sum(r.cases for r in rounds) / count
    values["cli.stdout_bytes"] = sum(r.stdout_bytes for r in rounds) / count
    for code in EXIT_CODES:
        values[f"cli.exit.{code}"] = sum(r.exits.get(code, 0) for r in rounds) / count
    values["trace.overhead_s"] = overhead_s
    return values
