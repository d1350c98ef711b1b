"""The three benchmark workloads and the checks of their answers.

All three are closed loops with one caller: each call starts when the
previous one returns, in one process with no extra threads.

* ``census``: the paper's research sweep through the library.  Enumerate
  T, Sigma, S and E(Sigma) constructively for every partition of every
  n <= 6, and T by brute force for n <= 5; then evaluate the four
  closed-form counts for every partition of n = 9.  Enumeration, core
  construction, ``iter_partitions`` and counting do nearly all the work.
* ``verify``: one in-process ``partmaps verify --n-max 5 --format json``,
  the heaviest single user command.
* ``queries``: a seeded mix of single CLI calls (``MIX``), drawn from the
  stored pool of calls with reference answers.  Parsing, formatting and
  single predicates set the median; counting at scale and ``--limit``
  prefixes set the tail.

A round is one fixed unit of work: one sweep, one verify call, or one
pass over the mix.  The seed orders the census enumerations and draws the
queries mix; it does not change the verify call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

CENSUS_ENUM_N_MAX = 6
CENSUS_BRUTE_N_MAX = 5
CENSUS_COUNT_N = 9
CENSUS_SETS = ("T", "Sigma", "S", "E-Sigma")
VERIFY_N_MAX = 5
LIMIT = 3

# calls per round of the queries mix, by class
MIX = {
    "check-preserves": 12,
    "check-sigma": 12,
    "check-sigma-character": 12,
    "check-sigma-topology": 12,
    "check-estar": 12,
    "check-units": 12,
    "check-idempotent": 12,
    "check-sigma-idempotent": 12,
    "character": 16,
    "find-partition-map": 8,
    "find-partition-perm": 8,
    "find-partition-cycle": 8,
    "count-small": 16,
    "count-large": 8,
    "count-sigma-heavy": 2,
    "count-over-4300-digits": 2,
    "enumerate-limit-lazy": 6,
    "enumerate-units-prefix": 2,
    "enumerate-esigma-prefix": 1,
    "enumerate-limit-beyond-guard": 1,
    "quotient-small": 8,
    "quotient-7": 1,
}
# classes that fail at the seed commit, with the exit code they fail with;
# they stay in the mix and count as failures, and any other failure makes the
# run incorrect
KNOWN_DEFECTS = {
    "count-over-4300-digits": (2, "answers over 4300 digits hit CPython's int-to-str limit"),
    "enumerate-limit-beyond-guard": (3, "the guard checks the full family, not the prefix"),
}


def known_defect(cls: str, outcome) -> str | None:
    """The reason for a known failure, or None for an unexpected one."""
    code, reason = KNOWN_DEFECTS.get(cls, (None, None))
    return reason if code is not None and str(code) == str(outcome) else None

@dataclass
class Round:
    """What one round did and how long each part took."""

    wall: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))  # seconds, unboxed
    attempted: int = 0
    failures: list = field(default_factory=list)  # (op class, exit code or exception)
    members: int = 0
    members_time: float = 0.0
    partitions: int = 0
    partitions_time: float = 0.0
    stdout_bytes: int = 0
    exits: Counter = field(default_factory=Counter)
    cases: int = 0

    def record(self, latency: float, ok: bool, cls: str, outcome) -> None:
        self.latencies.append(latency)
        self.attempted += 1
        if not ok:
            self.failures.append((cls, outcome))


def load(name: str):
    return json.loads((REFS / f"{name}.json").read_text())


def call_cli(cli, argv, clock, tracer=None):
    """Run ``cli.main(argv)`` with captured output: (exit, stdout, seconds).

    An unexpected exception is returned as its type name instead of an
    exit code, so that it counts as a failure without being raised.
    """
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = clock()
        if tracer is not None:
            tracer.enter(f"cli.main.{argv[0]}")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            code = type(exc).__name__
        finally:
            if tracer is not None:
                tracer.exit()
        seconds = clock() - start
    return code, out.getvalue(), seconds


def stdout_matches(ref: dict, stdout: str) -> bool:
    if "stdout" in ref:
        return stdout == ref["stdout"]
    data = stdout.encode()
    return len(data) == ref["bytes"] and hashlib.sha256(data).hexdigest() == ref["sha256"]


class Census:
    name = "census"

    def setup(self, pm, seed: int) -> None:
        refs = load("census")
        self.enum_refs = refs["enumerations"]
        self.count_refs = refs["counts"]
        self.count_n = refs["count_n"]
        self.partitions_expected = refs["count_partitions"]
        ops = []
        for n in range(1, refs["enum_n_max"] + 1):
            for p in pm.iter_partitions(n):
                text = str(p)
                for kind in CENSUS_SETS:
                    ops.append((f"{text} {kind}", p, kind, "constructive"))
                if n <= refs["brute_n_max"]:
                    ops.append((f"{text} T", p, "T", "brute"))
        random.Random(seed).shuffle(ops)
        self.ops = ops

    @staticmethod
    def _stream(pm, p, kind, strategy):
        if kind == "T":
            return pm.iter_t(p, strategy)
        if kind == "Sigma":
            return pm.iter_sigma(p, strategy)
        if kind == "S":
            return pm.iter_units(p, strategy)
        return pm.iter_idempotents(p, "sigma", strategy)

    def run_round(self, pm, cli, clock, tracer=None) -> Round:
        r = Round()
        begin = clock()
        for key, p, kind, strategy in self.ops:
            start = clock()
            count = 0
            outcome = "wrong answer"
            try:
                it = self._stream(pm, p, kind, strategy)
                first = last = next(it, None)
                if first is not None:
                    count = 1
                    for last in it:
                        count += 1
                    got = [count, list(first.images), list(last.images)]
                    outcome = got == self.enum_refs[key] or outcome
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome = type(exc).__name__
            r.record(clock() - start, outcome is True, f"enumerate-{kind}-{strategy}", outcome)
            r.members += count
        middle = clock()
        r.members_time = middle - begin
        for p in pm.iter_partitions(self.count_n):
            start = clock()
            outcome = "wrong answer"
            try:
                profile = pm.profile_of(p)
                got = [
                    pm.count_t(profile),
                    pm.count_sigma_grouped(profile),
                    pm.count_units(profile),
                    pm.count_sigma_idempotents(profile),
                ]
                key = ",".join(f"{s}:{c}" for s, c in profile.entries)
                outcome = got == self.count_refs[key] or outcome
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome = type(exc).__name__
            r.record(clock() - start, outcome is True, "count-four", outcome)
            r.partitions += 1
        end = clock()
        if r.partitions != self.partitions_expected:
            r.failures.append(("iter-partitions", r.partitions))
        r.partitions_time = end - middle
        r.wall = end - begin
        return r


class Verify:
    name = "verify"

    def setup(self, pm, seed: int) -> None:
        refs = load("verify")
        self.argv = ["verify", "--n-max", str(refs["n_max"]), "--format", "json"]
        self.cases = refs["cases"]
        self.members = refs["members"]
        self.partitions = refs["partitions"]

    def check(self, code, stdout) -> bool:
        if code != 0:
            return False
        try:
            payload = json.loads(stdout)
        except ValueError:
            return False
        got = {c["name"]: (c["passed"], c["cases"]) for c in payload["checks"]}
        want = {name: (True, cases) for name, cases in self.cases.items()}
        return payload["all_passed"] is True and got == want

    def run_round(self, pm, cli, clock, tracer=None) -> Round:
        r = Round()
        code, stdout, seconds = call_cli(cli, self.argv, clock, tracer)
        ok = self.check(code, stdout)
        r.record(seconds, ok, "verify", code)
        r.exits[code] += 1
        r.stdout_bytes += len(stdout)
        if ok:
            r.cases = sum(self.cases.values())
        r.members = self.members
        r.partitions = self.partitions
        r.wall = r.members_time = r.partitions_time = seconds
        return r


class Queries:
    name = "queries"

    def setup(self, pm, seed: int) -> None:
        pool = load("queries")
        rng = random.Random(seed)
        mix = []
        for cls, per_round in MIX.items():
            mix.extend(rng.sample(pool[cls], per_round))
        rng.shuffle(mix)
        self.mix = mix

    def run_round(self, pm, cli, clock, tracer=None) -> Round:
        r = Round()
        begin = clock()
        for ref in self.mix:
            argv = ref["argv"]
            built = tracer.calls("core.Transformation") if tracer is not None else 0
            code, stdout, seconds = call_cli(cli, argv, clock, tracer)
            ok = code == ref["exit"] and stdout_matches(ref, stdout)
            r.record(seconds, ok, ref["cls"], code)
            r.exits[code] += 1
            r.stdout_bytes += len(stdout)
            if argv[0] == "enumerate":
                returned = sum(1 for line in stdout.splitlines() if not line.startswith("#"))
                r.members += returned
                r.members_time += seconds
                if tracer is not None:
                    tracer.count("prefix.built", tracer.calls("core.Transformation") - built)
                    tracer.count("prefix.yielded", returned)
            elif argv[0] == "count":
                r.partitions += 1
                r.partitions_time += seconds
        r.wall = clock() - begin
        return r


WORKLOADS = {w.name: w for w in (Census, Verify, Queries)}
