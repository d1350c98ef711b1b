"""The cross-validation harness: case counts, per-law timing, failure text."""

import os
import re
import signal
import threading

import pytest

from partmaps import cli, verification
from partmaps.core import DEFAULT_GUARD, CharacterMap, GuardExceededError
from partmaps.verification import run_verification

CASES_AT_3 = {
    "cardinality-formulas-vs-enumeration": 40,
    "brute-vs-constructive-enumeration": 32,
    "containments-and-idempotent-intersection": 24,
    "sigma-four-way-equivalence": 108,
    "character-homomorphism(n<=3)": 2166,
    "units-criterion-and-block-images": 151,
    "sigma-idempotent-blockwise": 83,
    "t-idempotent-character": 120,
    "chi-quotient-classes": 50,
    "full-cycle-divisibility": 3,
    "full-cycle-units-uniform": 14,
}


def _is_target(f, p):
    """The map 2,2,0 on a partition with two blocks."""
    return f.images == (2, 2, 0) and p.m == 2


def _by_name(results):
    return {r.name: r for r in results}


def test_case_counts_and_passes_are_pinned():
    results = run_verification(3)
    assert {r.name: r.cases for r in results} == CASES_AT_3
    assert all(r.passed for r in results)


def test_an_appended_law_reports_last_with_its_cases(monkeypatch):
    def one_case_per_partition(tally, p, data, guard):
        tally.check(True, str)

    monkeypatch.setattr(
        verification, "LAWS", (*verification.LAWS, ("appended", one_case_per_partition))
    )
    results = run_verification(2)
    assert len(results) == len(CASES_AT_3) + 1
    # the partitions 0, 0,1 and 0|1
    assert (results[-1].name, results[-1].passed, results[-1].cases) == ("appended", True, 3)


def test_the_pairwise_cap_scopes_only_the_homomorphism_law(monkeypatch):
    monkeypatch.setattr(verification, "PAIRWISE_N_MAX", 2)
    expected = [
        ("character-homomorphism(n<=2)", 33) if name.startswith("character-") else (name, cases)
        for name, cases in CASES_AT_3.items()
    ]
    assert [(r.name, r.cases) for r in run_verification(3)] == expected


def test_wrong_character_fails_the_homomorphism_with_its_pairs(monkeypatch):
    real = verification.character

    def wrong(f, p):
        return CharacterMap((0, 0)) if _is_target(f, p) else real(f, p)

    monkeypatch.setattr(verification, "character", wrong)
    law = _by_name(run_verification(3))["character-homomorphism(n<=3)"]
    assert not law.passed
    assert law.cases == 2166
    assert law.detail == (
        "2166 cases, 15 failures: "
        "0,0,0;2,2,0 at 0,1|2; 0,0,1;2,2,0 at 0,1|2; 0,1,0;2,2,0 at 0,1|2"
    )


def test_wrong_topology_fails_the_four_way_equivalence(monkeypatch):
    real = verification.sigma_via_topology

    def negated(f, p):
        return real(f, p) != _is_target(f, p)

    monkeypatch.setattr(verification, "sigma_via_topology", negated)
    law = _by_name(run_verification(3))["sigma-four-way-equivalence"]
    assert not law.passed
    assert law.detail == "108 cases, 2 failures: 2,2,0 at 0,1|2; 2,2,0 at 0,2|1"


@pytest.mark.parametrize(
    "edit",
    [
        lambda members: members[:3] + members[4:],  # one member missing
        lambda members: members[:3] + members[4:5] + members[3:4] + members[5:],  # two swapped
    ],
    ids=["missing", "swapped"],
)
def test_a_wrong_constructive_stream_fails_the_strategy_law(monkeypatch, edit):
    real = verification._members

    def edited(p, set_name, strategy, *args):
        stream = real(p, set_name, strategy, *args)
        if strategy == "constructive" and set_name == "Sigma" and str(p) == "0,1|2":
            return iter(edit(list(stream)))
        return stream

    monkeypatch.setattr(verification, "_members", edited)
    law = _by_name(run_verification(3))["brute-vs-constructive-enumeration"]
    assert not law.passed
    assert law.detail == "32 cases, 1 failures: Sigma sequences at 0,1|2"


def test_a_unit_missing_from_the_census_fails_the_units_law(monkeypatch):
    real = verification._census

    def without_swap(p, guard):
        data = real(p, guard)
        if str(p) == "0,1|2":
            data["S"] = [f for f in data["S"] if f.images != (1, 0, 2)]
        return data

    monkeypatch.setattr(verification, "_census", without_swap)
    law = _by_name(run_verification(3))["units-criterion-and-block-images"]
    assert not law.passed
    # the unit's two block-image cases go with it
    assert law.detail == "149 cases, 1 failures: unit criteria disagree on 1,0,2 at 0,1|2"


def test_failure_text_is_built_only_for_stored_failures():
    tally = verification._Tally("law")
    built = []

    def describe(text):
        def build():
            built.append(text)
            return text

        return build

    for i in range(5):
        tally.check(i % 2 == 0, describe(f"even {i}"))
    for i in range(5):
        tally.check(False, describe(f"fail {i}"))
    assert built == ["even 1", "even 3", "fail 0"]
    result = tally.result()
    assert (result.cases, result.passed) == (10, False)
    assert result.detail == "10 cases, 7 failures: even 1; even 3; fail 0"


def test_batch_checks_pass_the_failing_index_to_describe():
    tally = verification._Tally("law")
    seen = []

    def describe(i):
        seen.append(i)
        return f"case {i}"

    tally.check_all(map(bool, [1, 0, 1, 1, 0]), describe)
    tally.check_all([True, True], describe)
    assert seen == [1, 4]
    assert (tally.cases, tally.failures) == (7, 2)
    assert tally.result().detail == "7 cases, 2 failures: case 1; case 4"


def test_equal_lists_count_their_cases_and_unequal_ones_each_position():
    tally = verification._Tally("law")
    seen = []

    def describe(i):
        seen.append(i)
        return f"case {i}"

    tally.check_equal([1, 2, 3], [1, 2, 3], describe)
    assert (tally.cases, tally.failures, seen) == (3, 0, [])
    tally.check_equal([1, 2, 3], [1, 0, 0], describe)
    assert (tally.cases, tally.failures, seen) == (6, 2, [1, 2])
    assert tally.result().detail == "6 cases, 2 failures: case 1; case 2"


def test_single_and_batch_checks_share_the_first_three_examples():
    tally = verification._Tally("law")
    built = []

    def single(text):
        def build():
            built.append(text)
            return text

        return build

    def batch(name):
        def build(i):
            built.append(f"{name} {i}")
            return f"{name} {i}"

        return build

    tally.check(True, single("pass"))
    tally.check(False, single("single"))
    tally.check_all([True, False, True, False, False], batch("first"))
    tally.check(False, single("late single"))
    tally.check_all([False, False], batch("late batch"))
    assert built == ["single", "first 1", "first 3"]
    result = tally.result()
    assert (result.cases, result.passed) == (10, False)
    assert result.detail == "10 cases, 7 failures: single; first 1; first 3"


def test_one_wrong_character_fails_only_its_homomorphism_pairs(monkeypatch):
    real = verification.character

    def wrong(f, p):
        # the constant map 0,0 on 0|1 has character 0,0, not 1,1
        return CharacterMap((1, 1)) if f.images == (0, 0) and p.m == 2 else real(f, p)

    monkeypatch.setattr(verification, "character", wrong)
    law = _by_name(run_verification(2))["character-homomorphism(n<=2)"]
    assert not law.passed
    # the text the harness printed when each pair was its own check
    assert law.detail == "33 cases, 2 failures: 0,0;1,0 at 0|1; 1,1;1,0 at 0|1"


def test_each_law_and_the_census_are_timed():
    results = run_verification(3)
    assert all(r.seconds > 0 for r in results)
    assert results.census_seconds > 0


def test_wrong_character_fails_the_t_idempotent_law_with_its_text(monkeypatch):
    real = verification.character

    def wrong(f, p):
        # the identity on 0|1 has character 0,1, not the swap 1,0
        return CharacterMap((1, 0)) if f.images == (0, 1) and p.m == 2 else real(f, p)

    monkeypatch.setattr(verification, "character", wrong)
    law = _by_name(run_verification(2))["t-idempotent-character"]
    assert not law.passed
    assert law.detail == "15 cases, 1 failures: character of 0,1 at 0|1"


@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_is_rejected(n_max):
    with pytest.raises(ValueError, match="^n_max must be at least 1$"):
        run_verification(n_max)


@pytest.mark.parametrize("n_max", [True, 2.5, 2.0, "2"])
def test_non_int_n_max_is_rejected(n_max):
    with pytest.raises(ValueError, match=f"^n_max {re.escape(repr(n_max))} is not an int$"):
        run_verification(n_max)


@pytest.mark.parametrize("guard", [0, -1])
def test_guard_below_one_is_rejected(guard):
    with pytest.raises(ValueError, match="guard must be positive"):
        run_verification(1, guard=guard)


@pytest.mark.parametrize(
    "guard, n", [(1, 2), (4, 3), (27, 4), (3125, 6), (DEFAULT_GUARD, 8)]
)
def test_an_oversized_n_max_is_refused_at_the_first_n_past_the_guard(guard, n):
    with pytest.raises(GuardExceededError) as exc:
        run_verification(10**9, guard=guard)
    assert (exc.value.what, exc.value.required, exc.value.guard) == (
        f"brute-force candidate maps at n={n}",
        n**n,
        guard,
    )


# a run's partitions by position, up to n = 3: with two shares the caller
# runs 0, 0|1, 0,1|2 and 0|1,2, and its worker 0,1, 0,1,2, 0,2|1 and 0|1|2
AT_3 = ["0", "0,1", "0|1", "0,1,2", "0,1|2", "0,2|1", "0|1,2", "0|1|2"]


def cpus(monkeypatch, count):
    """Make the process see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report(results):
    return [(r.name, r.passed, r.cases, r.detail) for r in results]


def test_shares_interleave_the_partitions():
    assert verification._split(list(range(7)), 3) == [[0, 3, 6], [1, 4], [2, 5]]
    assert verification._split(list(range(3)), 1) == [[0, 1, 2]]
    assert verification._split(list(range(2)), 2) == [[0], [1]]


def test_a_run_splits_into_one_share_per_usable_cpu(monkeypatch):
    cpus(monkeypatch, 4)
    assert [verification._ways(count) for count in (1, 3, 4, 52)] == [1, 3, 4, 4]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verification._ways(52) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verification._ways(52) == 1


def test_nothing_forks_where_fork_is_missing(monkeypatch):
    cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert verification._ways(52) == 1


def test_nothing_forks_beside_another_thread(monkeypatch):
    cpus(monkeypatch, 4)
    ways = []
    thread = threading.Thread(target=lambda: ways.append(verification._ways(52)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert ways == [1]


def constant_maps_fail(monkeypatch):
    """Fault the character and the topological route on the map sending
    every point to 0, on a partition of two or more blocks: the identity
    character, and the wrong answer.  Cases of several laws fail at many
    partitions in every share, and the four-way law fails one case at each
    such partition."""
    real_character, real_topology = verification.character, verification.sigma_via_topology

    def faulty(f, p):
        return p.m > 1 and not any(f.images)

    monkeypatch.setattr(
        verification,
        "character",
        lambda f, p: CharacterMap(tuple(range(p.m))) if faulty(f, p) else real_character(f, p),
    )
    monkeypatch.setattr(
        verification, "sigma_via_topology", lambda f, p: real_topology(f, p) != faulty(f, p)
    )


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_a_split_run_reports_what_one_process_does(monkeypatch, n_max, faulty):
    if faulty:
        constant_maps_fail(monkeypatch)
    cpus(monkeypatch, 3)
    split = run_verification(n_max)
    assert_no_child_left()
    cpus(monkeypatch, 1)
    alone = run_verification(n_max)
    assert report(split) == report(alone)
    assert all(r.passed for r in alone) is not (faulty and n_max > 1)


def test_the_first_three_failures_come_from_both_shares_in_order(monkeypatch):
    constant_maps_fail(monkeypatch)
    cpus(monkeypatch, 2)
    law = _by_name(run_verification(3))["sigma-four-way-equivalence"]
    # 0|1 and 0,1|2 are the caller's, 0,2|1 the worker's
    assert law.detail == "108 cases, 5 failures: 0,0 at 0|1; 0,0,0 at 0,1|2; 0,0,0 at 0,2|1"
    assert_no_child_left()


def test_one_cpu_forks_nothing(monkeypatch):
    cpus(monkeypatch, 1)

    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    results = run_verification(3)
    assert {r.name: r.cases for r in results} == CASES_AT_3
    assert all(r.passed for r in results)


def raising_at(*where):
    """A law that raises at the partitions named, naming the partition and its process."""

    def law(tally, p, data, guard):
        if str(p) in where:
            raise LookupError(f"{p} in process {os.getpid()}")

    return law


@pytest.mark.parametrize(
    "where, first",
    [(["0,1"], "0,1"), (["0,2|1", "0,1|2"], "0,1|2"), (["0|1", "0,1"], "0,1")],
)
def test_the_earliest_raise_reaches_the_caller_and_no_child_is_left(monkeypatch, where, first):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(verification, "LAWS", (*verification.LAWS, ("raises", raising_at(*where))))
    with pytest.raises(LookupError) as exc:
        run_verification(3)
    assert str(exc.value).startswith(f"{first} in process ")
    # each raising partition's own process: the caller's share holds the even positions
    assert (str(exc.value) == f"{first} in process {os.getpid()}") == (AT_3.index(first) % 2 == 0)
    assert_no_child_left()


class NeedsTwoArguments(Exception):
    """An exception that pickles but does not unpickle: its class takes two arguments."""

    def __init__(self, what, count):
        super().__init__(f"{what} x{count}")


def test_an_exception_that_does_not_unpickle_arrives_as_its_type_and_message(monkeypatch):
    def raises(tally, p, data, guard):
        if str(p) == "0,1":  # in the worker's share
            raise NeedsTwoArguments("boom", 2)

    monkeypatch.setattr(verification, "LAWS", (*verification.LAWS, ("raises", raises)))
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^NeedsTwoArguments: boom x2$"):
        run_verification(2)
    assert_no_child_left()
    cpus(monkeypatch, 1)
    with pytest.raises(NeedsTwoArguments, match="^boom x2$"):
        run_verification(2)


def test_a_refusal_in_a_workers_share_exits_3_with_the_callers_text(monkeypatch, capsys):
    def refuses(tally, p, data, guard):
        if str(p) == "0,2|1":  # in the worker's share
            raise GuardExceededError("widgets at 0,2|1", 5, 4)

    monkeypatch.setattr(verification, "LAWS", (*verification.LAWS, ("refuses", refuses)))
    outcomes = []
    for count in (2, 1):
        cpus(monkeypatch, count)
        code = cli.main(["verify", "--n-max", "3"])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1] == (
        3,
        "",
        "error: widgets at 0,2|1 needs 5 items, exceeds guard 4; "
        "raise the guard or use a counting formula instead\n",
    )
    assert_no_child_left()


def failing_fork(monkeypatch, fails):
    """Make ``os.fork`` raise ``BlockingIOError``, as under a process limit,
    on the calls whose number (from 1) ``fails`` holds; it forks on the rest."""
    real_fork, calls = os.fork, []

    def fork():
        calls.append(None)
        if fails(len(calls)):
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize(
    "fails, forks",
    [(lambda call: True, 2), (lambda call: call == 1, 2)],
    ids=["always", "second-share"],
)
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
def test_a_share_that_cannot_fork_runs_in_the_caller(monkeypatch, fails, forks, faulty):
    # three shares: the caller's, then a fork for the second and the third
    if faulty:
        constant_maps_fail(monkeypatch)
    calls = failing_fork(monkeypatch, fails)
    cpus(monkeypatch, 3)
    fallback = run_verification(4)
    assert len(calls) == forks
    assert_no_child_left()
    cpus(monkeypatch, 1)
    assert report(fallback) == report(run_verification(4))


def test_verify_exits_as_one_process_does_when_fork_fails(monkeypatch, capsys):
    failing_fork(monkeypatch, lambda call: True)
    outcomes = []
    for count in (2, 1):
        cpus(monkeypatch, count)
        code = cli.main(["verify", "--n-max", "3"])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][1].err == ""
    assert_no_child_left()


def test_a_worker_that_dies_mid_share_is_reported_and_reaped(monkeypatch):
    caller = os.getpid()

    def dies(tally, p, data, guard):
        if str(p) == "0,1" and os.getpid() != caller:  # in the worker's share
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(verification, "LAWS", (*verification.LAWS, ("dies", dies)))
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"^verification worker \d+ ended without a result$"):
        run_verification(3)
    assert_no_child_left()
