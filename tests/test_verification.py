"""The cross-validation harness: case counts, per-law timing, failure text."""

import pytest

from partmaps import verification
from partmaps.core import CharacterMap
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


@pytest.mark.parametrize("guard", [0, -1])
def test_guard_below_one_is_rejected(guard):
    with pytest.raises(ValueError, match="guard must be positive"):
        run_verification(1, guard=guard)
