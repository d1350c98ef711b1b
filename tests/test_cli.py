import csv
import io
import itertools
import json
import re
import sys
from math import factorial, prod

import pytest

import oracles
from partmaps import cli
from partmaps.cli import PREDICATES, main
from partmaps.core import (
    CharacterMap,
    PartitionProfile,
    Transformation,
    format_partition,
    format_transformation,
    iter_partitions,
    parse_partition,
    parse_transformation,
    profile_of,
)
from partmaps.counting import count_sigma_grouped, count_sigma_idempotents, count_t, count_units
from partmaps.enumeration import ChiClass, chi_classes
from partmaps.membership import in_sigma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_sigma_true(self, capsys):
        code, out, _ = run(capsys, "check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma")
        assert (code, out) == (0, "true\n")

    def test_sigma_false(self, capsys):
        code, out, _ = run(capsys, "check", "-p", "0,1|2", "-f", "0,0,0", "--predicate", "sigma")
        assert (code, out) == (1, "false\n")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "check", "-p", "0,1|2", "-f", "0,3,1", "--predicate", "sigma")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize(
        "predicate,expected",
        [
            ("preserves", 0),
            ("sigma", 0),
            ("sigma-character", 0),
            ("sigma-topology", 0),
            ("estar", 0),
            ("units", 1),
            ("idempotent", 1),
            ("sigma-idempotent", 1),
        ],
    )
    def test_all_predicates_on_block_swap(self, capsys, predicate, expected):
        code, out, _ = run(capsys, "check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", predicate)
        assert code == expected
        assert out.strip() == ("true" if expected == 0 else "false")

    def test_character_predicates_reject_non_preserving_input(self, capsys):
        code, _, err = run(
            capsys, "check", "-p", "0,1|2", "-f", "0,2,1", "--predicate", "sigma-character"
        )
        assert code == 2
        assert "splits across" in err

    def test_idempotent_without_partition(self, capsys):
        code, out, _ = run(capsys, "check", "-f", "0,0,2", "--predicate", "idempotent")
        assert (code, out) == (0, "true\n")

    def test_partition_required_otherwise(self, capsys):
        code, _, err = run(capsys, "check", "-f", "0,0,2", "--predicate", "sigma")
        assert code == 2
        assert "needs a partition" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["result"] is True
        assert payload["character"] == "1,0"
        assert payload["partition"] == "0,1|2"

    def test_json_reason_on_false(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "-p", "0,1|2", "-f", "0,0,0", "--predicate", "sigma", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["result"] is False
        assert "misses block 1" in payload["reason"]

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_json_reason_of_every_false_case(self, capsys, predicate):
        split = r"block \d+ splits across blocks \[[\d, ]+\]"
        allowed = {
            "preserves": split,
            "idempotent": "map differs from its own square",
            "units": f"{split}|map is not a bijection",
            "sigma-idempotent": "a block restriction is not an idempotent selfmap",
        }.get(predicate, rf"{split}|image misses block \d+")
        false_cases = 0
        for n in (1, 2, 3):
            for p in iter_partitions(n):
                for images in itertools.product(range(n), repeat=n):
                    f = ",".join(map(str, images))
                    argv = ["check", "-p", str(p), "-f", f, "--predicate", predicate]
                    code, out, _ = run(capsys, *argv, "--format", "json")
                    if predicate == "sigma-idempotent" and not in_sigma(parse_transformation(f), p):
                        assert (code, out) == (2, "")
                    elif code == 1:
                        false_cases += 1
                        assert re.fullmatch(allowed, json.loads(out)["reason"])
        assert false_cases > 0

    def test_csv_output(self, capsys):
        _, out, _ = run(
            capsys, "check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["predicate", "result"], ["sigma", "true"]]


class TestCount:
    def test_t_from_partition(self, capsys):
        assert run(capsys, "count", "-p", "0,1|2", "--set", "T")[:2] == (0, "15\n")

    def test_units_from_profile(self, capsys):
        assert run(capsys, "count", "--profile", "2:2", "--set", "S")[:2] == (0, "8\n")

    def test_sigma_idempotents(self, capsys):
        assert run(capsys, "count", "-p", "0,1|2", "--set", "E-Sigma")[:2] == (0, "3\n")

    def test_sigma_matches_both_input_forms(self, capsys):
        _, from_p, _ = run(capsys, "count", "-p", "0,1|2,3", "--set", "Sigma")
        _, from_profile, _ = run(capsys, "count", "--profile", "2:2", "--set", "Sigma")
        assert from_p == from_profile == "32\n"

    def test_zero_multiplicity_rejected(self, capsys):
        code, _, err = run(capsys, "count", "--profile", "2:0", "--set", "T")
        assert code == 2
        assert "positive" in err

    def test_overlapping_sizes_rejected(self, capsys):
        code, _, err = run(capsys, "count", "--profile", "2:1,2:3", "--set", "T")
        assert code == 2
        assert "repeated block size" in err

    def test_malformed_profile_rejected(self, capsys):
        assert run(capsys, "count", "--profile", "2x1", "--set", "T")[0] == 2

    def test_requires_exactly_one_input(self, capsys):
        assert run(capsys, "count", "--set", "T")[0] == 2
        assert run(capsys, "count", "-p", "0|1", "--profile", "1:2", "--set", "T")[0] == 2

    def test_large_profile_stays_exact(self, capsys):
        code, out, _ = run(capsys, "count", "--profile", "3:4", "--set", "T")
        assert (code, out) == (0, f"{(4 * 3**3) ** 4}\n")

    def test_sigma_with_many_blocks_in_two_size_classes(self, capsys):
        code, out, _ = run(capsys, "count", "--profile", "2:30,3:30", "--set", "Sigma")
        assert (code, out) == (0, f"{oracles.two_class_sigma(2, 30, 3, 30)}\n")

    def test_sigma_guard_counts_states(self, capsys):
        # 1:5 has 6 states less the start state, beyond a guard of 3
        code, out, err = run(capsys, "count", "--profile", "1:5", "--set", "Sigma", "--guard", "3")
        assert (code, out) == (3, "")
        assert "Sigma count states needs 5 items" in err

    def test_json_uses_decimal_strings(self, capsys):
        _, out, _ = run(capsys, "count", "-p", "0,1|2", "--set", "T", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == "15"
        assert payload["profile"] == "1:1,2:1"


class TestEnumerate:
    def test_lines_with_total(self, capsys):
        _, out, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "Sigma")
        lines = out.strip().splitlines()
        assert lines[-1] == "# total: 6"
        assert lines[:-1] == ["0,0,2", "0,1,2", "1,0,2", "1,1,2", "2,2,0", "2,2,1"]

    def test_limit_marks_truncation(self, capsys):
        _, out, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "T", "--limit", "3")
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[-1] == "# total: 3 (truncated)"

    def test_json_round_trips_through_parsers(self, capsys):
        _, out, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "S", "--format", "json")
        payload = json.loads(out)
        p = parse_partition(payload["partition"], 3)
        assert str(p) == payload["partition"]
        maps = [parse_transformation(s, p.n) for s in payload["maps"]]
        assert [str(f) for f in maps] == payload["maps"]
        assert payload["total"] == 2 and payload["truncated"] is False

    def test_csv_has_one_column_per_point(self, capsys):
        _, out, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "S", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x0", "x1", "x2"]
        assert rows[1:] == [["0", "1", "2"], ["1", "0", "2"]]

    def test_e_t_set(self, capsys):
        _, out, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "E-T")
        lines = out.strip().splitlines()
        assert lines[-1] == "# total: 8"
        # brute-force filtered by hand: constants plus blockwise projections
        assert lines[:-1] == [
            "0,0,0", "0,0,2", "0,1,0", "0,1,1", "0,1,2", "1,1,1", "1,1,2", "2,2,2",
        ]

    def test_brute_strategy_agrees(self, capsys):
        _, fast, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "T")
        _, slow, _ = run(capsys, "enumerate", "-p", "0,1|2", "--set", "T", "--strategy", "brute")
        assert fast == slow

    def test_guard_exit_code(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "-p", "0,1,2,3,4,5,6,7,8", "--set", "T", "--guard", "100"
        )
        assert code == 3
        assert "exceeds guard" in err

    def test_negative_limit_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "-p", "0,1|2", "--set", "T", "--limit", "-1")
        assert (code, out) == (2, "")
        assert "limit must be nonnegative" in err

    def test_limit_bounds_the_guard_of_a_prefix(self, capsys):
        argv = ["enumerate", "-p", "0|1|2|3|4|5|6|7|8", "--set", "T", "--limit", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "0,0,0,0,0,0,0,0,0",
            "0,0,0,0,0,0,0,0,1",
            "0,0,0,0,0,0,0,0,2",
            "# total: 3 (truncated)",
        ]
        code, _, err = run(capsys, *argv, "--strategy", "brute")
        assert code == 3
        assert "exceeds guard" in err


def _singleton_prefixes(n):
    """The first members of each set on n singletons, worked out by hand."""
    ident = tuple(range(n))
    # the first three permutations in lexicographic order
    perms = [ident, ident[:-2] + (n - 1, n - 2), ident[:-3] + (n - 2, n - 3, n - 1)]
    return {
        "T": [(0,) * (n - 1) + (y,) for y in range(3)],
        "Sigma": perms,
        "S": perms,
        "E-Sigma": [ident],  # the identity is the only idempotent
    }


def _evens_odds_prefixes():
    """The first members of each set on the evens and odds of 34 points."""
    ident = tuple(range(34))
    return {
        # every point into the evens, the last one onto 0, 2, 4
        "T": [(0,) * 33 + (y,) for y in (0, 2, 4)],
        # the blocks are fixed, so the first members send them onto 0 and 1
        "Sigma": [(0, 1) * 16 + (0, y) for y in (1, 3, 5)],
        "S": [ident, ident[:31] + (33, 32, 31), ident[:30] + (32, 31, 30, 33)],
        "E-Sigma": [(0, 1) * 17, (0, 1) * 16 + (0, 33), (0, 1) * 16 + (32, 1)],
    }


PREFIX_CASES = [
    *(("|".join(map(str, range(n))), _singleton_prefixes(n)) for n in (20, 21, 40)),
    (
        ",".join(map(str, range(0, 34, 2))) + "|" + ",".join(map(str, range(1, 34, 2))),
        _evens_odds_prefixes(),
    ),
]


class TestLongPrefixes:
    """Prefixes on partitions whose compiled loop nests span several functions."""

    @pytest.mark.parametrize("kind", ["T", "Sigma", "S", "E-Sigma"])
    @pytest.mark.parametrize("text,prefixes", PREFIX_CASES, ids=["20", "21", "40", "evens-odds-34"])
    def test_first_three_members(self, capsys, text, prefixes, kind):
        code, out, err = run(capsys, "enumerate", "-p", text, "--set", kind, "--limit", "3")
        maps = prefixes[kind]
        total = f"# total: {len(maps)}" + (" (truncated)" if len(maps) == 3 else "")
        assert (code, err) == (0, "")
        assert out.splitlines() == [",".join(map(str, f)) for f in maps] + [total]


class TestQuotient:
    def test_table_and_footer(self, capsys):
        code, out, _ = run(capsys, "quotient", "-p", "0,1|2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[:2] == ["0,1 4", "1,0 2"]
        assert lines[2] == "# classes: 2 (expected 2), total: 6, sigma: 6, consistent: true"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "quotient", "-p", "0,1|2,3", "--format", "json")
        payload = json.loads(out)
        assert payload["consistent"] is True
        assert payload["class_count"] == payload["expected_class_count"] == 2
        assert [c["size"] for c in payload["classes"]] == ["16", "16"]

    def test_sigma_count_guard(self, capsys):
        # two classes fit a guard of 2; the Sigma count's 3 states do not
        code, out, err = run(capsys, "quotient", "-p", "0|1,2", "--guard", "2")
        assert (code, out) == (3, "")
        assert "Sigma count states" in err

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "quotient", "-p", "0|1|2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["character", "size"]
        assert len(rows) == 7

    def test_class_guard_fails_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("worked past a guard that was exceeded")

        monkeypatch.setattr(cli, "count_sigma_grouped", refuse)
        monkeypatch.setattr(cli, "_class_table", refuse)
        # six classes exceed a guard of 5; the Sigma count's 3 states would not
        code, out, err = run(capsys, "quotient", "-p", "0|1|2", "--guard", "5")
        assert (code, out) == (3, "")
        assert "character classes" in err

    def test_sigma_count_guard_fails_before_any_class_is_built(self, capsys, monkeypatch):
        calls = [0]
        table = cli._class_table

        def counting_table(*args, **kwargs):
            calls[0] += 1
            return table(*args, **kwargs)

        monkeypatch.setattr(cli, "_class_table", counting_table)
        code, out, err = run(capsys, "quotient", "-p", "0|1,2", "--guard", "2")
        assert (code, out, calls[0]) == (3, "", 0)
        assert "Sigma count states" in err
        assert run(capsys, "quotient", "-p", "0|1,2")[0] == 0
        assert calls[0] == 1

    @pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
    def test_builds_no_object_per_class(self, capsys, monkeypatch, fmt):
        """Seven blocks print 5040 classes without a ChiClass, a CharacterMap
        or a Transformation for any of them."""
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ChiClass, "__init__", counted("ChiClass", ChiClass.__init__))
        names = ("_trusted_character", "_store_images")
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "partmaps":
                continue
            for name in names:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
                    bound += 1
        assert bound >= 5  # core, enumeration and membership bind them
        code, out, _ = run(capsys, "quotient", "-p", "0|1,2|3|4,5,6|7|8,9|10", "--format", fmt)
        assert code == 0 and len(out) > 5040
        assert calls == {}


def oracle_classes(p):
    """The character classes of Sigma, one validated ``ChiClass`` per
    permutation phi of the block indices, built point by point."""
    sizes = p.sizes
    out = []
    for phi in itertools.permutations(range(p.m)):
        size = prod(sizes[j] ** sizes[i] for i, j in enumerate(phi))
        least = tuple(p.blocks[phi[p.block_index[x]]][0] for x in range(p.n))
        out.append(ChiClass(CharacterMap(phi), size, Transformation(least)))
    return out


def quotient_oracle(text, fmt):
    """(exit code, stdout) of ``quotient -p text --format fmt``, formatted from
    ``ChiClass`` objects as the CLI did before it printed from the class table."""
    p = parse_partition(text)
    classes = oracle_classes(p)
    expected = factorial(p.m)
    total = sum(cls.size for cls in classes)
    sigma_count = count_sigma_grouped(profile_of(p))
    consistent = len(classes) == expected and total == sigma_count
    out = io.StringIO()
    if fmt == "json":
        payload = {
            "command": "quotient",
            "partition": format_partition(p),
            "classes": [
                {
                    "character": str(cls.character),
                    "size": str(cls.size),
                    "representative": format_transformation(cls.representative),
                }
                for cls in classes
            ],
            "class_count": len(classes),
            "expected_class_count": expected,
            "total": str(total),
            "sigma_count": str(sigma_count),
            "consistent": consistent,
        }
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        rows = [["character", "size"]]
        rows += [[str(cls.character), str(cls.size)] for cls in classes]
        csv.writer(out, lineterminator="\n").writerows(rows)
    else:
        print("\n".join(f"{cls.character} {cls.size}" for cls in classes), file=out)
        print(
            f"# classes: {len(classes)} (expected {expected}), total: {total}, "
            f"sigma: {sigma_count}, consistent: {str(consistent).lower()}",
            file=out,
        )
    return (0 if consistent else 1), out.getvalue()


class TestQuotientAgainstOracle:
    SEVEN_BLOCKS = [
        "|".join(map(str, range(7))),
        "0|1,2|3|4,5,6|7|8,9|10",
        "|".join(f"{2 * i},{2 * i + 1}" for i in range(7)),
    ]

    @pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_partition_up_to_six_points(self, capsys, fmt, n):
        for p in iter_partitions(n):
            text = format_partition(p)
            assert chi_classes(p) == oracle_classes(p), text
            got = run(capsys, "quotient", "-p", text, "--format", fmt)
            assert got == (*quotient_oracle(text, fmt), ""), text

    @pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
    @pytest.mark.parametrize("text", SEVEN_BLOCKS)
    def test_seven_blocks(self, capsys, fmt, text):
        got = run(capsys, "quotient", "-p", text, "--format", fmt)
        assert got == (*quotient_oracle(text, fmt), "")


class TestCharacter:
    def test_lines(self, capsys):
        assert run(capsys, "character", "-p", "0,1|2", "-f", "2,2,0")[:2] == (0, "1,0\n")

    def test_non_preserving_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "character", "-p", "0,1|2", "-f", "0,2,1")
        assert code == 2
        assert "splits across" in err

    def test_json(self, capsys):
        _, out, _ = run(capsys, "character", "-p", "0,1|2", "-f", "0,0,0", "--format", "json")
        payload = json.loads(out)
        assert payload["character"] == "0,0"
        assert payload["surjective"] is False


class TestFindPartition:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "find-partition", "-f", "1,0,3,2,4")
        assert (code, out) == (0, "0,1|2,3,4\n")

    def test_none_exits_one(self, capsys):
        code, out, _ = run(capsys, "find-partition", "-f", "1,2,3,4,0")
        assert (code, out) == (1, "none\n")

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "find-partition", "-f", "1,2,3,4,5,0", "--verify")
        assert (code, out) == (0, "0,2,4|1,3,5\n")

    def test_requested_block_count(self, capsys):
        code, out, _ = run(capsys, "find-partition", "-f", "1,2,3,4,5,0", "-m", "3")
        assert (code, out) == (0, "0,3|1,4|2,5\n")

    def test_m_without_full_cycle_is_an_error(self, capsys):
        code, _, err = run(capsys, "find-partition", "-f", "1,0,3,2", "-m", "2")
        assert code == 2
        assert "full cycle" in err

    def test_small_ground_set_is_an_error(self, capsys):
        assert run(capsys, "find-partition", "-f", "1,0")[0] == 2

    def test_json(self, capsys):
        _, out, _ = run(
            capsys, "find-partition", "-f", "1,2,3,0", "--verify", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["partition"] == "0,2|1,3"
        assert payload["verified"] is True

    def test_csv_witness(self, capsys):
        code, out, _ = run(capsys, "find-partition", "-f", "1,0,3,2,4", "--format", "csv")
        assert (code, out) == (0, "partition\n\"0,1|2,3,4\"\n")
        assert list(csv.reader(io.StringIO(out))) == [["partition"], ["0,1|2,3,4"]]

    def test_csv_none_exits_one(self, capsys):
        code, out, _ = run(capsys, "find-partition", "-f", "1,2,3,4,0", "--format", "csv")
        assert (code, out) == (1, "partition\nnone\n")

    def test_csv_failed_recheck_keeps_exit_code_and_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "in_units", lambda f, p: False)
        code, out, err = run(
            capsys, "find-partition", "-f", "1,2,3,0", "--verify", "--format", "csv"
        )
        assert (code, out) == (1, "partition\n\"0,2|1,3\"\n")
        assert "witness failed the membership re-check" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2")
        assert code == 0
        assert "# all checks passed" in out
        assert all(line.startswith(("[PASS]", "#")) for line in out.strip().splitlines())

    def test_json(self, capsys):
        _, out, _ = run(capsys, "verify", "--n-max", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert all(check["passed"] for check in payload["checks"])
        for check in payload["checks"]:
            assert list(check) == ["name", "passed", "cases", "detail", "seconds"]
            assert isinstance(check["seconds"], float) and check["seconds"] >= 0
        assert isinstance(payload["census_seconds"], float) and payload["census_seconds"] > 0
        assert sum(c["seconds"] for c in payload["checks"]) > 0

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "verify", "--n-max", "1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "passed", "cases"]
        assert all(row[1] == "true" for row in rows[1:])

    def test_oversized_n_max_fails_fast_with_guard_exit(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "9")
        assert code == 3
        assert "exceeds guard" in err


class TestGuardArgument:
    @pytest.mark.parametrize("guard", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma"],
            ["count", "--profile", "2:1,1:1", "--set", "T"],
            ["count", "-p", "0,1|2", "--set", "Sigma"],
            ["enumerate", "-p", "0,1|2", "--set", "T", "--limit", "2"],
            ["quotient", "-p", "0,1|2"],
            ["character", "-p", "0,1|2", "-f", "2,2,0"],
            ["find-partition", "-f", "1,0,3,2"],
            ["verify", "--n-max", "2"],
        ],
    )
    def test_guard_below_one_is_an_input_error(self, capsys, argv, guard):
        code, out, err = run(capsys, *argv, "--guard", guard)
        assert (code, out) == (2, "")
        assert err == "error: guard must be positive\n"

    def test_guard_of_one_is_accepted(self, capsys):
        code, out, _ = run(capsys, "count", "--profile", "2:1,1:1", "--set", "T", "--guard", "1")
        assert (code, out) == (0, "15\n")


class TestUsageErrors:
    def test_unknown_set_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["count", "-p", "0|1", "--set", "Q"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestParserReuse:
    # main() builds its parser once per process; no call may see another's state
    SEQUENCE = (
        ["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma", "--format", "json"],
        ["enumerate", "-p", "0,1|2", "--set", "Sigma", "--limit", "2"],
        ["count", "--profile", "1:6", "--set", "Sigma", "--guard", "5"],
        ["count", "-p", "0|1", "--set", "Q"],
        ["--help"],
        ["enumerate", "-p", "0,1|2", "--set", "Sigma"],
        ["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma", "--format", "json"],
    )

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_shared_parser_answers_like_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        cli._build_parser.cache_clear()
        shared = [self.call(capsys, argv) for argv in self.SEQUENCE]
        assert cli._build_parser.cache_info().misses == 1
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 3, ("SystemExit", 2), ("SystemExit", 0), 0, 0]
        assert "invalid choice: 'Q'" in shared[3][2]
        assert shared[4][1].startswith("usage: partmaps")
        assert shared[1][1].endswith("# total: 2 (truncated)\n")
        assert shared[5][1].endswith("# total: 6\n")
        assert shared[0][1] == shared[-1][1]

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "count", "--profile", "2:1", "--set", "T")[:2] == (0, "4\n")
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser.cache_info().hits == 2


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestCountDigitLimit:
    # count fails before counting when the answer is too long for str(), and
    # must answer exactly as a late failure in str() would
    EXACT = {"T": count_t, "S": count_units, "E-Sigma": count_sigma_idempotents}

    @pytest.fixture
    def digit_limit(self):
        old = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("fmt", ["lines", "json", "csv"])
    @pytest.mark.parametrize("size, mult, set_name", [(3, 8602, "S"), (3, 5914, "T"), (3, 6689, "E-Sigma")])
    def test_answer_over_the_limit(self, capsys, size, mult, set_name, fmt):
        value = self.EXACT[set_name](PartitionProfile(((size, mult),)))
        with pytest.raises(ValueError) as late:
            str(value)
        argv = ["count", "--profile", f"{size}:{mult}", "--set", set_name, "--format", fmt]
        got = run(capsys, *argv)
        assert got == (2, "", f"error: {late.value}\n")

    def test_fails_before_counting(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted an answer too long to print")

        monkeypatch.setattr(cli, "_member_count", refuse)
        code, out, err = run(capsys, "count", "--profile", "3:8602", "--set", "S")
        assert (code, out) == (2, "")
        assert "Exceeds the limit (4300 digits)" in err

    @pytest.mark.parametrize(
        "set_name, size",
        [("T", 1), ("T", 2), ("T", 3), ("S", 1), ("S", 2), ("S", 3), ("E-Sigma", 2), ("E-Sigma", 3)],
    )
    def test_answers_around_the_limit(self, capsys, digit_limit, set_name, size):
        limit = 640  # the smallest limit CPython accepts
        sides = set()
        mult = 0
        while True:
            mult += 1
            value = self.EXACT[set_name](PartitionProfile(((size, mult),)))
            digit_limit(0)
            text = str(value)
            digit_limit(limit)
            if len(text) > limit + 10:
                break
            if len(text) < limit - 10:
                continue
            got = run(capsys, "count", "--profile", f"{size}:{mult}", "--set", set_name)
            sides.add(len(text) > limit)
            if len(text) <= limit:
                assert got == (0, f"{text}\n", "")
            else:
                with pytest.raises(ValueError) as late:
                    str(value)
                assert got == (2, "", f"error: {late.value}\n")
        assert sides == {False, True}
