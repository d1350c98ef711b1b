import csv
import io
import itertools
import json
import re
import sys

import pytest

import oracles
from partmaps import cli
from partmaps.cli import PREDICATES, main
from partmaps.core import PartitionProfile, iter_partitions, parse_partition, parse_transformation
from partmaps.counting import count_sigma_idempotents, count_t, count_units
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
