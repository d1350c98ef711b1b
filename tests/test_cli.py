import argparse
import csv
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bad_input
import oracles
from partmaps import cli, core, counting, enumeration
from partmaps.cli import PREDICATES, main
from partmaps.core import (
    CACHE_SIZE,
    CharacterMap,
    ParseError,
    PartitionProfile,
    Transformation,
    format_partition,
    format_transformation,
    iter_partitions,
    parse_partition,
    parse_transformation,
    profile_of,
)
from partmaps.counting import (
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
    idempotent_count,
)
from partmaps.enumeration import ChiClass, chi_classes
from partmaps.membership import NotPreservingError, character, in_sigma, preserves
from strategies import shuffled_text


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

    @staticmethod
    def split_text(f, p):
        """The library's text for a map that splits a block of p, else None."""
        try:
            character(f, p)
        except NotPreservingError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_json_reason_of_every_false_case(self, capsys, predicate):
        allowed = {
            "idempotent": "map differs from its own square",
            "units": "map is not a bijection",
            "sigma-idempotent": "a block restriction is not an idempotent selfmap",
        }.get(predicate, r"image misses block \d+")
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
                        reason = json.loads(out)["reason"]
                        split = None
                        if predicate != "idempotent":  # answered before p is read
                            split = self.split_text(parse_transformation(f), p)
                        if split is not None:
                            assert reason == split
                        else:
                            assert predicate != "preserves" and re.fullmatch(allowed, reason)
        assert false_cases > 0

    def test_split_reason_matches_the_character_error(self, capsys):
        # one text for a split block, whether check raises it or reports it
        splits = 0
        for n in (1, 2, 3):
            for p in iter_partitions(n):
                for images in itertools.product(range(n), repeat=n):
                    f = ",".join(map(str, images))
                    if self.split_text(parse_transformation(f), p) is None:
                        continue
                    splits += 1
                    argv = ["check", "-p", str(p), "-f", f, "--predicate"]
                    code, out, _ = run(capsys, *argv, "preserves", "--format", "json")
                    assert code == 1
                    reason = json.loads(out)["reason"]
                    assert run(capsys, *argv, "sigma-character") == (2, "", f"error: {reason}\n")
        assert splits > 0

    @pytest.mark.parametrize(
        "p_text, f_text, character_field, reason",
        [
            ("0,1|2", "0,0,0", "0,0", "image misses block 1"),
            ("0,1|2", "0,2,0", None, "block 0 (0,1) splits across blocks 0 and 1"),
            ("0,1|2", "2,2,2", "1,1", "image misses block 0"),
            ("0,1|2", "2,2,0", "1,0", None),
        ],
    )
    def test_json_walks_the_map_once_after_the_predicate(
        self, capsys, monkeypatch, p_text, f_text, character_field, reason
    ):
        calls = []
        for name in ("preserves", "character"):
            def counted(*args, _fn=getattr(cli, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cli, name, counted)
        argv = ["check", "-p", p_text, "-f", f_text, "--predicate", "sigma", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert calls == ["character"]
        payload = json.loads(out)
        assert payload.get("character") == character_field
        assert payload.get("reason") == reason
        assert code == (0 if reason is None else 1)

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
        # two blocks of each size 1..8 have 3**8 states less the start state,
        # beyond a guard of 2000, which covers their digit charge of 16 * 76
        profile = ",".join(f"{size}:2" for size in range(1, 9))
        argv = ("count", "--profile", profile, "--set", "Sigma", "--guard", "2000")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Sigma count states needs 6560 items" in err

    @pytest.mark.parametrize("fmt", ["lines", "json", "csv"])
    def test_repeated_large_count_prints_the_same(self, capsys, fmt):
        # the decimal text of a count is kept with the count
        argv = ("count", "--profile", "30:35,36:63", "--set", "S", "--format", fmt)
        first = run(capsys, *argv)
        assert first == run(capsys, *argv)
        want = factorial(35) * factorial(30) ** 35 * factorial(63) * factorial(36) ** 63
        assert first[0] == 0 and str(want) in first[1]

    def test_text_is_written_once_per_profile_and_set(self, capsys, monkeypatch, cold_memos):
        # the profile's memo keeps the text; count keeps one profile per text,
        # and -p reads profile_of's
        written = []
        write = counting._int_text
        monkeypatch.setattr(counting, "_int_text", lambda n: written.append(n) or write(n))
        for how in [("--profile", "2:2")] * 2 + [("-p", "0,1|2,3"), ("-p", "2,3|0,1")]:
            assert run(capsys, "count", *how, "--set", "T") == (0, "64\n", "")
        assert written == [64, 64]

    EIGHT_PAIRS = ",".join(f"{size}:2" for size in range(1, 9))
    # (set, profile, guard) -> the charge that refuses it
    REFUSED = {
        ("T", "1:5,2:5", "1"): "T count digits needs 13",
        ("Sigma", "1:5,2:5", "1"): "Sigma count digit rounds needs 130",
        ("S", "1:5,2:5", "1"): "S count digits needs 6",
        ("E-Sigma", "1:5,2:5", "1"): "E-Sigma count digit rounds needs 6",
        # past the digit charge of 1216, short of the 6560 Sigma count states
        ("Sigma", EIGHT_PAIRS, "2000"): "Sigma count states needs 6560",
        ("T", "1:5,2:5", "12"): "T count digits needs 13",
        # short of both the digit charge and the 35 states: digits come first
        ("Sigma", "1:5,2:5", "34"): "Sigma count digit rounds needs 130",
    }

    @pytest.mark.parametrize("set_name, profile, guard", REFUSED)
    def test_guard_is_checked_after_a_kept_text(
        self, capsys, cold_memos, set_name, profile, guard
    ):
        # the cold refusal first, then the same twice after the text is kept
        argv = ("count", "--profile", profile, "--set", set_name)
        refused = run(capsys, *argv, "--guard", guard)
        assert refused == (
            3,
            "",
            f"error: {self.REFUSED[set_name, profile, guard]} items, exceeds guard {guard}; "
            "raise the guard or use a counting formula instead\n",
        )
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--guard", guard) == refused
        assert run(capsys, *argv, "--guard", guard) == refused

    def test_json_uses_decimal_strings(self, capsys):
        _, out, _ = run(capsys, "count", "-p", "0,1|2", "--set", "T", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == "15"
        assert payload["profile"] == "1:1,2:1"


class TestCountProfile:
    # the profile count reads from -p or --profile text, kept by text

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_partition(self, n):
        rng = random.Random(n)
        for p in iter_partitions(n):
            text = shuffled_text(p.blocks, rng)
            for _ in range(2):  # computed, then read back
                assert cli._count_profile(text, None) is profile_of(parse_partition(text))

    @pytest.mark.parametrize("text", [" 0 , 1 | 2 ", "+0,1|2", "2|1,0", "0"])
    def test_spellings_int_accepts(self, text):
        assert cli._count_profile(text, None) is profile_of(parse_partition(text))

    @pytest.mark.parametrize(
        "how, parser, text",
        [("-p", "parse_partition", "0,1|2,3"), ("--profile", "_parse_profile", "2:2")],
    )
    def test_repeated_text_is_parsed_once(
        self, capsys, monkeypatch, cold_memos, how, parser, text
    ):
        calls = []
        parse = getattr(cli, parser)
        monkeypatch.setattr(cli, parser, lambda text: calls.append(text) or parse(text))
        for _ in range(3):
            assert run(capsys, "count", how, text, "--set", "S") == (0, "8\n", "")
        assert calls == [text]

    @pytest.mark.parametrize(
        "case, blocks, text, message",
        [*bad_input.PARTITIONS, ("not an int", None, "0,x|2", "invalid point 'x'")],
    )
    def test_bad_text_raises_the_parser_error(self, case, blocks, text, message):
        for _ in range(2):  # an error is not kept
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                cli._count_profile(text, None)

    @pytest.mark.parametrize(
        "how, parser, text",
        [("-p", "parse_partition", "0,1|1"), ("--profile", "_parse_profile", "2:0")],
    )
    def test_bad_text_is_parsed_on_every_call(self, capsys, monkeypatch, how, parser, text):
        calls = []
        parse = getattr(cli, parser)
        monkeypatch.setattr(cli, parser, lambda text: calls.append(text) or parse(text))
        first = run(capsys, "count", how, text, "--set", "T")
        assert first[0] == 2 and first[2].startswith("error: ")
        assert run(capsys, "count", how, text, "--set", "T") == first
        assert calls == [text, text]

    def test_cache_is_bounded(self):
        assert cli._count_profile.cache_info().maxsize == CACHE_SIZE


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

    def test_e_t_prefix_is_charged_the_t_members_it_draws(self, capsys):
        # the fourth idempotent, which marks the truncation, is T's 71st member
        argv = ["enumerate", "-p", "0|1|2|3|4|5|6|7|8", "--set", "E-T", "--limit", "3"]
        assert run(capsys, *argv, "--guard", "71") == (
            0,
            "0,0,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,0,8\n0,0,0,0,0,0,0,7,0\n# total: 3 (truncated)\n",
            "",
        )
        assert run(capsys, *argv, "--guard", "70") == (
            3,
            "",
            "error: preserving maps needs 71 items, exceeds guard 70; "
            "raise the guard or use a counting formula instead\n",
        )


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

        monkeypatch.setattr(counting, "count_sigma_grouped", refuse)
        monkeypatch.setattr(enumeration, "_class_table", refuse)
        # six classes exceed a guard of 5; the Sigma count's 3 states would not
        code, out, err = run(capsys, "quotient", "-p", "0|1|2", "--guard", "5")
        assert (code, out) == (3, "")
        assert "character classes" in err

    def test_sigma_count_guard_fails_before_any_class_is_built(self, capsys, monkeypatch):
        calls = [0]
        table = enumeration._class_table

        def counting_table(*args, **kwargs):
            calls[0] += 1
            return table(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_class_table", counting_table)
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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
    def test_two_blocks_of_2000_points(self, capsys, digit_limit, fmt):
        # each class holds 2000**4000 maps, 13204 digits: the CLI prints them
        # under the default limit, the oracle's str() with the limit lifted
        text = "|".join(",".join(map(str, range(start, start + 2000))) for start in (0, 2000))
        got = run(capsys, "quotient", "-p", text, "--format", fmt)
        digit_limit(0)
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

    @pytest.mark.parametrize("spelling", [["--m", "2"], ["--m=2"]])
    def test_long_spelling_of_m(self, capsys, spelling):
        # --m is -m, not an abbreviation of --map
        got = run(capsys, "find-partition", "-f", "1,2,3,0", *spelling, "--format", "json")
        assert got[0] == 0 and json.loads(got[1])["m"] == 2
        assert run(capsys, "find-partition", "-f", "1,2,3,0", *spelling) == (0, "0,2|1,3\n", "")

    def test_m_without_full_cycle_is_an_error(self, capsys):
        code, _, err = run(capsys, "find-partition", "-f", "1,0,3,2", "-m", "2")
        assert code == 2
        assert "full cycle" in err

    def test_m_with_a_non_bijection_names_the_full_cycle_precondition(self, capsys):
        assert run(capsys, "find-partition", "-f", "0,0,1", "-m", "2") == (
            2,
            "",
            "error: map is not a full cycle over the ground set\n",
        )

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

    @pytest.mark.parametrize("n_max", ["9", "10000000"])
    def test_oversized_n_max_fails_fast_with_guard_exit(self, capsys, n_max):
        # 8**8 is the first n**n past the default guard; n_max**n_max is never built
        start = time.perf_counter()
        assert run(capsys, "verify", "--n-max", n_max) == (
            3,
            "",
            "error: brute-force candidate maps at n=8 needs 16777216 items, exceeds guard "
            "10000000; raise the guard or use a counting formula instead\n",
        )
        assert time.perf_counter() - start < 3


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
        # 2:1 has |T| = 4, one digit, all a guard of 1 covers
        code, out, _ = run(capsys, "count", "--profile", "2:1", "--set", "T", "--guard", "1")
        assert (code, out) == (0, "4\n")


class TestLongGuardRefusal:
    # a refusal writes what it needs in full, past str()'s 4300 digits
    SINGLETONS = "|".join(map(str, range(2000)))

    @pytest.mark.parametrize(
        "argv, what, required",
        [
            (["quotient", "-p", SINGLETONS], "character classes", factorial(2000)),
            (
                ["enumerate", "-p", SINGLETONS, "--set", "T", "--strategy", "brute"],
                "brute-force candidate maps",
                2000**2000,
            ),
        ],
        ids=["quotient", "enumerate"],
    )
    def test_exits_3_with_every_digit(self, capsys, argv, what, required):
        assert run(capsys, *argv) == (
            3,
            "",
            f"error: {what} needs {exact_str(required)} items, exceeds guard 10000000; "
            "raise the guard or use a counting formula instead\n",
        )


class TestBadInputParity:
    # the CLI names each fault with the text the constructors raise
    # (tests/test_core.py checks the constructors against the same corpus)

    @pytest.mark.parametrize("case, blocks, text, message", bad_input.PARTITIONS)
    def test_partition(self, capsys, case, blocks, text, message):
        assert run(capsys, "quotient", f"--partition={text}") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("case, images, text, message", bad_input.MAPS)
    def test_map(self, capsys, case, images, text, message):
        assert run(capsys, "find-partition", f"--map={text}") == (2, "", f"error: {message}\n")

    @staticmethod
    def library_error(f_text, p_text):
        with pytest.raises(ValueError) as info:
            preserves(parse_transformation(f_text), parse_partition(p_text))
        return f"error: {info.value}\n"

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("case, f_text, p_text, message", bad_input.SIZE_MISMATCHES)
    def test_size_mismatch_in_check(self, capsys, predicate, case, f_text, p_text, message):
        # idempotent ignores the partition, yet a wrong-sized one is still an input error
        argv = ["check", "-p", p_text, "-f", f_text, "--predicate", predicate]
        assert run(capsys, *argv) == (2, "", self.library_error(f_text, p_text))

    @pytest.mark.parametrize("case, f_text, p_text, message", bad_input.SIZE_MISMATCHES)
    def test_size_mismatch_in_character(self, capsys, case, f_text, p_text, message):
        argv = ["character", "-p", p_text, "-f", f_text]
        assert run(capsys, *argv) == (2, "", self.library_error(f_text, p_text))


class TestUsageErrors:
    def test_unknown_set_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["count", "-p", "0|1", "--set", "Q"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    # every subcommand but enumerate, each with an argv it accepts
    LIMITLESS = {
        "check": ["-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma"],
        "count": ["--profile", "2:1,1:1", "--set", "T"],
        "quotient": ["-p", "0,1|2"],
        "character": ["-p", "0,1|2", "-f", "2,2,0"],
        "find-partition": ["-f", "1,0,3,2"],
        "verify": ["--n-max", "2"],
    }

    def test_limit_cases_cover_every_other_subcommand(self):
        assert set(self.LIMITLESS) == set(cli._build_parser().plain) - {"enumerate"}

    @pytest.mark.parametrize("command", LIMITLESS)
    def test_limit_belongs_to_enumerate_only(self, capsys, command):
        argv = [command, *self.LIMITLESS[command]]
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as err:
            main([*argv, "--limit", "3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --limit 3" in capsys.readouterr().err


def _choices(command, dest="set"):
    """The choices of one subcommand's option, --set by default, as the parser holds them."""
    (action,) = [a for a in cli._build_parser().plain[command][0].values() if a.dest == dest]
    return list(action.choices)


class TestSetTable:
    def test_count_offers_the_sets_with_a_count_formula(self):
        labelled = [name for name, (_, _, label) in cli.SETS.items() if label]
        assert _choices("count") == labelled == list(counting.COUNTS)

    def test_enumerate_offers_every_set_in_table_order(self):
        assert _choices("enumerate") == list(cli.SETS) == ["T", "Sigma", "S", "E-Sigma", "E-T"]

    def test_enumerate_offers_the_library_strategies(self):
        # a literal of the CLI's own, so that check never runs enumeration
        assert _choices("enumerate", "strategy") == list(enumeration.STRATEGIES)

    def test_count_rejects_a_set_without_a_formula(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "-p", "0|1", "--set", "E-T"])
        assert err.value.code == 2
        assert (
            "argument --set: invalid choice: 'E-T' (choose from 'T', 'Sigma', 'S', 'E-Sigma')"
            in capsys.readouterr().err
        )

    def test_every_base_precedes_its_set(self):
        names = list(cli.SETS)
        for i, (base, _, _) in enumerate(cli.SETS.values()):
            assert base is None or names.index(base) < i


class TestClosedStdout:
    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def env(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.parametrize(
        "argv, first",
        [
            (["enumerate", "-p", "0|1|2|3|4|5", "--set", "T"], "0,0,0,0,0,0"),
            (["quotient", "-p", "0|1|2|3|4|5|6"], "0,1,2,3,4,5,6 1"),
        ],
    )
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_reader_that_stops_early_gets_exit_141(self, argv, first, unbuffered):
        # as in `partmaps enumerate ... | head -1`: no traceback, and not exit 1,
        # which would read as "predicate false"
        with subprocess.Popen(
            [sys.executable, "-m", "partmaps", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env(unbuffered),
            text=True,
        ) as proc:
            assert proc.stdout.readline() == first + "\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""

    def test_a_reader_gone_before_a_buffered_answer_gets_exit_141(self):
        # as in `partmaps check ... | true`: the answer fits stdout's buffer,
        # so the write that fails is the flush after the command has returned
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "partmaps", "check", "-p", "0,1|2", "-f", "2,2,0",
                 "--predicate", "sigma"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=self.env(False),
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")


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

    def test_cache_clear_rebuilds_the_command_table(self, capsys, monkeypatch):
        old = cli._build_parser()
        cli._build_parser.cache_clear()
        new = cli._build_parser()
        assert new is not old
        assert list(new.plain) == list(old.plain)
        for name, (options, defaults, _) in old.plain.items():
            assert list(new.plain[name][0]) == list(options)
            assert new.plain[name][1] == defaults
            assert all(new.plain[name][0][option] is not options[option] for option in options)
        # main parses with the rebuilt parser, not the old one, on the plain
        # path and on argparse's alike
        monkeypatch.setattr(old, "parse_known_args", None)
        for name in old.plain:
            monkeypatch.setitem(old.plain, name, ({}, None, None))
        assert run(capsys, "count", "--profile", "2:1", "--set", "T")[:2] == (0, "4\n")
        assert run(capsys, "count", "--profile", "2:1", "--set=T")[:2] == (0, "4\n")


def _plain_argvs():
    """Plain argvs of every subcommand, all accepted: after the subcommand,
    only exact option strings, each followed by one value that does not
    start with "-", or the flag ``--verify``."""
    spellings = {
        "check": [
            ["-p", "0,1|2", "-f", "2,2,0"],
            ["--partition", "0,1|2", "--map", "2,2,0"],
            ["-f", "0,0"],
        ],
        "count": [["-p", "0,1|2"], ["--partition", "0,1|2"], ["--profile", "2:1,1:1"]],
        "enumerate": [["-p", "0,1|2"], ["--partition", "0,1|2"]],
        "quotient": [["-p", "0,1|2"], ["--partition", "0,1|2"]],
        "character": [
            ["-p", "0,1|2", "-f", "2,2,0"],
            ["--map", "2,2,0", "--partition", "0,1|2"],
        ],
        "find-partition": [["-f", "1,0,3,2"], ["--map", "1,0,3,2"]],
        "verify": [[]],
    }
    # every choice of every option that has choices, and ints where type=int
    options = {
        "check": [["--predicate", name] for name in PREDICATES],
        "count": [["--set", name] for name, (_, _, label) in cli.SETS.items() if label],
        "enumerate": [
            ["--set", name, *more]
            for name in cli.SETS
            for more in (
                [],
                ["--strategy", "brute"],
                ["--strategy", "constructive", "--limit", "3"],
                ["--limit", "0"],
            )
        ],
        "quotient": [[]],
        "character": [[]],
        "find-partition": [[], ["-m", "2"], ["--m", "2"], ["--verify"], ["--verify", "-m", "0"]],
        "verify": [["--n-max", "0"], ["--n-max", "3"]],
    }
    shared = [
        [],
        ["--format", "lines"],
        ["--format", "json"],
        ["--format", "csv"],
        ["--guard", "1"],
        ["--guard", "0"],
        ["--guard", "12", "--format", "json"],
    ]
    argvs = []
    for command, forms in spellings.items():
        for form in forms:
            argvs += [[command, *form, *more] for more in options[command]]
            argvs += [[command, *form, *options[command][-1], *more] for more in shared]
    # a repeated option keeps its last value, a repeated flag stays set
    argvs += [
        ["check", "-p", "0|1", "--partition", "0,1", "-f", "0,1", "--map", "1,0",
         "--predicate", "sigma", "--predicate", "units"],
        ["count", "--profile", "1:2", "--set", "S", "--set", "T", "--format", "json",
         "--format", "csv", "--guard", "5", "--guard", "7"],
        ["enumerate", "-p", "0|1", "--set", "T", "--limit", "3", "--limit", "1",
         "--strategy", "brute", "--strategy", "constructive"],
        ["find-partition", "-f", "1,0", "--verify", "-m", "2", "--verify", "-m", "3"],
        ["verify", "--n-max", "4", "--n-max", "2"],
        # an empty value does not start with "-"
        ["quotient", "-p", ""],
    ]
    return argvs


class TestDispatchParity:
    # main reads a plain call from its subcommand's grammar and hands every
    # other call to the top-level parser; every argv must parse, or fail,
    # exactly as the top-level parser's parse_args does.  None marks an
    # accepted argv, otherwise the SystemExit code
    ARGVS = [
        (["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma"], None),
        (["check", "--partition", "0,1|2", "--map", "2,2,0", "--predicate", "estar",
          "--format", "json", "--guard", "7"], None),
        (["check", "-p", "0,1|2", "-f", "2,2,0", "--predicate", "sigma", "--limit", "3"], 2),
        (["check", "-f", "0,1", "--predicate", "idempotent"], None),
        (["check", "-p", "0|1", "-f", "0,1", "--pred", "units"], None),
        (["check", "-p", "0|1", "-f", "0,1", "--pred=units", "--form=csv"], None),
        (["check", "-p0|1", "-f1,0", "--predicate", "sigma", "--predicate", "units"], None),
        (["count", "--profile", "2:1,1:1", "--set", "T"], None),
        (["count", "-p", "0|1", "--set", "S", "--format=csv", "--set", "E-Sigma"], None),
        (["enumerate", "--partition=0|1", "--set", "E-T", "--strategy", "brute", "--lim", "2"], None),
        (["enumerate", "-p", "0,1|2", "--set", "Sigma", "--limit=-1"], None),
        (["quotient", "-p0|1"], None),
        (["quotient", "-p", "-1"], None),
        (["character", "--part", "0|1", "--map=1,0", "--format", "json"], None),
        (["find-partition", "-f", "1,0", "-m", "2", "--verify"], None),
        (["find-partition", "--map=1,0", "-m2", "--verif"], None),
        (["find-partition", "-f", "1,2,3,0", "--m", "2"], None),
        (["find-partition", "--ma", "1,0", "--m=2", "--verif"], None),
        (["verify", "--n-max", "2"], None),
        (["verify", "--n-max=2", "--format", "json", "--guard=9"], None),
        (["check", "-f", "0,1", "--predicate", "idempotent", "--", "x"], 2),
        (["quotient", "--", "-p", "0|1"], 2),
        (["quotient", "-p", "0|1", "extra", "--bogus", "-z"], 2),
        (["quotient", "-p", "0|1", "--bogus=1"], 2),
        (["count", "--p", "0", "--set", "T"], 2),
        ([], 2),
        (["-h"], 0),
        (["--help"], 0),
        (["-h", "check"], 0),
        (["check", "-h"], 0),
        (["count", "--help"], 0),
        (["check", "-p", "0|1", "--he"], 0),
        (["bogus"], 2),
        (["bogus", "-p", "0"], 2),
        (["Check", "-f", "0"], 2),
        (["-p", "0|1", "quotient"], 2),
        (["check", "-f", "0,1"], 2),
        (["check", "-f", "0,1", "--predicate", "nope"], 2),
        (["quotient", "-p", "0", "--guard", "x"], 2),
        (["quotient", "-p", "0", "--guard"], 2),
        (["count", "--profile", "1:1", "--set", "Q"], 2),
        (["find-partition", "-f", "0", "-m", "x"], 2),
        (["verify"], 2),
    ]

    @staticmethod
    def outcome(capsys, parse, argv):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv, exit_code", ARGVS)
    def test_same_as_top_level_parse_args(self, capsys, argv, exit_code):
        got = self.outcome(capsys, cli._parse_args, argv)
        assert got == self.outcome(capsys, cli._build_parser().parse_args, argv)
        if exit_code is None:
            assert isinstance(got[0], dict) and got[0]["command"] == argv[0]
        else:
            assert got[0] == ("SystemExit", exit_code)

    @pytest.mark.parametrize("argv", [argv for argv, exit_code in ARGVS if exit_code is None])
    def test_trailing_double_dash_is_dropped(self, capsys, argv):
        def answer(argv):
            code, out, _ = run(capsys, *argv)
            return code, re.sub(r'seconds": [^,}]+', 'seconds": 0', out)  # verify's timings

        assert answer([*argv, "--"]) == answer(argv)

    @pytest.mark.parametrize("argv", _plain_argvs(), ids=" ".join)
    def test_plain_argv_skips_argparse_and_parses_the_same(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            refuse_argparse(patch)
            got = self.outcome(capsys, cli._parse_args, argv)
        assert got == self.outcome(capsys, cli._build_parser().parse_args, argv)
        assert isinstance(got[0], dict) and got[0]["command"] == argv[0]

    def test_plain_corpus_covers_every_subcommand(self):
        assert {argv[0] for argv in _plain_argvs()} == set(cli._build_parser().plain)


def refuse_argparse(monkeypatch):
    """Make an argparse pass of the shared parser raise; every one starts at the top."""

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was asked to parse")

    monkeypatch.setattr(cli._build_parser(), "parse_known_args", refuse)


class TestPlainParse:
    # main reads a plain argv from the subcommand's own option table and
    # hands anything else to argparse, which words every help and error

    # one argv of each class of the perfbench queries mix, with its exit code
    QUERIES = [
        (["check", "-p", "0|1,2,6,3,8|7|5,4", "-f", "1,4,2,7,3,4,0,5,7",
          "--predicate", "preserves"], 1),
        (["check", "-p", "3|0,2|1", "-f", "1,0,1,3", "--predicate", "sigma"], 0),
        (["check", "-p", "2|0|3|1|4", "-f", "2,4,3,1,0", "--predicate", "sigma-character"], 0),
        (["check", "-p", "0,1,2", "-f", "2,1,0", "--predicate", "sigma-topology"], 0),
        (["check", "-p", "8|0|2|7|1|4|6|5|3", "-f", "0,1,2,3,4,5,6,7,8",
          "--predicate", "estar"], 0),
        (["check", "-p", "2|0|1", "-f", "2,0,0", "--predicate", "units"], 1),
        (["check", "-p", "4,1,0,3,5,7,8,2,6", "-f", "5,3,6,8,4,6,6,4,4",
          "--predicate", "idempotent"], 1),
        (["check", "-p", "5,11,0,9,3,8,10,2,1,7,6,4", "-f", "6,4,2,1,6,3,9,4,2,9,11,3",
          "--predicate", "sigma-idempotent"], 1),
        (["character", "-p", "0,3,4,2,1", "-f", "4,2,0,2,3"], 0),
        (["find-partition", "-f", "2,0,0,1", "--verify"], 0),
        (["find-partition", "-f", "2,1,4,3,0", "--verify"], 0),
        (["find-partition", "-f", "3,2,0,1", "--verify"], 0),
        (["count", "--profile", "7:2,8:2", "--set", "T"], 0),
        (["count", "--profile", "29:12", "--set", "T"], 0),
        (["count", "--profile", "3:4,4:4,7:4", "--set", "Sigma"], 0),
        (["count", "--profile", "3:5914", "--set", "T"], 0),
        (["enumerate", "-p", "5,3,2|1,4,6,0", "--set", "Sigma", "--limit", "3"], 0),
        (["enumerate", "-p", "3|0|2|6|4|5|1|7", "--set", "S", "--limit", "3"], 0),
        (["enumerate", "-p", "8,3,2,4,1|6,9,5,0,7", "--set", "E-Sigma", "--limit", "3"], 0),
        (["enumerate", "-p", "8|7|1|3|0|4|5|2|6", "--set", "T", "--limit", "3"], 0),
        (["quotient", "-p", "4|0|1,2|3,5|6"], 0),
        (["quotient", "-p", "5|2|0|3|1|9,6,4,8|7"], 0),
    ]

    @pytest.mark.parametrize("argv, exit_code", QUERIES)
    def test_queries_answer_without_argparse(self, capsys, monkeypatch, argv, exit_code):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_plain", lambda grammar, argv: None)
            expected = run(capsys, *argv)  # argparse's parse
        refuse_argparse(monkeypatch)
        got = run(capsys, *argv)
        assert got == expected
        assert got[0] == exit_code

    # argvs the plain path declines: the top-level parser parses each one, once
    NOT_PLAIN = [
        ["check", "-p", "0|1", "-f", "0,1", "--pred", "units"],
        ["check", "-p", "0|1", "-f", "0,1", "--pred=units"],
        ["quotient", "-p0|1"],
        ["enumerate", "-p", "0,1|2", "--set", "Sigma", "--limit=-1"],
        ["enumerate", "-p", "0,1|2", "--set", "Sigma", "--limit", "-1"],
        ["quotient", "-p", "-1"],
        ["check", "-h"],
        ["check", "-p", "0|1", "-f", "0,1", "--predicate", "nope"],
        ["find-partition", "-f", "0", "-m", "x"],
        ["quotient", "-p", "0", "--guard"],
        ["verify"],
        ["quotient", "-p", "0|1", "extra"],
        ["quotient", "-p", "0|1", "--", "x"],
    ]

    @pytest.mark.parametrize("argv", NOT_PLAIN, ids=" ".join)
    def test_other_argvs_reach_argparse(self, capsys, monkeypatch, argv):
        parsed = []
        parser = cli._build_parser()
        parse = parser.parse_known_args

        def counted(*args, **kwargs):
            parsed.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counted)
        TestParserReuse.call(capsys, argv)
        assert len(parsed) == 1

    def test_an_option_of_another_kind_is_left_to_argparse(self):
        command = argparse.ArgumentParser()
        command.add_argument("-x", action="append")
        command.add_argument("-y", nargs="?")
        command.add_argument("-z")
        grammar = cli._plain_grammar(command)
        assert list(grammar[0]) == ["-z"]
        assert cli._parse_plain(grammar, ["cmd", "-h"]) is None
        assert cli._parse_plain(grammar, ["cmd", "--help"]) is None
        assert cli._parse_plain(grammar, ["cmd", "-x", "1"]) is None
        assert cli._parse_plain(grammar, ["cmd", "-y", "1"]) is None
        got = cli._parse_plain(grammar, ["cmd", "-z", "1"])
        assert vars(got) == {"command": "cmd", "x": None, "y": None, "z": "1", "func": None}


@pytest.fixture
def digit_limit():
    """Set the int-to-str digit limit for one test; the old one comes back after."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def exact_str(value):
    """str() of an int of any length: the digit limit is lifted for the call alone."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def str_accepts(value):
    """Whether str() writes ``value`` under the digit limit in force."""
    try:
        str(value)
    except ValueError:
        return False
    return True


def count_output(set_name, profile_text, text, fmt):
    """The stdout of ``count --profile profile_text --set set_name --format fmt``
    for a count whose decimal text is ``text``."""
    if fmt == "json":
        payload = {"command": "count", "set": set_name, "profile": profile_text, "count": text}
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        return f"set,count\n{set_name},{text}\n"
    return text + "\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestIntText:
    # the one writer of the integers the CLI prints, under the default limit

    @pytest.mark.parametrize("k", [639, 640, 641, 4299, 4300, 4301, 99_999, 100_000, 100_001])
    def test_powers_of_ten_and_their_neighbours(self, k):
        for value in (10**k, 10**k - 1, -(10**k), 10**k + 1, -(10**k) + 7):
            assert cli._int_text(value) == exact_str(value)

    @pytest.mark.parametrize("value", [0, 1, -1, 9, -10, 2**64])
    def test_small_ints(self, value):
        assert cli._int_text(value) == str(value)

    def test_powers_of_two_around_the_switch(self):
        # str() writes ints of up to 14 284 bits (4300 digits), and the
        # decimal path splits longer ones down to leaves of _STR_BITS bits
        for j in [*range(core._STR_BITS - 3, core._STR_BITS + 4), *range(14_281, 14_288)]:
            for value in (2**j, 2**j - 1, -(2**j), 2 ** (3 * j)):
                assert cli._int_text(value) == exact_str(value)

    @pytest.mark.parametrize("limit", [640, 1000, 4300, 9999, 0])
    def test_str_writes_every_int_str_accepts(self, digit_limit, limit):
        # under the limit in force, and at most the default 4300 digits, past
        # which str() is the slower writer, whether the limit is raised or off
        digit_limit(limit)
        digits = min(limit or 4300, 4300)
        for k in range(digits - 2, digits + 3):
            for value in (10**k - 1, 10**k, 2 * 10**k, -(10**k - 1), -(10**k)):
                for near in (value, 1 << value.bit_length(), 1 << (value.bit_length() - 1)):
                    want = str_accepts(near) and len(exact_str(abs(near))) <= 4300
                    assert core._str_writes(near) is want
                    assert cli._int_writer(abs(near)) is (str if want else cli._int_text)
                    assert cli._int_text(near) == exact_str(near)

    def test_a_raised_limit_does_not_move_the_hand_over(self, digit_limit):
        # str() is quadratic: under a limit of 200 000 digits it would write
        # this int, several times slower than the decimal path
        digit_limit(200_000)
        value = random.Random(5).getrandbits(332_190) | 1 << 332_190  # 100 000 digits
        assert str_accepts(value) and len(str(value)) == 100_000
        assert not core._str_writes(value)
        assert cli._int_writer(value) is cli._int_text
        assert cli._int_text(value) == str(value)
        assert cli._int_text(-value) == str(-value)

    @settings(max_examples=40, deadline=None)
    @given(bits=st.integers(0, 166_000), seed=st.integers(0, 2**32), negative=st.booleans())
    def test_random_ints_up_to_50k_digits(self, bits, seed, negative):
        value = random.Random(seed).getrandbits(bits) * (-1 if negative else 1)
        assert cli._int_text(value) == exact_str(value)

    def test_no_source_file_sets_the_process_digit_limit(self):
        # the limit is one setting for the whole process, and not thread-safe
        src = Path(cli.__file__).resolve().parent
        setters = [p.name for p in src.glob("*.py") if "set_int_max_str_digits" in p.read_text()]
        assert setters == []


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestCountDigitLimit:
    # count prints answers longer than str() writes, exactly, in every format
    EXACT = {
        "T": count_t,
        "Sigma": count_sigma_grouped,
        "S": count_units,
        "E-Sigma": count_sigma_idempotents,
    }

    @pytest.mark.parametrize("fmt", ["lines", "json", "csv"])
    @pytest.mark.parametrize(
        "size, mult, set_name",
        [(3, 8602, "S"), (3, 5914, "T"), (3, 6689, "E-Sigma"), (1, 1600, "Sigma"), (3, 1000, "T")],
    )
    def test_answer_over_the_limit(self, capsys, size, mult, set_name, fmt):
        value = self.EXACT[set_name](PartitionProfile(((size, mult),)))
        with pytest.raises(ValueError):
            str(value)
        text = exact_str(value)
        argv = ["count", "--profile", f"{size}:{mult}", "--set", set_name, "--format", fmt]
        got = run(capsys, *argv)
        assert got == (0, count_output(set_name, f"{size}:{mult}", text, fmt), "")

    @staticmethod
    def refuse(*args):
        raise AssertionError("counted past the guard")

    def test_fails_before_counting(self, capsys, monkeypatch):
        # 200000^200000 has 1060206 digits, charged before the count is built
        monkeypatch.setattr(counting, "_count_t", self.refuse)
        argv = ("count", "--profile", "200000:1", "--set", "T", "--guard", "1000000")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "T count digits needs 1060206 items, exceeds guard 1000000" in err

    @pytest.mark.parametrize("guard", [[], ["--guard", "5"]])
    def test_sigma_fails_before_its_count(self, capsys, monkeypatch, guard):
        # Sigma is charged m times the digits of T's count, 10**500000 on
        # 1:100000, before its states and before any work
        monkeypatch.setattr(counting, "_count_sigma_grouped", self.refuse)
        code, out, err = run(capsys, "count", "--profile", "1:100000", "--set", "Sigma", *guard)
        assert (code, out) == (3, "")
        assert "Sigma count digit rounds needs 50000100000 items" in err

    def test_e_sigma_fails_before_its_count(self, capsys, monkeypatch):
        # |E(Sigma)| on one block of 3 million points has 15221824 digits,
        # charged 3 million times; its size is read from the largest terms
        # of the sum, not all of them
        monkeypatch.setattr(counting, "_count_sigma_idempotents", self.refuse)
        argv = ("count", "--profile", "3000000:1", "--set", "E-Sigma", "--guard", "1")
        assert run(capsys, *argv) == (
            3,
            "",
            "error: E-Sigma count digit rounds needs 45665472000000 items, exceeds guard 1; "
            "raise the guard or use a counting formula instead\n",
        )

    def test_e_sigma_work_is_charged_under_the_default_guard(self, capsys, monkeypatch):
        # idempotent_count(200000) sums 200000 terms of up to 803064 digits
        monkeypatch.setattr(counting, "_count_sigma_idempotents", self.refuse)
        code, out, err = run(capsys, "count", "--profile", "200000:1", "--set", "E-Sigma")
        assert (code, out) == (3, "")
        assert "E-Sigma count digit rounds needs 160612800000 items" in err

    def test_e_sigma_charge_at_its_edge(self, capsys):
        # 2000 rounds on the 4602 digits of idempotent_count(2000), within the
        # default guard of 10**7
        argv = ("count", "--profile", "2000:1", "--set", "E-Sigma")
        assert run(capsys, *argv) == (0, f"{exact_str(idempotent_count(2000))}\n", "")
        code, out, err = run(capsys, *argv, "--guard", "9203999")
        assert (code, out) == (3, "")
        assert "E-Sigma count digit rounds needs 9204000 items" in err
        assert run(capsys, *argv, "--guard", "9204000")[0] == 0

    @pytest.mark.parametrize("profile", ["11:97,12:100", "6:55,12:97", "1:80,11:82"])
    def test_e_sigma_on_blocks_of_up_to_12_points_answers(self, capsys, profile):
        # the heaviest E-Sigma counts of the perfbench queries mix
        want = exact_str(count_sigma_idempotents(cli._parse_profile(profile)))
        assert run(capsys, "count", "--profile", profile, "--set", "E-Sigma") == (0, want + "\n", "")

    def test_sigma_on_singletons_on_both_sides_of_the_limit(self, capsys):
        # |Sigma| on m singletons is m!: 1558! has 4300 digits, 1559! has 4303
        for m in (1558, 1559):
            want = exact_str(factorial(m))
            assert run(capsys, "count", "--profile", f"1:{m}", "--set", "Sigma") == (
                0,
                f"{want}\n",
                "",
            )

    @pytest.mark.parametrize(
        "set_name, size",
        [
            ("T", 1), ("T", 2), ("T", 3), ("Sigma", 1), ("Sigma", 2),
            ("S", 1), ("S", 2), ("S", 3), ("E-Sigma", 2), ("E-Sigma", 3),
        ],
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
            assert got == (0, f"{text}\n", "")
        assert sides == {False, True}
