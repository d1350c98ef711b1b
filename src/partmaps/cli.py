"""Command-line front end.

Examples::

    partmaps check -p "0,1|2" -f "2,2,0" --predicate sigma
    partmaps count --profile "2:2" --set S
    partmaps enumerate -p "0,1|2" --set Sigma --format json
    partmaps quotient -p "0,1|2"
    partmaps character -p "0,1|2" -f "2,2,0"
    partmaps find-partition -f "1,0,3,2,4" --verify
    partmaps verify --n-max 5

Exit codes: 0 success or predicate true, 1 predicate false (or a failed
verification), 2 input error, 3 work guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from collections.abc import Sequence

from .core import (
    DEFAULT_GUARD,
    GuardExceededError,
    ParseError,
    PartitionProfile,
    SetPartition,
    Transformation,
    check_guard,
    format_partition,
    format_transformation,
    parse_partition,
    parse_transformation,
    profile_of,
)
from .counting import count_sigma_grouped, log10_count
from .cycles import find_preserved_partition, preserved_m_partition_exists
from .enumeration import _class_count, _class_table, _collect, _member_count
from .membership import (
    character,
    in_sigma,
    in_units,
    is_e_star_preserving,
    is_idempotent,
    preserves,
    sigma_idempotent_via_blocks,
    sigma_via_character,
    sigma_via_topology,
)
from .verification import run_verification

PREDICATES = (
    "preserves",
    "sigma",
    "sigma-character",
    "sigma-topology",
    "estar",
    "units",
    "idempotent",
    "sigma-idempotent",
)

SETS = ("T", "Sigma", "S", "E-Sigma", "E-T")

# CPython's text for an int too long for str(), so that failing early reads
# the same as failing in str() itself
INT_STR_LIMIT_MESSAGE = (
    "Exceeds the limit ({} digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _emit_csv(rows: list[Sequence[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _apply_predicate(name: str, f: Transformation, p: SetPartition | None) -> bool:
    if name == "idempotent":
        return is_idempotent(f)
    assert p is not None
    table = {
        "preserves": preserves,
        "sigma": in_sigma,
        "sigma-character": sigma_via_character,
        "sigma-topology": sigma_via_topology,
        "estar": is_e_star_preserving,
        "units": in_units,
        "sigma-idempotent": sigma_idempotent_via_blocks,
    }
    return table[name](f, p)


def _false_reason(name: str, f: Transformation, p: SetPartition | None) -> str:
    if name == "idempotent":
        return "map differs from its own square"
    assert p is not None
    idx = p.block_index
    if not preserves(f, p):
        for i, block in enumerate(p.blocks):
            hit = {idx[f.images[x]] for x in block}
            if len(hit) > 1:
                return f"block {i} splits across blocks {sorted(hit)}"
    # f preserves p from here on, and on a finite set each false case has one cause
    if name == "units":
        return "map is not a bijection"  # a preserving bijection is a unit
    if name == "sigma-idempotent":
        return "a block restriction is not an idempotent selfmap"
    # sigma, sigma-character, sigma-topology, estar: a character onto the
    # blocks is a bijection, so the only way out of Sigma is a missed block
    hit = {idx[y] for y in f.images}
    missed = next(j for j in range(p.m) if j not in hit)
    return f"image misses block {missed}"


def cmd_check(args: argparse.Namespace) -> int:
    f = parse_transformation(args.map)
    if args.partition is None and args.predicate != "idempotent":
        raise ParseError(f"predicate {args.predicate!r} needs a partition (-p)")
    p = None if args.partition is None else parse_partition(args.partition, f.n)
    result = _apply_predicate(args.predicate, f, p)
    if args.format == "json":
        payload = {
            "command": "check",
            "predicate": args.predicate,
            "map": format_transformation(f),
            "partition": format_partition(p) if p is not None else None,
            "result": result,
        }
        if p is not None and preserves(f, p):
            payload["character"] = str(character(f, p))
        if not result:
            payload["reason"] = _false_reason(args.predicate, f, p)
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv([["predicate", "result"], [args.predicate, str(result).lower()]])
    else:
        print("true" if result else "false")
    return 0 if result else 1


def _parse_profile(text: str) -> PartitionProfile:
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        size_s, sep, mult_s = chunk.partition(":")
        if not sep:
            raise ParseError(f"invalid profile entry {chunk!r}, expected size:multiplicity")
        try:
            entries.append((int(size_s), int(mult_s)))
        except ValueError:
            raise ParseError(f"invalid profile entry {chunk!r}") from None
    try:
        return PartitionProfile(tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _check_printable(profile: PartitionProfile, set_name: str) -> None:
    """Raise str()'s ValueError before counting when the count surely has
    more digits than this interpreter prints.

    A count of d digits has log10 in [d - 1, d), so one whole digit of
    margin, plus a relative 1e-9 for rounding, leaves every count near the
    limit to str() itself.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit is not None else 0
    if not limit:
        return
    estimate = log10_count(profile, set_name)
    if estimate is not None and estimate > (limit + 1) * (1 + 1e-9):
        raise ValueError(INT_STR_LIMIT_MESSAGE.format(limit))


def cmd_count(args: argparse.Namespace) -> int:
    if (args.partition is None) == (args.profile is None):
        raise ParseError("give exactly one of -p/--partition and --profile")
    if args.partition is not None:
        profile = profile_of(parse_partition(args.partition))
    else:
        profile = _parse_profile(args.profile)
    _check_printable(profile, args.set)
    _, value = _member_count(profile, args.set, args.guard)  # E-T is rejected by the parser
    if args.format == "json":
        _emit_json(
            {
                "command": "count",
                "set": args.set,
                "profile": ",".join(f"{s}:{c}" for s, c in profile.entries),
                "count": str(value),
            }
        )
    elif args.format == "csv":
        _emit_csv([["set", "count"], [args.set, str(value)]])
    else:
        print(value)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    p = parse_partition(args.partition)
    result = _collect(p, args.set, args.strategy, args.limit, args.guard)
    maps, truncated = result.maps, result.truncated
    if args.format == "json":
        _emit_json(
            {
                "command": "enumerate",
                "set": args.set,
                "partition": format_partition(p),
                "maps": [format_transformation(f) for f in maps],
                "total": len(maps),
                "truncated": truncated,
            }
        )
    elif args.format == "csv":
        header = [f"x{i}" for i in range(p.n)]
        _emit_csv([header] + [[str(y) for y in f.images] for f in maps])
    else:
        for f in maps:
            print(format_transformation(f))
        suffix = " (truncated)" if truncated else ""
        print(f"# total: {len(maps)}{suffix}")
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    """Print the character classes of Sigma straight from the class table.

    Both guards are checked before any class is built: the m! classes
    first, then the states of the Sigma count.  Rows are written from the
    table's columns with no object per class.
    """
    p = parse_partition(args.partition)
    expected = _class_count(p.m, args.guard)
    sigma_count = count_sigma_grouped(profile_of(p), guard=args.guard)
    characters, representatives, sizes = _class_table(p, guard=args.guard, text=True)
    total = sum(sizes)
    consistent = len(sizes) == expected and total == sigma_count
    size_texts = map(str, sizes)
    if args.format == "json":
        _emit_json(
            {
                "command": "quotient",
                "partition": format_partition(p),
                "classes": [
                    {"character": chi, "size": size, "representative": rep}
                    for chi, size, rep in zip(characters, size_texts, representatives)
                ],
                "class_count": len(sizes),
                "expected_class_count": expected,
                "total": str(total),
                "sigma_count": str(sigma_count),
                "consistent": consistent,
            }
        )
    elif args.format == "csv":
        _emit_csv([["character", "size"], *zip(characters, size_texts)])
    else:
        print("\n".join(map(" ".join, zip(characters, size_texts))))
        print(
            f"# classes: {len(sizes)} (expected {expected}), total: {total}, "
            f"sigma: {sigma_count}, consistent: {str(consistent).lower()}"
        )
    return 0 if consistent else 1


def cmd_character(args: argparse.Namespace) -> int:
    f = parse_transformation(args.map)
    p = parse_partition(args.partition, f.n)
    chi = character(f, p)
    if args.format == "json":
        _emit_json(
            {
                "command": "character",
                "map": format_transformation(f),
                "partition": format_partition(p),
                "character": str(chi),
                "surjective": chi.is_surjective(),
                "injective": chi.is_injective(),
            }
        )
    elif args.format == "csv":
        _emit_csv([["character"], [str(chi)]])
    else:
        print(chi)
    return 0


def cmd_find_partition(args: argparse.Namespace) -> int:
    f = parse_transformation(args.map)
    if args.m is not None:
        _, witness = preserved_m_partition_exists(f, args.m)
    else:
        witness = find_preserved_partition(f)
    verified = None
    if witness is not None and args.verify:
        if f.is_bijection():
            verified = in_units(f, witness)
        else:
            verified = preserves(f, witness)
    if args.format == "json":
        _emit_json(
            {
                "command": "find-partition",
                "map": format_transformation(f),
                "m": args.m,
                "partition": format_partition(witness) if witness is not None else None,
                "verified": verified,
            }
        )
    else:
        text = "none" if witness is None else format_partition(witness)
        if args.format == "csv":
            _emit_csv([["partition"], [text]])
        else:
            print(text)
    if witness is None:
        return 1
    if verified is False:
        print("error: witness failed the membership re-check", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.n_max, guard=args.guard)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "n_max": args.n_max,
                "checks": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "cases": r.cases,
                        "detail": r.detail,
                        "seconds": r.seconds,
                    }
                    for r in results
                ],
                "census_seconds": results.census_seconds,
                "all_passed": all_passed,
            }
        )
    elif args.format == "csv":
        rows = [["name", "passed", "cases"]]
        rows += [[r.name, str(r.passed).lower(), str(r.cases)] for r in results]
        _emit_csv(rows)
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.name}: {r.detail}")
        print(f"# {'all checks passed' if all_passed else 'SOME CHECKS FAILED'}")
    return 0 if all_passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call.

    Parsing keeps no state in the parser: each call gets a fresh namespace,
    and help and usage errors go to the ``sys.stdout`` and ``sys.stderr`` of
    that call.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("lines", "json", "csv"), default="lines", help="output format"
    )
    common.add_argument(
        "--guard",
        type=int,
        default=DEFAULT_GUARD,
        help="cap on candidate maps an operation may visit",
    )
    common.add_argument("--limit", type=int, default=None, help="truncate enumerations")

    parser = argparse.ArgumentParser(
        prog="partmaps",
        description="Transformations of a finite set that preserve a set partition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common], help="evaluate a membership predicate")
    p_check.add_argument("-p", "--partition", help='partition text, e.g. "0,1|2"')
    p_check.add_argument("-f", "--map", required=True, help='image table, e.g. "2,2,0"')
    p_check.add_argument("--predicate", choices=PREDICATES, required=True)
    p_check.set_defaults(func=cmd_check)

    p_count = sub.add_parser("count", parents=[common], help="exact cardinality of a member set")
    p_count.add_argument("-p", "--partition")
    p_count.add_argument("--profile", help='size:multiplicity pairs, e.g. "2:1,1:1"')
    p_count.add_argument("--set", choices=("T", "Sigma", "S", "E-Sigma"), required=True)
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", parents=[common], help="list the members of a set")
    p_enum.add_argument("-p", "--partition", required=True)
    p_enum.add_argument("--set", choices=SETS, required=True)
    p_enum.add_argument("--strategy", choices=("brute", "constructive"), default="constructive")
    p_enum.set_defaults(func=cmd_enumerate)

    p_quot = sub.add_parser(
        "quotient", parents=[common], help="character classes of Sigma with sizes"
    )
    p_quot.add_argument("-p", "--partition", required=True)
    p_quot.set_defaults(func=cmd_quotient)

    p_char = sub.add_parser(
        "character", parents=[common], help="induced map on block indices"
    )
    p_char.add_argument("-p", "--partition", required=True)
    p_char.add_argument("-f", "--map", required=True)
    p_char.set_defaults(func=cmd_character)

    p_find = sub.add_parser(
        "find-partition", parents=[common], help="nontrivial partition preserved by a map"
    )
    p_find.add_argument("-f", "--map", required=True)
    p_find.add_argument("-m", type=int, default=None, help="require exactly m blocks (full cycles)")
    p_find.add_argument("--verify", action="store_true", help="re-check membership before printing")
    p_find.set_defaults(func=cmd_find_partition)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the cross-validation harness"
    )
    p_verify.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # reject a bad guard even where the subcommand never consults it
        check_guard(0, args.guard, "nothing")
        return args.func(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
