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
verification), 2 input error, 3 work guard exceeded (for ``count`` also by
the charge on its answer's digits, made before counting), 141 stdout
closed by its reader (as a shell reports a writer killed by SIGPIPE).

Integers print exactly at any length: ``core._int_text`` writes every one.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable, Sequence

from . import counting, cycles, enumeration, verification
from .core import (
    CACHE_SIZE,
    DEFAULT_GUARD,
    CharacterMap,
    GuardExceededError,
    ParseError,
    PartitionProfile,
    SetPartition,
    _int_text,
    _str_writes,
    check_guard,
    format_partition,
    format_transformation,
    parse_partition,
    parse_transformation,
    profile_of,
)
from .membership import (
    SETS,
    NotPreservingError,
    _require_same_n,
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

# predicate name -> predicate(f, p); ``idempotent`` ignores p.  Each entry
# looks its function up when called, so a wrapper put on the module name (a
# tracer's, say) sees the call
PREDICATES = {
    "preserves": lambda f, p: preserves(f, p),
    "sigma": lambda f, p: in_sigma(f, p),
    "sigma-character": lambda f, p: sigma_via_character(f, p),
    "sigma-topology": lambda f, p: sigma_via_topology(f, p),
    "estar": lambda f, p: is_e_star_preserving(f, p),
    "units": lambda f, p: in_units(f, p),
    "idempotent": lambda f, p: is_idempotent(f),
    "sigma-idempotent": lambda f, p: sigma_idempotent_via_blocks(f, p),
}

def _emit_json(payload: dict) -> None:
    import json  # here, so that a call printing lines never loads it

    print(json.dumps(payload))


def _emit_csv(rows: list[Sequence[str]]) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _false_reason(
    name: str, p: SetPartition | None, found: CharacterMap | NotPreservingError | None
) -> str:
    """Why a ``check`` came out false, from ``found``: f's character on p,
    or the error that says f splits a block (None when there is no p)."""
    if name == "idempotent":
        return "map differs from its own square"
    assert p is not None
    if isinstance(found, NotPreservingError):
        return str(found)  # the library's own text for the split block
    # f preserves p from here on, and on a finite set each false case has one cause
    if name == "units":
        return "map is not a bijection"  # a preserving bijection is a unit
    if name == "sigma-idempotent":
        return "a block restriction is not an idempotent selfmap"
    # sigma, sigma-character, sigma-topology, estar: a character onto the
    # blocks is a bijection, so the only way out of Sigma is a missed block
    return f"image misses block {min(set(range(p.m)).difference(found.images))}"


def cmd_check(args: argparse.Namespace) -> int:
    f = parse_transformation(args.map)
    if args.partition is None and args.predicate != "idempotent":
        raise ParseError(f"predicate {args.predicate!r} needs a partition (-p)")
    p = None
    if args.partition is not None:
        # parsed on its own points, so a size mismatch reads as the library
        # names it, for every predicate (``idempotent`` included)
        p = parse_partition(args.partition)
        _require_same_n(f, p)
    result = PREDICATES[args.predicate](f, p)
    if args.format == "json":
        payload = {
            "command": "check",
            "predicate": args.predicate,
            "map": format_transformation(f),
            "partition": format_partition(p) if p is not None else None,
            "result": result,
        }
        # one character call serves both the character field and the reason
        found = None
        if p is not None:
            try:
                found = character(f, p)
            except NotPreservingError as exc:
                found = exc
            else:
                payload["character"] = str(found)
        if not result:
            payload["reason"] = _false_reason(args.predicate, p, found)
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


@functools.lru_cache(maxsize=CACHE_SIZE)
def _count_profile(partition: str | None, profile: str | None) -> PartitionProfile:
    """The profile ``count`` reads from its ``-p`` or ``--profile`` text, kept by text.

    A text counted again costs a lookup and finds the profile's memo with
    its counts; an error is raised by the parser and is not kept.
    """
    if partition is not None:
        return profile_of(parse_partition(partition))
    return _parse_profile(profile)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _count_text(partition: str | None, profile: str | None, set_name: str, guard: int) -> str:
    """The decimal text ``count`` prints, kept by every argument of the call.

    The first call charges the guard with the count's digits, counts
    through the set's row of ``counting.COUNTS`` (Sigma's count charges
    its own states) and writes the text.  The text and every refusal
    depend on these four arguments alone, and a refusal raises and is not
    kept, so a kept text only answers a call that would write the same
    text, with no charge to check again.
    """
    kept = _count_profile(partition, profile)
    counting._charge_count(kept, set_name, guard)
    return _int_text(counting.COUNTS[set_name][0](kept, guard))


def _int_writer(bound: int) -> Callable[[int], str]:
    """The writer of ints no longer than ``bound``: ``str`` itself when
    ``_int_text`` would hand them all to it, so that many short ints are
    written with no Python call each."""
    return str if _str_writes(bound) else _int_text


def cmd_count(args: argparse.Namespace) -> int:
    if (args.partition is None) == (args.profile is None):
        raise ParseError("give exactly one of -p/--partition and --profile")
    # a set without a count formula is rejected by the parser
    text = _count_text(args.partition, args.profile, args.set, args.guard)
    if args.format == "json":
        entries = _count_profile(args.partition, args.profile).entries
        _emit_json(
            {
                "command": "count",
                "set": args.set,
                "profile": ",".join(f"{s}:{c}" for s, c in entries),
                "count": text,
            }
        )
    elif args.format == "csv":
        _emit_csv([["set", "count"], [args.set, text]])
    else:
        print(text)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    p = parse_partition(args.partition)
    result = enumeration._collect(p, args.set, args.strategy, args.limit, args.guard)
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
    expected = enumeration._class_count(p.m, args.guard)
    sigma_count = counting.count_sigma_grouped(profile_of(p), guard=args.guard)
    characters, representatives, sizes = enumeration._class_table(p, guard=args.guard, text=True)
    total = sum(sizes)
    consistent = len(sizes) == expected and total == sigma_count
    # no class is larger than the total
    size_texts = map(_int_writer(total), sizes)
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
                "total": _int_text(total),
                "sigma_count": _int_text(sigma_count),
                "consistent": consistent,
            }
        )
    elif args.format == "csv":
        _emit_csv([["character", "size"], *zip(characters, size_texts)])
    else:
        print("\n".join(map(" ".join, zip(characters, size_texts))))
        print(
            f"# classes: {len(sizes)} (expected {expected}), total: {_int_text(total)}, "
            f"sigma: {_int_text(sigma_count)}, consistent: {str(consistent).lower()}"
        )
    return 0 if consistent else 1


def cmd_character(args: argparse.Namespace) -> int:
    f = parse_transformation(args.map)
    p = parse_partition(args.partition)
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
        _, witness = cycles.preserved_m_partition_exists(f, args.m)
    else:
        witness = cycles.find_preserved_partition(f)
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
    results = verification.run_verification(args.n_max, guard=args.guard)
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

    Its ``plain`` attribute maps each subcommand name to the grammar
    ``_parse_plain`` reads, built from that subcommand's own actions, so
    clearing this cache rebuilds both.  Parsing keeps no state in the
    parser: each call gets a fresh namespace, and help and usage errors go
    to the ``sys.stdout`` and ``sys.stderr`` of that call.
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
    p_count.add_argument("--set", choices=[name for name in SETS if SETS[name][2]], required=True)
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", parents=[common], help="list the members of a set")
    p_enum.add_argument("-p", "--partition", required=True)
    p_enum.add_argument("--set", choices=list(SETS), required=True)
    p_enum.add_argument("--strategy", choices=("brute", "constructive"), default="constructive")
    p_enum.add_argument("--limit", type=int, default=None, help="truncate enumerations")
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
    p_find.add_argument(
        "-m", "--m", type=int, default=None, help="require exactly m blocks (full cycles)"
    )
    p_find.add_argument(
        "--verify", action="store_true", help="re-check membership before printing"
    )
    p_find.set_defaults(func=cmd_find_partition)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the cross-validation harness"
    )
    p_verify.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_verify.set_defaults(func=cmd_verify)

    parser.plain = {name: _plain_grammar(command) for name, command in sub.choices.items()}
    return parser


# the action kinds _parse_plain reads, with their nargs: one value, or a flag
_PLAIN_KINDS = {(argparse._StoreAction, None), (argparse._StoreTrueAction, 0)}


def _plain_grammar(command: argparse.ArgumentParser):
    """The grammar ``_parse_plain`` reads for one subcommand.

    It is a triple: each option string of a kind in ``_PLAIN_KINDS``
    mapped to its action, the namespace ``parse_known_args`` starts from
    (each action's default in parser order, then the subcommand's
    ``func``), and the required actions.  The help action is of no kind in
    ``_PLAIN_KINDS`` and its default is ``SUPPRESS``, so it is left out and
    ``-h``, like an option of any other kind, is left to argparse.
    """
    actions = command._actions
    options = {
        option: action
        for action in actions
        if (type(action), action.nargs) in _PLAIN_KINDS
        for option in action.option_strings
    }
    defaults = {a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}
    defaults["func"] = command.get_default("func")
    return options, defaults, [action for action in actions if action.required]


def _parse_plain(grammar, argv: list[str]) -> argparse.Namespace | None:
    """Parse a plain call to one subcommand from its grammar, or return None.

    Plain means: after the subcommand, only exact option strings of that
    subcommand, each but a flag followed by one value that does not start
    with "-".  argparse reads such an argv the same way, so converting each
    value with the action's ``type``, checking ``choices`` and ``required``
    and filling the defaults gives the namespace ``parse_known_args``
    would.  Anything else (an unknown or abbreviated option, ``--opt=v``,
    ``-pV``, ``-h``, an option of a kind not in ``_PLAIN_KINDS``, a value
    starting with "-", a missing value, a type or choice error, a missing
    required option) gives None, and argparse parses the call and words
    its help or error.
    """
    options, defaults, required = grammar
    values = dict(defaults)
    seen = set()
    rest = iter(argv[1:])
    for option in rest:
        action = options.get(option)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(rest, "-")  # a missing value declines as "-" does
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not seen.issuperset(required):
        return None
    # one update, where Namespace(**values) would set each field in turn
    args = argparse.Namespace()
    vars(args).update(values, command=argv[0])
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the top-level parser would, with as little argparse as it takes.

    A plain call to a subcommand (see ``_parse_plain``) is read from that
    subcommand's grammar with no argparse pass at all.  Every other call
    goes to the top-level parser's ``parse_args``, so every help, usage and
    error text, and every exit code, comes from argparse.
    """
    parser = _build_parser()
    grammar = parser.plain.get(argv[0]) if argv else None
    if grammar is not None:
        args = _parse_plain(grammar, argv)
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse (3.11) leaves a final "--" (end of options) in a subparser's extras
    args = _parse_args(argv[:-1] if argv[-1:] == ["--"] else argv)
    try:
        # reject a bad guard even where the subcommand never consults it
        check_guard(0, args.guard, "nothing")
        code = args.func(args)
        # an output that fits stdout's buffer meets a gone reader here, not
        # in the interpreter's last flush after main has returned
        sys.stdout.flush()
        return code
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: stdout now drops what is left in its buffer,
        # so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
