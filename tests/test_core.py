import copy
import dataclasses
import itertools
import pickle
import random
import re
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bad_input
import oracles
from partmaps.core import (
    CACHE_SIZE,
    CharacterMap,
    GuardExceededError,
    ParseError,
    PartitionProfile,
    SetPartition,
    Transformation,
    compose,
    format_partition,
    format_transformation,
    iter_partitions,
    parse_partition,
    parse_transformation,
    _profile_of_sizes,
    _trusted_character,
    profile_of,
)
from strategies import partitions, shuffled_text, transformations

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class TestParsePartition:
    def test_basic(self):
        assert parse_partition("0,1|2", 3).blocks == ((0, 1), (2,))

    def test_canonicalizes_input_order(self):
        assert parse_partition("2|1,0", 3).blocks == ((0, 1), (2,))

    def test_duplicate_point(self):
        with pytest.raises(ParseError, match="duplicate point 1"):
            parse_partition("0,1|1,2", 3)

    def test_out_of_range_point(self):
        with pytest.raises(ParseError, match="point 5 out of range"):
            parse_partition("0,1|5", 3)

    def test_missing_point(self):
        with pytest.raises(ParseError, match="missing point 1"):
            parse_partition("0,2|3", 4)

    def test_empty_block(self):
        with pytest.raises(ParseError, match="empty block"):
            parse_partition("0,1||2", 3)

    def test_bad_token(self):
        with pytest.raises(ParseError, match="invalid point 'x'"):
            parse_partition("0,x|2", 3)

    def test_whitespace_tolerated(self):
        assert parse_partition(" 0 , 1 | 2 ", 3).blocks == ((0, 1), (2,))

    def test_ground_set_inferred_from_largest_point(self):
        p = parse_partition("3|1,0|2")
        assert (p.n, p.blocks) == (4, ((0, 1), (2,), (3,)))

    def test_inferred_ground_set_missing_point(self):
        with pytest.raises(ParseError, match="missing point 1"):
            parse_partition("0,2|3")

    def test_inferred_ground_set_keeps_token_errors(self):
        with pytest.raises(ParseError, match="invalid point 'x'"):
            parse_partition("0,x|2")
        with pytest.raises(ParseError, match="empty block"):
            parse_partition("0||1")
        with pytest.raises(ParseError, match="point -1 out of range"):
            parse_partition("0|-1")


class TestParseTransformation:
    def test_swap(self):
        assert parse_transformation("1,0,2", 3).images == (1, 0, 2)

    def test_constant(self):
        assert parse_transformation("0,0,0", 3).images == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="image 3 out of range"):
            parse_transformation("0,3,1", 3)

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="expected 3 images, got 2"):
            parse_transformation("0,1", 3)

    def test_bad_token(self):
        with pytest.raises(ParseError, match="invalid image"):
            parse_transformation("0,a,1", 3)

    def test_ground_set_inferred_from_token_count(self):
        assert parse_transformation("2, 2,0").images == (2, 2, 0)
        with pytest.raises(ParseError, match="image 3 out of range for n=3"):
            parse_transformation("0,3,1")


@given(partitions())
def test_partition_round_trip(p):
    assert parse_partition(format_partition(p), p.n) == p


@given(transformations())
def test_transformation_round_trip(f):
    assert parse_transformation(format_transformation(f), f.n) == f


@given(transformations(n=5), transformations(n=5))
def test_accepted_maps_print_as_parseable_text(f, g):
    # composites take the unvalidated path, so their text must parse back too
    for h in (f, compose(f, g)):
        assert parse_transformation(str(h), h.n) == h



class TestParsersMatchValidatedConstructors:
    # the parsers build through the trusted builders; what they return must be
    # indistinguishable from the validating constructors' objects

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_partition(self, n):
        rng = random.Random(n)
        for ref in iter_partitions(n):
            text = shuffled_text(ref.blocks, rng)
            expected = SetPartition(tuple(reversed(ref.blocks)))
            for got in (parse_partition(text), parse_partition(text, n)):
                assert type(got) is SetPartition
                assert got == expected and got.blocks == expected.blocks
                assert got.block_index == expected.block_index
                assert hash(got) == hash(expected)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_map(self, n):
        for images in itertools.product(range(n), repeat=n):
            expected = Transformation(images)
            text = ",".join(map(str, images))
            for got in (parse_transformation(text), parse_transformation(text, n)):
                assert type(got) is Transformation
                assert got == expected and got.images == images
                assert hash(got) == hash(expected)


# no text spells these, so only the constructors see them
NOT_INTS = [
    (SetPartition, ((0,), (True,)), "point True is not an int"),
    (SetPartition, ((0, 1.0),), "point 1.0 is not an int"),
    (Transformation, (0, False), "image False of point 1 is not an int"),
    (Transformation, (0.0,), "image 0.0 of point 0 is not an int"),
]


def _message(build, arg):
    with pytest.raises(ValueError) as info:
        build(arg)
    return str(info.value)


class TestBadInputParity:
    @pytest.mark.parametrize("case, blocks, text, message", bad_input.PARTITIONS)
    def test_partition(self, case, blocks, text, message):
        assert _message(SetPartition, blocks) == message
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_partition(text)

    @pytest.mark.parametrize("case, images, text, message", bad_input.MAPS)
    def test_map(self, case, images, text, message):
        assert _message(Transformation, images) == message
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_transformation(text)

    @pytest.mark.parametrize("build, arg, message", NOT_INTS)
    def test_constructor_rejects_non_ints(self, build, arg, message):
        assert _message(build, arg) == message

    def test_explicit_ground_set(self):
        # the size a caller passes is checked by the same code as an inferred one
        assert _message(lambda t: parse_partition(t, 3), "0,1|5") == "point 5 out of range for n=3"
        assert _message(lambda t: parse_partition(t, 4), "0,2|3") == "missing point 1"
        assert _message(lambda t: parse_partition(t, 10**12), "0|1") == "missing point 2"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_route_builds_the_same_partition(self, n):
        for p in iter_partitions(n):
            for twin in (SetPartition(p.blocks), parse_partition(str(p))):
                assert twin == p and hash(twin) == hash(p)
                assert twin.block_index == p.block_index
                assert repr(twin) == repr(p)


class TestCompose:
    def test_involution_squares_to_identity(self):
        f = Transformation((1, 0, 2))
        assert compose(f, f) == Transformation.identity(3)

    def test_constant_then_permutation(self):
        assert compose(Transformation((0, 0, 0)), Transformation((2, 1, 0))).images == (2, 2, 2)

    def test_three_cycle_squared(self):
        f = Transformation((1, 2, 0))
        assert compose(f, f).images == (2, 0, 1)

    def test_left_to_right_convention(self):
        # x(fg) = (xf)g: apply f first
        f = Transformation((1, 1, 1))
        g = Transformation((2, 0, 0))
        assert compose(f, g).images == (0, 0, 0)
        assert compose(g, f).images == (1, 1, 1)
        assert (f * g).images == (0, 0, 0)

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="ground sets differ"):
            compose(Transformation((0,)), Transformation((0, 1)))

    def test_associative_exhaustively_n3(self):
        maps = [Transformation(t) for t in itertools.product(range(3), repeat=3)]
        for f, g, h in itertools.product(maps, repeat=3):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestProfile:
    def test_mixed_sizes(self):
        prof = profile_of(SetPartition(((0, 1), (2,))))
        assert prof.entries == ((1, 1), (2, 1))
        assert (prof.m, prof.k, prof.n) == (2, 2, 3)

    def test_uniform(self):
        prof = profile_of(SetPartition(((0, 1), (2, 3))))
        assert prof.entries == ((2, 2),)
        assert (prof.m, prof.k) == (2, 1)

    def test_singletons_and_triple(self):
        prof = profile_of(SetPartition(((0,), (1,), (2, 3, 4))))
        assert prof.entries == ((1, 2), (3, 1))
        assert (prof.m, prof.k) == (3, 2)

    def test_block_sizes_expansion(self):
        prof = PartitionProfile(((2, 2), (1, 1)))
        assert prof.block_sizes() == (1, 2, 2)

    def test_rejects_repeated_size(self):
        with pytest.raises(ValueError, match="repeated block size 2"):
            PartitionProfile(((2, 1), (2, 3)))

    def test_rejects_no_entries(self):
        with pytest.raises(ValueError, match="^profile needs at least one entry$"):
            PartitionProfile(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="must be positive"):
            PartitionProfile(((2, 0),))
        with pytest.raises(ValueError, match="must be positive"):
            PartitionProfile(((0, 2),))

    @pytest.mark.parametrize(
        "entries, bad",
        [
            (((2.9, 1.7),), "block size 2.9"),
            ((("3", 1),), "block size '3'"),
            (((True, 2),), "block size True"),
            (((2, True),), "multiplicity True of size 2"),
            (((1, 2), (3, 1.0)), "multiplicity 1.0 of size 3"),
        ],
    )
    def test_rejects_non_int_entries(self, entries, bad):
        # no coercion: 2.9 is not read as size 2, nor True as 1
        with pytest.raises(ValueError, match=re.escape(bad) + " is not an int"):
            PartitionProfile(entries)

    @pytest.mark.parametrize("entries, bad", [(((2, 1, 3),), "(2, 1, 3)"), ((2,), "2")])
    def test_rejects_entries_that_are_not_pairs(self, entries, bad):
        want = f"profile entry {bad} is not a (size, multiplicity) pair"
        with pytest.raises(ValueError, match=re.escape(want)):
            PartitionProfile(entries)

    @pytest.mark.parametrize("entries", [5, None])
    def test_rejects_entries_that_are_not_a_sequence(self, entries):
        want = f"profile entries {entries!r} are not a sequence of (size, multiplicity) pairs"
        with pytest.raises(ValueError, match=re.escape(want)):
            PartitionProfile(entries)

    def test_every_profile_starts_with_its_own_empty_memo(self, cold_memos):
        # the memo lives outside the fields, and no two profiles share one
        # unless a cache hands out the same profile
        prof = profile_of(SetPartition(((0, 1), (2,), (3, 4))))
        prof._memo["T"] = 405
        twins = [
            PartitionProfile(((2, 2), (1, 1))),
            pickle.loads(pickle.dumps(prof)),
            copy.copy(prof),
            copy.deepcopy(prof),
        ]
        for twin in twins:
            assert type(twin) is PartitionProfile
            assert twin == prof and hash(twin) == hash(prof) and repr(twin) == repr(prof)
            assert twin._memo == {} and twin._memo is not prof._memo
        assert len({id(twin._memo) for twin in twins}) == len(twins)
        assert [f.name for f in dataclasses.fields(prof)] == ["entries"]
        assert repr(prof) == "PartitionProfile(entries=((1, 1), (2, 2)))"
        assert profile_of(SetPartition(((0,), (1, 2), (3, 4)))) is prof

    @given(partitions())
    def test_invariant_under_block_reordering(self, p):
        reordered = SetPartition(tuple(reversed(p.blocks)))
        assert profile_of(reordered) == profile_of(p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_validated_constructor(self, n):
        # profile_of builds through a per-profile cache
        for p in iter_partitions(n):
            sizes = [len(b) for b in p.blocks]
            expected = PartitionProfile(tuple((s, sizes.count(s)) for s in set(sizes)))
            got = profile_of(p)
            assert type(got) is PartitionProfile
            assert got == expected and got.entries == expected.entries
            assert hash(got) == hash(expected)

    def test_cache_is_bounded(self):
        assert _profile_of_sizes.cache_info().maxsize == CACHE_SIZE


class TestTransformationType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Transformation((0, 3, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Transformation(())

    @pytest.mark.parametrize("images", [(0.0,), (True, 0), (0, 1.0), ("0",)])
    def test_rejects_points_that_are_not_ints(self, images):
        with pytest.raises(ValueError, match="is not an int"):
            Transformation(images)

    def test_composite_and_inverse_equal_the_validated_map(self):
        f = Transformation((2, 0, 1))
        for h, images in ((compose(f, f), (1, 2, 0)), (f.inverse(), (1, 2, 0))):
            rebuilt = Transformation(images)
            assert type(h) is Transformation
            assert h == rebuilt and hash(h) == hash(rebuilt) and str(h) == str(rebuilt)

    def test_identity_and_inverse(self):
        f = Transformation((2, 0, 1))
        assert compose(f, f.inverse()) == Transformation.identity(3)
        assert compose(f.inverse(), f) == Transformation.identity(3)

    def test_inverse_needs_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Transformation((0, 0, 1)).inverse()

    def test_ordering_is_lexicographic(self):
        a = Transformation((0, 1, 2))
        b = Transformation((0, 2, 1))
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_call_and_image_set(self):
        f = Transformation((2, 2, 0))
        assert f(0) == 2 and f(2) == 0
        assert f.image_set() == frozenset({0, 2})

    def test_pickle_and_copy_round_trips(self):
        validated = Transformation((2, 0, 0, 1))
        for f in (validated, compose(validated, Transformation.identity(4))):
            for twin in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
                assert type(twin) is Transformation
                assert twin == validated and hash(twin) == hash(validated)

    def test_slotted_instances(self):
        f = Transformation((1, 0))
        assert not hasattr(f, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(f)
        with pytest.raises(AttributeError):
            f.images = (0, 0)


class TestSetPartitionType:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate point 1"):
            SetPartition(((0, 1), (1, 2)))

    def test_rejects_gaps(self):
        with pytest.raises(ValueError, match="missing point 1"):
            SetPartition(((0,), (2,)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty block"):
            SetPartition(((0, 1), ()))

    def test_rejects_the_empty_partition(self):
        with pytest.raises(ValueError, match="partition needs a nonempty ground set"):
            SetPartition(())

    @pytest.mark.parametrize(
        "blocks", [((0,), (1.0,)), ((0, True),), ((False,), (1,)), ((0,), ("1",))]
    )
    def test_rejects_points_that_are_not_ints(self, blocks):
        with pytest.raises(ValueError, match="is not an int"):
            SetPartition(blocks)

    def test_block_index(self):
        p = SetPartition(((0, 2), (1,)))
        assert p.block_index == (0, 1, 0)

    def test_pickle_and_copy_round_trips(self):
        validated = SetPartition(((0, 3), (1,), (2, 4)))
        trusted = (parse_partition("3,0|4,2|1"), next(q for q in iter_partitions(5) if q == validated))
        for p in (validated, *trusted):
            for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
                assert type(twin) is SetPartition
                assert twin == validated and hash(twin) == hash(validated)
                assert twin.block_index == validated.block_index == (0, 1, 2, 0, 2)

    def test_slotted_instances(self):
        p = SetPartition(((0,), (1,)))
        assert not hasattr(p, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(p)
        with pytest.raises(AttributeError):
            p.blocks = ((0, 1),)
        with pytest.raises(AttributeError):
            p.block_index = (0, 0)

    def test_trivial_and_uniform_flags(self):
        assert SetPartition(((0, 1, 2),)).is_trivial
        assert SetPartition(((0,), (1,), (2,))).is_trivial
        assert not SetPartition(((0, 1), (2,))).is_trivial
        assert SetPartition(((0, 1), (2, 3))).is_uniform
        assert not SetPartition(((0, 1), (2,))).is_uniform

    @given(partitions())
    def test_canonical_form_is_stable(self, p):
        shuffled = SetPartition(tuple(reversed([tuple(reversed(b)) for b in p.blocks])))
        assert shuffled == p
        mins = [b[0] for b in p.blocks]
        assert mins == sorted(mins)
        for b in p.blocks:
            assert list(b) == sorted(b)


class TestCharacterMapType:
    @pytest.mark.parametrize(
        "images, bad",
        [
            ((True, 0), "block image True of block 0"),
            ((0.0,), "block image 0.0 of block 0"),
            ((0, "1"), "block image '1' of block 1"),
        ],
    )
    def test_rejects_non_int_images(self, images, bad):
        with pytest.raises(ValueError, match=re.escape(bad) + " is not an int"):
            CharacterMap(images)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CharacterMap((0, 2))

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="^character map needs at least one block$"):
            CharacterMap(())

    def test_call_reads_the_image_of_a_block(self):
        chi = CharacterMap((2, 0, 0))
        assert [chi(i) for i in range(chi.m)] == [2, 0, 0]

    def test_predicates(self):
        assert CharacterMap((0, 1)).is_identity()
        assert CharacterMap((1, 0)).is_bijective()
        assert not CharacterMap((0, 0)).is_surjective()
        assert CharacterMap((0, 0)).is_idempotent()
        assert not CharacterMap((1, 0)).is_idempotent()

    def test_compose_left_to_right(self):
        a = CharacterMap((1, 0, 2))
        b = CharacterMap((0, 0, 1))
        assert a.compose(b).images == (0, 0, 1)
        assert b.compose(a).images == (1, 1, 0)

    def test_compose_rejects_other_block_counts(self):
        with pytest.raises(ValueError, match="^block counts differ: 1 != 2$"):
            CharacterMap((0,)).compose(CharacterMap((0, 1)))

    def test_as_transformation(self):
        assert CharacterMap((1, 0)).as_transformation() == Transformation((1, 0))

    def test_slotted_instances(self):
        chi = CharacterMap((1, 0))
        assert not hasattr(chi, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(chi)
        with pytest.raises(AttributeError):
            chi.images = (0, 0)

    def test_pickle_and_copy_round_trips(self):
        validated = CharacterMap((2, 0, 0))
        for chi in (validated, _trusted_character((2, 0, 0))):
            for twin in (pickle.loads(pickle.dumps(chi)), copy.copy(chi), copy.deepcopy(chi)):
                assert type(twin) is CharacterMap
                assert twin == validated and hash(twin) == hash(validated)
                assert twin.images == (2, 0, 0)

    def test_repr_equality_order_and_hash(self):
        chi = CharacterMap((1, 0))
        assert repr(chi) == "CharacterMap(images=(1, 0))"
        assert str(chi) == "1,0"
        assert chi == CharacterMap([1, 0]) and chi != CharacterMap((0, 1))
        assert chi != (1, 0) and chi != Transformation((1, 0))
        # ordered by the image tables, and hashed as the tuple of the one field
        tables = [(1, 1, 0), (0, 2, 1), (0, 0, 0), (1, 0, 2)]
        assert [c.images for c in sorted(map(CharacterMap, tables))] == sorted(tables)
        assert CharacterMap((0, 1)) < chi <= CharacterMap((1, 0)) < CharacterMap((1, 1))
        assert hash(chi) == hash(((1, 0),))
        with pytest.raises(TypeError):
            chi < (1, 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trusted_matches_validated(self, m):
        for table in itertools.product(range(m), repeat=m):
            trusted, validated = _trusted_character(table), CharacterMap(table)
            assert type(trusted) is CharacterMap
            assert trusted == validated and hash(trusted) == hash(validated)
            assert repr(trusted) == repr(validated)


class TestIterPartitions:
    @pytest.mark.parametrize("n", sorted(BELL))
    def test_counts_match_bell_numbers(self, n):
        assert sum(1 for _ in iter_partitions(n)) == BELL[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_independent_generator(self, n):
        ours = {p.blocks for p in iter_partitions(n)}
        theirs = set(oracles.all_partitions(n))
        assert ours == theirs

    @pytest.mark.parametrize("n", [1, 3, 5, 6])
    def test_canonical_order(self, n):
        labels = [p.block_index for p in iter_partitions(n)]
        assert labels == sorted(labels)

    def test_block_count_filter(self):
        # Stirling numbers of the second kind for n=5
        expected = {1: 1, 2: 15, 3: 25, 4: 10, 5: 1}
        for m, count in expected.items():
            got = list(iter_partitions(5, block_count=m))
            assert len(got) == count
            assert all(p.m == m for p in got)
        full = [p for p in iter_partitions(5)]
        for m in expected:
            assert list(iter_partitions(5, block_count=m)) == [p for p in full if p.m == m]

    def test_out_of_range_block_count(self):
        assert list(iter_partitions(3, block_count=4)) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_items_equal_the_validated_partition(self, n):
        for p in iter_partitions(n):
            rebuilt = SetPartition(p.blocks)
            assert type(p) is SetPartition
            assert p == rebuilt and hash(p) == hash(rebuilt)
            assert p.block_index == rebuilt.block_index

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            list(iter_partitions(0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sequence_equals_restricted_growth_oracle(self, n):
        for k in [None, *range(n + 2)]:
            got = [p.block_index for p in iter_partitions(n, block_count=k)]
            assert got == list(oracles.restricted_growth_strings(n, k)), k

    def test_one_point(self):
        only = SetPartition(((0,),))
        assert list(iter_partitions(1)) == [only]
        assert list(iter_partitions(1, block_count=1)) == [only]
        assert list(iter_partitions(1, block_count=0)) == []
        assert list(iter_partitions(1, block_count=2)) == []

    @pytest.mark.parametrize("block_count", [None, 3])
    def test_prefix_of_a_large_ground_set(self, block_count):
        got = itertools.islice(iter_partitions(40, block_count=block_count), 60)
        expected = itertools.islice(oracles.restricted_growth_strings(40, block_count), 60)
        assert [p.block_index for p in got] == list(expected)

    def test_lazy(self):
        # the partitions of 200 points could never all be built; the first
        # few must come at once
        start = time.perf_counter()
        first = list(itertools.islice(iter_partitions(200), 3))
        assert time.perf_counter() - start < 0.5
        expected = itertools.islice(oracles.restricted_growth_strings(200), 3)
        assert [p.block_index for p in first] == list(expected)
        assert first[0].blocks == (tuple(range(200)),)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_a_non_int_size(self, n):
        with pytest.raises(ValueError, match="not an int"):
            list(iter_partitions(n))

    @pytest.mark.parametrize("block_count", [2.0, 2.5, True, "2"])
    def test_rejects_a_non_int_block_count(self, block_count):
        with pytest.raises(ValueError, match="not an int"):
            list(iter_partitions(3, block_count=block_count))


class TestGuardExceededError:
    def test_pickle_round_trip_keeps_fields_and_message(self):
        for exc in (GuardExceededError("x", 5, 4), GuardExceededError("maps", 10**5000, 1)):
            twin = pickle.loads(pickle.dumps(exc))
            assert type(twin) is GuardExceededError
            assert (twin.what, twin.required, twin.guard) == (exc.what, exc.required, exc.guard)
            assert str(twin) == str(exc)
        assert str(twin).startswith("maps needs 1")
