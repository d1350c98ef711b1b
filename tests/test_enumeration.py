import hashlib
import itertools
from math import factorial

import pytest
from hypothesis import given, settings

import oracles
from brute_census import brute_census
from partmaps import core, enumeration
from partmaps.cli import main
from partmaps.core import (
    CharacterMap,
    GuardExceededError,
    SetPartition,
    Transformation,
    compose,
    iter_partitions,
    profile_of,
)
from partmaps.counting import (
    count_sigma_direct,
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
)
from partmaps.enumeration import (
    chi_classes,
    enumerate_idempotents,
    enumerate_sigma,
    enumerate_t,
    enumerate_units,
    iter_idempotents,
    iter_sigma,
    iter_t,
    iter_units,
)
from partmaps.membership import character, in_sigma
from partmaps.verification import run_verification
from strategies import partitions

P3 = SetPartition(((0, 1), (2,)))
SINGLE = SetPartition(((0, 1, 2),))
DISCRETE = SetPartition(((0,), (1,), (2,)))
NINE_SINGLETONS = SetPartition(tuple((i,) for i in range(9)))


class TestEnumerateT:
    def test_two_one_block_partition(self):
        assert len(enumerate_t(P3)) == 15

    def test_discrete_partition_is_unrestricted(self):
        assert len(enumerate_t(DISCRETE)) == 27

    def test_single_block_is_unrestricted(self):
        assert len(enumerate_t(SINGLE)) == 27

    def test_strategies_agree_on_sequences(self):
        assert enumerate_t(P3, strategy="brute").maps == enumerate_t(P3, strategy="constructive").maps

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            enumerate_t(P3, strategy="magic")


class TestEnumerateSigma:
    def test_two_one_block_partition(self):
        assert len(enumerate_sigma(P3)) == 6

    def test_single_block(self):
        assert len(enumerate_sigma(SINGLE)) == 27

    def test_discrete_partition_gives_permutations(self):
        got = {f.images for f in enumerate_sigma(DISCRETE)}
        assert got == set(itertools.permutations(range(3)))


class TestEnumerateUnits:
    def test_two_one_block_partition(self):
        assert [f.images for f in enumerate_units(P3)] == [(0, 1, 2), (1, 0, 2)]

    def test_uniform_two_two(self):
        assert len(enumerate_units(SetPartition(((0, 1), (2, 3))))) == 8

    def test_single_block_gives_symmetric_group(self):
        got = {f.images for f in enumerate_units(SINGLE)}
        assert got == set(itertools.permutations(range(3)))


class TestEnumerateIdempotents:
    def test_sigma_idempotents(self):
        got = [f.images for f in enumerate_idempotents(P3, ambient="sigma")]
        assert got == [(0, 0, 2), (0, 1, 2), (1, 1, 2)]

    def test_t_idempotents_contain_sigma_ones(self):
        sigma_idem = set(enumerate_idempotents(P3, ambient="sigma").maps)
        t_idem = set(enumerate_idempotents(P3, ambient="t").maps)
        assert sigma_idem < t_idem

    def test_singleton_blocks_leave_only_identity(self):
        p = SetPartition(((0,), (1,)))
        assert enumerate_idempotents(p, ambient="sigma").maps == [Transformation.identity(2)]

    def test_unknown_ambient(self):
        with pytest.raises(ValueError, match="unknown ambient"):
            enumerate_idempotents(P3, ambient="group")


class TestStrategyAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_partitions(self, n):
        for p in iter_partitions(n):
            assert list(iter_t(p, "brute")) == list(iter_t(p, "constructive"))
            assert list(iter_sigma(p, "brute")) == list(iter_sigma(p, "constructive"))
            assert list(iter_units(p, "brute")) == list(iter_units(p, "constructive"))
            assert list(iter_idempotents(p, "sigma", "brute")) == list(
                iter_idempotents(p, "sigma", "constructive")
            )


def _every_set(p, strategy):
    yield from iter_t(p, strategy)
    yield from iter_sigma(p, strategy)
    yield from iter_units(p, strategy)
    yield from iter_idempotents(p, "t", strategy)
    yield from iter_idempotents(p, "sigma", strategy)


class TestTrustedConstruction:
    """Generated maps skip validation but equal the validated map in every way."""

    @staticmethod
    def check(maps):
        for f in maps:
            rebuilt = Transformation(f.images)
            assert type(f) is Transformation
            assert f == rebuilt and hash(f) == hash(rebuilt) and str(f) == str(rebuilt)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_set_on_every_partition(self, n):
        strategies = ("constructive", "brute") if n <= 4 else ("constructive",)
        for p in iter_partitions(n):
            for strategy in strategies:
                self.check(_every_set(p, strategy))

    def test_every_set_on_the_six_point_block(self):
        self.check(_every_set(SetPartition((tuple(range(6)),)), "constructive"))


class TestOrderingAndLimits:
    @given(partitions(max_n=5))
    @settings(max_examples=40)
    def test_lexicographic_without_duplicates(self, p):
        maps = enumerate_t(p).maps
        assert all(a < b for a, b in zip(maps, maps[1:]))

    def test_limit_truncates_with_flag(self):
        out = enumerate_t(P3, limit=4)
        assert len(out) == 4
        assert out.truncated
        assert out.maps == enumerate_t(P3).maps[:4]

    def test_limit_beyond_total_is_not_truncated(self):
        out = enumerate_t(P3, limit=100)
        assert len(out) == 15
        assert not out.truncated

    def test_zero_limit(self):
        out = enumerate_t(P3, limit=0)
        assert out.maps == [] and out.truncated

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_t(P3, limit=-1)


class TestGuards:
    def test_brute_guard_counts_all_candidates(self):
        p = SetPartition(tuple((i,) for i in range(9)))
        with pytest.raises(GuardExceededError) as err:
            iter_t(p, strategy="brute", guard=1000)
        assert err.value.required == 9**9
        assert err.value.guard == 1000

    def test_constructive_guard_counts_members(self):
        p = SetPartition((tuple(range(9)),))
        with pytest.raises(GuardExceededError) as err:
            iter_t(p, strategy="constructive", guard=1000)
        assert err.value.required == 9**9

    def test_units_guard(self):
        p = SetPartition(tuple((i,) for i in range(12)))
        with pytest.raises(GuardExceededError):
            iter_units(p, guard=1000)

    def test_error_message_names_the_bound(self):
        p = SetPartition((tuple(range(9)),))
        with pytest.raises(GuardExceededError, match="exceeds guard 1000"):
            iter_t(p, guard=1000)

    def test_limit_bounds_a_constructive_prefix(self):
        out = enumerate_t(NINE_SINGLETONS, limit=3)
        assert [f.images for f in out] == [(0,) * 8 + (y,) for y in range(3)]
        assert out.truncated

    def test_long_prefix_counts_limit_plus_one(self):
        with pytest.raises(GuardExceededError) as err:
            enumerate_t(NINE_SINGLETONS, limit=2000, guard=1000)
        assert err.value.required == 2001

    def test_brute_and_e_t_keep_their_full_bounds_under_a_limit(self):
        with pytest.raises(GuardExceededError) as err:
            enumerate_t(NINE_SINGLETONS, strategy="brute", limit=3, guard=1000)
        assert err.value.required == 9**9
        with pytest.raises(GuardExceededError) as err:
            enumerate_idempotents(NINE_SINGLETONS, ambient="t", limit=3, guard=1000)
        assert err.value.required == 9**9

    def test_sigma_idempotent_guard_counts_members(self):
        p = SetPartition((tuple(range(5)), tuple(range(5, 10))))
        with pytest.raises(GuardExceededError) as err:
            iter_idempotents(p, guard=1000)
        assert err.value.required == count_sigma_idempotents(profile_of(p)) == 196**2

    @pytest.mark.parametrize("guard", [0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: count_sigma_direct(P3, guard=g),
            lambda g: count_sigma_grouped(profile_of(P3), guard=g),
            lambda g: iter_t(P3, guard=g),
            lambda g: iter_t(P3, strategy="brute", guard=g),
            lambda g: iter_sigma(P3, guard=g),
            lambda g: iter_units(P3, guard=g),
            lambda g: iter_idempotents(P3, ambient="t", guard=g),
            lambda g: iter_idempotents(P3, ambient="sigma", guard=g),
            lambda g: enumerate_t(P3, limit=0, guard=g),
            lambda g: enumerate_sigma(P3, limit=3, guard=g),
            lambda g: enumerate_units(P3, guard=g),
            lambda g: enumerate_idempotents(P3, strategy="brute", guard=g),
            lambda g: chi_classes(P3, guard=g),
            lambda g: run_verification(1, guard=g),
        ],
    )
    def test_guard_below_one_is_an_input_error(self, call, guard):
        with pytest.raises(ValueError, match="guard must be positive"):
            call(guard)


@pytest.fixture
def built(monkeypatch):
    """Counts the transformations constructed while a test runs.

    Every route counts: the validating constructor, and the table store
    that the trusted builder and the compiled generators share.  A
    generator fetches the store when it is created, so the patch reaches it.
    """
    count = [0]
    init = Transformation.__init__
    store = core._store_images

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counting_store(f, images):
        count[0] += 1
        store(f, images)

    monkeypatch.setattr(Transformation, "__init__", counting_init)
    for module in (core, enumeration):
        monkeypatch.setattr(module, "_store_images", counting_store)
    return count


@pytest.fixture
def pulled(monkeypatch):
    """Counts the T members drawn from ``iter_t``, as the filter behind E-T draws them."""
    count = [0]
    iter_t = enumeration.iter_t

    def counting_iter_t(*args, **kwargs):
        for f in iter_t(*args, **kwargs):
            count[0] += 1
            yield f

    monkeypatch.setattr(enumeration, "iter_t", counting_iter_t)
    return count


class TestLaziness:
    # a --limit request builds a prefix, never the whole set; the guard is
    # raised past 9**9 so that only the laziness bounds the work

    @pytest.mark.parametrize("strategy", enumeration.STRATEGIES)
    def test_e_t_prefix_pulls_only_a_prefix_of_t(self, pulled, strategy):
        out = enumerate_idempotents(
            NINE_SINGLETONS, ambient="t", strategy=strategy, limit=3, guard=10**9
        )
        assert [f.images[7:] for f in out] == [(0, 0), (0, 8), (7, 0)]
        assert out.truncated
        assert pulled[0] == 71  # the fourth idempotent is T's 71st member of 9**9

    def test_brute_t_prefix_builds_only_the_prefix(self, built):
        out = enumerate_t(NINE_SINGLETONS, strategy="brute", limit=3, guard=10**9)
        assert [f.images for f in out] == [(0,) * 8 + (y,) for y in range(3)]
        assert built[0] == 4

    def test_t_prefix_builds_only_the_prefix(self, built):
        out = enumerate_t(NINE_SINGLETONS, limit=3)
        assert [f.images for f in out] == [(0,) * 8 + (y,) for y in range(3)]
        assert 3 <= built[0] <= 4

    def test_sigma_prefix_builds_only_the_prefix(self, built):
        out = enumerate_sigma(NINE_SINGLETONS, limit=3)
        assert [f.images[6:] for f in out] == [(6, 7, 8), (6, 8, 7), (7, 6, 8)]
        assert 3 <= built[0] <= 4

    def test_units_prefix_builds_only_the_prefix(self, built):
        p = SetPartition(tuple((i,) for i in range(8)))
        out = enumerate_units(p, limit=3)
        assert [f.images[5:] for f in out] == [(5, 6, 7), (5, 7, 6), (6, 5, 7)]
        assert 3 <= built[0] <= 4

    def test_sigma_idempotent_prefix_builds_only_the_prefix(self, built):
        p = SetPartition((tuple(range(5)), tuple(range(5, 10))))
        out = enumerate_idempotents(p, limit=3)
        assert len(out) == 3 and out.truncated
        assert 3 <= built[0] <= 4


@pytest.fixture
def stage_points(monkeypatch):
    """Sets the points per compiled function; kernels compiled under it are dropped after."""

    def set_stage(points):
        monkeypatch.setattr(enumeration, "_STAGE_POINTS", points)
        enumeration._kernels.cache_clear()

    yield set_stage
    monkeypatch.undo()
    enumeration._kernels.cache_clear()


class TestCompiledKernels:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_short_stages_equal_brute_force(self, stage_points, n):
        # one brute scan per partition, shared with acceptance criterion 01,
        # serves both stage lengths
        for p, expected in brute_census(n):
            for points in (2, 3):
                stage_points(points)
                for set_name, members in expected.items():
                    assert list(enumeration._members(p, set_name, "constructive", 10**6)) == members

    def test_kernels_compile_on_first_use(self):
        enumeration._kernels.cache_clear()
        p = SetPartition(((0, 2), (1,)))
        iter_units(p)
        iter_units(p)
        info = enumeration._kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert list(enumeration._kernels(p.block_index)) == ["S"]

    def test_cache_is_bounded(self):
        assert enumeration._kernels.cache_info().maxsize == core.CACHE_SIZE

    @pytest.mark.parametrize("set_name", ["S", "E-Sigma"])
    def test_source_grows_linearly_with_open_blocks(self, set_name):
        # the pairs (i, k + i) keep k blocks open across every stage boundary
        def source_length(k):
            p = SetPartition(tuple((i, k + i) for i in range(k)))
            return len(enumeration._kernel_source(p, set_name))

        assert source_length(400) <= 2.2 * source_length(200)


class TestAlgebraicStructure:
    @pytest.mark.parametrize("blocks", [((0, 1), (2,)), ((0,), (1, 2, 3))])
    def test_t_closed_under_composition(self, blocks):
        p = SetPartition(blocks)
        members = set(enumerate_t(p).maps)
        for f in members:
            for g in members:
                assert compose(f, g) in members

    def test_units_form_a_group(self):
        p = SetPartition(((0, 1), (2, 3)))
        units = set(enumerate_units(p).maps)
        assert Transformation.identity(4) in units
        for f in units:
            assert f.inverse() in units
            for g in units:
                assert compose(f, g) in units

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_containments_and_idempotent_intersection(self, n):
        for p in iter_partitions(n):
            t_set = set(enumerate_t(p).maps)
            sigma_set = set(enumerate_sigma(p).maps)
            unit_set = set(enumerate_units(p).maps)
            assert unit_set <= sigma_set <= t_set
            e_t = set(enumerate_idempotents(p, ambient="t").maps)
            e_sigma = set(enumerate_idempotents(p, ambient="sigma").maps)
            assert e_sigma == sigma_set & e_t


class TestChiClasses:
    def test_two_one_sizes(self):
        classes = chi_classes(P3)
        assert [(c.character.images, c.size) for c in classes] == [((0, 1), 4), ((1, 0), 2)]

    def test_uniform_two_two_sizes(self):
        classes = chi_classes(SetPartition(((0, 1), (2, 3))))
        assert [c.size for c in classes] == [16, 16]

    def test_discrete_gives_singleton_classes(self):
        classes = chi_classes(DISCRETE)
        assert len(classes) == 6
        assert all(c.size == 1 for c in classes)

    def test_representative_lies_in_its_class(self):
        for c in chi_classes(P3):
            assert in_sigma(c.representative, P3)
            assert character(c.representative, P3) == c.character

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_grouping(self, n):
        for p in iter_partitions(n):
            sigma = enumerate_sigma(p).maps
            grouped = {}
            for f in sigma:
                key = character(f, p).images
                grouped[key] = grouped.get(key, 0) + 1
            classes = chi_classes(p)
            assert len(classes) == factorial(p.m)
            assert {c.character.images: c.size for c in classes} == grouped
            assert sum(c.size for c in classes) == len(sigma) == count_sigma_direct(p)

    def test_class_order_is_lexicographic(self):
        chars = [c.character.images for c in chi_classes(DISCRETE)]
        assert chars == sorted(chars)

    def test_guard(self):
        p = SetPartition(tuple((i,) for i in range(12)))
        with pytest.raises(GuardExceededError, match="character classes"):
            chi_classes(p, guard=1000)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trusted_objects_equal_validated_ones(self, n):
        for p in iter_partitions(n):
            for c in chi_classes(p):
                assert type(c.character) is CharacterMap
                assert type(c.representative) is Transformation
                chi = CharacterMap(c.character.images)
                rep = Transformation(c.representative.images)
                assert c.character == chi and hash(c.character) == hash(chi)
                assert c.representative == rep and hash(c.representative) == hash(rep)

    # (bytes, sha256) of `quotient -p "0|1,2|3|4,5,6|7|8,9|10"` stdout in each
    # format, as printed before classes were built without validation
    QUOTIENT_7 = {
        "lines": (86960, "7dae14b4010c51af384921dccc6e55b18ae5063c67cf17d57d19f00dd103ce8a"),
        "json": (457871, "e1d4c96fdae9f95d1bc03d132b56833895b6652d6effa51040f69e63f3f23348"),
        "csv": (96975, "22715161d13c5f86d7de2d96478b80e291b543c3660279869f201b605fe6ae3e"),
    }

    @pytest.mark.parametrize("fmt", sorted(QUOTIENT_7))
    def test_quotient_output_is_unchanged(self, capsys, fmt):
        code = main(["quotient", "-p", "0|1,2|3|4,5,6|7|8,9|10", "--format", fmt])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert (len(out), hashlib.sha256(out).hexdigest()) == self.QUOTIENT_7[fmt]


class TestAgainstBruteCensus:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sequences_match_raw_filtering(self, n):
        for blocks in oracles.all_partitions(n):
            p = SetPartition(blocks)
            t, sigma, units, e_t, e_sigma = oracles.census(blocks, n)
            assert [f.images for f in enumerate_t(p)] == t
            assert [f.images for f in enumerate_sigma(p)] == sigma
            assert [f.images for f in enumerate_units(p)] == units
            assert [f.images for f in enumerate_idempotents(p, "t")] == e_t
            assert [f.images for f in enumerate_idempotents(p, "sigma")] == e_sigma

    @given(partitions(max_n=6))
    @settings(max_examples=30)
    def test_lengths_match_counting_formulas(self, p):
        prof = profile_of(p)
        assert len(enumerate_t(p)) == count_t(prof)
        assert len(enumerate_sigma(p)) == count_sigma_direct(p)
        assert len(enumerate_units(p)) == count_units(prof)
        assert len(enumerate_idempotents(p, "sigma")) == count_sigma_idempotents(prof)
