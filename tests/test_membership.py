import pytest
from hypothesis import given

import bad_input
import oracles
from partmaps.core import (
    CharacterMap,
    SetPartition,
    Transformation,
    compose,
    iter_partitions,
    parse_partition,
    parse_transformation,
)
from partmaps.enumeration import iter_t
from partmaps.membership import (
    NotInSigmaError,
    NotPreservingError,
    block_map_family,
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
from strategies import (
    partition_with_map,
    partition_with_preserving_map,
    partition_with_preserving_pair,
)

P3 = SetPartition(((0, 1), (2,)))


def t(*images):
    return Transformation(tuple(images))


class TestPreserves:
    def test_swap_inside_blocks(self):
        assert preserves(t(1, 0, 2), P3)

    def test_block_split_across_two(self):
        assert not preserves(t(0, 2, 1), P3)

    def test_block_swap(self):
        assert preserves(t(2, 2, 0), P3)

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="ground sets differ"):
            preserves(t(0, 1), P3)

    @pytest.mark.parametrize(
        "predicate",
        [
            preserves,
            character,
            block_map_family,
            in_sigma,
            sigma_via_character,
            sigma_via_topology,
            is_e_star_preserving,
            in_units,
            sigma_idempotent_via_blocks,
        ],
    )
    @pytest.mark.parametrize("case, f_text, p_text, message", bad_input.SIZE_MISMATCHES)
    def test_every_predicate_names_a_size_mismatch(self, predicate, case, f_text, p_text, message):
        f, p = parse_transformation(f_text), parse_partition(p_text)
        with pytest.raises(ValueError) as info:
            predicate(f, p)
        assert str(info.value) == message


class TestCharacter:
    def test_identity_on_blocks(self):
        assert character(t(1, 0, 2), P3).images == (0, 1)

    def test_block_swap(self):
        assert character(t(2, 2, 0), P3).images == (1, 0)

    def test_collapse(self):
        assert character(t(0, 0, 0), P3).images == (0, 0)

    def test_non_preserving_names_split_block(self):
        with pytest.raises(NotPreservingError, match=r"block 0 \(0,1\) splits across blocks 0 and 1"):
            character(t(0, 2, 1), P3)


class TestBlockMapFamily:
    def test_permutation_family(self):
        assert block_map_family(t(1, 0, 2), P3) == ((0, (1, 0)), (1, (2,)))

    def test_block_swap_family(self):
        assert block_map_family(t(2, 2, 0), P3) == ((1, (2, 2)), (0, (0,)))

    def test_constant_family(self):
        assert block_map_family(t(0, 0, 0), P3) == ((0, (0, 0)), (0, (0,)))

    def test_non_preserving_rejected(self):
        with pytest.raises(NotPreservingError):
            block_map_family(t(0, 2, 1), P3)

    @given(partition_with_preserving_map())
    def test_gluing_reproduces_the_map(self, case):
        p, f = case
        fam = block_map_family(f, p)
        images = [None] * p.n
        for block, (j, block_images) in zip(p.blocks, fam, strict=True):
            assert set(block_images) <= set(p.blocks[j])
            for x, y in zip(block, block_images, strict=True):
                images[x] = y
        assert tuple(images) == f.images
        assert tuple(j for j, _ in fam) == character(f, p).images


class TestInSigma:
    def test_bijection(self):
        assert in_sigma(t(1, 0, 2), P3)

    def test_constant_misses_a_block(self):
        assert not in_sigma(t(0, 0, 0), P3)

    def test_image_meets_both_blocks(self):
        assert in_sigma(t(2, 2, 0), P3)

    def test_non_preserving_is_false(self):
        assert not in_sigma(t(0, 2, 1), P3)


class TestSigmaViaCharacter:
    def test_block_swap_is_surjective(self):
        assert sigma_via_character(t(2, 2, 0), P3)

    def test_collapse_is_not(self):
        assert not sigma_via_character(t(0, 0, 0), P3)

    def test_identity(self):
        assert sigma_via_character(Transformation.identity(3), P3)

    def test_requires_preserving(self):
        with pytest.raises(NotPreservingError):
            sigma_via_character(t(0, 2, 1), P3)


class TestSigmaViaTopology:
    def test_bijection(self):
        assert sigma_via_topology(t(1, 0, 2), P3)

    def test_empty_preimage(self):
        assert not sigma_via_topology(t(0, 0, 0), P3)

    def test_preimage_not_a_union_of_blocks(self):
        # preimage of {0,1} under [0,2,1] is {0,2}, splitting block {0,1}
        assert not sigma_via_topology(t(0, 2, 1), P3)

    def test_every_table_to_n4(self):
        # against in_sigma and against the preimages taken block by block,
        # on preserving and non-preserving tables alike
        splitting = 0
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                open_preimages = True
                for block in blocks:
                    pre = {x for x in range(n) if images[x] in block}
                    if not pre or any(not pre.issuperset(blocks[table[x]]) for x in pre):
                        open_preimages = False
                got = sigma_via_topology(f, p)
                assert got == in_sigma(f, p) == open_preimages
                splitting += not oracles.o_preserves(images, blocks, table)
        assert splitting > 0


class TestEStarPreserving:
    def test_block_swap(self):
        assert is_e_star_preserving(t(2, 2, 0), P3)

    def test_constant_relates_unrelated_pairs(self):
        assert not is_e_star_preserving(t(0, 0, 0), P3)

    def test_identity(self):
        assert is_e_star_preserving(Transformation.identity(3), P3)


class TestInUnits:
    def test_block_preserving_permutation(self):
        assert in_units(t(1, 0, 2), P3)

    def test_non_injective_block_map(self):
        assert not in_units(t(2, 2, 0), P3)

    def test_non_preserving_permutation(self):
        assert not in_units(t(1, 2, 0), P3)


class TestIsIdempotent:
    def test_projection(self):
        assert is_idempotent(t(0, 0, 2))

    def test_transposition(self):
        assert not is_idempotent(t(1, 0, 2))

    def test_constant_to_fixed_point(self):
        assert is_idempotent(t(1, 1, 1))


class TestSigmaIdempotentViaBlocks:
    def test_projection(self):
        assert sigma_idempotent_via_blocks(t(0, 0, 2), P3)

    def test_nonidentity_bijection(self):
        assert not sigma_idempotent_via_blocks(t(1, 0, 2), P3)

    def test_identity(self):
        assert sigma_idempotent_via_blocks(Transformation.identity(3), P3)

    def test_rejects_maps_outside_sigma(self):
        with pytest.raises(NotInSigmaError):
            sigma_idempotent_via_blocks(t(0, 0, 0), P3)


def all_cases(n_max):
    for n in range(1, n_max + 1):
        for blocks in oracles.all_partitions(n):
            p = SetPartition(blocks)
            table = oracles.lookup(blocks, n)
            yield n, blocks, p, table


class TestAgainstOracles:
    def test_predicates_match_raw_definitions(self):
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                assert preserves(f, p) == oracles.o_preserves(images, blocks, table)
                assert in_sigma(f, p) == oracles.o_in_sigma(images, blocks, table)
                assert in_units(f, p) == oracles.o_in_units(images, blocks, table)
                assert is_idempotent(f) == oracles.o_is_idempotent(images)

    def test_four_way_equivalence_exhaustive(self):
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                total_views = {in_sigma(f, p), sigma_via_topology(f, p), is_e_star_preserving(f, p)}
                assert len(total_views) == 1
                if preserves(f, p):
                    assert sigma_via_character(f, p) == in_sigma(f, p)
                    assert character(f, p).images == oracles.o_character(images, blocks, table)

    def test_character_homomorphism_exhaustive_n3(self):
        for n, blocks, p, table in all_cases(3):
            members = [
                Transformation(images)
                for images in oracles.all_maps(n)
                if oracles.o_preserves(images, blocks, table)
            ]
            chars = {f: character(f, p) for f in members}
            for f in members:
                for g in members:
                    assert character(compose(f, g), p) == chars[f].compose(chars[g])

    def test_sigma_idempotents_blockwise_exhaustive(self):
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                if not in_sigma(f, p):
                    continue
                assert sigma_idempotent_via_blocks(f, p) == is_idempotent(f)
                if is_idempotent(f):
                    assert character(f, p).is_identity()

    def test_unit_block_images_are_equal_size_blocks(self):
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                if not in_units(f, p):
                    continue
                for block in p.blocks:
                    image = tuple(sorted(images[x] for x in block))
                    assert image in p.blocks
                    assert len(image) == len(block)

    def test_t_idempotent_characters_are_idempotent(self):
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                if not preserves(f, p) or not is_idempotent(f):
                    continue
                chi = character(f, p)
                assert chi.is_idempotent()
                # each block that some block lands in maps into itself onto fixed points
                hit = [blocks[i] for i in set(chi.images)]
                assert oracles.o_blockwise_idempotent(images, hit, table)

    def test_block_map_family_is_the_restrictions_exhaustive(self):
        for n, blocks, p, table in all_cases(4):
            for images in oracles.all_maps(n):
                f = Transformation(images)
                if oracles.o_preserves(images, blocks, table):
                    expected = oracles.o_block_restrictions(images, blocks, table)
                    assert block_map_family(f, p) == expected
                else:
                    with pytest.raises(NotPreservingError):
                        block_map_family(f, p)


def validated_character(f, p):
    """The character of a preserving f, built through the validating constructor."""
    return CharacterMap(tuple(p.block_index[f.images[block[0]]] for block in p.blocks))


def t_members(n_max):
    for n in range(1, n_max + 1):
        for p in iter_partitions(n):
            for f in iter_t(p):
                yield p, f


class TestTrustedResults:
    """``character`` skips validation; its results must be indistinguishable
    from validated ones."""

    def test_character_equals_the_validated_map(self):
        for p, f in t_members(5):
            chi = validated_character(f, p)
            got = character(f, p)
            assert type(got) is CharacterMap
            assert got == chi and hash(got) == hash(chi) and str(got) == str(chi)

    def test_blockwise_idempotence_matches_the_oracle(self):
        for p, f in t_members(5):
            if in_sigma(f, p):
                expected = oracles.o_blockwise_idempotent(f.images, p.blocks, p.block_index)
                assert sigma_idempotent_via_blocks(f, p) == expected

    def test_blockwise_idempotence_rejects_maps_outside_sigma(self):
        for n in range(1, 4):
            for p in iter_partitions(n):
                for images in oracles.all_maps(n):
                    f = Transformation(images)
                    if not in_sigma(f, p):
                        with pytest.raises(NotInSigmaError):
                            sigma_idempotent_via_blocks(f, p)


class TestProperties:
    @given(partition_with_map())
    def test_total_predicates_agree(self, case):
        p, f = case
        assert in_sigma(f, p) == sigma_via_topology(f, p) == is_e_star_preserving(f, p)

    @given(partition_with_preserving_map())
    def test_character_routes_agree_on_preserving_maps(self, case):
        p, f = case
        assert preserves(f, p)
        assert sigma_via_character(f, p) == in_sigma(f, p)

    @given(partition_with_preserving_pair())
    def test_character_is_a_homomorphism(self, case):
        p, f, g = case
        assert character(compose(f, g), p) == character(f, p).compose(character(g, p))

    @given(partition_with_map())
    def test_units_match_direct_criterion(self, case):
        p, f = case
        direct = f.is_bijection() and preserves(f, p) and preserves(f.inverse(), p)
        assert in_units(f, p) == direct
