import itertools

import pytest
from hypothesis import given, settings

import oracles
from partmaps.core import SetPartition, Transformation, iter_partitions
from partmaps.cycles import (
    decompose,
    find_preserved_partition,
    kernel_partition,
    preserved_m_partition_exists,
    search_unit_m_partition,
)
from partmaps.membership import in_units, preserves
from strategies import permutations, transformations


def t(*images):
    return Transformation(tuple(images))


def canonical_cycle(n):
    return Transformation(tuple((x + 1) % n for x in range(n)))


PRIMES = {2, 3, 5, 7, 11, 13}


class TestDecompose:
    def test_two_transpositions(self):
        assert decompose(t(1, 0, 3, 2)).cycles == ((0, 1), (2, 3))

    def test_full_cycle(self):
        dec = decompose(t(1, 2, 3, 4, 5, 0))
        assert dec.cycles == ((0, 1, 2, 3, 4, 5),)
        assert dec.is_full_cycle()

    def test_identity(self):
        dec = decompose(Transformation.identity(3))
        assert dec.cycles == ((0,), (1,), (2,))
        assert dec.is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            decompose(t(0, 0, 1))

    @given(permutations())
    def test_canonical_structure(self, f):
        dec = decompose(f)
        points = [x for c in dec.cycles for x in c]
        assert sorted(points) == list(range(f.n))
        assert [c[0] for c in dec.cycles] == sorted(c[0] for c in dec.cycles)
        for c in dec.cycles:
            assert c[0] == min(c)
            for i, x in enumerate(c):
                assert f(x) == c[(i + 1) % len(c)]

    def test_str_form(self):
        assert str(decompose(t(1, 0, 3, 2))) == "(0 1)(2 3)"

    def test_lengths_follow_the_cycles(self):
        assert decompose(t(1, 0, 2, 4, 5, 3)).lengths == (2, 1, 3)


class TestKernelPartition:
    def test_two_points_identified(self):
        assert kernel_partition(t(0, 0, 2)).blocks == ((0, 1), (2,))

    def test_two_pairs(self):
        assert kernel_partition(t(0, 0, 1, 1)).blocks == ((0, 1), (2, 3))

    def test_rejects_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            kernel_partition(t(1, 0, 2))

    def test_rejects_constant(self):
        with pytest.raises(ValueError, match="find_preserved_partition"):
            kernel_partition(t(1, 1, 1))

    @given(transformations(max_n=8))
    def test_kernel_is_preserved_and_nontrivial(self, f):
        if f.is_bijection() or len(f.image_set()) == 1:
            return
        p = kernel_partition(f)
        assert not p.is_trivial
        assert preserves(f, p)


class TestFindPreservedPartition:
    def test_constant_gets_default_split(self):
        assert find_preserved_partition(t(2, 2, 2, 2)).blocks == ((0,), (1, 2, 3))

    def test_nonconstant_nonbijection_gets_kernel(self):
        assert find_preserved_partition(t(0, 0, 2)) == kernel_partition(t(0, 0, 2))

    def test_identity_gets_default_split(self):
        assert find_preserved_partition(Transformation.identity(4)).blocks == ((0,), (1, 2, 3))

    def test_two_transpositions_on_five_points(self):
        assert find_preserved_partition(t(1, 0, 3, 2, 4)).blocks == ((0, 1), (2, 3, 4))

    def test_six_cycle_gets_alternating_blocks(self):
        assert find_preserved_partition(t(1, 2, 3, 4, 5, 0)).blocks == ((0, 2, 4), (1, 3, 5))

    def test_five_cycle_has_none(self):
        f = canonical_cycle(5)
        assert find_preserved_partition(f) is None
        # exhaustive confirmation over all 52 partitions of a 5-point set
        for blocks in oracles.all_partitions(5):
            p = SetPartition(blocks)
            if not p.is_trivial:
                assert not in_units(f, p)

    def test_small_ground_set_rejected(self):
        with pytest.raises(ValueError, match="at least 3 points"):
            find_preserved_partition(t(1, 0))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_promises(self, n):
        for images in oracles.all_maps(n):
            f = Transformation(images)
            result = find_preserved_partition(f)
            if result is None:
                dec = decompose(f)
                assert dec.is_full_cycle() and n in PRIMES
                continue
            assert not result.is_trivial
            if f.is_bijection():
                assert in_units(f, result)
            else:
                assert preserves(f, result)

    @given(permutations(max_n=9))
    @settings(max_examples=60)
    def test_random_permutations(self, f):
        if f.n < 3:
            return
        result = find_preserved_partition(f)
        if result is None:
            assert decompose(f).is_full_cycle() and f.n in PRIMES
        else:
            assert not result.is_trivial
            assert in_units(f, result)


class TestPreservedMPartitionExists:
    def test_six_cycle_three_blocks(self):
        ok, witness = preserved_m_partition_exists(canonical_cycle(6), 3)
        assert ok and witness.blocks == ((0, 3), (1, 4), (2, 5))

    def test_six_cycle_four_blocks(self):
        assert preserved_m_partition_exists(canonical_cycle(6), 4) == (False, None)

    def test_four_cycle_two_blocks(self):
        ok, witness = preserved_m_partition_exists(canonical_cycle(4), 2)
        assert ok and witness.blocks == ((0, 2), (1, 3))
        assert in_units(canonical_cycle(4), witness)

    def test_rejects_non_full_cycle(self):
        with pytest.raises(ValueError, match="full cycle"):
            preserved_m_partition_exists(t(1, 0, 3, 2), 2)

    def test_rejects_a_non_bijection_as_not_a_full_cycle(self):
        with pytest.raises(ValueError) as info:
            preserved_m_partition_exists(t(0, 0, 1), 2)
        assert str(info.value) == "map is not a full cycle over the ground set"

    def test_rejects_out_of_range_m(self):
        with pytest.raises(ValueError, match="must satisfy"):
            preserved_m_partition_exists(canonical_cycle(6), 1)
        with pytest.raises(ValueError, match="must satisfy"):
            preserved_m_partition_exists(canonical_cycle(6), 6)

    def test_conjugated_cycle_gets_valid_witness(self):
        f = t(2, 3, 1, 0)  # the cycle 0 -> 2 -> 1 -> 3 -> 0
        ok, witness = preserved_m_partition_exists(f, 2)
        assert ok and witness.blocks == ((0, 1), (2, 3))
        assert in_units(f, witness)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_agreement_with_exhaustive_search(self, n):
        f = canonical_cycle(n)
        for m in range(2, n):
            exists, witness = preserved_m_partition_exists(f, m)
            found = search_unit_m_partition(f, m)
            assert exists == (found is not None)
            assert exists == (n % m == 0)
            if exists:
                assert witness.m == m and not witness.is_trivial
                assert in_units(f, witness)


class TestSearchUnitMPartition:
    def test_returns_first_in_canonical_order(self):
        # the only 2-block witness for the standard 6-cycle alternates points
        assert search_unit_m_partition(canonical_cycle(6), 2).blocks == ((0, 2, 4), (1, 3, 5))

    def test_none_when_m_does_not_divide(self):
        assert search_unit_m_partition(canonical_cycle(6), 4) is None


class TestEveryFullCycle:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_divisibility_for_all_full_cycles(self, n):
        for images in itertools.permutations(range(n)):
            f = Transformation(images)
            if not decompose(f).is_full_cycle():
                continue
            for m in range(2, n):
                exists, witness = preserved_m_partition_exists(f, m)
                assert exists == (n % m == 0)
                assert exists == (search_unit_m_partition(f, m) is not None)
                if exists:
                    assert in_units(f, witness)


class TestIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_is_a_unit_for_every_partition(self, n):
        ident = Transformation.identity(n)
        for p in iter_partitions(n):
            assert in_units(ident, p)
