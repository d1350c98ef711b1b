import re
from collections import Counter
from math import factorial, log10, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from partmaps import cli, core, counting
from partmaps.core import (
    CACHE_SIZE,
    DEFAULT_GUARD,
    GuardExceededError,
    PartitionProfile,
    SetPartition,
    iter_partitions,
    profile_of,
)
from partmaps.counting import (
    count_sigma_direct,
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
    idempotent_count,
    log10_count,
)
from strategies import partitions


def profile(*entries):
    return PartitionProfile(tuple(entries))


class TestIdempotentCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_filter(self, n):
        brute = sum(1 for images in oracles.all_maps(n) if oracles.o_is_idempotent(images))
        assert idempotent_count(n) == brute

    def test_first_values(self):
        assert [idempotent_count(n) for n in range(1, 6)] == [1, 3, 10, 41, 196]

    @pytest.mark.parametrize("n", [True, False, 2.0, "3"])
    def test_rejects_sizes_that_are_not_ints(self, n):
        with pytest.raises(ValueError, match=re.escape(f"ground-set size {n!r} is not an int")):
            idempotent_count(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            idempotent_count(0)


class TestCountT:
    def test_two_one(self):
        assert count_t(profile((1, 1), (2, 1))) == 15

    def test_uniform_two_two(self):
        assert count_t(profile((2, 2))) == 64

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_singletons_gives_everything(self, n):
        assert count_t(profile((1, n))) == n**n


class TestCountUnits:
    def test_uniform_two_two(self):
        assert count_units(profile((2, 2))) == 8

    def test_two_one(self):
        assert count_units(profile((1, 1), (2, 1))) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_singletons_gives_symmetric_group(self, n):
        assert count_units(profile((1, n))) == factorial(n)


class TestCountSigma:
    def test_direct_two_one(self):
        assert count_sigma_direct(SetPartition(((0, 1), (2,)))) == 6

    def test_direct_uniform(self):
        assert count_sigma_direct(SetPartition(((0, 1), (2, 3)))) == 32

    def test_direct_single_block(self):
        assert count_sigma_direct(SetPartition(((0, 1, 2),))) == 27

    def test_grouped_two_one(self):
        assert count_sigma_grouped(profile((1, 1), (2, 1))) == 6

    def test_grouped_uniform(self):
        assert count_sigma_grouped(profile((2, 2))) == 32

    def test_grouped_two_singletons_and_a_pair(self):
        p = SetPartition(((0,), (1,), (2, 3)))
        assert count_sigma_grouped(profile((1, 2), (2, 1))) == 16
        assert count_sigma_direct(p) == 16
        _, sigma, _, _, _ = oracles.census(p.blocks, 4)
        assert len(sigma) == 16

    def test_direct_guard(self):
        p = SetPartition(tuple((i,) for i in range(6)))
        with pytest.raises(GuardExceededError, match="block permutations"):
            count_sigma_direct(p, guard=100)

    def test_grouped_guard(self):
        prof = profile((1, 5), (2, 5))
        with pytest.raises(GuardExceededError, match="Sigma count states"):
            count_sigma_grouped(prof, guard=10)


class TestCountSigmaIdempotents:
    def test_two_one(self):
        assert count_sigma_idempotents(profile((1, 1), (2, 1))) == 3

    def test_uniform_two_two(self):
        assert count_sigma_idempotents(profile((2, 2))) == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_singletons_gives_identity_only(self, n):
        assert count_sigma_idempotents(profile((1, n))) == 1


class TestFormulasAgainstBruteCensus:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_partitions(self, n):
        for blocks in oracles.all_partitions(n):
            p = SetPartition(blocks)
            prof = profile_of(p)
            t, sigma, units, _, e_sigma = oracles.census(blocks, n)
            assert count_t(prof) == len(t)
            assert count_sigma_direct(p) == len(sigma)
            assert count_sigma_grouped(prof) == len(sigma)
            assert count_units(prof) == len(units)
            assert count_sigma_idempotents(prof) == len(e_sigma)


class TestGroupedMatchesDirect:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_all_partitions_to_n8(self, n):
        for p in iter_partitions(n):
            assert count_sigma_grouped(profile_of(p)) == count_sigma_direct(p)


def integer_partitions(n, largest=None):
    """The block-size multisets of n, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


def profiles_of(n):
    """The profiles of the partitions of n points."""
    for sizes in integer_partitions(n):
        yield PartitionProfile(tuple((s, sizes.count(s)) for s in set(sizes)))


class TestGroupedClosedForms:
    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    @pytest.mark.parametrize("mult", [1, 2, 5, 17, 60])
    def test_uniform_profile(self, size, mult):
        assert count_sigma_grouped(profile((size, mult))) == factorial(mult) * size ** (size * mult)

    def test_two_size_classes(self):
        for b in range(2, 6):
            for a in range(1, b):
                for p in range(1, 7):
                    for q in range(1, 7):
                        prof = profile((a, p), (b, q))
                        assert count_sigma_grouped(prof) == oracles.two_class_sigma(a, p, b, q)

    def test_two_size_classes_with_many_blocks(self):
        prof = profile((2, 30), (3, 30))
        assert count_sigma_grouped(prof) == oracles.two_class_sigma(2, 30, 3, 30)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_state_guard_never_exceeds_the_count(self, n):
        # so the Sigma enumeration guard, which counts members, trips first
        for prof in profiles_of(n):
            states = prod(mult + 1 for _, mult in prof.entries) - 1
            assert states <= count_sigma_grouped(prof, guard=states)

    def test_guard_counts_states_less_the_start(self):
        with pytest.raises(GuardExceededError) as exc:
            count_sigma_grouped(profile((1, 5), (2, 5)), guard=34)
        assert exc.value.required == 6 * 6 - 1


class TestLog10Count:
    EXACT = {"T": count_t, "S": count_units, "E-Sigma": count_sigma_idempotents}

    def check(self, prof):
        for name, exact in self.EXACT.items():
            want = log10(exact(prof))
            assert abs(log10_count(prof, name) - want) <= 1e-9 * max(1.0, want)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_profile_to_n12(self, n):
        for prof in profiles_of(n):
            self.check(prof)

    @pytest.mark.parametrize(
        "entries",
        [((3, 2000),), ((2, 9168),), ((30, 35), (36, 63)), ((15, 82), (17, 45)), ((1, 700), (40, 3))],
    )
    def test_counts_with_thousands_of_digits(self, entries):
        self.check(profile(*entries))

    def test_no_estimate_for_other_sets(self):
        assert log10_count(profile((2, 2)), "Sigma") is None
        assert log10_count(profile((2, 2)), "E-T") is None


def full_log10_idempotent_count(n):
    """log10 of the idempotent count from all n of its terms."""
    return counting._log10_sum(
        counting._log10_factorial(n)
        - counting._log10_factorial(j)
        - counting._log10_factorial(n - j)
        + (n - j) * log10(j)
        for j in range(1, n + 1)
    )


class TestLog10IdempotentCount:
    # equal as floats: the terms left out lie below the rounding of the sum
    def test_equals_the_full_sum_below_400(self):
        for n in range(1, 400):
            assert counting._log10_idempotent_count(n) == full_log10_idempotent_count(n)

    @pytest.mark.parametrize("n", [1000, 4000, 20_000, 100_000])
    def test_equals_the_full_sum(self, n):
        assert counting._log10_idempotent_count(n) == full_log10_idempotent_count(n)

    def test_reads_a_few_thousand_terms_of_millions(self, monkeypatch):
        calls = [0]
        factorial_log = counting._log10_factorial

        def counted(k):
            calls[0] += 1
            return factorial_log(k)

        monkeypatch.setattr(counting, "_log10_factorial", counted)
        counting._log10_idempotent_count(3_000_000)
        assert calls[0] < 20_000


class TestStructuralProperties:
    @given(partitions())
    def test_monotone_containment(self, p):
        prof = profile_of(p)
        assert count_units(prof) <= count_sigma_grouped(prof) <= count_t(prof)

    @given(partitions(), st.randoms(use_true_random=False))
    def test_counts_depend_only_on_profile(self, p, rng):
        relabel = list(range(p.n))
        rng.shuffle(relabel)
        q = SetPartition(tuple(tuple(relabel[x] for x in b) for b in p.blocks))
        assert profile_of(q) == profile_of(p)
        assert count_sigma_direct(q) == count_sigma_direct(p)

    def test_counts_are_exact_beyond_machine_integers(self):
        prof = profile((30, 3), (7, 2))
        t = count_t(prof)
        assert t > 2**200
        assert count_units(prof) == factorial(3) * factorial(30) ** 3 * factorial(2) * factorial(7) ** 2
        assert count_units(prof) <= count_sigma_grouped(prof) <= t


def partition_with(prof):
    """The partition of consecutive points into blocks of the profile's sizes."""
    blocks, start = [], 0
    for size in prof.block_sizes():
        blocks.append(tuple(range(start, start + size)))
        start += size
    return SetPartition(tuple(blocks))


FORMULAS = {
    count_t: "_count_t",
    count_sigma_grouped: "_count_sigma_grouped",
    count_units: "_count_units",
    count_sigma_idempotents: "_count_sigma_idempotents",
}


@pytest.fixture
def formula_calls(monkeypatch):
    """Calls of each formula by its name, counted from a cold start: every
    profile built from here on has an empty memo."""
    core._profile_memo.cache_clear()
    core._profile_of_sizes.cache_clear()
    cli._profile_of_text.cache_clear()
    calls = Counter()
    for name in FORMULAS.values():

        def counted(entries, name=name, formula=getattr(counting, name)):
            calls[name] += 1
            return formula(entries)

        monkeypatch.setattr(counting, name, counted)
    return calls


class TestPerProfileCaches:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_public_counts_match_their_formulas(self, n):
        for prof in profiles_of(n):
            for public, name in FORMULAS.items():
                # twice, so the second call is answered from the memo
                want = getattr(counting, name)(prof.entries)
                assert public(prof) == public(prof) == want

    @pytest.mark.parametrize("n", range(1, 10))
    def test_grouped_matches_direct_once_per_profile(self, n):
        for prof in profiles_of(n):
            p = partition_with(prof)
            assert profile_of(p) == prof
            assert count_sigma_grouped(prof) == count_sigma_direct(p)

    def test_equal_profiles_run_each_formula_once(self, formula_calls, capsys):
        p = SetPartition(((0, 5), (1,), (2, 3, 4, 6), (7,)))
        first = profile_of(p)
        answers = [public(first) for public in FORMULAS]
        for prof in (PartitionProfile(((4, 1), (1, 2), (2, 1))), profile_of(p)):
            assert [public(prof) for public in FORMULAS] == answers
        for set_name, (count, _) in counting.COUNTS.items():
            want = f"{count(first, DEFAULT_GUARD)}\n"
            for how in (("--profile", "2:1,1:2,4:1"), ("-p", str(p))):
                assert cli.main(["count", *how, "--set", set_name]) == 0
                assert capsys.readouterr().out == want
        assert formula_calls == Counter(FORMULAS.values())

    def test_sweep_runs_each_formula_once_per_profile(self, formula_calls):
        for _ in range(2):
            for p in iter_partitions(9):
                prof = profile_of(p)
                for public in FORMULAS:
                    public(prof)
        assert formula_calls == {name: 30 for name in FORMULAS.values()}

    def test_guard_checked_on_a_memo_hit(self, formula_calls):
        prof = profile((1, 5), (2, 5))
        with pytest.raises(GuardExceededError) as cold:
            count_sigma_grouped(prof, guard=34)
        assert formula_calls["_count_sigma_grouped"] == 0
        count_sigma_grouped(prof)
        with pytest.raises(GuardExceededError) as warm:
            count_sigma_grouped(profile((2, 5), (1, 5)), guard=34)
        assert formula_calls["_count_sigma_grouped"] == 1
        assert str(warm.value) == str(cold.value)
        assert warm.value.required == cold.value.required == 6 * 6 - 1

    @pytest.mark.parametrize("set_name", list(counting.COUNTS))
    def test_digit_charge_checked_on_a_memo_hit(self, formula_calls, set_name):
        prof = profile((3, 40), (5, 2))
        got = []
        for guard in (1, DEFAULT_GUARD, 1):
            try:
                counting._charge_count(prof, set_name, guard)
            except GuardExceededError as exc:
                got.append((str(exc), exc.required))
        assert len(got) == 2 and got[0] == got[1]
        assert not formula_calls

    def test_every_cache_is_bounded(self):
        assert CACHE_SIZE >= 1
        assert core._profile_memo.cache_info().maxsize == CACHE_SIZE
        # no cache beside the memo
        assert not hasattr(counting._log10_idempotent_count, "cache_info")
        for name in FORMULAS.values():
            assert not hasattr(getattr(counting, name), "cache_info")

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    def test_kept_log10_term_is_the_idempotent_count(self, n):
        want = log10(idempotent_count(n))
        for _ in range(2):  # the same on a second call
            assert abs(counting._log10_idempotent_count(n) - want) <= 1e-9 * max(1.0, want)
