"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact; the laws under test are discrete identities, so
no tolerances apply anywhere.
"""

import random
import time

from brute_census import brute_census
from partmaps.cli import main
from partmaps.core import (
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
from partmaps.cycles import decompose, find_preserved_partition, preserved_m_partition_exists, search_unit_m_partition
from partmaps.enumeration import (
    chi_classes,
    enumerate_idempotents,
    enumerate_sigma,
    enumerate_t,
    enumerate_units,
    iter_t,
)
from partmaps.membership import (
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


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _canonical_cycle(n):
    return Transformation(tuple((x + 1) % n for x in range(n)))


def _is_full_cycle(images):
    n = len(images)
    x = images[0]
    steps = 1
    while x != 0 and steps <= n:
        x = images[x]
        steps += 1
    return steps == n


def test_criterion_01_formula_oracle_census():
    checked = 0
    for n in range(1, 7):
        # brute T, filtered by in_sigma, in_units and is_idempotent
        for p, members in brute_census(n):
            checked += 1
            profile = profile_of(p)
            t_maps = members["T"]
            assert t_maps == enumerate_t(p, strategy="constructive").maps, p
            assert len(t_maps) == count_t(profile), p

            sigma = members["Sigma"]
            assert sigma == enumerate_sigma(p).maps, p
            assert len(sigma) == count_sigma_direct(p) == count_sigma_grouped(profile), p

            units = members["S"]
            assert units == enumerate_units(p).maps, p
            assert len(units) == count_units(profile), p

            e_sigma = members["E-Sigma"]
            assert e_sigma == enumerate_idempotents(p, ambient="sigma").maps, p
            assert len(e_sigma) == count_sigma_idempotents(profile), p
    _report(1, "formula-oracle census n<=6", checked == 278, f"{checked} partitions, exact equality")


def test_criterion_02_spot_values():
    cases = {
        "0,1|2": (15, 6, 2, 3),
        "0,1|2,3": (64, 32, 8, 9),
    }
    for text, (t_n, sigma_n, units_n, idem_n) in cases.items():
        blocks = tuple(tuple(int(x) for x in chunk.split(",")) for chunk in text.split("|"))
        p = SetPartition(blocks)
        profile = profile_of(p)
        assert count_t(profile) == len(enumerate_t(p, strategy="brute")) == t_n
        assert count_sigma_direct(p) == len(enumerate_sigma(p)) == sigma_n
        assert count_units(profile) == len(enumerate_units(p)) == units_n
        assert count_sigma_idempotents(profile) == len(enumerate_idempotents(p, "sigma")) == idem_n
    _report(2, "spot values for 2+1 and 2+2 blocks", True, "|T|,|Sigma|,|S|,|E(Sigma)| all exact")


def test_criterion_03_four_way_equivalence():
    checked = 0
    for n in range(1, 6):
        for p in iter_partitions(n):
            for f in iter_t(p):
                checked += 1
                a = in_sigma(f, p)
                assert (
                    a == sigma_via_character(f, p)
                    == is_e_star_preserving(f, p)
                    == sigma_via_topology(f, p)
                ), (f, p)
    _report(3, "four-way Sigma equivalence n<=5", True, f"{checked} maps, zero counterexamples")


def test_criterion_04_character_homomorphism():
    checked = 0
    for n in range(1, 5):
        for p in iter_partitions(n):
            members = list(iter_t(p))
            chars = [character(f, p) for f in members]
            for f, cf in zip(members, chars):
                for g, cg in zip(members, chars):
                    checked += 1
                    assert character(compose(f, g), p) == cf.compose(cg), (f, g, p)
    _report(4, "character homomorphism n<=4", True, f"{checked} pairs, zero counterexamples")


def test_criterion_05_sigma_idempotent_characterization():
    checked = 0
    for n in range(1, 6):
        for p in iter_partitions(n):
            for f in enumerate_sigma(p):
                checked += 1
                idem = is_idempotent(f)
                assert idem == sigma_idempotent_via_blocks(f, p), (f, p)
                if idem:
                    assert character(f, p).is_identity(), (f, p)
    _report(5, "blockwise Sigma idempotence n<=5", True, f"{checked} maps, zero counterexamples")


def test_criterion_06_units_characterization():
    checked = 0
    for n in range(1, 6):
        for p in iter_partitions(n):
            for f in iter_t(p):
                checked += 1
                direct = f.is_bijection() and preserves(f, p) and preserves(f.inverse(), p)
                unit = in_units(f, p)
                assert unit == direct, (f, p)
                if unit:
                    for block in p.blocks:
                        image = tuple(sorted(f.images[x] for x in block))
                        assert image in p.blocks and len(image) == len(block), (f, p)
    _report(6, "units criterion and block images n<=5", True, f"{checked} maps, zero counterexamples")


def test_criterion_07_divisibility_and_prime_cycles():
    rng = random.Random(20240817)
    checked = 0
    for n in range(3, 9):
        cycles = [_canonical_cycle(n)]
        for _ in range(5):
            sigma = Transformation(tuple(rng.sample(range(n), n)))
            cycles.append(compose(compose(sigma.inverse(), cycles[0]), sigma))
        for f in cycles:
            assert decompose(f).is_full_cycle()
            for m in range(2, n):
                checked += 1
                exists, witness = preserved_m_partition_exists(f, m)
                assert exists == (n % m == 0), (f, m)
                if exists:
                    assert witness.m == m and not witness.is_trivial, (f, m)
                    assert in_units(f, witness), (f, m)
                else:
                    assert search_unit_m_partition(f, m) is None, (f, m)
            found = find_preserved_partition(f)
            assert (found is None) == (n in (3, 5, 7)), f
            if found is not None:
                assert in_units(f, found), f
    _report(7, "full-cycle divisibility n<=8", True, f"{checked} (cycle, m) cases plus prime rule")


def test_criterion_08_full_cycle_units_have_cyclic_character():
    checked = 0
    for n in range(1, 9):
        for p in iter_partitions(n):
            for f in enumerate_units(p):
                if not _is_full_cycle(f.images):
                    continue
                checked += 1
                chi = character(f, p)
                assert decompose(chi.as_transformation()).is_full_cycle(), (f, p)
                assert p.is_uniform, (f, p)
    _report(8, "full-cycle units: cyclic character, uniform blocks n<=8", True, f"{checked} units")


def test_criterion_09_quotient_structure():
    from math import factorial

    checked = 0
    for n in range(1, 6):
        for p in iter_partitions(n):
            checked += 1
            sigma = enumerate_sigma(p).maps
            grouped = {}
            for f in sigma:
                key = character(f, p).images
                grouped[key] = grouped.get(key, 0) + 1
            classes = chi_classes(p)
            assert len(classes) == factorial(p.m), p
            sizes = []
            for cls in classes:
                expected = 1
                for i, j in enumerate(cls.character.images):
                    expected *= len(p.blocks[j]) ** len(p.blocks[i])
                assert cls.size == expected == grouped.get(cls.character.images, 0), (p, cls)
                sizes.append(cls.size)
            assert sum(sizes) == len(sigma), p
    _report(9, "chi-quotient structure n<=5", True, f"{checked} partitions, sizes and m! classes exact")


def test_criterion_10_cli_verify_runtime(capsys):
    start = time.monotonic()
    code = main(["verify", "--n-max", "5"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(
            10,
            "verify --n-max 5",
            code == 0 and elapsed < 30.0 and "# all checks passed" in out,
            f"exit {code} in {elapsed:.1f}s (budget 30s)",
        )
