"""Cross-validation harness: formulas versus enumerations versus predicates.

Runs every structural law the package relies on over all set partitions of
all ground sets up to a requested size, using brute-force enumeration as
the reference on one side of each comparison.  Each law gets one named
result with a pass flag and a case count, so a caller can render a
pass/fail matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .core import (
    DEFAULT_GUARD,
    SetPartition,
    Transformation,
    check_guard,
    compose,
    iter_partitions,
    profile_of,
)
from .counting import (
    count_sigma_direct,
    count_sigma_grouped,
    count_sigma_idempotents,
    count_t,
    count_units,
)
from .cycles import (
    _smallest_proper_divisor,
    decompose,
    find_preserved_partition,
    preserved_m_partition_exists,
    search_unit_m_partition,
)
from .enumeration import chi_classes, iter_idempotents, iter_sigma, iter_t, iter_units
from .membership import (
    character,
    block_map_family,
    in_sigma,
    in_units,
    is_e_star_preserving,
    is_idempotent,
    preserves,
    sigma_idempotent_via_blocks,
    sigma_via_character,
    sigma_via_topology,
)

# all-pairs homomorphism checking is quadratic in |T|, so it is capped
# at a smaller ground set than the rest of the harness
PAIRWISE_N_MAX = 4


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


@dataclass
class _Tally:
    name: str
    cases: int = 0
    failures: int = 0
    examples: list[str] = field(default_factory=list)

    def check(self, ok: bool, describe: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if len(self.examples) < 3:
                self.examples.append(describe)

    def result(self) -> CheckResult:
        detail = f"{self.cases} cases"
        if self.failures:
            detail += f", {self.failures} failures: " + "; ".join(self.examples)
        return CheckResult(self.name, self.failures == 0, self.cases, detail)


def _census(p: SetPartition, guard: int) -> dict[str, list[Transformation]]:
    t_maps = list(iter_t(p, strategy="brute", guard=guard))
    sigma = [f for f in t_maps if in_sigma(f, p)]
    return {
        "t": t_maps,
        "sigma": sigma,
        "units": [f for f in t_maps if in_units(f, p)],
        "e_t": [f for f in t_maps if is_idempotent(f)],
        "e_sigma": [f for f in sigma if is_idempotent(f)],
    }


def run_verification(n_max: int, guard: int = DEFAULT_GUARD) -> list[CheckResult]:
    """Run the whole harness for every partition of every n up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # fail fast instead of grinding through the small ground sets first
    check_guard(n_max**n_max, guard, "brute-force candidate maps at the largest ground set")
    cardinality = _Tally("cardinality-formulas-vs-enumeration")
    strategies = _Tally("brute-vs-constructive-enumeration")
    containment = _Tally("containments-and-idempotent-intersection")
    four_way = _Tally("sigma-four-way-equivalence")
    homomorphism = _Tally(f"character-homomorphism(n<={min(n_max, PAIRWISE_N_MAX)})")
    units_law = _Tally("units-criterion-and-block-images")
    sigma_idem = _Tally("sigma-idempotent-blockwise")
    t_idem = _Tally("t-idempotent-character")
    quotient = _Tally("chi-quotient-classes")
    divisibility = _Tally("full-cycle-divisibility")
    uniform = _Tally("full-cycle-units-uniform")

    for n in range(1, n_max + 1):
        for p in iter_partitions(n):
            data = _census(p, guard)
            label = str(p)
            _check_cardinalities(p, data, guard, cardinality, strategies)
            _check_containments(p, data, containment)
            _check_four_way(p, data, four_way, label)
            if n <= PAIRWISE_N_MAX:
                _check_homomorphism(p, data, homomorphism, label)
            _check_units(p, data, units_law, label)
            _check_sigma_idempotents(p, data, sigma_idem, label)
            _check_t_idempotents(p, data, t_idem, label)
            _check_quotient(p, data, guard, quotient, label)
            _check_full_cycle_units(p, data, uniform, label)
        if n >= 3:
            _check_divisibility(n, divisibility)

    return [
        t.result()
        for t in (
            cardinality,
            strategies,
            containment,
            four_way,
            homomorphism,
            units_law,
            sigma_idem,
            t_idem,
            quotient,
            divisibility,
            uniform,
        )
    ]


def _check_cardinalities(p, data, guard, cardinality, strategies):
    label = str(p)
    profile = profile_of(p)
    cardinality.check(len(data["t"]) == count_t(profile), f"|T| at {label}")
    sigma_n = len(data["sigma"])
    cardinality.check(sigma_n == count_sigma_direct(p, guard), f"|Sigma| direct at {label}")
    cardinality.check(
        sigma_n == count_sigma_grouped(profile, guard), f"|Sigma| grouped at {label}"
    )
    cardinality.check(len(data["units"]) == count_units(profile), f"|S| at {label}")
    cardinality.check(
        len(data["e_sigma"]) == count_sigma_idempotents(profile), f"|E(Sigma)| at {label}"
    )
    strategies.check(
        data["t"] == list(iter_t(p, strategy="constructive", guard=guard)),
        f"T sequences at {label}",
    )
    strategies.check(
        data["sigma"] == list(iter_sigma(p, strategy="constructive", guard=guard)),
        f"Sigma sequences at {label}",
    )
    strategies.check(
        data["units"] == list(iter_units(p, strategy="constructive", guard=guard)),
        f"unit sequences at {label}",
    )
    strategies.check(
        data["e_sigma"]
        == list(iter_idempotents(p, ambient="sigma", strategy="constructive", guard=guard)),
        f"E(Sigma) sequences at {label}",
    )


def _check_containments(p, data, containment):
    label = str(p)
    t_set = set(data["t"])
    sigma_set = set(data["sigma"])
    containment.check(sigma_set <= t_set, f"Sigma inside T at {label}")
    containment.check(set(data["units"]) <= sigma_set, f"units inside Sigma at {label}")
    containment.check(
        set(data["e_sigma"]) == sigma_set & set(data["e_t"]),
        f"E(Sigma) = Sigma intersect E(T) at {label}",
    )


def _check_four_way(p, data, four_way, label):
    for f in data["t"]:
        a = in_sigma(f, p)
        b = sigma_via_character(f, p)
        c = is_e_star_preserving(f, p)
        d = sigma_via_topology(f, p)
        four_way.check(a == b == c == d, f"{f} at {label}")


def _check_homomorphism(p, data, homomorphism, label):
    chars = {f: character(f, p) for f in data["t"]}
    for f in data["t"]:
        cf = chars[f]
        for g in data["t"]:
            expected = cf.compose(chars[g])
            homomorphism.check(
                character(compose(f, g), p) == expected, f"{f};{g} at {label}"
            )


def _check_units(p, data, units_law, label):
    unit_set = set(data["units"])
    for f in data["t"]:
        direct = f.is_bijection() and preserves(f, p) and preserves(f.inverse(), p)
        units_law.check((f in unit_set) == direct, f"unit criteria disagree on {f} at {label}")
    for f in data["units"]:
        for block in p.blocks:
            image = tuple(sorted(f.images[x] for x in block))
            units_law.check(
                image in p.blocks and len(image) == len(block),
                f"block image of {f} at {label}",
            )


def _check_sigma_idempotents(p, data, sigma_idem, label):
    for f in data["sigma"]:
        sigma_idem.check(
            is_idempotent(f) == sigma_idempotent_via_blocks(f, p),
            f"blockwise idempotence of {f} at {label}",
        )
    for f in data["e_sigma"]:
        sigma_idem.check(
            character(f, p).is_identity(), f"character of idempotent {f} at {label}"
        )


def _check_t_idempotents(p, data, t_idem, label):
    for f in data["e_t"]:
        chi = character(f, p)
        t_idem.check(chi.is_idempotent(), f"character of {f} at {label}")
        family = block_map_family(f, p)
        for i in set(chi.images):
            t_idem.check(
                family[i].is_idempotent(), f"block map {i} of {f} at {label}"
            )


def _check_quotient(p, data, guard, quotient, label):
    classes = chi_classes(p, guard=guard)
    quotient.check(len(classes) == factorial(p.m), f"class count at {label}")
    grouped: dict[tuple[int, ...], int] = {}
    for f in data["sigma"]:
        key = character(f, p).images
        grouped[key] = grouped.get(key, 0) + 1
    for cls in classes:
        quotient.check(
            grouped.get(cls.character.images, 0) == cls.size,
            f"class {cls.character} size at {label}",
        )
        quotient.check(
            in_sigma(cls.representative, p)
            and character(cls.representative, p) == cls.character,
            f"representative of {cls.character} at {label}",
        )
    quotient.check(
        sum(cls.size for cls in classes) == len(data["sigma"]),
        f"class sizes sum at {label}",
    )


def _check_divisibility(n, divisibility):
    cycle = Transformation(tuple((x + 1) % n for x in range(n)))
    for m in range(2, n):
        exists, witness = preserved_m_partition_exists(cycle, m)
        divisibility.check(exists == (n % m == 0), f"existence for n={n}, m={m}")
        if exists:
            divisibility.check(
                witness is not None
                and witness.m == m
                and not witness.is_trivial
                and in_units(cycle, witness),
                f"witness for n={n}, m={m}",
            )
        else:
            divisibility.check(
                search_unit_m_partition(cycle, m) is None,
                f"exhaustive search for n={n}, m={m}",
            )
    found = find_preserved_partition(cycle)
    is_prime = _smallest_proper_divisor(n) is None
    divisibility.check(
        (found is None) == is_prime, f"prime-length cycle rule at n={n}"
    )


def _check_full_cycle_units(p, data, uniform, label):
    for f in data["units"]:
        dec = decompose(f)
        if not dec.is_full_cycle():
            continue
        chi = character(f, p)
        chi_dec = decompose(chi.as_transformation())
        uniform.check(chi_dec.is_full_cycle(), f"character cycle of {f} at {label}")
        uniform.check(p.is_uniform, f"uniformity for {f} at {label}")
