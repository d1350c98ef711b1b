"""The brute-force reference lists of every partition of up to six points, built once.

Acceptance criterion 01 and the compiled-kernel test of the enumeration
suite both compare the constructive generators with brute force over all
278 partitions of n <= 6.  They read the same lists from here, so the n**n
tables of each partition are scanned once per test run.  Holding n <= 6
takes about 180 MB.
"""

from functools import cache

from partmaps.core import iter_partitions
from partmaps.enumeration import iter_t
from partmaps.membership import in_sigma, in_units, is_idempotent


@cache
def brute_census(n):
    """``(p, members)`` for every partition p of n points, in canonical order.

    ``members`` maps the set names "T", "Sigma", "S" and "E-Sigma" to their
    members, found by filtering the brute-force scan of T with the
    membership predicates, in lexicographic order.
    """
    out = []
    for p in iter_partitions(n):
        t = list(iter_t(p, strategy="brute"))
        sigma = [f for f in t if in_sigma(f, p)]
        members = {
            "T": t,
            "Sigma": sigma,
            "S": [f for f in t if in_units(f, p)],
            "E-Sigma": [f for f in sigma if is_idempotent(f)],
        }
        out.append((p, members))
    return tuple(out)
