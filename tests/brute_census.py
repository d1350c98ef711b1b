"""The brute-force reference lists of every partition of up to six points, built once.

Acceptance criterion 01 and the compiled-kernel test of the enumeration
suite both compare the constructive generators with brute force over all
278 partitions of n <= 6.  They read the same lists from here, so the n**n
tables of each partition are scanned once per test run.  Holding n <= 6
takes about 180 MB.
"""

from functools import cache

from partmaps.core import DEFAULT_GUARD, iter_partitions
from partmaps.membership import SETS
from partmaps.verification import _census


@cache
def brute_census(n):
    """``(p, members)`` for every partition p of n points, in canonical order.

    ``members`` maps the name of each set with a compiled kernel (each row
    of ``membership.SETS`` with a count formula: "T", "Sigma", "S" and
    "E-Sigma") to its members, in lexicographic order, as the harness's
    brute-force census finds them: the scan of T, filtered by each row's
    test.
    """
    out = []
    for p in iter_partitions(n):
        census = _census(p, DEFAULT_GUARD)
        out.append((p, {name: census[name] for name, (_, _, label) in SETS.items() if label}))
    return tuple(out)
