"""Transformations of a finite set that preserve a set partition.

Predicates, exhaustive enumeration, exact counting, and constructions for
the semigroup of block-preserving selfmaps on {0, ..., n-1}, the
subsemigroup of those whose image meets every block, and its group of
units.

Importing the package runs ``core`` and ``membership``, which every call
needs.  ``counting``, ``cycles``, ``enumeration`` and ``verification`` are
put in ``sys.modules`` (and on the package) at import, but each runs only
when one of its attributes, or a package name it exports, is first read,
so a call pays for the layers it uses.  A layer's first read runs it under
one lock, and a read from another thread meanwhile waits for it to finish;
from then on it is a plain module, and its public names are plain
attributes of the package.
"""

import importlib.util
import sys
import threading
import types

from . import core, membership

__version__ = "0.1.0"

# home module -> the public names it exports: the one list of public names
_EXPORTS = {
    "core": (
        "DEFAULT_GUARD",
        "CharacterMap",
        "GuardExceededError",
        "ParseError",
        "PartitionProfile",
        "SetPartition",
        "Transformation",
        "compose",
        "format_partition",
        "format_transformation",
        "iter_partitions",
        "parse_partition",
        "parse_transformation",
        "profile_of",
    ),
    "membership": (
        "NotInSigmaError",
        "NotPreservingError",
        "block_map_family",
        "character",
        "in_sigma",
        "in_units",
        "is_e_star_preserving",
        "is_idempotent",
        "preserves",
        "sigma_idempotent_via_blocks",
        "sigma_via_character",
        "sigma_via_topology",
    ),
    "counting": (
        "count_sigma_direct",
        "count_sigma_grouped",
        "count_sigma_idempotents",
        "count_t",
        "count_units",
        "idempotent_count",
    ),
    "cycles": (
        "CycleDecomposition",
        "decompose",
        "find_preserved_partition",
        "kernel_partition",
        "preserved_m_partition_exists",
        "search_unit_m_partition",
    ),
    "enumeration": (
        "ChiClass",
        "Enumeration",
        "chi_classes",
        "enumerate_idempotents",
        "enumerate_sigma",
        "enumerate_t",
        "enumerate_units",
        "iter_idempotents",
        "iter_sigma",
        "iter_t",
        "iter_units",
    ),
}

# public name -> home module
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

_lock = threading.RLock()
_pending = set()  # the deferred layers whose bodies have not run


def _bind(layer: types.ModuleType) -> None:
    """Bind the public names of a layer that has run into the package."""
    namespace = globals()
    for name in _EXPORTS.get(layer.__name__.rpartition(".")[2], ()):
        namespace[name] = getattr(layer, name)


class _Deferred(types.ModuleType):
    """A layer module whose body runs on its first attribute read.

    That read runs the body and binds the layer's names into the package
    at once, so anything that later wraps a name in the layer (a tracer,
    say) finds the package holding the same object, then turns the module
    into a plain ``ModuleType``.  Reads made by the running body pass
    through the re-entrant lock; reads from other threads wait on it.
    """

    def __getattribute__(self, attr):
        with _lock:
            if self in _pending:
                _pending.remove(self)
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    _pending.add(self)
                    raise
                _bind(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def _defer(name: str) -> None:
    """Put layer ``name`` in ``sys.modules`` and on the package, unrun."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    layer = importlib.util.module_from_spec(spec)
    layer.__class__ = _Deferred
    _pending.add(layer)
    sys.modules[spec.name] = layer
    globals()[name] = layer


_bind(core)
_bind(membership)
for _name in ("counting", "cycles", "enumeration", "verification"):
    _defer(_name)
del _name


def __getattr__(name):
    # reached only before a deferred layer has run: running it binds its names
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
