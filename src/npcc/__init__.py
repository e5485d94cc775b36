"""Exact Newton polygon invariants for cyclic covers of the line.

Everything is computed in exact rational arithmetic: Newton polygons
as slope multisets, signatures of cyclic covers, Frobenius orbits,
mu-ordinary polygons, Kottwitz sets with codimensions, clutching
reports, certified inductive families, and the bundled reference
table with its reproduction reports.  The package exports what each
module lists in its ``__all__``.

``import npcc`` loads ``errors``, ``polygon``, ``monodromy`` and
``catalog``: all that parsing the family table needs, so a process
that runs only that compiles nothing more, nor imports ``fractions``,
which the library loads the first time it hands out a ``Fraction``.
The other modules load in a fixed order, ``orbits``, ``muord``,
``strata``, ``clutch``, ``generators``, ``reproduce``, when a name not
yet known is first read: in turn, up to the first that exports the
name or is the module named.  So ``npcc.decompose`` loads ``orbits``,
``npcc.mu_ordinary`` ``orbits`` and ``muord``, ``npcc.kottwitz_set``
those and ``strata``; ``__all__``, ``dir(npcc)`` and any name that no
module exports load them all, and no other dunder probe loads any.  A
lazy export is looked up in its module at every read and never bound
here, so whatever rebinds it in its module, a tracer for one, is seen
through the package too.  The ``npcc`` command imports ``npcc.cli``,
which loads every module.
"""

from .errors import *
from .polygon import *
from .monodromy import *
from .catalog import *
from . import catalog, errors, monodromy, polygon

__version__ = "0.1.0"

_LAZY_MODULES = ("orbits", "muord", "strata", "clutch", "generators", "reproduce")
_LAZY = {}  # export name -> the lazy module defining it, filled as they load


def _load(name):
    """Load the lazy modules in order, up to the first that exports name
    or is named so.  Any other name loads them all and binds __all__."""
    global __all__
    for short in _LAZY_MODULES:
        # Not `from . import ...`: that probes this module for the name,
        # which would call __getattr__ again.
        __import__(f"{__name__}.{short}")
        module = globals()[short]
        # One update per module, so another thread sees all its names or none.
        _LAZY.update(dict.fromkeys(module.__all__, module))
        if name in _LAZY or name == short:
            return
    if "__all__" not in globals():
        listed = ("errors", "polygon", "monodromy", *_LAZY_MODULES[:-1], "catalog", "reproduce")
        exports = [export for short in listed for export in globals()[short].__all__]
        __all__ = exports + ["__version__"]  # one assignment: another thread sees all or none


def __getattr__(name):
    if name not in _LAZY and (name == "__all__" or not name.startswith("__")):
        _load(name)
        if name in globals():  # __all__, or a lazy module bound here by its import
            return globals()[name]
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY[name], name)


def __dir__():
    _load("__all__")
    return sorted(set(globals()) | set(__all__))
