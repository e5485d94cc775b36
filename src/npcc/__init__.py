"""Exact Newton polygon invariants for cyclic covers of the line.

Everything is computed in exact rational arithmetic: Newton polygons
as slope multisets, signatures of cyclic covers, Frobenius orbits,
mu-ordinary polygons, Kottwitz sets with codimensions, clutching
reports, certified inductive families, and the bundled reference
table with its reproduction reports.  The package exports what each
module lists in its ``__all__``.

``import npcc`` loads ``errors``, ``polygon``, ``monodromy``,
``orbits``, ``muord`` and ``catalog``: all that parsing the family
table and the per-datum invariants need, so a process that runs only
those does not compile the rest, nor import ``fractions``, which the
library loads the first time it hands out a ``Fraction``.  ``strata``,
``clutch``, ``generators`` and ``reproduce`` load together the first
time one of their exports, one of them, ``__all__`` or ``dir(npcc)``
is read; no other dunder probe loads them.  A lazy export is looked up
in its module at every read and never bound here, so whatever rebinds
it in its module, a tracer for one, is seen through the package too.
The ``npcc`` command imports ``npcc.cli``, which loads every module.
"""

from .errors import *
from .polygon import *
from .monodromy import *
from .orbits import *
from .muord import *
from .catalog import *
from . import catalog, errors, monodromy, muord, orbits, polygon

__version__ = "0.1.0"

_LAZY = {}  # export name -> the lazy module defining it, filled when they load


def _load_lazy():
    # Not `from . import ...`: that probes this module for each name,
    # which would call __getattr__ again.
    import npcc.clutch, npcc.generators, npcc.reproduce, npcc.strata

    global __all__
    if not _LAZY:
        lazy = npcc.strata, npcc.clutch, npcc.generators, npcc.reproduce
        listed = (errors, polygon, monodromy, orbits, muord,
                  npcc.strata, npcc.clutch, npcc.generators, catalog, npcc.reproduce)
        __all__ = [name for module in listed for name in module.__all__] + ["__version__"]
        # One update, after __all__, so another thread sees every name or none.
        _LAZY.update({name: module for module in lazy for name in module.__all__})


def __getattr__(name):
    if name not in _LAZY and (name == "__all__" or not name.startswith("__")):
        _load_lazy()
        if name in globals():  # __all__, or a lazy module bound here by that import
            return globals()[name]
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY[name], name)


def __dir__():
    _load_lazy()
    return sorted(set(globals()) | set(__all__))
