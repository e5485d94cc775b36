"""Exact Newton polygon invariants for cyclic covers of the line.

Everything is computed in exact rational arithmetic: Newton polygons
as slope multisets, signatures of cyclic covers, Frobenius orbits,
mu-ordinary polygons, Kottwitz sets with codimensions, clutching
reports, certified inductive families, and the bundled reference
tables with their reproduction reports.  The package exports what each
module lists in its ``__all__``.
"""

from .errors import *
from .polygon import *
from .monodromy import *
from .orbits import *
from .muord import *
from .strata import *
from .clutch import *
from .generators import *
from .catalog import *
from . import catalog, clutch, errors, generators, monodromy, muord, orbits, polygon, strata

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, polygon, monodromy, orbits, muord, strata, clutch, generators, catalog)
    for name in module.__all__
] + ["__version__"]
