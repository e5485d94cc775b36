"""The bundled family table.

data/moonen.txt lists twenty special cyclic-cover families together
with their signatures and, for every congruence class of the prime,
the Newton polygons occurring on the family.  This module parses that
table into immutable records and looks families up; the reports that
recompute it from scratch are in `npcc.reproduce`.
"""

import math
import os

from ._memo import memo
from ._record import Record
from .errors import DomainError
from .monodromy import MonodromyDatum, genus
from .polygon import NewtonPolygon, parse

__all__ = [
    "MoonenRow",
    "MoonenFamily",
    "moonen_families",
    "moonen_family",
]

# The bundled table, read with open: importlib.resources would load
# about 30 standard modules more than npcc needs at every start.
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data", "moonen.txt")


class MoonenRow(Record):
    """One printed line: a class set and its polygons with flags.

    A flag of True marks a polygon whose occurrence on a smooth member
    is only guaranteed for sufficiently large primes in the class.
    """

    __slots__ = _fields = ("classes", "polygons", "large_p")


class MoonenFamily(Record):
    """One family of the table: its datum, signature and printed rows."""

    __slots__ = _fields = ("label", "m", "a", "f", "rows")

    @property
    def datum(self) -> MonodromyDatum:
        return MonodromyDatum(self.m, self.a)

    @property
    def genus(self) -> int:
        return genus(self.datum)

    def classes(self) -> tuple[int, ...]:
        out: set[int] = set()
        for row in self.rows:
            out.update(row.classes)
        return tuple(sorted(out))

    def polygons_for_class(self, p_class: int) -> tuple[tuple[NewtonPolygon, bool], ...]:
        """The printed (polygon, large-p flag) pairs for one class, in order."""
        c = p_class % self.m
        out = []
        for row in self.rows:
            if c in row.classes:
                out.extend(zip(row.polygons, row.large_p))
        if not out:
            raise DomainError(f"{self.label} lists no polygons for class {c} mod {self.m}")
        return tuple(out)

    def payload_polygon(self, p_class: int) -> NewtonPolygon:
        """The unique printed polygon other than the mu-ordinary one."""
        from .muord import mu_ordinary  # not at load: parsing the table needs no orbit

        u = mu_ordinary(self.datum, p_class)
        rest = [poly for poly, _ in self.polygons_for_class(p_class) if poly != u]
        if len(rest) != 1:
            raise DomainError(
                f"{self.label} has {len(rest)} non-generic polygons at class"
                f" {p_class % self.m} mod {self.m}; pick one explicitly"
            )
        return rest[0]


@memo(1)
def moonen_families() -> tuple[MoonenFamily, ...]:
    """Parse and validate the bundled family table."""
    with open(_TABLE_PATH, encoding="utf-8") as table:
        text = table.read()
    grouped: dict[str, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 7:
            raise DomainError(f"malformed table line: {line!r}")
        label, m_s, a_s, f_s, cls_s, polys_s, flags_s = parts
        m = int(m_s)
        a = tuple(int(x) for x in a_s.split(","))
        f = tuple(int(x) for x in f_s.split(","))
        classes = tuple(int(x) for x in cls_s.split(","))
        polygons = tuple(parse(x.strip()) for x in polys_s.split(";"))
        flags = tuple(bool(int(x.strip())) for x in flags_s.split(";"))
        if len(polygons) != len(flags):
            raise DomainError(f"polygon/flag count mismatch on line: {line!r}")
        if label not in grouped:
            grouped[label] = {"m": m, "a": a, "f": f, "rows": []}
        else:
            head = grouped[label]
            if (head["m"], head["a"], head["f"]) != (m, a, f):
                raise DomainError(f"inconsistent rows for {label}")
        grouped[label]["rows"].append(MoonenRow(classes, polygons, flags))
    families = tuple(
        MoonenFamily(label, d["m"], d["a"], d["f"], tuple(d["rows"]))
        for label, d in grouped.items()
    )
    for fam in families:
        fam.datum.validate()
        if len(fam.f) != fam.m - 1:
            raise DomainError(f"{fam.label} signature has wrong length")
        g = fam.genus
        for row in fam.rows:
            for poly in row.polygons:
                if not poly.is_symmetric or poly.genus != g:
                    raise DomainError(
                        f"{fam.label} lists polygon {poly} which is not"
                        f" symmetric of genus {g}"
                    )
    return families


def moonen_family(key: int | str) -> MoonenFamily:
    """Look up one family by number (1..20) or label ("M[k]")."""
    label = key if isinstance(key, str) else f"M[{key}]"
    for fam in moonen_families():
        if fam.label == label:
            return fam
    raise DomainError(f"unknown family {label}")


def _classes_reaching_minus_one(m: int) -> tuple[int, ...]:
    """Units c > 1 mod m such that some power of c is -1 mod m.

    That is, the orbit of 1 under multiplication by c is self-dual.
    """
    from .orbits import decompose

    units = (c for c in range(2, m) if math.gcd(c, m) == 1)
    return tuple(c for c in units if decompose(m, c).orbit_of(1).is_self_dual)
