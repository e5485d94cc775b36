"""Orbit-level polygons and the mu-ordinary Newton polygon.

Each orbit o of multiplication by p carries a convex polygon drawn on
a normalized scale: a path from (0, 0) to (g(o), sum of f over o)
whose slopes lie in [0, |o|] and whose vertices sit on the integer
lattice, so it is held in ints.  Rescaling slopes by 1/|o| and widths
by |o| (the lambda scale) turns it into a piece of an honest Newton
polygon; the pieces of all orbits amalgamate to the whole family's.

The lowest admissible orbit polygon, computed here directly from the
signature, assembles into the mu-ordinary polygon: the one generically
attained, and the greatest element of the Kottwitz partial order.
"""

import bisect
import math
from collections.abc import Iterable

from ._memo import memo
from .errors import EndpointMismatchError, PolygonSyntaxError
from .monodromy import MonodromyDatum, Signature, signature
from .orbits import Orbit, decompose, g_of_orbit
from .polygon import NewtonPolygon, _canonical, _fraction, _int, _ratio, _slope_text

__all__ = [
    "OrbitPolygon",
    "mu_ordinary_orbit",
    "mu_ordinary_of_signature",
    "mu_ordinary",
    "beta_of_signature",
    "p_rank_bound",
]


class OrbitPolygon:
    """Convex polygon on the normalized scale of one orbit.

    Stored as (rise, width) int pairs with positive widths: a segment of
    slope s and width w rises by the integer s*w, so all vertices are
    lattice points, and slopes strictly increase in [0, |orbit|].  Values
    on the integer grid, for `lies_on_or_above`, `height` and `degree`,
    are ints scaled by the lcm of the slopes' denominators (1 for
    mu-ordinary ones, whose slopes are integral).  Slopes and scaled
    grids compare by cross-multiplying.  A Kottwitz factor is searched,
    sorted, checked and counted from the pairs alone; a polygon, and its
    grid, is built only where the public API hands one out.
    """

    __slots__ = ("orbit", "_pairs", "_grid", "_scale")

    def __init__(self, orbit: Orbit, segments: Iterable[tuple[object, int]]):
        """The polygon of (slope, width) pairs; a slope is read as
        `NewtonPolygon` reads one, a width is an int, and a slope must rise
        by an int over its width."""
        pairs = []
        for s, w in segments:
            (num, den), w = _ratio(s), _int(w, "an orbit polygon width must be an int")
            if num * w % den:
                raise PolygonSyntaxError(
                    f"segment {_slope_text(num, den)}x{w} has a non-lattice vertex"
                )
            pairs.append((num * w // den, w))
        self._fill(orbit, tuple(pairs))

    @classmethod
    def _of_pairs(cls, orbit: Orbit, pairs: tuple[tuple[int, int], ...]) -> "OrbitPolygon":
        """The polygon of (rise, width) int pairs, checked as __init__ checks."""
        return object.__new__(cls)._fill(orbit, pairs)

    def _fill(self, orbit: Orbit, pairs: tuple[tuple[int, int], ...]) -> "OrbitPolygon":
        size = orbit.size
        for (prev_r, prev_w), (r, w) in zip(((-1, 1),) + pairs, pairs):  # -1: below any slope
            if w < 1:
                raise PolygonSyntaxError(f"orbit polygon width {w} < 1")
            if not 0 <= r <= size * w:
                raise PolygonSyntaxError(f"orbit slope {_fraction(r, w)} outside [0, {size}]")
            if r * prev_w <= prev_r * w:
                raise PolygonSyntaxError("orbit slopes must strictly increase")
        scale = math.lcm(*(w // math.gcd(r, w) for r, w in pairs))
        grid = [0]
        for r, w in pairs:
            y, step = grid[-1], r * scale // w
            grid.extend(range(y + step, y + step * w + 1, step) if step else [y] * w)
        self.orbit, self._pairs, self._grid, self._scale = orbit, pairs, tuple(grid), scale
        return self

    @property
    def segments(self) -> tuple[tuple[object, int], ...]:
        """(slope, width) pairs by increasing slope, each slope a Fraction."""
        return tuple((_fraction(r, w), w) for r, w in self._pairs)

    @property
    def height(self) -> int:
        return len(self._grid) - 1

    @property
    def degree(self) -> int:
        return self._grid[-1] // self._scale

    @property
    def is_empty(self) -> bool:
        return not self._pairs

    def lies_on_or_above(self, other: "OrbitPolygon") -> bool:
        """Pointwise comparison; integer grid points suffice since all
        vertices of both polygons are lattice points."""
        if self.height != other.height or self.degree != other.degree:
            raise EndpointMismatchError(
                f"orbit polygon endpoints differ: ({self.height}, {self.degree})"
                f" vs ({other.height}, {other.degree})"
            )
        a, b = self._scale, other._scale
        return all(u * b >= v * a for u, v in zip(self._grid, other._grid))

    @property
    def is_self_symmetric(self) -> bool:
        """Invariance of the slope multiset under s -> |o| - s."""
        return _self_symmetric(self.orbit, self._pairs)

    def lambda_scale(self) -> NewtonPolygon:
        """The Newton polygon piece this orbit contributes."""
        # Validated orbit slopes strictly increase in [0, |o|], so these are canonical.
        return NewtonPolygon._trusted(tuple(_lambda_triples(self.orbit, self._pairs, dual=False)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbitPolygon):
            return NotImplemented
        return self.orbit == other.orbit and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self.orbit, self._pairs))

    def __str__(self) -> str:
        inner = ", ".join(f"{s}x{w}" for s, w in self.segments)
        return f"<{inner}>"

    def __repr__(self) -> str:
        return f"OrbitPolygon({self.orbit!r}, {list(self.segments)!r})"


def _self_symmetric(orbit: Orbit, pairs: tuple[tuple[int, int], ...]) -> bool:
    """OrbitPolygon.is_self_symmetric of the polygon of pairs on orbit."""
    size = orbit.size
    return pairs == tuple((size * w - r, w) for r, w in reversed(pairs))


def _lambda_triples(
    orbit: Orbit, pairs: tuple[tuple[int, int], ...], dual: bool = True
) -> list[tuple[int, int, int]]:
    """(num, den, mult) of the lambda-scaled slopes of pairs on orbit, unmerged.

    Each slope r/w becomes r/(w*|o|) in lowest terms, of width w*|o|,
    and with ``dual``, unless the orbit is self-dual, its dual (carried
    by the dual orbit) follows it: both may be 1/2.
    """
    n, dual = orbit.size, dual and not orbit.is_self_dual
    triples = []
    for r, w in pairs:
        g = math.gcd(r, w * n)
        triples.append((r // g, w * n // g, w * n))
        if dual:
            triples.append(((w * n - r) // g, w * n // g, w * n))
    return triples


def mu_ordinary_orbit(orbit: Orbit, f: Signature) -> OrbitPolygon:
    """Lowest orbit polygon allowed by the signature.

    Cutting the orbit at each level c counts how many members have
    f >= c; those counts, read from the top level g(o) down to 1, are
    the slopes, each occupying the width between consecutive levels.
    """
    return OrbitPolygon._of_pairs(orbit, _mu_pairs(orbit, f))


def _mu_pairs(orbit: Orbit, f: Signature) -> tuple[tuple[int, int], ...]:
    """The (rise, width) pairs of mu_ordinary_orbit(orbit, f), built
    without the polygon's checks and grid."""
    g_o = g_of_orbit(orbit, f)
    if g_o == 0:
        return ()
    values = sorted(f.values[n - 1] for n in orbit.members)
    size = len(values)
    levels = sorted({v for v in values if 1 <= v <= g_o - 1}, reverse=True)
    bounds = [g_o] + levels + [0]
    cuts = zip(bounds, bounds[1:])
    # The members at or above hi are those past the first value >= hi.
    return tuple(
        ((hi - lo) * (size - bisect.bisect_left(values, hi)), hi - lo) for hi, lo in cuts
    )


# Every clutch joint reads the orbit polygons of the same few signatures
# (both sides of the slope-span check, then the glued datum's mu-ordinary
# polygon), replay and verify_family read them again, and a Kottwitz set
# reads them as its factors' tops.  Its readers need only the (rise,
# width) pairs, so a table holds those and no polygon's grid of g(o) + 1
# points.  Tuples are immutable, so sharing one is safe; an inconsistent
# signature raises and is never cached.  Bounded: 8 tables, each of at
# most (m + 1) / 2 representatives and, since a polygon on an orbit o
# has at most |o| + 1 segments, fewer than 3 m / 2 pairs: about 14,000
# pairs at MAX_MODULUS, whatever N.
@memo(8)
def _orbit_table(f: Signature, p_class: int) -> dict[Orbit, tuple[tuple[int, int], ...]]:
    """Each orbit representative mod f.m at the class of p, in
    `representatives()` order, mapped to the (rise, width) pairs of its
    mu-ordinary orbit polygon."""
    reps = decompose(f.m, p_class).representatives()
    return {rep: _mu_pairs(rep, f) for rep in reps}


def mu_ordinary_of_signature(f: Signature, p: int) -> NewtonPolygon:
    """Assemble the mu-ordinary polygon from orbit contributions."""
    return _assemble(f, decompose(f.m, p).p_class)


# A chain step recomputes the mu-ordinary polygon of each datum it
# certifies, and replay and verify_family recompute the same ones.
# Signature and NewtonPolygon are immutable, so a cached polygon is
# shared safely; an inconsistent signature raises and is never cached.
# Bounded: at most 64 entries, each a key of up to MAX_MODULUS - 1
# values and a polygon with fewer segments than its height.
@memo(64)
def _assemble(f: Signature, p_class: int) -> NewtonPolygon:
    """mu_ordinary_of_signature for the class of p mod f.m."""
    table = _orbit_table(f, p_class).items()
    triples = (t for rep, pairs in table for t in _lambda_triples(rep, pairs))
    return NewtonPolygon._trusted(_canonical(triples))


def mu_ordinary(datum: MonodromyDatum, p: int) -> NewtonPolygon:
    """Mu-ordinary Newton polygon of the family of the datum at p."""
    return mu_ordinary_of_signature(signature(datum), p)


def beta_of_signature(f: Signature, p: int) -> int:
    """Sum over orbits of |o| times the smallest f value on o."""
    dec = decompose(f.m, p)
    return sum(o.size * min(f(n) for n in o.members) for o in dec.orbits)


def p_rank_bound(datum: MonodromyDatum, p: int) -> int:
    """Generic p-rank of the family, equal to the mu-ordinary slope-0 count."""
    return beta_of_signature(signature(datum), p)
