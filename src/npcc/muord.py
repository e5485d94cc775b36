"""Orbit-level polygons and the mu-ordinary Newton polygon.

Each orbit o of multiplication by p carries a convex polygon drawn on
a normalized scale: a path from (0, 0) to (g(o), sum of f over o)
whose slopes lie in [0, |o|] and whose vertices sit on the integer
lattice.  Rescaling slopes by 1/|o| and widths by |o| (the lambda
scale) turns it into a piece of an honest Newton polygon; the pieces
of all orbits amalgamate to the polygon of the whole family.

The lowest admissible orbit polygon, computed here directly from the
signature, assembles into the mu-ordinary polygon: the one generically
attained, and the greatest element of the Kottwitz partial order.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

from .errors import EndpointMismatchError, PolygonSyntaxError
from .monodromy import MonodromyDatum, Signature, signature
from .orbits import Orbit, decompose, g_of_orbit
from .polygon import NewtonPolygon

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

    Stored as (slope, width) pairs with strictly increasing slopes in
    [0, |orbit|]; widths are positive integers and every segment rises
    by an integer, so all vertices are lattice points.  Values on the
    integer grid are precomputed because enumeration compares these
    polygons pointwise very often.  They are ints at the vertices and
    along integral slopes, and Fractions elsewhere; an int equals and
    hashes like the Fraction of the same value.
    """

    __slots__ = ("orbit", "segments", "_grid")

    def __init__(self, orbit: Orbit, segments: Iterable[tuple[Fraction | int, int]]):
        segs = tuple((Fraction(s), int(w)) for s, w in segments)
        size = orbit.size
        prev = None
        for s, w in segs:
            if w < 1:
                raise PolygonSyntaxError(f"orbit polygon width {w} < 1")
            if not 0 <= s <= size:
                raise PolygonSyntaxError(f"orbit slope {s} outside [0, {size}]")
            if prev is not None and s <= prev:
                raise PolygonSyntaxError("orbit slopes must strictly increase")
            if (s * w).denominator != 1:
                raise PolygonSyntaxError(f"segment {s}x{w} has a non-lattice vertex")
            prev = s
        self.orbit = orbit
        self.segments = segs
        grid = [0]
        for s, w in segs:
            y = grid[-1]
            step = s.numerator if s.denominator == 1 else s
            grid.extend(y + step * k for k in range(1, w))
            grid.append(y + int(s * w))
        self._grid = tuple(grid)

    @property
    def height(self) -> int:
        return len(self._grid) - 1

    @property
    def degree(self) -> int:
        return int(self._grid[-1])

    @property
    def is_empty(self) -> bool:
        return not self.segments

    def value_at(self, x: int) -> Fraction:
        return self._grid[x]

    def lies_on_or_above(self, other: "OrbitPolygon") -> bool:
        """Pointwise comparison; integer grid points suffice since all
        vertices of both polygons are lattice points."""
        if self.height != other.height or self.degree != other.degree:
            raise EndpointMismatchError(
                f"orbit polygon endpoints differ: ({self.height}, {self.degree})"
                f" vs ({other.height}, {other.degree})"
            )
        return all(a >= b for a, b in zip(self._grid, other._grid))

    def dual(self) -> "OrbitPolygon":
        """The polygon of the dual orbit, slopes s -> |o| - s."""
        size = self.orbit.size
        return OrbitPolygon(
            self.orbit.dual(), [(size - s, w) for s, w in reversed(self.segments)]
        )

    @property
    def is_self_symmetric(self) -> bool:
        """Invariance of the slope multiset under s -> |o| - s."""
        size = self.orbit.size
        forward = self.segments
        backward = tuple((size - s, w) for s, w in reversed(forward))
        return forward == backward

    def lambda_scale(self) -> NewtonPolygon:
        """The Newton polygon piece this orbit contributes."""
        size = self.orbit.size
        # Validated orbit slopes strictly increase in [0, |o|] with widths
        # >= 1, so the rescaled segments are already canonical.
        return NewtonPolygon._trusted(tuple((s / size, w * size) for s, w in self.segments))

    def piece(self) -> NewtonPolygon:
        """The Newton polygon the orbit and its dual contribute together.

        That is the lambda-scaled polygon, plus its dual when the orbit
        is not self-dual (the dual orbit then carries the dual path).
        """
        piece = self.lambda_scale()
        return piece if self.orbit.is_self_dual else piece + piece.dual()

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbitPolygon):
            return NotImplemented
        return self.orbit == other.orbit and self.segments == other.segments

    def __hash__(self) -> int:
        return hash((self.orbit, self.segments))

    def __str__(self) -> str:
        inner = ", ".join(f"{s}x{w}" for s, w in self.segments)
        return f"<{inner}>"

    def __repr__(self) -> str:
        return f"OrbitPolygon({self.orbit!r}, {list(self.segments)!r})"


def mu_ordinary_orbit(orbit: Orbit, f: Signature) -> OrbitPolygon:
    """Lowest orbit polygon allowed by the signature.

    Cutting the orbit at each level c counts how many members have
    f >= c; those counts, read from the top level g(o) down to 1, are
    the slopes, each occupying the width between consecutive levels.
    """
    g_o = g_of_orbit(orbit, f)
    values = tuple(f.values[n - 1] for n in orbit.members)
    return _lowest_orbit_polygon(orbit, values, g_o)


# The clutch checks ask for the same orbit polygons at every joint of a
# chain, and again in replay and verify_family.  Bounded: at most 64
# polygons, each with a grid of g(o) + 1 <= N - 1 points, so at most
# about MAX_BRANCH_POINTS on a chain.
@functools.lru_cache(maxsize=64)
def _lowest_orbit_polygon(orbit: Orbit, values: tuple[int, ...], g_o: int) -> OrbitPolygon:
    """mu_ordinary_orbit given f's values on the orbit's members and g(o)."""
    if g_o == 0:
        return OrbitPolygon(orbit, [])
    levels = sorted({v for v in values if 1 <= v <= g_o - 1}, reverse=True)
    bounds = [g_o] + levels + [0]
    segments = []
    for t in range(len(bounds) - 1):
        slope = sum(1 for v in values if v >= bounds[t])
        segments.append((Fraction(slope), bounds[t] - bounds[t + 1]))
    return OrbitPolygon(orbit, segments)


def mu_ordinary_of_signature(f: Signature, p: int) -> NewtonPolygon:
    """Assemble the mu-ordinary polygon from orbit contributions."""
    return _assemble(f, decompose(f.m, p).p_class)


# A chain step recomputes the mu-ordinary polygon of each datum it
# certifies, and replay and verify_family recompute the same ones.
# Signature and NewtonPolygon are immutable, so a cached polygon is
# shared safely; an inconsistent signature raises and is never cached.
# Bounded: at most 64 entries, each a key of up to MAX_MODULUS - 1
# values and a polygon with fewer segments than its height.
@functools.lru_cache(maxsize=64)
def _assemble(f: Signature, p_class: int) -> NewtonPolygon:
    """mu_ordinary_of_signature for the class of p mod f.m."""
    total = NewtonPolygon()
    for rep in decompose(f.m, p_class).representatives():
        total = total + mu_ordinary_orbit(rep, f).piece()
    return total


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
