"""Kottwitz sets, stratum codimensions, and unlikely-intersection checks.

The Newton polygons that occur for a fixed datum and residue class form
a finite poset B.  It factors over orbit-pair representatives: each
factor is the set of convex lattice paths on the orbit's normalized
scale that lie on or above the mu-ordinary orbit polygon, and B is the
Cartesian product of the factors under the componentwise order.  The
mu-ordinary element is the unique top; the straight-segment choice in
every factor is the unique bottom (the basic element).

A Kottwitz set is built by one fold over the factors: each candidate's
piece of Newton polygon is computed once, and each distinct partial
total meets each piece of the next factor once, so the polygon
arithmetic scales with the number of distinct partial totals rather
than with the number of elements.  The distinct totals (the strata of
the family) are indexed as the fold finishes.

The second half of the module measures how special a polygon is inside
the full Siegel moduli space: the stratum codimension as a lattice
point count, the comparison against dim M_g (condition (U)), and three
closed-form sufficient bounds for that comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EnumerationCapError
from .monodromy import MonodromyDatum, Signature, signature
from .muord import OrbitPolygon, mu_ordinary_orbit
from .orbits import Orbit, decompose
from .polygon import NewtonPolygon

__all__ = [
    "DEFAULT_ENUM_CAP",
    "enumerate_orbit_component",
    "KottwitzElement",
    "KottwitzSet",
    "kottwitz_set",
    "omega_count",
    "dim_moduli",
    "ConditionUReport",
    "condition_u",
    "threshold_half_slope_density",
    "threshold_repeated_summand",
    "threshold_ss_chain",
]

DEFAULT_ENUM_CAP = 1_000_000


def enumerate_orbit_component(
    orbit: Orbit, f: Signature, cap: int | None = DEFAULT_ENUM_CAP
) -> tuple[OrbitPolygon, ...]:
    """All admissible normalized polygons of one orbit, lowest first.

    Admissible means: a convex path from (0, 0) to (g(o), sum of f over
    o) with strictly increasing slopes in [0, |o|], every vertex on the
    integer lattice, lying on or above the mu-ordinary orbit polygon,
    and (for self-dual orbits) symmetric under slope -> |o| - slope.
    Vertex enumeration is exhaustive: between vertices the path is
    linear and the mu-ordinary polygon convex, so their difference is
    concave and endpoint checks imply pointwise domination.
    """
    mu = mu_ordinary_orbit(orbit, f)
    big_g = mu.height
    big_d = mu.degree
    size = orbit.size
    if big_g == 0:
        return (mu,)
    found: list[tuple[tuple[Fraction, int], ...]] = []

    def rec(x: int, y: int, last: Fraction | None, segs: tuple) -> None:
        if x == big_g:
            found.append(segs)
            if cap is not None and len(found) > cap:
                raise EnumerationCapError(
                    f"more than {cap} candidates on orbit {orbit}; raise the cap"
                )
            return
        for x2 in range(x + 1, big_g + 1):
            width = x2 - x
            start = y if last is None else math.floor(y + last * width) + 1
            for y2 in range(start, big_d + 1):
                slope = Fraction(y2 - y, width)
                if last is not None and slope <= last:
                    continue
                if slope > size:
                    break
                if y2 < mu.value_at(x2):
                    continue
                rest_w, rest_r = big_g - x2, big_d - y2
                if rest_w == 0:
                    if rest_r != 0:
                        continue
                elif not slope * rest_w < rest_r <= size * rest_w:
                    continue
                rec(x2, y2, slope, segs + ((slope, width),))

    try:
        rec(0, 0, None, ())
    finally:
        # rec refers to itself through its closure cell; deleting the name
        # breaks that cycle, so what it holds is freed at once instead of
        # waiting for the cycle collector.
        del rec
    polys = [OrbitPolygon(orbit, segs) for segs in found]
    if orbit.is_self_dual:
        polys = [q for q in polys if q.is_self_symmetric]
    polys.sort(key=lambda q: q._grid)
    if not polys or polys[0] != mu:
        raise DomainError("mu-ordinary polygon must be the lowest candidate")
    return tuple(polys)


class KottwitzElement:
    """One choice of admissible polygon per orbit-pair representative.

    ``total`` is the amalgamation of the components' pieces
    (`OrbitPolygon.piece`) and ``index`` the element's position in its
    Kottwitz set; the set computes both in its fold.
    """

    __slots__ = ("reps", "components", "total", "index")

    def __init__(
        self,
        reps: tuple[Orbit, ...],
        components: tuple[OrbitPolygon, ...],
        total: NewtonPolygon,
        index: int,
    ):
        self.reps = reps
        self.components = components
        self.total = total
        self.index = index

    def component(self, orbit: Orbit) -> OrbitPolygon:
        """The normalized polygon on the given orbit, dualizing if needed."""
        for rep, comp in zip(self.reps, self.components):
            if rep == orbit:
                return comp
            if rep.dual() == orbit:
                return comp.dual()
        raise DomainError(f"orbit {orbit} does not belong to this element")

    def leq(self, other: "KottwitzElement") -> bool:
        """Componentwise order; smaller means every component lies higher."""
        return all(
            a.lies_on_or_above(b) for a, b in zip(self.components, other.components)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, KottwitzElement):
            return NotImplemented
        return self.reps == other.reps and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.reps, self.components))

    def __str__(self) -> str:
        return str(self.total)


class KottwitzSet:
    """The full poset of Newton polygons for one signature and residue class.

    Elements come in a deterministic order, the product of the
    per-factor orders (lowest polygon first, first factor outermost),
    so the first element is the top of the poset and the last its
    bottom.  The length of an element is the longest strictly
    increasing chain from it up to the top; in a product poset that is
    the sum of the per-factor lengths (see `_chain_lengths`).

    Totals and lengths come from one fold over the factors in that
    order.  Each distinct partial total is summed with each candidate's
    piece once, and equal totals are interned, so elements with the
    same total share one polygon.  The fold also indexes the elements
    by total, in first-appearance order, for `totals` and
    `elements_with_total`.  The cap bounds the running product of the
    factor sizes, checked before the next factor is enumerated.
    """

    def __init__(self, f: Signature, p: int, cap: int | None = DEFAULT_ENUM_CAP):
        dec = decompose(f.m, p)
        self.m = f.m
        self.p_class = dec.p_class
        self.signature = f
        self.reps = dec.representatives()
        factors = []
        count = 1
        for rep in self.reps:
            factor = enumerate_orbit_component(rep, f, cap)
            _check_factor_order(factor)
            factors.append(factor)
            count *= len(factor)
            if cap is not None and count > cap:
                sizes = " x ".join(str(len(c)) for c in factors)
                raise EnumerationCapError(
                    f"Kottwitz set would have more than {cap} elements: the first "
                    f"{len(factors)} of {len(self.reps)} factors have sizes "
                    f"{sizes} = {count}; raise the cap"
                )
        self.factors = tuple(factors)
        totals = [NewtonPolygon()]
        lengths = [0]
        for factor in self.factors:
            pieces = [c.piece() for c in factor]
            steps = self._chain_lengths(factor)
            interned: dict[NewtonPolygon, NewtonPolygon] = {}
            # Partial totals are interned and stay alive in `totals`
            # through the level, so their ids name them.
            rows: dict[int, list[NewtonPolygon]] = {}
            folded = []
            for partial in totals:
                row = rows.get(id(partial))
                if row is None:
                    row = rows[id(partial)] = [
                        interned.setdefault(t, t) for t in (partial + q for q in pieces)
                    ]
                folded.extend(row)
            totals = folded
            lengths = [n + s for n in lengths for s in steps]
        self.elements = tuple(
            KottwitzElement(self.reps, comps, total, i)
            for i, (comps, total) in enumerate(zip(itertools.product(*self.factors), totals))
        )
        self.lengths = tuple(lengths)
        # Grouping by identity hashes no polygon per element.
        groups: dict[int, list[int]] = {}
        for i, total in enumerate(totals):
            groups.setdefault(id(total), []).append(i)
        self._by_total = {totals[ix[0]]: ix for ix in groups.values()}
        self.top = self.elements[0]
        self.bottom = self.elements[-1]

    @staticmethod
    def _chain_lengths(candidates: tuple[OrbitPolygon, ...]) -> tuple[int, ...]:
        """Longest chain up to the factor's top, per candidate.

        That length is a lattice count (Chai, "Newton polygons as
        lattice points", Amer. J. Math. 122, 2000): the sum of
        ceil(c(x)) - ceil(top(x)) over x = 0..G, or over x = 0..G // 2
        on a self-dual orbit, whose polygons are symmetric.  The factor
        is ranked by it (Hamacher, Duke Math. J. 164, 2015), the same
        count `omega_count` takes for the Siegel case.
        """
        top = candidates[0]
        stop = (top.height // 2 if top.orbit.is_self_dual else top.height) + 1
        base = _lattice_count(top, stop)
        lengths = tuple(_lattice_count(c, stop) - base for c in candidates)
        if any(n < 1 for n in lengths[1:]):
            raise DomainError("every candidate must lie above the factor top")
        return lengths

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, element: KottwitzElement) -> int:
        i = element.index
        if 0 <= i < len(self.elements) and self.elements[i] == element:
            return i
        raise DomainError(f"element {element} is not in this Kottwitz set")

    def length(self, element: KottwitzElement) -> int:
        return self.lengths[self.index_of(element)]

    def totals(self) -> tuple[NewtonPolygon, ...]:
        """Distinct total polygons, in first-appearance order."""
        return tuple(self._by_total)

    def elements_with_total(self, nu: NewtonPolygon) -> tuple[KottwitzElement, ...]:
        return tuple(self.elements[i] for i in self._by_total.get(nu, ()))

    def codim_of_polygon(self, nu: NewtonPolygon) -> int:
        """Smallest length among elements whose total polygon is nu."""
        matches = self.elements_with_total(nu)
        if not matches:
            raise DomainError(f"polygon {nu} does not occur in this Kottwitz set")
        return min(self.length(e) for e in matches)

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover relations as (lower, upper) element indices.

        The poset is ranked by length, so the covers are the comparable
        pairs whose lengths differ by one.
        """
        by_length: dict[int, list[KottwitzElement]] = {}
        for e, n in zip(self.elements, self.lengths):
            by_length.setdefault(n, []).append(e)
        return tuple(sorted(
            (lower.index, upper.index)
            for upper, n in zip(self.elements, self.lengths)
            for lower in by_length.get(n + 1, ())
            if lower.leq(upper)
        ))

    def hasse_dot(self) -> str:
        """Hasse diagram in DOT format, top element drawn at the top."""
        lines = ["digraph kottwitz {", "  rankdir=BT;"]
        for i, e in enumerate(self.elements):
            lines.append(f'  e{i} [label="{e.total} (length {self.lengths[i]})"];')
        for j, i in self.hasse_edges():
            lines.append(f"  e{j} -> e{i};")
        lines.append("}")
        return "\n".join(lines)


def _check_factor_order(factor: tuple[OrbitPolygon, ...]) -> None:
    """The first candidate is the factor's top and the last its bottom.

    The order on the product is componentwise, so this is what makes
    the first element of the Kottwitz set its maximum and the last its
    minimum.
    """
    top, bottom = factor[0], factor[-1]
    if not all(c.lies_on_or_above(top) for c in factor):
        raise DomainError("top must be maximum")
    if not all(bottom.lies_on_or_above(c) for c in factor):
        raise DomainError("bottom must be minimum")


def kottwitz_set(
    datum: MonodromyDatum, p: int, cap: int | None = DEFAULT_ENUM_CAP
) -> KottwitzSet:
    return KottwitzSet(signature(datum), p, cap)


def omega_count(nu: NewtonPolygon) -> int:
    """Lattice points (x, y) with 0 <= x, y <= g strictly below the polygon.

    This equals the codimension of the stratum of nu inside the moduli
    space of g-dimensional principally polarized abelian varieties.
    """
    return _lattice_count(nu, nu.genus + 1)


def _lattice_count(poly: NewtonPolygon | OrbitPolygon, stop: int) -> int:
    """Sum of ceil(poly(x)) over x = 0..stop-1."""
    return sum(math.ceil(poly.value_at(x)) for x in range(stop))


def dim_moduli(g: int) -> int:
    """Dimension of the moduli space of smooth genus-g curves."""
    if g >= 2:
        return 3 * g - 3
    return 1 if g == 1 else 0


@dataclass(frozen=True)
class ConditionUReport:
    """Comparison of dim M_g against the ambient stratum codimension."""

    genus: int
    dim_mg: int
    codim_ag: int
    holds: bool

    def to_json_obj(self) -> dict:
        return {
            "genus": self.genus,
            "dim_mg": self.dim_mg,
            "codim_ag": self.codim_ag,
            "holds": self.holds,
        }


def condition_u(nu: NewtonPolygon) -> ConditionUReport:
    """Is a curve with this polygon an unlikely intersection candidate?

    Holds when dim M_g is strictly smaller than the codimension of the
    polygon's stratum in the ambient moduli of abelian varieties, so
    that a dimension count alone would predict an empty intersection.
    """
    g = nu.genus
    dim_mg = dim_moduli(g)
    codim_ag = omega_count(nu)
    return ConditionUReport(g, dim_mg, codim_ag, dim_mg < codim_ag)


def _require_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise DomainError(f"{name} = {value} must be positive")


def threshold_half_slope_density(g: int, t) -> bool:
    """Sufficient bound for condition (U) from the density of slope 1/2.

    For a symmetric polygon of genus g whose slope-1/2 multiplicity is
    at least 2*t*g, condition (U) holds once g >= 12/t^2; this evaluates
    that bound exactly as g*t^2 >= 12.  One-directional only.
    """
    t = Fraction(t)
    _require_positive(g=g, t=t)
    if t > 1:
        raise DomainError(f"t = {t} must lie in (0, 1]")
    return g * t * t >= 12

def threshold_repeated_summand(n: int, g: int, delta: int, h: int) -> bool:
    """Sufficient bound for condition (U) on nu1^n amalgamated with nu2.

    Here nu1 is symmetric of genus g >= 1 carrying slope 1/2 with
    multiplicity 2*delta > 0, and nu2 is symmetric of genus h.  The
    bound n >= max(15g/delta^2, 9*sqrt(h)/delta) is evaluated in the
    square-root-free form n*delta^2 >= 15g and n^2*delta^2 >= 81h.
    One-directional only.
    """
    _require_positive(n=n, g=g, delta=delta, h=h)
    return n * delta * delta >= 15 * g and n * n * delta * delta >= 81 * h


def threshold_ss_chain(n: int, h: int) -> bool:
    """Sufficient bound for condition (U) on ss^(hn) + ord^(2h(n-1)).

    This is the polygon of the n-step chain built from a three-branch-
    point base of genus h; the bound is n >= 34/h, evaluated as
    n*h >= 34.  One-directional only.
    """
    _require_positive(n=n, h=h)
    return n * h >= 34
