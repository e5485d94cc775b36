"""Kottwitz sets, stratum codimensions, and unlikely-intersection checks.

The Newton polygons that occur for a fixed datum and residue class form
a finite poset B.  It factors over orbit-pair representatives: each
factor is the set of convex lattice paths on the orbit's normalized
scale that lie on or above the mu-ordinary orbit polygon, and B is the
Cartesian product of the factors under the componentwise order.  The
mu-ordinary element is the unique top; the straight-segment choice in
every factor is the unique bottom (the basic element).

An element is an index into that product, decoded into its tuple of
per-factor candidates only on demand, and all structure of the set
comes from the small factors.  Each factor comes from one pass of a
lattice path search whose bounds are integer floor divisions: it gives
each candidate as its (rise, width) int pairs, sorted by an exact int
key per segment, with its chain length summed one segment at a time as
the path is walked.  No grid and no polygon is built per candidate.  A
factor depends only on its orbit's shape, so the factors of recently
seen shapes are kept, within a fixed bound, as those pairs: a candidate
is built as a polygon when an element is first read, and totals,
codimensions and counts build none.  The strata come from flat
per-element columns: each element's length is the sum of its
candidates', and so is its code, an int with one digit per slope of the
candidates' lambda-scaled int triples (duals included), given out in
slope order and wide enough for the height 2g of every total.  One pass
in index order groups the elements by code, each distinct total
(a stratum of the family) is decoded once into its int triples, which
key its row, and the covers of the set are the factors' covers lifted
by index arithmetic.

The second half of the module measures how special a polygon is inside
the full Siegel moduli space: the stratum codimension as a lattice
point count, the comparison against dim M_g (condition (U)), and three
closed-form sufficient bounds for that comparison.
"""

import collections
import functools
import itertools
import math

from ._memo import WeighedMemo
from ._record import Record
from .errors import DomainError, EnumerationCapError
from .monodromy import MonodromyDatum, Signature, signature
from .muord import OrbitPolygon, _lambda_triples, _orbit_table, mu_ordinary_orbit
from .orbits import Orbit, decompose
from .polygon import _UNREADABLE, NewtonPolygon, _fraction, _int, _slope_order

__all__ = [
    "DEFAULT_ENUM_CAP",
    "enumerate_orbit_component",
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

# The most elements a Hasse diagram is drawn for.  Its DOT text has a
# line per element and per cover, so it grows with the set where the
# cap bounds only the work of building it.  On a 2-core Xeon host, a
# set of 960,000 elements builds in 0.2 s, but drawing it took 10 s and
# 1.9 GiB; one of 10,000 draws 65,003 lines in 0.1 s.
MAX_DOT_ELEMENTS = 10_000


def _check_cap(cap: int) -> None:
    # No factor is empty, so a cap below 1 never passes; a non-int such as
    # None would leave the enumeration unbounded, and True would read as 1.
    if _int(cap, "the cap must be at least 1", EnumerationCapError) < 1:
        raise EnumerationCapError(f"the cap must be at least 1, not {cap}")


def enumerate_orbit_component(
    orbit: Orbit, f: Signature, cap: int = DEFAULT_ENUM_CAP
) -> tuple[OrbitPolygon, ...]:
    """All admissible normalized polygons of one orbit, lowest first.

    Admissible means: a convex path from (0, 0) to (g(o), sum of f over
    o) with strictly increasing slopes in [0, |o|], every vertex on the
    integer lattice, lying on or above the mu-ordinary orbit polygon,
    and (for self-dual orbits) symmetric under slope -> |o| - slope.
    The cap counts the candidates.  The polygons are built from the
    (rise, width) pairs of `_search`.
    """
    _check_cap(cap)
    return tuple(OrbitPolygon._of_pairs(orbit, pairs) for pairs, _ in _search(orbit, f, cap))


def _search(
    orbit: Orbit, f: Signature, cap: int
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """The candidates of one orbit as (rise, width) pairs, lowest first,
    each with its chain length up to the first, the mu-ordinary top.

    Vertex enumeration is exhaustive: between vertices the path is
    linear and the mu-ordinary polygon convex, so their difference is
    concave and endpoint checks imply pointwise domination.  The search
    is integer arithmetic: the last slope is carried as its rise over
    its width, and each condition on the next vertex (x2, y2) is a bound
    on y2.  The bounds are exact, so every vertex tried lies on some
    path found: the straight segment on to (G, D) completes it.  On a
    self-dual orbit, mu and each candidate p satisfy p(G - x) =
    D - |o|x + p(x), so only the part below slope |o|/2 is searched: the
    slope-|o|/2 middle segment and its mirror image close it.

    The chain length is a lattice count (Chai, "Newton polygons as
    lattice points", Amer. J. Math. 122, 2000): the sum of
    ceil(c(x)) - ceil(top(x)) over x = 0..G, or over x = 0..G // 2 on a
    self-dual orbit, whose polygons are symmetric.  The factor is ranked
    by it (Hamacher, Duke Math. J. 164, 2015), the same count
    `omega_count` takes for the Siegel case.  The search adds each
    segment's share of the sum as it walks the path, the middle one up
    to G // 2 included.

    Two candidates part at their first unequal segment, and the one of
    lesser slope there, or of equal slope and greater width, lies lower
    just past it: lowest first is lexicographic on (slope, -width).
    Widths are at most G, so unequal slopes differ by at least 1/G^2,
    and (rise * G^2 // width, -width) is an exact int key.
    """
    mu = mu_ordinary_orbit(orbit, f)
    top = mu._pairs
    size, self_dual, found = orbit.size, orbit.is_self_dual, []
    lowest_y = [0]  # the least int on or above mu at x = 0..G
    for r, w in top:
        y = lowest_y[-1]
        lowest_y += [y - (-r * k // w) for k in range(1, w + 1)]
    big_g, big_d = len(lowest_y) - 1, lowest_y[-1]
    end = big_g // 2 if self_dual else big_g

    def rec(x: int, y: int, rise: int, run: int, segs: tuple, count: int) -> None:
        if self_dual or x == big_g:
            if len(found) == cap:
                raise EnumerationCapError(
                    f"more than {cap} candidates on orbit {orbit}; raise the cap"
                )
            if not self_dual:
                found.append((segs, count))
            else:  # |o| is odd only on the orbit {m/2}, where G is even
                mid = big_g - 2 * x
                middle = ((size * mid // 2, mid),) if mid else ()
                mirror = tuple((size * w - r, w) for r, w in reversed(segs))
                # The middle's slope is |o|/2; it counts on to x = G // 2.
                found.append((segs + middle + mirror, count + _ceil_sum(mid // 2, 2, size, 2 * y)))
        left = big_g - x
        for x2 in range(x + 1, end + 1):
            width, rest_w = x2 - x, big_g - x2
            # Steeper than the last slope rise/run (run = 0 before the
            # first segment) and on or above mu.  At x2 = G this leaves
            # y2 = D alone.
            lo = max(y + rise * width // run + 1 if run else y, lowest_y[x2])
            # Before G, less steep than the chord on to (G, D), so that
            # steeper slopes can follow: (y2 - y) * rest_w < (D - y2) * width.
            # The slopes of mu are at most |o|, so no slope of a path on or
            # above it that meets these bounds exceeds |o|.
            if self_dual:  # a half stays below slope |o|/2
                hi = y + (size * width - 1) // 2
            else:
                hi = (big_d * width + y * rest_w - 1) // left if rest_w else big_d
            for y2 in range(lo, hi + 1):
                r = y2 - y
                rec(x2, y2, r, width, segs + ((r, width),),
                    count + _ceil_sum(width, width, r, y * width))

    try:
        rec(0, 0, 0, 0, (), 0)
    finally:
        # rec refers to itself through its closure cell; deleting the name
        # breaks that cycle, so what it holds is freed at once instead of
        # waiting for the cycle collector.
        del rec
    g2 = big_g * big_g
    found.sort(key=lambda c: [(r * g2 // w, -w) for r, w in c[0]])
    if not found or (found[0][0], orbit) != (top, mu.orbit):
        raise DomainError("mu-ordinary polygon must be the lowest candidate")
    base = found[0][1]
    candidates = tuple((segs, count - base) for segs, count in found)
    if any(n < 1 for _, n in candidates[1:]):
        raise DomainError("every candidate must lie above the factor top")
    return candidates


class KottwitzSet:
    """The full poset of Newton polygons for one signature and residue class.

    An element is one candidate per factor, named by its index in the
    product of the per-factor orders (lowest polygon first, first factor
    outermost, last factor varying fastest), so index 0 is the top of
    the poset and the last index its bottom.  Iteration yields the
    elements' candidate tuples in that order, and ``ks[i]`` decodes one
    index.  The length of an element is the longest strictly increasing
    chain from it up to the top; in a product poset that is the sum of
    the per-factor lengths (the lattice counts of `_search`), kept in
    ``lengths``; ``len(ks)`` is the product of the factor sizes.

    No polygon is kept per element.  The strata come from flat
    per-element columns, built when first read: each element's length,
    and each element's code, are the sums of its candidates' over the
    product, in index order.  A code is an int: the i-th smallest slope
    of the candidates' lambda-scaled int triples (duals included; no
    polygon is built per candidate) is given the i-th digit, wide enough
    for the height 2g of every total, so adding two codes amalgamates
    their polygons.  One pass over the codes in index order groups the
    indices by code, so every row comes out ascending and the totals
    keep their order of first appearance.  Each distinct total is
    decoded once into its int triples, which key its row, and its
    polygon is built once; `totals` hands out those polygons, and a
    polygon finds its row by its triples.  The set keeps each candidate
    as its (rise, width) pairs and builds the candidates, as
    ``factors``, when an element is first read.  The cap bounds the
    running product of the factor sizes, checked before the next factor
    is enumerated; the constructor does only that search, so a set that
    `hasse_edges` refuses groups nothing.
    """

    def __init__(self, f: Signature, p: int, cap: int = DEFAULT_ENUM_CAP):
        self.m = f.m
        self.p_class = decompose(f.m, p).p_class
        self.signature = f
        tops = _orbit_table(f, self.p_class)
        self.reps = tuple(tops)
        factors, factor_lengths, pieces = [], [], []
        count = 1
        for rep, top in tops.items():
            factor, steps, triples = _factor(rep, f, top, cap)
            factors.append(factor)
            factor_lengths.append(steps)
            pieces.append(triples)
            count *= len(factor)
            if count > cap:
                sizes = " x ".join(str(len(c)) for c in factors)
                raise EnumerationCapError(
                    f"Kottwitz set would have more than {cap} elements: the first "
                    f"{len(factors)} of {len(self.reps)} factors have sizes "
                    f"{sizes} = {count}; raise the cap"
                )
        self._size = count
        self._factor_pairs = tuple(factors)
        self._factor_lengths = tuple(factor_lengths)
        self._pieces = tuple(pieces)

    @functools.cached_property
    def _rows(self) -> dict[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """Each distinct total's int triples mapped to its indices, built when first read."""
        pieces = self._pieces
        distinct = {(num, den) for factor in pieces for piece in factor for num, den, _ in piece}
        slopes = sorted(distinct, key=_slope_order(distinct))
        # Digit i, of `bits` bits, holds the multiplicity of slopes[i].
        # Every total has the family's height 2g, so codes add without carry.
        height = 2 * self.signature.total
        bits = height.bit_length()
        digit = {slope: i * bits for i, slope in enumerate(slopes)}
        codes = [
            [sum(mult << digit[num, den] for num, den, mult in piece) for piece in factor]
            for factor in pieces
        ]
        by_code = collections.defaultdict(list)
        for i, code in enumerate(_element_sums(codes)):
            by_code[code].append(i)
        return _decode_totals(by_code, slopes, bits, height)

    @functools.cached_property
    def _totals(self) -> tuple[NewtonPolygon, ...]:
        return tuple(NewtonPolygon._trusted(triples) for triples in self._rows)

    @functools.cached_property
    def lengths(self) -> tuple[int, ...]:
        """Each element's length, the sum of its candidates', built when first read."""
        return tuple(_element_sums(self._factor_lengths))

    @functools.cached_property
    def factors(self) -> tuple[tuple[OrbitPolygon, ...], ...]:
        """Each factor's candidates, lowest first, built from their pairs when first read."""
        return tuple(
            tuple(OrbitPolygon._of_pairs(rep, pairs) for pairs in factor)
            for rep, factor in zip(self.reps, self._factor_pairs)
        )

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return itertools.product(*self.factors)

    def _checked(self, i: int) -> int:
        if not 0 <= i < self._size:
            raise DomainError(f"index {i} is not in this Kottwitz set of {len(self)} elements")
        return i

    def __getitem__(self, i: int) -> tuple[OrbitPolygon, ...]:
        """The element at index i, decoded in mixed radix over the factors."""
        i = self._checked(i)
        comps = []
        for factor in reversed(self.factors):
            i, r = divmod(i, len(factor))
            comps.append(factor[r])
        return tuple(reversed(comps))

    def length(self, i: int) -> int:
        return self.lengths[self._checked(i)]

    def totals(self) -> tuple[NewtonPolygon, ...]:
        """Distinct total polygons, in first-appearance order."""
        return self._totals

    def elements_with_total(self, nu: NewtonPolygon) -> tuple[int, ...]:
        """Indices of the elements whose total polygon is nu, ascending."""
        if not isinstance(nu, NewtonPolygon):
            return ()
        return self._rows.get(nu._triples, ())

    def codim_of_polygon(self, nu: NewtonPolygon) -> int:
        """Smallest length among elements whose total polygon is nu."""
        matches = self.elements_with_total(nu)
        if not matches:
            raise DomainError(f"polygon {nu} does not occur in this Kottwitz set")
        return self.length(min(matches, key=self.lengths.__getitem__))

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover relations as (lower, upper) element indices.

        A cover in a product of ranked posets moves one coordinate by
        one cover of its factor and keeps the rest equal.  A factor's
        covers are its comparable pairs one length apart (comparable
        means the lower lies on or above the upper); each lifts to every
        element whose digit there is the upper candidate, the digit's
        place value being the product of the later factors' sizes.  A set
        above MAX_DOT_ELEMENTS is refused.
        """
        if len(self) > MAX_DOT_ELEMENTS:
            raise DomainError(
                f"a Hasse diagram of {len(self)} elements is above"
                f" MAX_DOT_ELEMENTS = {MAX_DOT_ELEMENTS}"
            )
        edges = []
        place = len(self)
        for factor, steps in zip(self._factor_pairs, self._factor_lengths):
            place //= len(factor)
            for up, lo in itertools.product(range(len(factor)), repeat=2):
                if steps[lo] == steps[up] + 1 and _lies_on_or_above(factor[lo], factor[up]):
                    shift = (lo - up) * place
                    for start in range(up * place, len(self), len(factor) * place):
                        edges.extend((i + shift, i) for i in range(start, start + place))
        return tuple(sorted(edges))

    def hasse_dot(self) -> str:
        """Hasse diagram in DOT format, top element drawn at the top."""
        edges = self.hasse_edges()  # first, so a set too large is refused at once
        labels = {}
        for total, indices in zip(self.totals(), self._rows.values()):
            labels.update(dict.fromkeys(indices, str(total)))
        lines = ["digraph kottwitz {", "  rankdir=BT;"]
        for i, n in enumerate(self.lengths):
            lines.append(f'  e{i} [label="{labels[i]} (length {n})"];')
        for j, i in edges:
            lines.append(f"  e{j} -> e{i};")
        lines.append("}")
        return "\n".join(lines)


def _element_sums(columns) -> list[int]:
    """Each element's sum of its candidates' values, in index order.

    ``columns`` holds one value per candidate of each factor; the first
    factor is outermost and the last varies fastest.
    """
    sums = [0]
    for values in reversed(columns):
        sums = [v + n for v in values for n in sums]
    return sums


def _decode_totals(
    by_code: dict[int, list[int]],
    slopes: list[tuple[int, int]],
    bits: int,
    height: int,
) -> dict[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """Each distinct total's (num, den, mult) triples, as a polygon holds
    them, mapped to its indices as grouped.

    The dict follows the order of ``by_code``, whose rows are ascending.
    ``slopes`` lists each slope as its reduced (num, den) pair, by
    increasing slope, and digit i, the ``bits`` bits from bit i * bits
    up, holds the multiplicity of ``slopes[i]``; the code is read by
    shifting it down one digit at a time.  A digit that overflowed would
    carry into the next one or out of the last and lose height, so every
    total must have the set's height.
    """
    mask = (1 << bits) - 1
    rows = {}
    for code, indices in by_code.items():
        triples = []
        decoded = 0
        for num, den in slopes:
            k = code & mask
            code >>= bits
            if k:
                triples.append((num, den, k))
                decoded += k
        if decoded != height:
            raise DomainError(f"a total decoded to height {decoded}, not {height}")
        rows[tuple(triples)] = tuple(indices)
    return rows


# The factors of the sets a report or a chain builds repeat: a factor
# depends only on its mu-ordinary orbit polygon, |o|, self-duality and
# the cap (the 111 seed-7 operations of the kottwitz-totals benchmark
# build 595 factors of 65 such shapes).  So each shape's candidates, as
# (rise, width) pairs, their chain lengths and lambda-scaled triples are
# kept, without any Orbit, Signature or polygon, least recently used
# shape evicted first, and a set reads a kept shape as it is.  On a
# 2-core Xeon host, building the factor of the 869 candidates of the
# orbit of 1 in 23:10:1,1,1,1,1,1,1,1,1,14 at class 5 takes 7 ms, half
# of it the search.
# Bounded: at most MAX_MEMO_CANDIDATES candidates held in all, a larger
# factor built every time.  A kept candidate takes 110 to 550 bytes
# (tracemalloc, CPython 3.11: what dropping each of the 65 shapes those
# 111 operations keep frees, over its candidates), so the memo holds at
# most about 1.1 MiB; those operations leave 1,383 candidates, 0.33 MiB.
MAX_MEMO_CANDIDATES = 2048
_FACTORS = WeighedMemo("npcc.strata._FACTORS", MAX_MEMO_CANDIDATES)


def _factor(
    rep: Orbit, f: Signature, top: tuple[tuple[int, int], ...], cap: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...], tuple[tuple, ...]]:
    """One factor of a Kottwitz set: its candidates' pairs, chain lengths and triples.

    top holds the (rise, width) pairs of the mu-ordinary orbit polygon of
    ``rep`` under f, the factor's top.  Each candidate is given as its
    (rise, width) pairs, and its triples are the `muord._lambda_triples`
    of those.  All three read only the pairs, |o| and self-duality, so a
    shape seen before gives its entry as it was kept.
    """
    _check_cap(cap)  # before the key is hashed
    key = (top, rep.size, rep.is_self_dual, cap)
    entry = _FACTORS.get(key)
    if entry is None:
        found = _search(rep, f, cap)
        pairs = tuple(c for c, _ in found)
        _check_factor_order(pairs)
        same: dict = {}  # equal triples of the factor's candidates, held once
        triples = (tuple(same.setdefault(t, t) for t in _lambda_triples(rep, c)) for c in pairs)
        entry = pairs, tuple(n for _, n in found), tuple(triples)
        _FACTORS.put(key, entry, len(pairs))
    return entry


def _check_factor_order(factor: tuple[tuple[tuple[int, int], ...], ...]) -> None:
    """The first candidate is the factor's top and the last its bottom.

    The order on the product is componentwise, so this is what makes
    the first element of the Kottwitz set its maximum and the last its
    minimum.  Each candidate is given as its (rise, width) pairs.
    """
    top, bottom = factor[0], factor[-1]
    if not all(_lies_on_or_above(c, top) for c in factor):
        raise DomainError("top must be maximum")
    if not all(_lies_on_or_above(bottom, c) for c in factor):
        raise DomainError("bottom must be minimum")


def _lies_on_or_above(upper: tuple[tuple[int, int], ...], lower: tuple[tuple[int, int], ...]) -> bool:
    """Does the path of (rise, width) pairs ``upper`` lie on or above ``lower``?

    Both run from (0, 0) to one end and are linear between their
    vertices, so they are compared at the union of their vertices: each
    vertex of ``lower`` inside a segment of ``upper`` against that
    segment, and each vertex of ``upper`` against the segment of
    ``lower`` it ends in, cross-multiplied by the segment's width.
    """
    rest = iter(lower)
    lx = ly = ux = uy = 0
    lr, lw = next(rest, (0, 1))
    for ur, uw in upper:
        end = ux + uw
        while lx + lw < end:
            lx, ly = lx + lw, ly + lr
            if uy * uw + ur * (lx - ux) < ly * uw:
                return False
            lr, lw = next(rest)
        ux, uy = end, uy + ur
        if ly * lw + lr * (ux - lx) > uy * lw:
            return False
    return True


def kottwitz_set(
    datum: MonodromyDatum, p: int, cap: int = DEFAULT_ENUM_CAP
) -> KottwitzSet:
    return KottwitzSet(signature(datum), p, cap)


def omega_count(nu: NewtonPolygon) -> int:
    """Lattice points (x, y) with 0 <= x, y <= g strictly below the polygon.

    This equals the codimension of the stratum of nu inside the moduli
    space of g-dimensional principally polarized abelian varieties.
    """
    return _lattice_count(nu, nu.genus + 1)


def _lattice_count(poly: NewtonPolygon, stop: int) -> int:
    """Sum of ceil(poly(x)) over x = 0..stop-1, for stop <= height + 1.

    The polygon is 0 at x = 0.  Heights are counted in units of 1/L,
    L the lcm of the slopes' denominators, so each segment's share is
    one `_ceil_sum`.
    """
    scale = math.lcm(*(den for _, den, _ in poly._triples))
    total = run = y = 0
    for num, den, width in poly._triples:
        n = min(width, stop - 1 - run)
        if n <= 0:
            break
        a = num * (scale // den)
        total += _ceil_sum(n, scale, a, y)
        run += width
        y += a * width
    return total


def _ceil_sum(n: int, scale: int, a: int, y: int) -> int:
    """Sum of ceil((y + a*k) / scale) over k = 1..n, for n, a, y >= 0: the
    lattice count of n steps of slope a/scale from height y/scale.

    ceil((y + a*k) / scale) = floor((a*k + y + scale - 1) / scale), and
    k = 1..n is i = 0..n-1 shifted, so it is one floor sum.
    """
    return _floor_sum(n, scale, a, a + y + scale - 1)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over i = 0..n-1, for n, a, b >= 0 and m > 0.

    Euclid-like reduction in O(log m) steps: Graham, Knuth and
    Patashnik, *Concrete Mathematics*, section 3.5.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def dim_moduli(g: int) -> int:
    """Dimension of the moduli space of smooth genus-g curves."""
    if g >= 2:
        return 3 * g - 3
    return 1 if g == 1 else 0


class ConditionUReport(Record):
    """Comparison of dim M_g against the ambient stratum codimension."""

    __slots__ = _fields = ("genus", "dim_mg", "codim_ag", "holds")

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
    try:
        t = _fraction(t)
    except _UNREADABLE:
        raise DomainError(f"t = {t!r} is not a rational number") from None
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
    point base of genus h when each joint adds ord^(2h).  An auto-padded
    joint adds ord^(r-1), r the gcd of the padded entry with m, so the
    form needs r - 1 = 2h, which holds for prime m; on 4:3:1,1,2 (h = 1,
    r = 4) 34 steps give ord^99+ss^34, where (U) fails.  The bound is
    n >= 34/h, evaluated as n*h >= 34.  One-directional only.
    """
    _require_positive(n=n, h=h)
    return n * h >= 34
