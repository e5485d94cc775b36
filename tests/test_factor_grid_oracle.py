"""A Kottwitz factor from its pairs against the grid path it replaced.

The factor path used to build every candidate as an `OrbitPolygon`
with an int grid of G + 1 values, scaled by the lcm of its slopes'
denominators, which sorted the factor, checked its order and gave each
chain length as a per-x lattice count.  The search now does all three
from the (rise, width) pairs: an exact int key per segment, a
comparison at the union of two candidates' vertices, and one floor sum
per segment as the path is walked.  Orbit polygons keep no grid now, so
the grid path is kept here as the oracle, each grid built from a
candidate's pairs.  On seeded
factors, and on orbits {m/2}, whose self-dual middle segment has slope
1/2 and is counted only up to half the height, it must give the same
order, the same chain lengths and the same order-check verdicts.
"""

import math
import random

import pytest
from test_kottwitz_oracle import chain_lengths

import npcc.strata as strata
from npcc import (
    DomainError,
    EnumerationCapError,
    MonodromyDatum,
    OrbitPolygon,
    decompose,
    signature,
)
from npcc.muord import _mu_pairs
from npcc.polygon import _lies_on_or_above

CAP = 300


def search(orbit, f):
    """The factor of orbit under f, as `_search` gives it, capped at CAP."""
    return strata._search(orbit, _mu_pairs(orbit, f), CAP)


def grid(q) -> tuple[list[int], int]:
    """q's values at x = 0..G as ints, and their scale: the lcm of its
    slopes' denominators, read from its (rise, width) pairs."""
    scale = math.lcm(*(w // math.gcd(r, w) for r, w in q._pairs))
    values = [0]
    for r, w in q._pairs:
        values += [values[-1] + r * scale // w * k for k in range(1, w + 1)]
    return values, scale


def grid_lies_on_or_above(a, b) -> bool:
    """a's grid on or above b's at every x, the scales cross-multiplied."""
    (u, s), (v, t) = grid(a), grid(b)
    return all(x * t >= y * s for x, y in zip(u, v))


def grid_sorted(orbit, candidates) -> list[OrbitPolygon]:
    """The candidates as polygons, lowest first by their grids on one scale."""
    polys = [OrbitPolygon._of_pairs(orbit, pairs) for pairs in candidates]
    grids = {q: grid(q) for q in polys}
    scale = math.lcm(*(s for _, s in grids.values()))

    def key(q):
        values, s = grids[q]
        return tuple(v * (scale // s) for v in values)

    return sorted(polys, key=key)


def grid_chain_lengths(factor) -> tuple[int, ...]:
    """Each candidate's lattice count less the top's, summed over its grid."""
    top = factor[0]
    stop = (top.height // 2 if top.orbit.is_self_dual else top.height) + 1

    def count(q):
        values, scale = grid(q)
        return sum(-(-v // scale) for v in values[:stop])

    return tuple(count(q) - count(top) for q in factor)


def grid_order_verdict(factor) -> str | None:
    """The order check on polygons, comparing their grids."""
    top, bottom = factor[0], factor[-1]
    if not all(grid_lies_on_or_above(q, top) for q in factor):
        return "top must be maximum"
    if not all(grid_lies_on_or_above(bottom, q) for q in factor):
        return "bottom must be minimum"
    return None


def order_verdict(candidates) -> str | None:
    try:
        strata._check_factor_order(tuple(candidates))
    except DomainError as exc:
        return str(exc)
    return None


def _half_orbits() -> list:
    """The orbit {m/2} of hyperelliptic and other even-modulus data, with
    the signatures that give it several candidates."""
    cases = []
    for text, c in [("2:8:1,1,1,1,1,1,1,1", 1), ("2:12:1,1,1,1,1,1,1,1,1,1,1,1", 3),
                    ("6:5:3,3,3,1,2", 5), ("4:7:2,2,2,1,1,1,3", 1),
                    ("6:9:3,3,3,3,3,3,3,1,2", 1), ("10:8:5,5,5,5,5,5,1,9", 3)]:
        datum = MonodromyDatum.from_text(text)
        cases.append((decompose(datum.m, c).orbit_of(datum.m // 2), signature(datum)))
    return cases


def _factors(seed: int, count: int) -> list:
    """Distinct (orbit, signature) pairs from seeded data with m <= 30
    whose factors have 2 to CAP candidates, then the orbits {m/2}."""
    rng = random.Random(seed)
    cases: dict = {}
    while len(cases) < count:
        m = rng.randint(3, 30)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 7))]
        a.append(-sum(a) % m)
        if a[-1] == 0 or math.gcd(m, *a) != 1:
            continue
        f = signature(MonodromyDatum(m, tuple(a)))
        p = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
        for orbit in decompose(m, p).representatives():
            try:
                found = search(orbit, f)
            except EnumerationCapError:
                continue
            if len(found) > 1:
                cases[orbit, f] = found
    for orbit, f in _half_orbits():
        cases[orbit, f] = search(orbit, f)
    return [(orbit, f, found) for (orbit, f), found in cases.items()]


@pytest.fixture(scope="module")
def factors():
    return _factors(20261021, 200)


def test_the_search_orders_and_counts_as_the_grids_did(factors):
    rng = random.Random(1)
    kinds = set()
    for orbit, f, found in factors:
        candidates = [pairs for pairs, _ in found]
        shuffled = rng.sample(candidates, len(candidates))
        factor = grid_sorted(orbit, shuffled)
        assert [q._pairs for q in factor] == candidates, (orbit, f)
        lengths = tuple(n for _, n in found)
        assert lengths == grid_chain_lengths(factor), (orbit, f)
        if len(factor) <= 120:  # the longest-chain search is quadratic
            assert lengths == tuple(chain_lengths(factor)), (orbit, f)
        kinds.add((orbit.is_self_dual, len({grid(q)[1] for q in factor}) > 1))
    # Self-dual and other orbits with grids on several scales, and
    # self-dual ones on one.
    assert {(True, True), (True, False), (False, True)} <= kinds


def test_the_order_check_gives_the_grid_verdicts(factors):
    rng = random.Random(2)
    verdicts = set()
    for orbit, _, found in factors:
        candidates = [pairs for pairs, _ in found]
        orders = [candidates, candidates[::-1], candidates[1::-1] + candidates[2:],
                  candidates[:-2] + candidates[:-3:-1]]
        orders += [rng.sample(candidates, len(candidates)) for _ in range(3)]
        for order in orders:
            verdict = order_verdict(order)
            assert verdict == grid_order_verdict([OrbitPolygon._of_pairs(orbit, c) for c in order])
            verdicts.add(verdict)
    assert verdicts == {None, "top must be maximum", "bottom must be minimum"}


def test_pairs_compare_as_grids_do(factors):
    outcomes = set()
    for orbit, _, found in factors:
        if len(found) > 40:
            continue
        polys = [OrbitPolygon._of_pairs(orbit, pairs) for pairs, _ in found]
        for a in polys:
            for b in polys:
                above = _lies_on_or_above(a._pairs, b._pairs)
                assert above == grid_lies_on_or_above(a, b) == a.lies_on_or_above(b), (a, b)
                outcomes.add(above)
    assert outcomes == {True, False}


def test_the_middle_of_the_orbit_of_m_over_2_counts_to_half_the_height():
    """On {1} mod 2, self-dual of size 1, a candidate closes with a middle
    segment of slope 1/2.  The chain length sums ceilings up to x = G // 2
    only, so that middle segment counts in part: <0x1, 1/2x4, 1x1> adds
    ceil(1/2) and ceil(1) at x = 2 and 3."""
    datum = MonodromyDatum.from_text("2:8:1,1,1,1,1,1,1,1")
    orbit = decompose(2, 1).orbit_of(1)
    assert orbit.size == 1 and orbit.is_self_dual
    found = search(orbit, signature(datum))
    assert found == (
        (((0, 3), (3, 3)), 0),
        (((0, 2), (1, 2), (2, 2)), 1),
        (((0, 1), (2, 4), (1, 1)), 2),
        (((1, 3), (2, 3)), 3),
        (((3, 6),), 4),
    )
    middles = 0
    for orbit, f in _half_orbits():
        found = search(orbit, f)
        factor = grid_sorted(orbit, [pairs for pairs, _ in found])
        assert tuple(n for _, n in found) == grid_chain_lengths(factor) == tuple(chain_lengths(factor))
        middles += sum(2 * r == w for pairs, _ in found for r, w in pairs)
    assert middles > 15
