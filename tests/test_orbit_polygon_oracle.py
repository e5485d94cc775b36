"""The integer orbit polygon against the Fraction one it replaced.

`OrbitPolygon` keeps (rise, width) int pairs and an int grid scaled by
the lcm of its slopes' denominators, and compares slopes and scaled
grids by cross-multiplying.  The oracle below is the Fraction-slope
class it replaced, trimmed: every slope a Fraction, every grid value a
running Fraction sum.  They are compared on seeded polygons, with
non-integral slopes of several denominators, and on the candidates of
two Kottwitz sets whose factors mix integral and non-integral slopes.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from npcc import (
    EnumerationCapError,
    MonodromyDatum,
    NewtonPolygon,
    Orbit,
    OrbitPolygon,
    PolygonSyntaxError,
    decompose,
    kottwitz_set,
)
from npcc.muord import _lambda_triples
from npcc.polygon import _canonical


class FractionOrbitPolygon:
    """The Fraction-slope orbit polygon, trimmed; the tests' oracle."""

    def __init__(self, orbit, segments):
        segs = tuple((Fraction(s), int(w)) for s, w in segments)
        prev = None
        for s, w in segs:
            if w < 1 or not 0 <= s <= orbit.size or (prev is not None and s <= prev):
                raise PolygonSyntaxError(f"bad segment {s}x{w}")
            if (s * w).denominator != 1:
                raise PolygonSyntaxError(f"segment {s}x{w} has a non-lattice vertex")
            prev = s
        self.orbit, self.segments = orbit, segs
        self.grid = [Fraction(0)]
        for s, w in segs:
            for _ in range(w):
                self.grid.append(self.grid[-1] + s)

    @property
    def height(self):
        return len(self.grid) - 1

    @property
    def degree(self):
        return self.grid[-1]

    def lies_on_or_above(self, other):
        return all(a >= b for a, b in zip(self.grid, other.grid))

    def _dual_segments(self):
        return tuple((self.orbit.size - s, w) for s, w in reversed(self.segments))

    @property
    def is_self_symmetric(self):
        return self.segments == self._dual_segments()

    def lambda_scale(self):
        size = self.orbit.size
        return NewtonPolygon([(s / size, w * size) for s, w in self.segments])

    def piece(self):
        piece = self.lambda_scale()
        m = self.orbit.m
        self_dual = Orbit(m, tuple((m - n) % m for n in self.orbit.members)) == self.orbit
        return piece if self_dual else piece + piece.dual()


def _orbits():
    """Orbits of sizes 1 to 6, self-dual and not."""
    found = {}
    for m, p in ((7, 6), (7, 2), (8, 3), (12, 5), (13, 3), (9, 2), (7, 3), (21, 2)):
        for o in decompose(m, p).orbits:
            found.setdefault((o.size, o.is_self_dual), o)
    return list(found.values())


def _random_segments(rng, size):
    """Increasing slopes in [0, size] with denominators up to 6, each
    width a multiple of its slope's denominator."""
    pool = sorted({Fraction(a, b) for b in range(1, 7) for a in range(size * b + 1)})
    slopes = sorted(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
    return [(s, s.denominator * rng.randint(1, 2)) for s in slopes]


def _seeded_pairs(seed, count):
    """(integer polygon, oracle) pairs on seeded segments."""
    rng = random.Random(seed)
    orbits = _orbits()
    pairs = []
    for _ in range(count):
        o = rng.choice(orbits)
        segs = _random_segments(rng, o.size)
        pairs.append((OrbitPolygon(o, segs), FractionOrbitPolygon(o, segs)))
    return pairs


def _values(q):
    return [Fraction(v, q._scale) for v in q._grid]


def _assert_agrees(q, oracle):
    assert q.segments == oracle.segments
    assert all(type(s) is Fraction for s, _ in q.segments)
    assert (q.height, q.degree) == (oracle.height, oracle.degree)
    assert _values(q) == oracle.grid, q
    assert q.is_self_symmetric == oracle.is_self_symmetric
    assert q.lambda_scale() == oracle.lambda_scale()
    # The unmerged int triples the Kottwitz fold codes, merged, are the piece.
    assert _canonical(_lambda_triples(q.orbit, q._pairs)) == oracle.piece()._triples
    piece = _lambda_triples(q.orbit, q._pairs, dual=False)
    assert _canonical(piece) == oracle.lambda_scale()._triples
    assert q == OrbitPolygon(q.orbit, oracle.segments)
    assert hash(q) == hash(OrbitPolygon(q.orbit, oracle.segments))


def test_seeded_polygons_match_the_fraction_oracle():
    pairs = _seeded_pairs(20261018, 1500)
    for q, oracle in pairs:
        _assert_agrees(q, oracle)
    scales = {q._scale for q, _ in pairs}
    assert {1, 2, 3, 4, 5, 6} <= scales and max(scales) > 6  # lcm of several denominators
    assert sum(q.is_self_symmetric and not q.is_empty for q, _ in pairs) > 10


def test_constructor_refuses_what_the_fraction_oracle_refuses():
    rng = random.Random(20261019)
    orbits = _orbits()
    refused = 0
    for _ in range(3000):
        o = rng.choice(orbits)
        segs = [
            (Fraction(rng.randint(-1, 3 * o.size), rng.randint(1, 3)), rng.randint(0, 4))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            oracle = FractionOrbitPolygon(o, segs)
        except PolygonSyntaxError:
            refused += 1
            with pytest.raises(PolygonSyntaxError):
                OrbitPolygon(o, segs)
            continue
        _assert_agrees(OrbitPolygon(o, segs), oracle)
    assert 500 < refused < 2900


def test_comparison_matches_the_fraction_oracle_both_ways():
    groups = {}
    for q, oracle in _seeded_pairs(20261020, 2500):
        groups.setdefault((q.orbit, q.height, q.degree), []).append((q, oracle))
    outcomes = set()
    for group in groups.values():
        for (a, oa), (b, ob) in itertools.combinations(group[:10], 2):
            assert a.lies_on_or_above(b) == oa.lies_on_or_above(ob), (a, b)
            assert b.lies_on_or_above(a) == ob.lies_on_or_above(oa), (a, b)
            outcomes.add((a._scale == b._scale, a.lies_on_or_above(b)))
    # Both answers occur on equal scales and on scales that differ.
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize(
    "text, p_class, non_integral",
    [("20:6:14,9,19,19,8,11", 3, 15), ("21:7:1,1,1,1,1,1,15", 2, 43)],
)
def test_kottwitz_candidates_match_the_fraction_oracle(text, p_class, non_integral):
    ks = kottwitz_set(MonodromyDatum.from_text(text), p_class)
    assert sum(q._scale > 1 for factor in ks.factors for q in factor) == non_integral
    for factor in ks.factors:
        oracles = [FractionOrbitPolygon(q.orbit, q.segments) for q in factor]
        for q, oracle in zip(factor, oracles):
            _assert_agrees(q, oracle)
        # Lowest first: the candidates come in the order of their values.
        grids = [oracle.grid for oracle in oracles]
        assert grids == sorted(grids) and len(set(map(tuple, grids))) == len(grids)
        for (a, oa), (b, ob) in itertools.combinations(zip(factor, oracles), 2):
            assert a.lies_on_or_above(b) == oa.lies_on_or_above(ob)
            assert b.lies_on_or_above(a) == ob.lies_on_or_above(oa)


def test_candidate_order_matches_the_fraction_oracle_on_seeded_sets():
    rng = random.Random(20261021)
    mixed = 0
    checked = 0
    while checked < 60:
        m = rng.randint(5, 21)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 6))]
        a.append(-sum(a) % m)
        if a[-1] == 0 or math.gcd(m, *a) != 1:
            continue
        p = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
        try:
            ks = kottwitz_set(MonodromyDatum(m, tuple(a)), p, cap=5_000)
        except EnumerationCapError:
            continue
        checked += 1
        for factor in ks.factors:
            grids = [FractionOrbitPolygon(q.orbit, q.segments).grid for q in factor]
            assert grids == sorted(grids)
            mixed += len({q._scale for q in factor}) > 1
    assert mixed > 10

