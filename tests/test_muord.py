"""Tests for orbit polygons and the mu-ordinary Newton polygon."""

import math
import random
import re
from fractions import Fraction

import pytest

from npcc import (
    BadResidueError,
    EndpointMismatchError,
    InconsistentSignatureError,
    MonodromyDatum,
    OrbitPolygon,
    PolygonSyntaxError,
    Signature,
    beta_of_signature,
    decompose,
    induce,
    mu_ordinary,
    mu_ordinary_of_signature,
    mu_ordinary_orbit,
    p_rank_bound,
    parse,
    signature,
)
from npcc.muord import _assemble, _mu_pairs, _orbit_table
from npcc.orbits import g_of_orbit

F = Fraction


def _orbit(m, p, n):
    return decompose(m, p).orbit_of(n)


def _values(poly):
    """Values on the integer grid, read from the scaled int grid."""
    return [F(v, poly._scale) for v in poly._grid]


def test_orbit_polygon_lattice_constraints():
    o = _orbit(8, 3, 1)  # {1,3}, size 2
    OrbitPolygon(o, [(F(1, 2), 2), (F(3, 2), 2)])
    with pytest.raises(PolygonSyntaxError):
        OrbitPolygon(o, [(F(1, 2), 1)])  # vertex off the lattice
    with pytest.raises(PolygonSyntaxError):
        OrbitPolygon(o, [(F(5, 2), 2)])  # slope above the orbit size
    with pytest.raises(PolygonSyntaxError):
        OrbitPolygon(o, [(1, 1), (1, 1)])  # slopes must strictly increase
    with pytest.raises(PolygonSyntaxError):
        OrbitPolygon(o, [(1, 0)])


def test_orbit_polygon_refusals_name_the_slope_in_lowest_terms():
    o = _orbit(8, 3, 1)
    for half in (F(1, 2), 0.5, "2/4"):
        with pytest.raises(PolygonSyntaxError, match=r"^segment 1/2x1 has a non-lattice vertex$"):
            OrbitPolygon(o, [(half, 1)])
    with pytest.raises(PolygonSyntaxError, match=r"^orbit slope 5/2 outside \[0, 2\]$"):
        OrbitPolygon(o, [(F(5, 2), 2)])


@pytest.mark.parametrize("slope", ["x", None, float("nan"), float("inf"), "1/0"])
def test_an_unreadable_orbit_slope_is_a_syntax_error_naming_it(slope):
    with pytest.raises(PolygonSyntaxError, match=re.escape(f"slope {slope!r} ")):
        OrbitPolygon(_orbit(8, 3, 1), [(slope, 1)])


@pytest.mark.parametrize("width", [2.9, 2.0, "2", None, True], ids=repr)
def test_an_orbit_width_that_is_no_int_is_a_syntax_error_naming_it(width):
    message = f"an orbit polygon width must be an int, not {width!r}"
    with pytest.raises(PolygonSyntaxError, match=f"^{re.escape(message)}$"):
        OrbitPolygon(_orbit(8, 3, 1), [(0, width)])


def test_orbit_polygon_segments_are_fractions_however_given():
    o = _orbit(8, 3, 1)
    for three_halves in (F(3, 2), 1.5, "3/2"):
        q = OrbitPolygon(o, [(0, 1), (three_halves, 2)])
        assert q.segments == ((F(0), 1), (F(3, 2), 2))
        assert {type(slope) for slope, _ in q.segments} == {Fraction}


def test_orbit_polygon_geometry():
    o = _orbit(8, 3, 1)
    q = OrbitPolygon(o, [(0, 1), (F(3, 2), 2)])
    assert q.height == 3
    assert q.degree == 3
    assert _values(q) == [0, 0, F(3, 2), 3]
    assert not q.is_empty
    assert OrbitPolygon(o, []).is_empty


def test_orbit_polygon_lambda_scale():
    o = _orbit(8, 3, 1)  # size 2
    q = OrbitPolygon(o, [(F(1, 2), 2), (F(3, 2), 2)])
    assert q.lambda_scale() == parse("(1/4,3/4)")


def test_orbit_polygon_dual_and_symmetry():
    o = _orbit(8, 3, 1)  # {1,3}; dual is {5,7}
    assert o.dual().members == (5, 7)
    q = OrbitPolygon(o, [(0, 1), (1, 1)])  # its dual slopes are 1 and 2
    assert not q.is_self_symmetric
    sym = OrbitPolygon(o, [(F(1, 2), 2), (F(3, 2), 2)])
    assert sym.is_self_symmetric


def test_orbit_polygon_comparison():
    o = _orbit(8, 3, 2)  # {2,6}, size 2
    low = OrbitPolygon(o, [(0, 1), (2, 1)])
    high = OrbitPolygon(o, [(1, 2)])
    assert high.lies_on_or_above(low)
    assert not low.lies_on_or_above(high)
    assert low.lies_on_or_above(low)
    with pytest.raises(EndpointMismatchError):
        low.lies_on_or_above(OrbitPolygon(o, [(1, 1)]))


def test_orbit_polygon_repr_and_equality_with_other_types():
    q = mu_ordinary_orbit(_orbit(5, 4, 1), signature(MonodromyDatum(5, (1, 1, 3))))
    assert repr(q) == "OrbitPolygon(Orbit(m=5, members=(1, 4)), [(Fraction(1, 1), 1)])"
    assert q.__eq__("x") is NotImplemented
    assert not q == "x" and q != "x"


def test_mu_ordinary_orbit_recipe():
    # f = (1,1,0,0,2,0,1) mod 8; orbit {1,3} at p = 3 has values (1,0)
    # and g(o) = f(1) + f(7) = 2, so the level cuts give slopes 0 then 1
    f = signature(MonodromyDatum(8, (4, 2, 5, 5)))
    o = _orbit(8, 3, 1)
    q = mu_ordinary_orbit(o, f)
    assert q.segments == ((F(0), 1), (F(1), 1))
    from npcc import NewtonPolygon

    assert q.lambda_scale() == NewtonPolygon([(0, 2), (F(1, 2), 2)])
    # orbit {4} has f(4) = 0 twice, so no polygon at all
    o4 = _orbit(8, 3, 4)
    assert mu_ordinary_orbit(o4, f).is_empty


def test_mu_ordinary_known_polygons():
    # genus-1 cover: supersingular exactly when p = 3 mod 4
    e = MonodromyDatum(4, (1, 1, 2))
    assert mu_ordinary(e, 3) == parse("ss")
    assert mu_ordinary(e, 5) == parse("ord")
    # a genus-6 family with third slopes
    assert mu_ordinary(MonodromyDatum(7, (2, 4, 4, 4)), 3) == parse("(1/3,2/3)^2")
    # the worked clutching target
    assert mu_ordinary(MonodromyDatum(8, (4, 2, 5, 5)), 7) == parse("ord^2+ss^3")
    assert mu_ordinary(MonodromyDatum(8, (2, 2, 2, 5, 5)), 7) == parse("ord^4+ss^5")
    # a five-point family of genus 6
    assert mu_ordinary(MonodromyDatum(5, (2, 2, 2, 2, 2)), 4) == parse("ss^4+ord^2")


def test_mu_ordinary_depends_only_on_residue():
    d = MonodromyDatum(7, (2, 4, 4, 4))
    assert mu_ordinary(d, 3) == mu_ordinary(d, 17)  # 17 = 3 mod 7
    assert mu_ordinary(d, 10) == mu_ordinary(d, 3)


def test_mu_ordinary_is_symmetric_of_right_genus():
    from npcc import genus

    for d, p in [
        (MonodromyDatum(9, (3, 5, 5, 5)), 2),
        (MonodromyDatum(12, (4, 6, 7, 7)), 5),
        (MonodromyDatum(6, (1, 3, 4, 4)), 5),
    ]:
        u = mu_ordinary(d, p)
        assert u.is_symmetric
        assert u.genus == genus(d)


def test_mu_ordinary_of_induced_datum_is_a_power():
    d = MonodromyDatum(5, (1, 3, 3, 3))
    for p in (3, 7):  # coprime to 2 * 5
        u = mu_ordinary(d, p)
        assert mu_ordinary(induce(d, 2), p) == u.power(2)
    for p in (2, 7):  # coprime to 3 * 5
        u = mu_ordinary(d, p)
        assert mu_ordinary(induce(d, 3), p) == u.power(3)


def test_beta_and_p_rank_bound():
    d = MonodromyDatum(8, (4, 2, 5, 5))
    f = signature(d)
    for p in (3, 5, 7, 17):
        assert beta_of_signature(f, p) == mu_ordinary(d, p).p_rank
    assert p_rank_bound(MonodromyDatum(6, (1, 3, 4, 4)), 1) == 3
    assert p_rank_bound(MonodromyDatum(4, (1, 1, 2)), 3) == 0
    assert p_rank_bound(MonodromyDatum(4, (1, 1, 2)), 5) == 1


def test_mu_ordinary_of_signature_matches_datum_path():
    d = MonodromyDatum(9, (3, 5, 5, 5))
    f = signature(d)
    assert mu_ordinary_of_signature(f, 2) == mu_ordinary(d, 2)


def test_orbit_table_matches_fresh_orbit_polygons():
    rng = random.Random(7081)
    for _ in range(120):
        m = rng.randint(3, 40)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(2, 5))]
        if sum(a) % m == 0:
            continue
        d = MonodromyDatum(m, tuple(a) + (-sum(a) % m,))
        if m <= 20 and rng.random() < 0.5:  # imprimitive, induced to k m <= 40
            d = induce(d, rng.randint(2, 40 // m))
        f = signature(d)
        c = rng.choice([q for q in range(1, d.m) if math.gcd(q, d.m) == 1])
        table = _orbit_table(f, c)
        assert tuple(table) == decompose(d.m, c).representatives(), (d, c)
        for rep, pairs in table.items():
            assert pairs == mu_ordinary_orbit(rep, f)._pairs, (d, c, rep)
        assert _orbit_table(f, c) is table


def _mu_pairs_by_levels(orbit, f):
    """One pass over the orbit per level; the oracle for the sorted count."""
    g_o = g_of_orbit(orbit, f)
    if g_o == 0:
        return ()
    values = [f.values[n - 1] for n in orbit.members]
    levels = sorted({v for v in values if 1 <= v <= g_o - 1}, reverse=True)
    bounds = [g_o] + levels + [0]
    cuts = zip(bounds, bounds[1:])
    return tuple(((hi - lo) * sum(v >= hi for v in values), hi - lo) for hi, lo in cuts)


def test_mu_pairs_match_the_per_level_count():
    rng = random.Random(20261030)
    cases = [(MonodromyDatum(1193, (1, 1, 1191)), 3)]
    while len(cases) < 150:
        m = rng.randint(3, 60)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(2, 7))]
        if sum(a) % m == 0:
            continue
        d = MonodromyDatum(m, tuple(a) + (-sum(a) % m,))
        cases.append((d, rng.choice([q for q in range(1, m) if math.gcd(q, m) == 1])))
    levels = 0
    for d, c in cases:
        f = signature(d)
        for rep in decompose(d.m, c).representatives():
            expected = _mu_pairs_by_levels(rep, f)
            assert _mu_pairs(rep, f) == expected, (d, c, rep)
            levels += max(len(expected) - 1, 0)
    assert decompose(1193, 3).orbits[0].size == 1192
    assert levels > 300


def test_orbit_table_never_caches_an_inconsistent_signature():
    # f(1) + f(6) = 2 but f(2) + f(5) = 1 on the orbit {1,2,4} of 2 mod 7
    bad = Signature(7, (1, 1, 1, 0, 0, 1))
    _orbit_table.cache_clear()
    for _ in range(2):
        with pytest.raises(InconsistentSignatureError):
            _orbit_table(bad, 2)
    assert _orbit_table.cache_info().currsize == 0
    good = signature(MonodromyDatum(7, (1, 1, 5)))  # values (1,1,1,0,0,0)
    assert tuple(_orbit_table(good, 2)) == decompose(7, 2).representatives()
    assert _orbit_table.cache_info().currsize == 1


def test_mu_ordinary_orbit_never_caches_an_inconsistent_signature():
    good = signature(MonodromyDatum(7, (1, 1, 5)))  # values (1,1,1,0,0,0)
    o = _orbit(7, 2, 1)  # {1,2,4}, values (1,1,0) and g(o) = 1
    assert mu_ordinary_orbit(o, good).segments == ((F(2), 1),)
    # the same values on {1,2,4}, but f(1) + f(6) = 2 and f(2) + f(5) = 1
    bad = Signature(7, (1, 1, 1, 0, 0, 1))
    for _ in range(2):
        with pytest.raises(InconsistentSignatureError):
            mu_ordinary_orbit(o, bad)


def _fraction_grid(poly):
    """Values on the integer grid as a running Fraction sum; the grid's oracle."""
    grid = [F(0)]
    for s, w in poly.segments:
        for _ in range(w):
            grid.append(grid[-1] + s)
    return grid


def test_orbit_polygon_grid_matches_the_fraction_sum():
    rng = random.Random(7082)
    polys = []
    for _ in range(150):
        m = rng.randint(3, 40)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(2, 5))]
        if sum(a) % m == 0:
            continue
        f = signature(MonodromyDatum(m, tuple(a) + (-sum(a) % m,)))
        p = rng.choice([q for q in range(1, m) if math.gcd(q, m) == 1])
        polys += [mu_ordinary_orbit(o, f) for o in decompose(m, p).orbits]
    o = _orbit(8, 3, 1)
    polys += [OrbitPolygon(o, [(F(1, 2), 2), (F(3, 2), 2)]), OrbitPolygon(o, [(F(2, 3), 3)])]
    for poly in polys:
        assert _values(poly) == _fraction_grid(poly), poly
        # every vertex is a lattice point, and integral slopes stay integral
        x = 0
        for s, w in poly.segments:
            x += w
            assert poly._grid[x] % poly._scale == 0
            if s.denominator == 1:
                assert all(poly._grid[x - k] % poly._scale == 0 for k in range(w))


def test_mu_ordinary_cache_matches_a_fresh_assembly():
    rng = random.Random(7083)
    for _ in range(150):
        m = rng.randint(3, 60)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(2, 6))]
        if sum(a) % m == 0:
            continue
        d = MonodromyDatum(m, tuple(a) + (-sum(a) % m,))
        if rng.random() < 0.3:
            d = induce(d, rng.randint(2, 3))
        p = rng.choice([q for q in range(1, 3 * d.m) if math.gcd(q, d.m) == 1])
        fresh = _assemble.__wrapped__(signature(d), p % d.m)
        assert mu_ordinary(d, p) == fresh, (d, p)
        assert mu_ordinary(d, p) is mu_ordinary(d, p + d.m)


def test_mu_ordinary_names_the_callers_p_in_a_bad_residue_error():
    d = MonodromyDatum(8, (1, 3, 4))
    with pytest.raises(BadResidueError, match=r"^p = 10 shares a factor with m = 8$"):
        mu_ordinary(d, 10)
