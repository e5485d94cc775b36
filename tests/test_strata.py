"""Tests for Kottwitz set enumeration and unlikely-intersection bounds."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import npcc
import npcc.strata as strata
from npcc import (
    DEFAULT_ENUM_CAP,
    DomainError,
    EnumerationCapError,
    KottwitzSet,
    MonodromyDatum,
    condition_u,
    decompose,
    dim_moduli,
    enumerate_orbit_component,
    kottwitz_set,
    mu_ordinary,
    mu_ordinary_orbit,
    omega_count,
    parse,
    signature,
    threshold_half_slope_density,
    threshold_repeated_summand,
    threshold_ss_chain,
)

F = Fraction

WORKED = MonodromyDatum(8, (2, 2, 2, 5, 5))


def test_enumerate_orbit_component_two_candidates():
    # orbit {1,3} mod 8 at p = 3: paths (0,0) -> (2,1) above the
    # mu-ordinary path, slopes in [0,2] with lattice vertices
    f = signature(MonodromyDatum(8, (4, 2, 5, 5)))
    o = decompose(8, 3).orbit_of(1)
    cands = enumerate_orbit_component(o, f)
    assert len(cands) == 2
    assert cands[0].segments == ((F(0), 1), (F(1), 1))
    assert cands[1].segments == ((F(1, 2), 2),)


def test_enumerate_orbit_component_straight_line_is_alone():
    # when the mu-ordinary path is already straight nothing lies above it
    f = signature(WORKED)
    o = decompose(8, 7).orbit_of(3)
    cands = enumerate_orbit_component(o, f)
    assert len(cands) == 1
    assert cands[0].segments == ((F(1), 3),)


def test_enumerate_orbit_component_empty_orbit():
    f = signature(WORKED)
    o = decompose(8, 7).orbit_of(4)
    cands = enumerate_orbit_component(o, f)
    assert len(cands) == 1
    assert cands[0].is_empty
    # The one orbit of a datum of genus zero.
    f = signature(MonodromyDatum.from_text("2:3:1,1,0"))
    o = decompose(2, 1).orbit_of(1)
    factor = enumerate_orbit_component(o, f)
    assert factor == (mu_ordinary_orbit(o, f),)
    assert KottwitzSet._chain_lengths(factor) == (0,)


def test_enumerate_orbit_component_respects_cap():
    f = signature(MonodromyDatum(8, (4, 2, 5, 5)))
    o = decompose(8, 3).orbit_of(1)
    with pytest.raises(EnumerationCapError):
        enumerate_orbit_component(o, f, cap=1)


def test_worked_kottwitz_set():
    ks = kottwitz_set(WORKED, 7)
    assert len(ks) == 4
    assert ks.elements_with_total(parse("ord^4+ss^5")) == (0,)  # the top
    assert parse("ord^4+ss^5") == mu_ordinary(WORKED, 7)
    assert ks.elements_with_total(parse("ss^9")) == (len(ks) - 1,)  # the bottom
    assert ks.totals() == (parse("ord^4+ss^5"), parse("ord^2+ss^7"), parse("ss^9"))
    assert ks.codim_of_polygon(parse("ord^4+ss^5")) == 0
    assert ks.codim_of_polygon(parse("ord^2+ss^7")) == 1
    assert ks.codim_of_polygon(parse("ss^9")) == 2
    assert ks.elements_with_total(parse("ord^2+ss^7")) == (1, 2)
    assert ks.elements_with_total(parse("ord^9")) == ()
    with pytest.raises(DomainError):
        ks.codim_of_polygon(parse("ord^9"))


def test_kottwitz_lengths_and_index():
    ks = kottwitz_set(WORKED, 7)
    assert [ks.length(i) for i in range(len(ks))] == list(ks.lengths) == [0, 1, 1, 2]
    elements = list(ks)
    assert [ks[i] for i in range(len(ks))] == elements
    top, bottom = elements[0], elements[-1]
    for e in elements:  # componentwise order: top above all, bottom below all
        assert all(a.lies_on_or_above(b) for a, b in zip(e, top))
        assert all(a.lies_on_or_above(b) for a, b in zip(bottom, e))


def test_kottwitz_hasse_diagram():
    ks = kottwitz_set(WORKED, 7)
    assert ks.hasse_edges() == ((1, 0), (2, 0), (3, 1), (3, 2))
    dot = ks.hasse_dot()
    assert dot.startswith("digraph")
    assert "e3 -> e1" in dot


def test_kottwitz_element_components():
    ks = kottwitz_set(WORKED, 7)
    dec = decompose(8, 7)
    assert ks.reps == dec.representatives()
    top = ks[0]
    assert len(top) == len(ks.reps)
    assert top[ks.reps.index(dec.orbit_of(3))].segments == ((F(1), 3),)
    assert [c.orbit for c in top] == list(ks.reps)


def test_kottwitz_set_of_signature_agrees():
    f = signature(WORKED)
    assert KottwitzSet(f, 7).totals() == kottwitz_set(WORKED, 7).totals()


def test_indices_outside_the_set_are_refused():
    for ks in (kottwitz_set(WORKED, 7), kottwitz_set(MonodromyDatum(6, (1, 3, 4, 4)), 7)):
        for i in (-1, len(ks), len(ks) + 5):
            with pytest.raises(DomainError, match="not in this Kottwitz set"):
                ks[i]
            with pytest.raises(DomainError, match="not in this Kottwitz set"):
                ks.length(i)


def test_cap_below_one_or_none_is_refused():
    o = decompose(8, 7).orbit_of(3)
    f = signature(WORKED)
    for cap in (0, -1, None):
        with pytest.raises(EnumerationCapError, match=f"at least 1, not {cap}$"):
            enumerate_orbit_component(o, f, cap=cap)
        with pytest.raises(EnumerationCapError, match=f"at least 1, not {cap}$"):
            kottwitz_set(WORKED, 7, cap=cap)
        with pytest.raises(EnumerationCapError, match=f"at least 1, not {cap}$"):
            npcc.base_case(MonodromyDatum(7, (1, 1, 5)), 2, cap=cap)
    # one candidate passes a cap of 1
    assert len(enumerate_orbit_component(o, f, cap=1)) == 1


def test_kottwitz_cap_on_product_size():
    with pytest.raises(EnumerationCapError):
        kottwitz_set(WORKED, 7, cap=3)


def test_kottwitz_cap_stops_enumeration(monkeypatch):
    # factor sizes 39, 14, 3: the product passes 100 at the second
    # factor, so the third is never enumerated
    enumerated = []

    def counting(orbit, f, cap):
        enumerated.append(orbit)
        return enumerate_orbit_component(orbit, f, cap)

    monkeypatch.setattr(strata, "enumerate_orbit_component", counting)
    monkeypatch.setattr(strata, "_FACTORS", {})  # no factor kept by an earlier test
    datum = MonodromyDatum(21, (1, 1, 1, 1, 1, 1, 15))
    with pytest.raises(EnumerationCapError, match=r"sizes 39 x 14 = 546"):
        kottwitz_set(datum, 2, cap=100)
    assert len(enumerated) == 2
    assert len(decompose(21, 2).representatives()) == 3


# Sets whose factors share shapes across moduli: the orbits {1} of
# 8:5:2,2,2,5,5 and 9:5:1,1,2,2,3 at class 1, and the self-dual orbits
# of size 6 of 13:4:1,2,3,7 at class 4 and 9:4:1,2,3,3 at class 2.
KEPT_SHAPES = [
    ("8:5:2,2,2,5,5", 1), ("9:5:1,1,2,2,3", 1), ("13:4:1,2,3,7", 4),
    ("9:4:1,2,3,3", 2), ("10:4:1,2,3,4", 3), ("13:4:1,2,3,7", 5),
    ("21:7:1,1,1,1,1,1,15", 2), ("8:5:2,2,2,5,5", 1),
]


def _everything(ks):
    candidates = [(c.orbit, c._pairs, c._grid, c._scale) for f in ks.factors for c in f]
    rows = [ks.elements_with_total(t) for t in ks.totals()]
    return candidates, ks._factor_lengths, ks.totals(), rows, ks.lengths


def test_kept_factors_build_the_set_a_cold_build_does(monkeypatch):
    cold = {}
    for text, c in KEPT_SHAPES:
        monkeypatch.setattr(strata, "_FACTORS", {})
        cold[text, c] = _everything(kottwitz_set(MonodromyDatum.from_text(text), c))
    enumerated = []

    def counting(orbit, f, cap):
        enumerated.append(orbit)
        return enumerate_orbit_component(orbit, f, cap)

    monkeypatch.setattr(strata, "enumerate_orbit_component", counting)
    monkeypatch.setattr(strata, "_FACTORS", {})
    kept = []  # factors per set built from a kept shape
    for text, c in KEPT_SHAPES:
        before = len(enumerated)
        ks = kottwitz_set(MonodromyDatum.from_text(text), c)
        assert _everything(ks) == cold[text, c]
        assert all(q.orbit is rep for rep, f in zip(ks.reps, ks.factors) for q in f)
        kept.append(len(ks.factors) - (len(enumerated) - before))
    # a shape kept from another modulus, and the first set again, all kept
    assert kept[1] >= 1 and kept[3] >= 1 and kept[-1] == 4


def test_a_smaller_cap_on_a_kept_shape_names_the_callers_orbit(monkeypatch):
    datum = MonodromyDatum.from_text("9:4:1,2,3,3")

    def cap_error():
        with pytest.raises(EnumerationCapError) as info:
            kottwitz_set(datum, 2, cap=2)
        return str(info.value)

    monkeypatch.setattr(strata, "_FACTORS", {})
    cold = cap_error()
    assert cold.startswith("more than 2 candidates on orbit {1,2,4,5,7,8}")
    kottwitz_set(MonodromyDatum.from_text("13:4:1,2,3,7"), 4)  # keeps the shape mod 13
    kottwitz_set(datum, 2)  # and mod 9
    assert cap_error() == cold


def test_the_kept_factors_stay_within_their_bound(monkeypatch):
    def kept():  # candidates per kept shape, least recently used first
        return [len(entry[0]) for entry in strata._FACTORS.values()]

    monkeypatch.setattr(strata, "MAX_MEMO_CANDIDATES", 17)
    monkeypatch.setattr(strata, "_FACTORS", {})
    # factors of 39, 14 and 3 candidates: the first is above the bound
    big = MonodromyDatum.from_text("21:7:1,1,1,1,1,1,15")
    kottwitz_set(big, 2)
    assert kept() == [14, 3]
    strata._factor(decompose(21, 2).representatives()[1], signature(big), DEFAULT_ENUM_CAP)
    assert kept() == [3, 14]  # the 14 used again
    # two factors of one new shape of 3 candidates: the 3, used least
    # recently, goes
    kottwitz_set(MonodromyDatum.from_text("13:4:1,2,3,7"), 4)
    assert kept() == [14, 3]
    for text, c in KEPT_SHAPES:
        kottwitz_set(MonodromyDatum.from_text(text), c)
        assert sum(kept()) <= 17


ORDER_CHECKS_UNDER_O = """\
import npcc.strata as strata
from npcc import DomainError, MonodromyDatum, decompose, kottwitz_set, signature

assert False, "assert statements run; the interpreter is not under -O"
enumerate_orbit_component = strata.enumerate_orbit_component
mu_ordinary_orbit = strata.mu_ordinary_orbit


def expect_domain_error(call):
    try:
        call()
    except DomainError as exc:
        print(exc)
    else:
        print("no error")


strata.enumerate_orbit_component = lambda o, f, cap: enumerate_orbit_component(o, f, cap)[::-1]
expect_domain_error(lambda: kottwitz_set(MonodromyDatum(8, (2, 2, 2, 5, 5)), 7))


def bottom_not_last(o, f, cap):  # the last two candidates swapped; the top stays first
    c = enumerate_orbit_component(o, f, cap)
    return c[:-2] + c[-1:] + c[-2:-1]


strata.enumerate_orbit_component = bottom_not_last  # the first factor at class 3 has three
expect_domain_error(lambda: kottwitz_set(MonodromyDatum(8, (2, 2, 2, 5, 5)), 3))
strata.enumerate_orbit_component = enumerate_orbit_component
f = signature(MonodromyDatum(8, (4, 2, 5, 5)))
orbit = decompose(8, 3).orbit_of(1)
factor = enumerate_orbit_component(orbit, f)
expect_domain_error(lambda: strata.KottwitzSet._chain_lengths(factor[::-1]))


def dual(q):  # q's polygon on the dual orbit, slopes s -> |o| - s
    pairs = tuple((q.orbit.size * w - r, w) for r, w in reversed(q._pairs))
    return strata.OrbitPolygon._of_pairs(q.orbit.dual(), pairs)


strata.mu_ordinary_orbit = lambda o, f: dual(mu_ordinary_orbit(o, f))
expect_domain_error(lambda: strata.enumerate_orbit_component(orbit, f))
"""


def test_order_checks_survive_python_O():
    src = str(Path(npcc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", ORDER_CHECKS_UNDER_O],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "top must be maximum",
        "bottom must be minimum",
        "every candidate must lie above the factor top",
        "mu-ordinary polygon must be the lowest candidate",
    ]


def test_kottwitz_singleton_orbits():
    # p = 1 mod 6 keeps every residue fixed; the only free factor is the
    # orbit {1} with two lattice paths, all other orbits are forced
    ks = kottwitz_set(MonodromyDatum(6, (1, 3, 4, 4)), 7)
    assert len(ks) == 2
    assert ks.totals() == (parse("ord^3"), parse("ord+ss^2"))
    assert ks.codim_of_polygon(parse("ord+ss^2")) == 1


def test_omega_count_examples():
    assert omega_count(parse("ss^7+ord^2")) == 16
    assert omega_count(parse("(1/3,2/3)")) == 3
    assert omega_count(parse("ord^5")) == 0
    assert omega_count(parse("ss")) == 1
    # triangular count minus the square underneath
    for n in (1, 2, 3, 10):
        assert omega_count(parse("ss").power(n)) == n * (n + 1) // 2 - n * n // 4


def test_dim_moduli():
    assert dim_moduli(0) == 0
    assert dim_moduli(1) == 1
    assert dim_moduli(2) == 3
    assert dim_moduli(9) == 24
    assert dim_moduli(34) == 99


def test_condition_u_reports():
    r = condition_u(parse("ss^34+ord^66"))
    assert r.holds
    assert r.genus == 100
    assert r.dim_mg == 297
    assert r.codim_ag > r.dim_mg
    r2 = condition_u(parse("ss^7+ord^2"))
    assert not r2.holds
    assert r2.genus == 9
    assert r2.dim_mg == 24
    assert r2.codim_ag == 16
    obj = r2.to_json_obj()
    assert obj == {"genus": 9, "dim_mg": 24, "codim_ag": 16, "holds": False}


def test_threshold_half_slope_density():
    assert threshold_half_slope_density(48, F(1, 2))  # 48/4 = 12 exactly
    assert not threshold_half_slope_density(47, F(1, 2))
    assert threshold_half_slope_density(12, 1)
    assert not threshold_half_slope_density(11, 1)
    with pytest.raises(DomainError):
        threshold_half_slope_density(10, 2)
    with pytest.raises(DomainError):
        threshold_half_slope_density(0, F(1, 2))


def test_threshold_repeated_summand():
    # boundary: n = 18, delta = 1, h = 4, g = 1 gives 18 >= 15 and 324 >= 324
    assert threshold_repeated_summand(18, 1, 1, 4)
    assert not threshold_repeated_summand(17, 1, 1, 4)
    assert not threshold_repeated_summand(14, 1, 1, 1)
    assert threshold_repeated_summand(15, 1, 1, 1)


def test_threshold_ss_chain():
    assert threshold_ss_chain(34, 1)
    assert not threshold_ss_chain(33, 1)
    assert threshold_ss_chain(7, 5)
    assert not threshold_ss_chain(6, 5)
