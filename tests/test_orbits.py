"""Tests for the multiplication-by-p orbit decomposition."""

import math
import random

import pytest

import npcc._memo as _memo
from npcc import (
    BadResidueError,
    InconsistentSignatureError,
    MonodromyDatum,
    Orbit,
    decompose,
    g_of_orbit,
    signature,
)
from npcc.orbits import _decompose


def test_decompose_covers_all_residues():
    dec = decompose(12, 7)
    assert dec.m == 12 and dec.p_class == 7
    members = sorted(n for o in dec.orbits for n in o.members)
    assert members == list(range(1, 12))


def test_decompose_m5_classes():
    # 2 has order 4 mod 5, so a single orbit
    assert [o.members for o in decompose(5, 2).orbits] == [(1, 2, 3, 4)]
    # 4 has order 2, orbits pair n with -n
    assert [o.members for o in decompose(5, 4).orbits] == [(1, 4), (2, 3)]
    # 1 fixes everything
    assert [o.members for o in decompose(5, 1).orbits] == [(1,), (2,), (3,), (4,)]
    # the residue only matters mod m
    assert decompose(5, 7) == decompose(5, 2)


def test_decompose_rejects_bad_input():
    with pytest.raises(BadResidueError):
        decompose(8, 2)
    with pytest.raises(BadResidueError):
        decompose(1, 1)


def test_orbit_properties():
    dec = decompose(12, 5)
    o = dec.orbit_of(1)
    assert o.members == (1, 5)
    assert o.size == 2
    assert o.min == 1
    assert o.e == 12
    assert o.dual().members == (7, 11)
    assert not o.is_self_dual
    assert str(o) == "{1,5}"
    # an orbit of non-units has smaller additive order
    o2 = dec.orbit_of(2)
    assert o2.members == (2, 10)
    assert o2.e == 6


def test_self_dual_orbit():
    dec = decompose(8, 3)
    o = dec.orbit_of(1)
    assert o.members == (1, 3)
    assert o.dual().members == (5, 7)
    both = dec.orbit_of(2)
    assert both.members == (2, 6)
    assert both.is_self_dual


def test_representatives_pick_one_per_dual_pair():
    dec = decompose(12, 5)
    reps = dec.representatives()
    mins = [o.min for o in reps]
    assert mins == sorted(mins)
    for o in dec.orbits:
        assert (o in reps) or (o.dual() in reps)
    # self-dual orbits are always representatives
    for o in dec.orbits:
        if o.is_self_dual:
            assert o in reps


def test_orbit_of_rejects_zero():
    dec = decompose(6, 5)
    with pytest.raises(BadResidueError):
        dec.orbit_of(0)


def test_g_of_orbit():
    f = signature(MonodromyDatum(8, (4, 2, 5, 5)))  # values (1,1,0,0,2,0,1)
    dec = decompose(8, 7)
    assert g_of_orbit(dec.orbit_of(1), f) == 2  # f(1) + f(7)
    assert g_of_orbit(dec.orbit_of(2), f) == 1  # f(2) + f(6)
    assert g_of_orbit(dec.orbit_of(3), f) == 2  # f(3) + f(5)
    assert g_of_orbit(dec.orbit_of(4), f) == 0  # f(4) + f(4)


def test_g_of_orbit_rejects_inconsistent_signature():
    from npcc import Signature

    f = Signature(5, (1, 0, 0, 0))
    dec = decompose(5, 4)  # orbit {1,4} sees f(1)+f(4) fine, but {2,3} also fine
    # make an orbit where the pairing is not constant: {1,2,3,4} under p=2
    dec2 = decompose(5, 2)
    with pytest.raises(InconsistentSignatureError):
        g_of_orbit(dec2.orbit_of(1), f)
    assert g_of_orbit(dec.orbit_of(1), f) == 1


def test_g_of_orbit_rejects_a_signature_of_another_modulus():
    f = signature(MonodromyDatum(8, (4, 2, 5, 5)))
    for m, p in [(16, 7), (4, 3)]:
        with pytest.raises(InconsistentSignatureError):
            g_of_orbit(decompose(m, p).orbit_of(1), f)


def test_orbit_sorting_is_by_min():
    dec = decompose(9, 4)
    assert [o.min for o in dec.orbits] == sorted(o.min for o in dec.orbits)
    # 3*4 = 12 = 3 mod 9, a fixed point
    assert dec.orbit_of(3).members == (3,)


def test_decompose_cache_matches_its_body_and_keys_by_residue():
    rng = random.Random(1807)
    for _ in range(300):
        m, p = rng.randint(2, 80), rng.randint(1, 10**12)
        if math.gcd(m, p) == 1:
            assert decompose(m, p) == _decompose.__wrapped__(m, p % m)
    assert decompose(7, 3) is decompose(7, 10)
    _decompose.cache_clear()
    assert decompose(7, 2**61 - 1) is decompose(7, 1)  # 2**61 = 2 mod 7
    assert _decompose.cache_info().currsize == 1


def test_decompose_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(BadResidueError):
            decompose(6, 3)
        with pytest.raises(BadResidueError):
            decompose(1, 1)


def _rebuilt_dual(o):
    """The dual built afresh from the members' negatives mod m, not by Orbit.dual."""
    return Orbit(o.m, tuple((o.m - n) % o.m for n in o.members))


def test_orbits_know_their_duals_for_every_unit_class():
    self_dual = paired = 0
    for m in range(2, 61):
        for p in range(1, m):
            if math.gcd(p, m) != 1:
                continue
            dec = decompose(m, p)
            for o in dec.orbits:
                d = o.dual()
                assert d == _rebuilt_dual(o), (m, p, o)
                assert d.dual() == o
                assert d in dec.orbits
                assert o.is_self_dual == (_rebuilt_dual(o) == o)
                assert o.is_self_dual == (d is o)
                self_dual += o.is_self_dual
                paired += not o.is_self_dual
            rebuilt = tuple(o for o in dec.orbits if o.min <= _rebuilt_dual(o).min)
            assert dec.representatives() == rebuilt, (m, p)
    assert self_dual > 1000 and paired > 1000


def test_an_orbit_table_builds_each_orbit_once(monkeypatch):
    # Self-duality and the representatives are read from the members:
    # asking for them builds no second orbit.
    built = 0
    init = Orbit.__init__

    def counted(self, m, members):
        nonlocal built
        built += 1
        init(self, m, members)

    monkeypatch.setattr(Orbit, "__init__", counted)
    for m in range(2, 61):
        for p in (q for q in range(1, m) if math.gcd(q, m) == 1):
            _memo.clear()
            built = 0
            dec = decompose(m, p)
            dec.representatives()
            # -o holds m - max(o), so it is o exactly when that is min(o).
            flags = [o.is_self_dual for o in dec.orbits]
            assert flags == [o.min + o.members[-1] == m for o in dec.orbits], (m, p)
            assert built == len(dec.orbits), (m, p)


def test_the_kept_order_is_the_additive_order_of_every_member():
    for m in range(2, 40):
        for p in (q for q in range(1, m) if math.gcd(q, m) == 1):
            for o in decompose(m, p).orbits:
                for n in o.members:
                    assert o.e == next(k for k in range(1, m + 1) if k * n % m == 0), (m, p, o)


def test_an_orbit_built_by_hand_finds_its_dual_once():
    o = Orbit(12, (5, 1))
    d = o.dual()
    assert d.members == (7, 11)
    assert d.dual() == o
    assert not o.is_self_dual and not d.is_self_dual
    both = Orbit(8, (6, 2))
    assert both.dual() is both and both.is_self_dual
    # The slots read from the members take no part in equality, hashing or repr.
    assert o == Orbit(12, (1, 5)) and hash(o) == hash(Orbit(12, (1, 5)))
    assert repr(o) == "Orbit(m=12, members=(1, 5))"
