"""Tests for the bundled family table and its reproduction routines."""

import hashlib
import json
import math

import pytest

from npcc import (
    DomainError,
    MonodromyDatum,
    genus,
    moonen_base,
    moonen_families,
    moonen_family,
    moonen_payload,
    mu_ordinary,
    normalize,
    parse,
    payload_base,
    reproduce_appendix,
    reproduce_applications,
    signature,
    worked_clutch_example,
)
from npcc.catalog import _classes_reaching_minus_one


def test_twenty_families_load():
    fams = moonen_families()
    assert len(fams) == 20
    assert [f.label for f in fams] == [f"M[{k}]" for k in range(1, 21)]


def test_family_lookup():
    assert moonen_family(16) is moonen_family("M[16]")
    with pytest.raises(DomainError):
        moonen_family(21)
    with pytest.raises(DomainError):
        moonen_family("M[0]")


def test_family_fixed_points():
    m1 = moonen_family(1)
    assert (m1.m, m1.a) == (2, (1, 1, 1, 1))
    assert m1.genus == 1
    m16 = moonen_family(16)
    assert (m16.m, m16.a) == (5, (2, 2, 2, 2, 2))
    assert m16.genus == 6
    assert m16.f == (2, 0, 3, 1)
    m20 = moonen_family(20)
    assert (m20.m, m20.a) == (12, (4, 6, 7, 7))
    assert m20.genus == 7


def test_stored_signatures_recompute():
    for fam in moonen_families():
        assert signature(fam.datum).values == fam.f


def test_classes_cover_units():
    import math

    for fam in moonen_families():
        units = {c for c in range(1, fam.m) if math.gcd(c, fam.m) == 1}
        assert set(fam.classes()) == units


def test_stored_polygons_have_family_genus():
    # every printed polygon is symmetric with the genus of its family,
    # so total dimensions are bookkept consistently everywhere
    for fam in moonen_families():
        for c in fam.classes():
            for poly, _ in fam.polygons_for_class(c):
                assert poly.is_symmetric
                assert poly.genus == fam.genus


def test_polygons_for_class():
    pairs = moonen_family(17).polygons_for_class(3)
    assert [str(p) for p, _ in pairs] == ["(1/3,2/3)^2", "ss^6"]
    assert [flag for _, flag in pairs] == [False, True]
    with pytest.raises(DomainError):
        moonen_family(17).polygons_for_class(7)  # not a unit mod 7


def test_payload_polygon():
    assert moonen_family(17).payload_polygon(3) == parse("ss^6")
    assert moonen_family(16).payload_polygon(4) == parse("ss^6")
    # classes where several non-generic polygons are printed refuse
    fam = moonen_family(10)
    bad = None
    for c in fam.classes():
        if len(fam.polygons_for_class(c)) > 2:
            bad = c
            break
    if bad is not None:
        with pytest.raises(DomainError):
            fam.payload_polygon(bad)


def test_moonen_base_and_payload():
    f = moonen_base(16, 4)
    assert f.steps[0]["clause"] == "catalog:M[16]"
    assert f.claimed_np == mu_ordinary(MonodromyDatum(5, (2, 2, 2, 2, 2)), 4)
    g = moonen_payload(16, 4)
    assert g.claimed_np == parse("ss^6")
    assert g.payload_codim is not None and g.payload_codim >= 1
    h = payload_base(moonen_family(17).datum, 3, parse("ss^6"))
    assert h.claimed_np == parse("ss^6")


def test_normalization_identifies_unit_multiples():
    # the catalog matcher keys on this normal form
    fam = moonen_family(11)
    assert normalize(MonodromyDatum(5, (2, 1, 1, 1))) == normalize(fam.datum)


def classes_reaching_minus_one(m):
    """Units c > 1 mod m with some power -1 mod m, by walking c's powers."""
    out = []
    for c in range(2, m):
        if math.gcd(c, m) != 1:
            continue
        x = c
        while x != 1:
            if x == m - 1:
                out.append(c)
                break
            x = x * c % m
    return tuple(out)


def test_classes_reaching_minus_one_match_the_power_walk():
    for m in range(2, 200):
        assert _classes_reaching_minus_one(m) == classes_reaching_minus_one(m), m
    assert _classes_reaching_minus_one(7) == (3, 5, 6)


def test_reproduce_appendix():
    report = reproduce_appendix()
    assert report["ok"]
    assert len(report["families"]) == 20
    for entry in report["families"]:
        assert entry["ok"], entry
        assert entry["signature_ok"]
        assert entry["classes_cover_units"]
        for check in entry["classes"]:
            assert check["set_match"] and check["mu_ordinary_first"], check
            assert check["printed"][0] == check["computed"][0]


def test_reproduce_applications_every_row_checks():
    report = reproduce_applications()
    assert report["ok"]
    assert report["count"] == len(report["checks"])
    assert report["count"] > 0
    for check in report["checks"]:
        assert check["ok"], check
        assert check["generated"] == check["expected"]
        assert check["genus"] == check["expected_genus"]


def test_reproduce_applications_tables_present():
    report = reproduce_applications()
    tables = {check["table"] for check in report["checks"]}
    assert "ss-chain" in tables
    assert "crossed-chains" in tables
    assert any(t.startswith("chain-") for t in tables)


def test_reproduce_applications_report_is_pinned():
    # row order, params, closed forms and verdicts, byte for byte
    text = json.dumps(reproduce_applications())
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
        59733,
        "62ba63240f52595c700f4ff3a969a50803ce3b8da786d71044166b29b72e7043",
    )


def test_worked_clutch_example():
    report = worked_clutch_example()
    assert report["ok"]
    assert report["datum1"] == "4:3:1,1,2"
    assert report["datum2"] == "8:4:4,2,5,5"
    assert report["p_class"] == 7
    for check in report["checks"]:
        assert check["ok"], check
        assert check["got"] == check["expected"]
    names = [check["check"] for check in report["checks"]]
    assert "epsilon" in names and "balanced" in names and "compatible" in names


def test_worked_clutch_example_key_values():
    by_name = {c["check"]: c for c in worked_clutch_example()["checks"]}
    assert by_name["gamma3"]["got"] == "8:5:2,2,2,5,5"
    assert by_name["f3"]["got"] == "(2, 2, 0, 0, 3, 1, 1)"
    assert by_name["epsilon"]["got"] == "2"
    assert by_name["g3"]["got"] == "9"
    assert by_name["balanced"]["got"] == "True"
    assert by_name["compatible"]["got"] == "False"
    assert by_name["u3"]["got"] == "ord^4+ss^5"
    assert by_name["b3_totals"]["got"] == "('ord^4+ss^5', 'ord^2+ss^7', 'ss^9')"
