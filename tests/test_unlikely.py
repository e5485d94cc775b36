"""Certified chains taken to the thresholds where they are unlikely intersections.

A curve whose Newton polygon satisfies condition (U), dim M_g below the
polygon's codimension in A_g, is an unlikely intersection of the open
Torelli locus with the stratum.  These tests build certified chains up
to the sufficient bounds of npcc.strata and check (U) on the polygons
the generators certify, not only on formula polygons.
"""

import json
from fractions import Fraction

import pytest

from npcc import (
    ORD,
    SS,
    MonodromyDatum,
    base_case,
    condition_u,
    moonen_payload,
    pad_and_clutch,
    parse,
    replay,
    reproduce_applications,
    threshold_half_slope_density,
    threshold_repeated_summand,
    threshold_ss_chain,
    verify_family,
)
from npcc.catalog import _classes_reaching_minus_one

# (table, m, class, n) of each application row whose polygon satisfies (U)
U_ROWS = (
    {("ss-chain", 11, c, n) for c in (2, 6, 7, 8, 10) for n in range(6, 11)}
    | {
        (table + kind, None, c, n)
        for table, classes in (("chain-m17", (3, 5)), ("chain-m19-lo", (2, 5)))
        for kind in ("", "-payload")
        for c in classes
        for n in (5, 6)
    }
    | {("slope-sevenths", None, c, n) for c in (7, 16, 20, 23, 24, 25) for n in (1, 3, 4)}
)

# m: the least n from which (U) holds on ss^(hn)+ord^(2h(n-1)), h = (m - 1)/2
LEAST_N = {3: 33, 5: 17, 7: 11, 11: 6, 13: 5}
# h: the same on the polygon alone, for h = 1..7; 9 and 15 are not prime
FORM_LEAST_N = {1: 33, 2: 17, 3: 11, 4: 8, 5: 6, 6: 5, 7: 4}


def _ss_chain(m, c, n):
    return pad_and_clutch(base_case(MonodromyDatum(m, (1, 1, m - 2)), c), m, n)


def _ss_form(h, n):
    return SS.power(h * n) + ORD.power(2 * h * (n - 1))


@pytest.mark.parametrize("m", sorted(LEAST_N))
def test_ss_chains_at_the_threshold_are_unlikely_intersections(m):
    h = (m - 1) // 2
    n = -(-34 // h)
    assert threshold_ss_chain(n, h) and not threshold_ss_chain(n - 1, h)
    assert _classes_reaching_minus_one(m)
    for c in _classes_reaching_minus_one(m):
        fam = _ss_chain(m, c, n)
        assert fam.claimed_np == _ss_form(h, n), (m, c)
        assert condition_u(fam.claimed_np).holds, (m, c)
        cert = fam.certificate()
        assert replay(json.loads(json.dumps(cert))).certificate() == cert, (m, c)
        assert verify_family(fam)["ok"], (m, c)


@pytest.mark.parametrize("m", sorted(LEAST_N))
def test_the_threshold_is_sufficient_not_sharp(m):
    # (U) fails on the certified chain one copy below LEAST_N[m] and holds
    # from there to the bound; on the form it keeps holding well past it
    h, least = (m - 1) // 2, LEAST_N[m]
    bound = -(-34 // h)
    c = _classes_reaching_minus_one(m)[0]
    assert not condition_u(_ss_chain(m, c, least - 1).claimed_np).holds
    for n in range(least, bound + 1):
        assert condition_u(_ss_chain(m, c, n).claimed_np).holds, n
    assert all(condition_u(_ss_form(h, n)).holds for n in range(least, 4 * bound))


def test_the_least_n_on_the_polygon_alone_for_h_up_to_7():
    for h, least in FORM_LEAST_N.items():
        bound = -(-34 // h)
        assert least <= bound
        assert not condition_u(_ss_form(h, least - 1)).holds, h
        assert all(condition_u(_ss_form(h, n)).holds for n in range(least, 4 * bound)), h
    assert {(m - 1) // 2: n for m, n in LEAST_N.items()}.items() <= FORM_LEAST_N.items()


@pytest.mark.parametrize("c", [3, 5])
def test_the_family_17_payload_chain_is_deeply_verified_where_u_holds(c):
    fam = pad_and_clutch(moonen_payload(17, c), 7, 5)
    assert not fam.mu_ordinary_claim
    report = verify_family(fam, deep=True)
    assert report["ok"] and report["codim"] == fam.payload_codim == 1
    assert condition_u(fam.claimed_np).holds


@pytest.fixture(scope="module")
def application_rows():
    applications = reproduce_applications()
    assert applications["ok"] and applications["count"] == 335
    return [(row, condition_u(parse(row["generated"]))) for row in applications["checks"]]


def _key(row):
    params = row["params"]
    return row["table"], params.get("m"), params.get("p_class"), params.get("n")


def test_the_application_rows_where_u_holds_are_pinned(application_rows):
    holding = [_key(row) for row, u in application_rows if u.holds]
    assert len(holding) == len(U_ROWS) == 59
    assert set(holding) == U_ROWS


def test_u_fails_on_the_two_copy_slope_sevenths_rows(application_rows):
    reports = [u for row, u in application_rows
               if row["table"] == "slope-sevenths" and row["params"]["n"] == 2]
    assert len(reports) == 6
    for u in reports:
        assert (u.genus, u.dim_mg, u.codim_ag, u.holds) == (56, 165, 143, False)


def test_u_holds_on_every_ss_chain_row_past_the_threshold(application_rows):
    past = [(row, u) for row, u in application_rows if row["table"] == "ss-chain"
            and threshold_ss_chain(row["params"]["n"], (row["params"]["m"] - 1) // 2)]
    assert {(row["params"]["m"], row["params"]["n"]) for row, _ in past} == {
        (11, n) for n in range(7, 11)
    }
    assert len(past) == 20 and all(u.holds for _, u in past)


def test_the_half_slope_density_threshold_agrees_with_u_on_the_application_rows(
    application_rows,
):
    # t = s/(2g) for slope-1/2 multiplicity s; the bound claims (U) on the
    # same 20 rows as threshold_ss_chain, and (U) holds on each
    applied, claimed = 0, set()
    for row, u in application_rows:
        nu = parse(row["generated"])
        s = nu.multiplicity(Fraction(1, 2))
        if s:
            applied += 1
            if threshold_half_slope_density(nu.genus, Fraction(s, 2 * nu.genus)):
                assert u.holds, row
                claimed.add(_key(row))
    assert applied == 247
    assert claimed == {("ss-chain", 11, c, n) for c in (2, 6, 7, 8, 10) for n in range(7, 11)}


def test_the_repeated_summand_threshold_on_the_ss_chain_rows(application_rows):
    # ss^(hn)+ord^(2h(n-1)) read as n copies of ss^h beside ord^(2h(n-1))
    # needs n^2 h >= 162(n - 1) and claims nothing up to n = 10; read as
    # n - 1 joints ss^h+ord^(2h) beside ss^h it claims (U) at m = 11, n = 10
    claimed = set()
    for row, u in application_rows:
        if row["table"] != "ss-chain" or row["params"]["n"] == 1:
            continue
        m, n = row["params"]["m"], row["params"]["n"]
        h = (m - 1) // 2
        nu = parse(row["generated"])
        assert nu == SS.power(h).power(n) + ORD.power(2 * h * (n - 1))
        assert nu == (SS.power(h) + ORD.power(2 * h)).power(n - 1) + SS.power(h)
        assert not threshold_repeated_summand(n, h, h, 2 * h * (n - 1)), row
        if threshold_repeated_summand(n - 1, 3 * h, h, h):
            assert u.holds, row
            claimed.add(_key(row))
    assert claimed == {("ss-chain", 11, c, 10) for c in (2, 6, 7, 8, 10)}
