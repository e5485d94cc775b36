"""Certified chains taken to the thresholds where they are unlikely intersections.

A curve whose Newton polygon satisfies condition (U), dim M_g below the
polygon's codimension in A_g, is an unlikely intersection of the open
Torelli locus with the stratum.  These tests build certified chains up
to the sufficient bounds of npcc.strata and check (U) on the polygons
the generators certify, not only on formula polygons.
"""

import json

import pytest

from npcc import (
    ORD,
    SS,
    MonodromyDatum,
    base_case,
    condition_u,
    moonen_payload,
    pad_and_clutch,
    replay,
    threshold_ss_chain,
    verify_family,
)
from npcc.catalog import _classes_reaching_minus_one

# m: the least n from which (U) holds on ss^(hn)+ord^(2h(n-1)), h = (m - 1)/2
LEAST_N = {3: 33, 5: 17, 7: 11, 11: 6, 13: 5}


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


@pytest.mark.parametrize("c", [3, 5])
def test_the_family_17_payload_chain_is_deeply_verified_where_u_holds(c):
    fam = pad_and_clutch(moonen_payload(17, c), 7, 5)
    assert not fam.mu_ordinary_claim
    report = verify_family(fam, deep=True)
    assert report["ok"] and report["codim"] == fam.payload_codim == 1
    assert condition_u(fam.claimed_np).holds
