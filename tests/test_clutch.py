"""Tests for the clutching bookkeeping on pairs of data."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import npcc
import npcc.generators as generators
from npcc import (
    GeneratorError,
    MonodromyDatum,
    NotAdmissibleError,
    UnsupportedPairError,
    base_case,
    check_admissible,
    check_balanced,
    check_compatible,
    clutch_data,
    clutch_polygon,
    clutch_report,
    compatible_violations,
    decompose,
    double_induction,
    epsilon_orbits,
    extend_ord,
    find_admissible_reordering,
    genus,
    mu_ord_product_check,
    mu_ordinary,
    mu_ordinary_orbit,
    pad_and_clutch,
    pad_pair,
    parse,
    reorder_at,
    self_clutch,
    signature,
)
from npcc.errors import InvalidDatumError

G1 = MonodromyDatum(4, (1, 1, 2))
G2 = MonodromyDatum(8, (4, 2, 5, 5))


def test_glued_modulus_is_bounded():
    # 199 * 211 = 41989; each side alone is well under MAX_MODULUS
    g1 = MonodromyDatum(199, (1, 198, 0), generalized=True)
    g2 = MonodromyDatum(211, (0, 1, 210), generalized=True)
    with pytest.raises(InvalidDatumError, match="m3 = 41989 is above MAX_MODULUS"):
        clutch_report(g1, g2, p=3)


def test_check_admissible():
    # last entry of G1 induces to 2*2 = 4 mod 8, first of G2 is 4: 4+4 = 0
    assert check_admissible(G1, G2)
    assert not check_admissible(G2, G1)
    assert check_admissible(MonodromyDatum(3, (1, 1, 1)), MonodromyDatum(3, (2, 2, 2)))


def test_clutch_data_worked_pair():
    r = clutch_data(G1, G2)
    assert (r.m3, r.d1, r.d2) == (8, 2, 1)
    assert (r.r1, r.r2, r.r0) == (2, 4, 2)
    assert r.epsilon == 2
    assert r.gamma3 == MonodromyDatum(8, (2, 2, 2, 5, 5))
    assert r.gamma3.text() == "8:5:2,2,2,5,5"
    assert r.f3.values == (2, 2, 0, 0, 3, 1, 1)
    assert r.g3 == 9
    assert r.admissible
    assert r.p_class is None and r.balanced is None


def test_clutch_signature_agrees_with_direct_computation():
    r = clutch_data(G1, G2)
    assert r.f3.values == signature(r.gamma3).values
    assert r.g3 == genus(r.gamma3)


def test_clutch_data_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError):
        clutch_data(G2, G1)


def test_clutch_polygon():
    r = clutch_data(G1, G2)
    glued = clutch_polygon(parse("ss"), parse("ord^2+ss^3"), r)
    assert glued == parse("ord^4+ss^5")


def test_check_balanced_worked_pair():
    assert check_balanced(G1, G2, 7)


def test_check_balanced_failing_pair():
    # these two pairs genuinely fail the ordering condition
    z = MonodromyDatum(5, (2, 2, 1))
    m11 = MonodromyDatum(5, (1, 3, 3, 3))
    for p in (2, 3):
        assert not check_balanced(z, m11, p)
    z9 = MonodromyDatum(9, (1, 2, 6))
    m19 = MonodromyDatum(9, (3, 5, 5, 5))
    for p in (4, 7):
        assert not check_balanced(z9, m19, p)


def _balanced_by_pairs(g1, g2, p):
    """The pairwise form of the balance check: no two members of an
    orbit are ordered oppositely by the two induced signatures."""
    m3 = math.lcm(g1.m, g2.m)
    f1d = signature(g1).induced(m3 // g1.m)
    f2d = signature(g2).induced(m3 // g2.m)
    for orbit in decompose(m3, p).orbits:
        members = orbit.members
        for i, w in enumerate(members):
            for t in members[i + 1 :]:
                if (f1d(w) - f1d(t)) * (f2d(w) - f2d(t)) < 0:
                    return False
    return True


def test_check_balanced_matches_the_pairwise_form():
    rng = random.Random(20181102)

    def datum(m):
        a = [rng.randrange(m) for _ in range(rng.randint(2, 5))]
        a.append(-sum(a) % m)
        return MonodromyDatum(m, tuple(a), generalized=True)

    seen = set()
    for k in range(2100):
        kind = k % 3  # m1 = m2, m1 | m2, unrelated moduli
        m1 = rng.randint(2, 16)
        m2 = (m1, m1 * rng.randint(2, 4), rng.randint(2, 16))[kind]
        g1, g2 = datum(m1), datum(m2)
        m3 = math.lcm(m1, m2)
        p = rng.choice([c for c in range(1, m3) if math.gcd(c, m3) == 1])
        expected = _balanced_by_pairs(g1, g2, p)
        assert check_balanced(g1, g2, p) == expected, (g1, g2, p)
        seen.add((kind, expected))
    assert len(seen) == 6  # both answers occur for every kind of moduli


def test_balanced_iff_product_formula():
    # balanced pairs glue mu-ordinary polygons multiplicatively
    chk = mu_ord_product_check(G1, G2, 7)
    assert chk.balanced and chk.equal
    assert chk.lhs == parse("ord^4+ss^5")
    assert chk.rhs == chk.lhs
    # unbalanced pairs never do
    z, m11 = find_admissible_reordering(
        MonodromyDatum(5, (2, 2, 1)), MonodromyDatum(5, (1, 3, 3, 3))
    )
    chk2 = mu_ord_product_check(z, m11, 2)
    assert not chk2.balanced and not chk2.equal
    obj = chk2.to_json_obj()
    assert obj["equal"] is False and obj["balanced"] is False


def test_product_side_always_lies_on_or_above():
    # the glued polygon can only gain supersingularity, never lose it
    z, m11 = find_admissible_reordering(
        MonodromyDatum(5, (2, 2, 1)), MonodromyDatum(5, (1, 3, 3, 3))
    )
    for p in (2, 3):
        chk = mu_ord_product_check(z, m11, p)
        assert chk.rhs.lies_on_or_above(chk.lhs)


def test_compatible_worked_pair():
    # on the orbit {1,7} the induced component of G1 has its single
    # slope 1/2 strictly between the slopes 0 and 1 of G2's component
    assert not check_compatible(G1, G2, 7)
    bad = compatible_violations(G1, G2, 7)
    assert len(bad) == 1
    orbit, witness = bad[0]
    assert orbit.members == (1, 7)
    assert witness == Fraction(1, 2)
    assert type(witness) is Fraction


def test_compatible_needs_divisible_moduli():
    with pytest.raises(UnsupportedPairError):
        check_compatible(MonodromyDatum(3, (1, 1, 1)), G2, 7)


def test_check_self_compatible():
    # three-branch-point chain bases have one slope per orbit
    d = MonodromyDatum(5, (1, 1, 3))
    assert check_compatible(d, d, 2)
    assert check_compatible(G1, G1, 3)
    # this five-point family has a three-slope orbit component at p = 4
    d = MonodromyDatum(5, (2, 2, 2, 2, 2))
    assert not check_compatible(d, d, 4)


def test_epsilon_orbits_sum_to_defect():
    r = clutch_data(G1, G2)
    rows = epsilon_orbits(r, 7)
    assert sum(e for _, e in rows) == r.epsilon == 2
    support = [o.members for o, e in rows if e]
    assert support == [(2, 6)]


CHECKS_UNDER_O = """\
import npcc.clutch as clutch
from npcc import DomainError, MonodromyDatum

assert False, "assert statements run; the interpreter is not under -O"
G1 = MonodromyDatum(4, (1, 1, 2))
G2 = MonodromyDatum(8, (4, 2, 5, 5))
report = clutch.clutch_data(G1, G2)
clutch.clutch_report.cache_clear()  # each fault below must reach a fresh joint


def expect_domain_error(call):
    try:
        call()
    except DomainError as exc:
        print(exc)
    else:
        print("no error")


genus, gcd_m = clutch.genus, clutch._gcd_m
clutch._gcd_m = lambda value, m: 1
expect_domain_error(lambda: clutch.clutch_data(G1, G2))
clutch._gcd_m = gcd_m
clutch.clutch_report.cache_clear()
clutch.genus = lambda datum: genus(datum) + 1
expect_domain_error(lambda: clutch.clutch_data(G1, G2))
clutch.genus = genus
expect_domain_error(lambda: clutch.epsilon_orbits(report._replace(epsilon=3), 7))
clutch._defect_terms = lambda d1, d2, r0, m3: [0] * (m3 - 1)
expect_domain_error(lambda: clutch.epsilon_orbits(report, 7))
"""


def test_clutch_checks_survive_python_O():
    src = str(Path(npcc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_UNDER_O],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "branch-order bookkeeping broke",
        "genus recursion disagrees with Riemann-Hurwitz",
        "orbit defects must sum to the defect",
        "defect mismatch on orbit {2,6}: 2 vs 0",
    ]


def test_clutch_report_with_residue():
    r = clutch_report(G1, G2, 7)
    assert r.p_class == 7
    assert r.balanced is True
    assert r.compatible is False
    assert r.defects is not None
    obj = r.to_json_obj()
    assert obj["epsilon"] == 2
    assert obj["balanced"] is True
    assert obj["defects"] == [
        {"orbit": [1, 7], "epsilon": 0},
        {"orbit": [2, 6], "epsilon": 2},
        {"orbit": [3, 5], "epsilon": 0},
        {"orbit": [4], "epsilon": 0},
    ]


def test_clutch_report_without_residue():
    r = clutch_report(G1, G2)
    assert r.p_class is None and r.defects is None
    assert "p_class" not in r.to_json_obj()


def test_reorder_at():
    # move the unique 2 of G1 to the end and the 4 of G2 to the front
    h1, h2 = reorder_at(MonodromyDatum(4, (1, 2, 1)), MonodromyDatum(8, (2, 4, 5, 5)), 1, 1)
    assert h1.a == (1, 1, 2)
    assert h2.a == (4, 2, 5, 5)
    assert check_admissible(h1, h2)
    with pytest.raises(NotAdmissibleError):
        reorder_at(G1, G2, 0, 1)  # 1 and 2 do not cancel


def test_find_admissible_reordering():
    h1, h2 = find_admissible_reordering(MonodromyDatum(4, (2, 1, 1)), MonodromyDatum(8, (2, 4, 5, 5)))
    assert check_admissible(h1, h2)
    assert sorted(h1.a) == [1, 1, 2] and sorted(h2.a) == [2, 4, 5, 5]
    with pytest.raises(NotAdmissibleError):
        find_admissible_reordering(MonodromyDatum(5, (1, 1, 3)), MonodromyDatum(5, (1, 1, 3)))


def test_pad_pair_clutches_at_zero_labels():
    h1, h2 = pad_pair(MonodromyDatum(5, (1, 1, 3)), MonodromyDatum(5, (1, 1, 3)))
    assert h1.a == (1, 1, 3, 0)
    assert h2.a == (0, 1, 1, 3)
    assert check_admissible(h1, h2)
    r = clutch_data(h1, h2)
    # unbranched labels have full fibers of 5 points, so gluing them
    # identifies 5 point pairs and leaves a defect of 5 - 1
    assert (r.r1, r.r2, r.r0) == (5, 5, 5)
    assert r.epsilon == 4
    assert r.gamma3.a == (1, 1, 3, 1, 1, 3)
    assert r.g3 == 2 + 2 + 4


def test_self_clutch_defect_counts_toric_rank():
    # gluing two copies of the same datum at branched labels of order r
    # contributes r - 1 extra ordinary factors
    d = MonodromyDatum(5, (1, 1, 3))
    r = clutch_data(d, MonodromyDatum(5, (2, 1, 2)))
    assert r.d1 == r.d2 == 1
    assert r.epsilon == r.r0 - 1
    glued = clutch_polygon(mu_ordinary(d, 2), mu_ordinary(MonodromyDatum(5, (2, 1, 2)), 2), r)
    assert glued.p_rank >= r.epsilon


def _violations_on_every_orbit(g1, g2, p):
    """compatible_violations read off every orbit; the test's oracle."""
    f1d = signature(g1).induced(g2.m // g1.m)
    f2 = signature(g2)
    bad = []
    for orbit in decompose(g2.m, p).orbits:
        comp1 = mu_ordinary_orbit(orbit, f1d)
        comp2 = mu_ordinary_orbit(orbit, f2)
        if comp1.is_empty or comp2.is_empty:
            continue
        lo, hi = comp2.segments[0][0], comp2.segments[-1][0]
        witness = next((s for s, _ in comp1.segments if lo < s < hi), None)
        if witness is not None:
            bad.append((orbit, witness / orbit.size))
    return tuple(bad)


def test_compatible_violations_match_every_orbit_oracle():
    # compatible_violations reads one orbit of each dual pair and mirrors
    # a failure onto the dual; the oracle reads both, and its failing
    # orbits are closed under o -> -o
    rng = random.Random(20181103)

    def datum(m):
        a = [rng.randrange(1, m) for _ in range(rng.randint(2, 5))]
        a.append(-sum(a) % m)
        return MonodromyDatum(m, tuple(a), generalized=True)

    outcomes = []
    mirrored = 0
    for _ in range(2100):
        m1 = rng.randint(2, 30)
        m2 = m1 * rng.randint(1, 60 // m1)
        g1, g2 = datum(m1), datum(m2)
        p = rng.choice([c for c in range(1, m2 + 1) if math.gcd(c, m2) == 1])
        bad = _violations_on_every_orbit(g1, g2, p)
        assert compatible_violations(g1, g2, p) == bad, (g1, g2, p)
        assert check_compatible(g1, g2, p) == (not bad), (g1, g2, p)
        orbits = {o for o, _ in bad}
        assert {o.dual() for o in orbits} == orbits, (g1, g2, p)
        outcomes.append(bool(bad))
        mirrored += sum(not o.is_self_dual for o in orbits)
    assert 500 < sum(outcomes) < len(outcomes) - 500
    assert mirrored > 1000


def test_clutch_refuses_imprimitive_data():
    # the genus recursion holds for connected covers only
    for g1, g2 in (
        (MonodromyDatum(6, (2, 2, 2)), MonodromyDatum(6, (4, 4, 4))),
        (G1, MonodromyDatum(8, (4, 2, 6, 4))),
    ):
        with pytest.raises(InvalidDatumError, match="imprimitive"):
            clutch_data(g1, g2)
        with pytest.raises(InvalidDatumError, match="imprimitive"):
            clutch_report(g1, g2, p=5)


def _at_most_two_slopes_everywhere(datum, p):
    """Every orbit component has at most two slopes; the test's oracle."""
    f = signature(datum)
    return all(
        len(mu_ordinary_orbit(o, f).segments) <= 2
        for o in decompose(datum.m, p).representatives()
    )


def test_self_compatibility_is_the_slope_span_check_against_itself():
    # a slope strictly inside an orbit component's own span is a third
    # distinct slope, so the two readings agree on every datum
    rng = random.Random(20181104)
    outcomes = []
    while len(outcomes) < 3500:
        m = rng.randint(2, 40)
        a = [rng.randrange(1, m) for _ in range(rng.randint(2, 6))]
        a.append(-sum(a) % m)
        if 0 in a or math.gcd(m, *a) != 1:
            continue
        datum = MonodromyDatum(m, tuple(a))
        p = rng.choice([c for c in range(1, m + 1) if math.gcd(c, m) == 1])
        expected = _at_most_two_slopes_everywhere(datum, p)
        assert check_compatible(datum, datum, p) == expected, (datum, p)
        outcomes.append(expected)
    assert 200 < sum(outcomes) < len(outcomes) - 200


def _first_pair(a1, a2, m, within):
    """The former generators._first_pair; the test's oracle."""
    for i, x in enumerate(a1):
        for j in range(i + 1 if within else 0, len(a2)):
            if (x + a2[j]) % m == 0:
                return i, j
    return None


def _first_admissible_pair(g1, g2):
    """The former find_admissible_reordering search; the test's oracle."""
    m3 = math.lcm(g1.m, g2.m)
    d1, d2 = m3 // g1.m, m3 // g2.m
    for i, x in enumerate(g1.a):
        for j, y in enumerate(g2.a):
            if (d1 * x + d2 * y) % m3 == 0:
                return i, j
    return None


def test_one_cancelling_pair_search_serves_every_caller():
    rng = random.Random(20181105)

    def datum(m):
        a = [rng.randrange(0, m) for _ in range(rng.randint(2, 6))]
        a.append(-sum(a) % m)
        return MonodromyDatum(m, tuple(a), generalized=True)

    found = {"within": 0, "across": 0, "lcm": 0}
    for _ in range(1500):
        m = rng.randint(2, 30)
        g1, g2 = datum(m), datum(m)
        within = npcc.clutch._cancelling_pair(g1, g1, within=True)
        assert within == _first_pair(g1.a, g1.a, m, True), g1
        across = npcc.clutch._cancelling_pair(g1, g2)
        assert across == _first_pair(g1.a, g2.a, m, False), (g1, g2)
        h2 = datum(rng.randint(2, 30))
        pair = npcc.clutch._cancelling_pair(g1, h2)
        assert pair == _first_admissible_pair(g1, h2), (g1, h2)
        if pair is None:
            with pytest.raises(NotAdmissibleError):
                find_admissible_reordering(g1, h2)
        else:
            assert find_admissible_reordering(g1, h2) == reorder_at(g1, h2, *pair)
        found["within"] += within is not None
        found["across"] += across is not None
        found["lcm"] += pair is not None
    assert all(300 < n < 1200 for n in found.values()), found


def test_closed_form_defect_matches_the_three_step_functions():
    # clutch_data reads the defect in closed form; the oracle sums the
    # three step functions on every residue.
    rng = random.Random(20261022)

    def delta_pair(d, big_r, n, m3):
        return 1 if (d * big_r * n) % m3 == 0 and (d * n) % m3 != 0 else 0

    def defect_at(d1, d2, r0, n, m3):
        return delta_pair(d1 * d2, r0, n, m3) + delta_pair(d1, d2, n, m3) - delta_pair(1, d2, n, m3)

    def datum(m):
        while True:
            a = [rng.randrange(1, m) for _ in range(rng.randint(2, 5))]
            a.append(-sum(a) % m)
            if a[-1] and math.gcd(m, *a) == 1:
                return MonodromyDatum(m, tuple(a))

    kinds = {True: 0, False: 0}
    defective = {True: 0, False: 0}
    while min(kinds.values()) < 150:
        m1 = rng.randint(2, 30)
        m2 = m1 if rng.random() < 0.5 else rng.randint(2, 30)
        try:
            g1, g2 = find_admissible_reordering(datum(m1), datum(m2))
        except NotAdmissibleError:
            continue
        r = clutch_data(g1, g2)
        f1d = signature(g1).induced(r.d1).values
        f2d = signature(g2).induced(r.d2).values
        expected = tuple(
            a + b + defect_at(r.d1, r.d2, r.r0, n, r.m3)
            for n, a, b in zip(range(1, r.m3), f1d, f2d)
        )
        assert r.f3.values == expected, (g1, g2)
        kinds[r.d1 == r.d2 == 1] += 1
        defective[r.d1 == r.d2 == 1] += r.epsilon > 0
    assert min(defective.values()) >= 30


def _defect_at(d1, d2, r0, n, m3):
    """The defect term at one residue n; the oracle for the strided terms."""
    return (d1 * d2 * r0 * n % m3 == 0) - (d1 * n % m3 == 0) - (d2 * n % m3 == 0)


def test_strided_defect_terms_match_the_per_residue_oracle():
    for m3 in range(2, 31):
        for d1, d2, r0 in itertools.product(range(1, 7), range(1, 7), range(1, 5)):
            expected = [_defect_at(d1, d2, r0, n, m3) for n in range(1, m3)]
            assert npcc.clutch._defect_terms(d1, d2, r0, m3) == expected, (d1, d2, r0, m3)


def test_clutch_report_is_the_composition_of_the_checks():
    # clutch_report builds its report in one pass; the oracle fills in
    # clutch_data's report with the three public checks
    rng = random.Random(20261019)

    def datum(m):
        while True:
            a = [rng.randrange(1, m) for _ in range(rng.randint(2, 5))]
            a.append(-sum(a) % m)
            if a[-1] and math.gcd(m, *a) == 1:
                return MonodromyDatum(m, tuple(a))

    seen = set()
    for k in range(600):
        m1 = rng.randint(2, 20)
        m2 = (m1, m1 * rng.randint(2, 3), rng.randint(2, 20))[k % 3]  # equal, m1 | m2, any
        try:
            g1, g2 = find_admissible_reordering(datum(m1), datum(m2))
        except NotAdmissibleError:
            continue
        m3 = math.lcm(m1, m2)
        p = rng.choice([c for c in range(1, 3 * m3) if math.gcd(c, m3) == 1])
        expected = clutch_data(g1, g2)._replace(
            p_class=p % m3,
            balanced=check_balanced(g1, g2, p),
            compatible=check_compatible(g1, g2, p) if m2 % m1 == 0 else None,
            defects=epsilon_orbits(clutch_data(g1, g2), p),
        )
        assert clutch_report(g1, g2, p) == expected, (g1, g2, p)
        seen.add((expected.compatible, expected.balanced))
    assert seen == {(c, b) for c in (None, False, True) for b in (False, True)}


def test_check_compatible_is_an_empty_violation_list_and_builds_no_fraction(monkeypatch):
    # check_compatible shares compatible_violations' int core, so on
    # seeded pairs with m1 | m2 it answers exactly "no violations", and
    # only compatible_violations turns witness slopes into Fractions
    rng = random.Random(20181105)
    made = 0
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(cls, *args, **kwargs)

    def datum(m):
        a = [rng.randrange(1, m) for _ in range(rng.randint(2, 5))]
        a.append(-sum(a) % m)
        return MonodromyDatum(m, tuple(a), generalized=True)

    outcomes = []
    for _ in range(800):
        m1 = rng.randint(2, 30)
        m2 = m1 * rng.randint(1, 60 // m1)
        g1, g2 = datum(m1), datum(m2)
        p = rng.choice([c for c in range(1, m2 + 1) if math.gcd(c, m2) == 1])
        expected = not compatible_violations(g1, g2, p)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        got = check_compatible(g1, g2, p)
        monkeypatch.undo()
        assert got == expected, (g1, g2, p)
        outcomes.append(got)
    assert made == 0
    assert 150 < sum(outcomes) < len(outcomes) - 150


def _seeded_joints(monkeypatch):
    """The (args, kwargs) of each clutch_report call of seeded chain steps."""
    rng = random.Random(20261031)
    joints = []
    real = generators.clutch_report

    def recording(*args, **kwargs):
        joints.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(generators, "clutch_report", recording)
    bases = [base_case(MonodromyDatum(m, a), c) for m, a, c in (
        (5, (1, 1, 3), 2), (7, (1, 1, 5), 2), (8, (4, 2, 5, 5), 3), (6, (1, 3, 4, 4), 5),
    )]
    for _ in range(120):
        fam = rng.choice(bases)
        m, step = fam.datum.m, rng.randrange(4)
        try:
            if step == 0:
                t = rng.choice([t for t in range(1, m + 1) if m % t == 0])
                fam = pad_and_clutch(fam, t, rng.randint(2, 4))
            elif step == 1:
                fam = self_clutch(fam, rng.randint(2, 4), auto_pad=True)
            elif step == 2:
                fam = extend_ord(fam, rng.randrange(1, m))
            else:
                fam = double_induction(fam, fam, rng.randint(1, 2), rng.randint(1, 2))
        except GeneratorError:  # a step whose hypothesis fails on this family
            continue
        if fam.datum.N < 60:
            bases.append(fam)
    monkeypatch.undo()
    return joints


def test_kept_joint_reports_match_fresh_ones(monkeypatch):
    # every field of a kept report is the field a fresh report computes,
    # with the joint's residue class and without one, as clutch_data asks
    joints = _seeded_joints(monkeypatch)
    assert len(joints) > 100 and len(set(map(repr, joints))) > 50
    for args, kwargs in joints + [(args[:2], {}) for args, _ in joints]:
        kept = clutch_report(*args, **kwargs)
        fresh = clutch_report.__wrapped__(*args, **kwargs)
        for name in kept._fields:
            assert getattr(kept, name) == getattr(fresh, name), (args, name)
        assert clutch_report(*args, **kwargs) is kept


def test_clutch_report_errors_are_not_cached():
    clutch_report.cache_clear()
    for _ in range(2):
        with pytest.raises(NotAdmissibleError):
            clutch_report(G2, G1, 7)
    assert clutch_report.cache_info().currsize == 0
