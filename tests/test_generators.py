"""Tests for certified inductive families and certificate replay."""

import copy
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import npcc
import npcc._memo as _memo
import npcc.cli
from npcc import (
    BadResidueError,
    CertificationError,
    CertifiedFamily,
    DomainError,
    EnumerationCapError,
    GeneratorError,
    InvalidDatumError,
    MonodromyDatum,
    NotABaseCaseError,
    base_case,
    double_induction,
    extend_ord,
    genus,
    mu_ordinary,
    pad_and_clutch,
    pad_last,
    parse,
    payload_base,
    replay,
    self_clutch,
    verify_family,
)
import npcc.clutch as clutch
import npcc.generators as generators
from npcc.generators import BASE_OPS, CHAIN_OPS, MAX_REPLAY_DEPTH

WORKED = MonodromyDatum(8, (2, 2, 2, 5, 5))


def test_base_case_three_points():
    f = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    assert f.claimed_np == parse("(1/3,2/3)")
    assert f.mu_ordinary_claim
    assert f.payload_codim == 0
    assert f.steps[0]["op"] == "base_case"
    assert f.steps[0]["clause"] == "N3"
    assert len(f.assumptions) == 1


def test_base_case_catalog_match():
    # (1,1,1,1,1) mod 5 is a unit multiple of the listed (2,2,2,2,2)
    f = base_case(MonodromyDatum(5, (1, 1, 1, 1, 1)), 4)
    assert f.steps[0]["clause"] == "catalog:M[16]"
    assert f.claimed_np == parse("ss^4+ord^2")


def test_base_case_unique_max_p_rank():
    f = base_case(MonodromyDatum(5, (1, 1, 4, 4)), 4)
    assert f.steps[0]["clause"] == "unique-max-p-rank:N4"
    assert f.claimed_np == parse("ord^4")
    g = base_case(WORKED, 7)
    assert g.steps[0]["clause"] == "unique-max-p-rank:pm1"
    assert g.claimed_np == parse("ord^4+ss^5")


def test_base_case_records_the_large_p_assumption():
    # five branch points, p neither 1 nor -1 mod 5: the clause holds for p >= m (N - 3)
    f = base_case(MonodromyDatum(5, (1, 1, 1, 3, 4)), 2)
    assert f.steps[0]["clause"] == "unique-max-p-rank:large-p"
    assert f.assumptions == (
        "mu-ordinary stratum nonempty for the base datum"
        " (unique maximal p-rank polygon) assuming p >= 10",
    )


def test_base_case_catalog_beats_p_rank_clause():
    # a four-point catalog family reports its catalog label, not N4
    f = base_case(MonodromyDatum(6, (1, 3, 4, 4)), 7)
    assert f.steps[0]["clause"] == "catalog:M[9]"
    assert f.claimed_np == parse("ord^3")


def test_a_generalized_datum_matches_no_listed_family():
    # M[16] with an unbranched label added is no listed family; its
    # base case stands on the p-rank clause instead
    listed = MonodromyDatum(5, (1, 1, 1, 1, 1))
    padded = pad_last(listed)
    assert generators._moonen_match(listed) == "M[16]"
    assert generators._moonen_match(padded) is None
    assert base_case(padded, 4).steps[0]["clause"] == "unique-max-p-rank:pm1"


def test_base_case_refuses_unknown_family():
    with pytest.raises(NotABaseCaseError):
        base_case(MonodromyDatum(7, (1, 1, 1, 1, 3)), 2)


def test_certified_family_validation():
    with pytest.raises(BadResidueError):
        CertifiedFamily(MonodromyDatum(4, (1, 1, 2)), 2, parse("ss"), True)
    with pytest.raises(GeneratorError):
        CertifiedFamily(MonodromyDatum(4, (1, 1, 2)), 3, parse("ss^2"), True)


def test_certified_families_refuse_imprimitive_data():
    # 18:3:6,10,2 is two copies of a genus-3 cover: Riemann-Hurwitz says
    # genus 5, its signature sums to 6.  Each entry point refuses it first.
    datum = MonodromyDatum(18, (6, 10, 2))
    message = r"^datum \(6, 10, 2\) mod 18 is imprimitive$"
    for start in (
        lambda: base_case(datum, 5),
        lambda: payload_base(datum, 5, parse("ord^6")),
        lambda: CertifiedFamily(datum, 5, parse("ord^6"), True),
    ):
        with pytest.raises(InvalidDatumError, match=message):
            start()


def test_payload_base():
    f = payload_base(WORKED, 7, parse("ord^2+ss^7"))
    assert f.payload_codim == 1
    assert not f.mu_ordinary_claim
    top = payload_base(WORKED, 7, parse("ord^4+ss^5"))
    assert top.payload_codim == 0
    assert top.mu_ordinary_claim
    with pytest.raises(GeneratorError):
        payload_base(WORKED, 7, parse("ord^9"))


def test_extend_ord():
    f = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    g = extend_ord(f, 1)
    assert g.datum.a == (1, 6, 1, 1, 5)
    assert g.claimed_np == parse("(1/3,2/3)+ord^6")
    assert g.mu_ordinary_claim
    assert genus(g.datum) == 9
    assert g.steps[-1]["op"] == "extend_ord"
    assert g.steps[-1]["epsilon"] == 6
    with pytest.raises(GeneratorError):
        extend_ord(f, 7)  # zero mod m


def test_extend_ord_at_non_unit():
    # c = 2 mod 4 has t = 2, so only ord^2 is added
    f = base_case(MonodromyDatum(4, (1, 1, 2)), 3)
    g = extend_ord(f, 2)
    assert g.datum.a == (2, 2, 1, 1, 2)
    assert g.claimed_np == parse("ss+ord^2")


def test_self_clutch_with_auto_pad():
    f = base_case(MonodromyDatum(5, (1, 1, 3)), 2)
    assert f.claimed_np == parse("ss^2")
    g = self_clutch(f, 2, auto_pad=True)
    assert g.claimed_np == parse("ss^4+ord^4")
    assert genus(g.datum) == 8
    step = g.steps[-1]
    assert step["op"] == "self_clutch"
    assert step["auto_pad"] is True
    assert step["r"] == 5
    assert step["epsilon"] == 4
    with pytest.raises(GeneratorError):
        self_clutch(f, 2)  # no complementary pair without padding


def test_self_clutch_at_explicit_pair():
    f = extend_ord(base_case(MonodromyDatum(7, (1, 1, 5)), 2), 1)
    g = self_clutch(f, 2, at=(0, 1))
    # r = gcd(1, 7) = 1 leaves no defect
    assert g.steps[-1]["epsilon"] == 0
    assert g.claimed_np == parse("(1/3,2/3)^2+ord^12")
    assert g.claimed_np == mu_ordinary(g.datum, 2)


def test_self_clutch_identity_and_errors():
    f = base_case(MonodromyDatum(5, (1, 1, 3)), 2)
    assert self_clutch(f, 1) is f
    with pytest.raises(GeneratorError):
        self_clutch(f, 0)


def test_pad_and_clutch_chain():
    f = base_case(MonodromyDatum(5, (2, 2, 2, 2, 2)), 4)
    g = pad_and_clutch(f, 5, 3)
    assert g.claimed_np == parse("ss^12+ord^14")
    assert genus(g.datum) == 26
    assert g.claimed_np == mu_ordinary(g.datum, 4)
    assert pad_and_clutch(f, 5, 1) is f
    with pytest.raises(GeneratorError):
        pad_and_clutch(f, 3, 2)  # 3 does not divide 5
    with pytest.raises(GeneratorError):
        pad_and_clutch(f, 5, 0)


def test_pad_and_clutch_with_proper_divisor():
    # t = 2 divides m = 4: each copy is extended by the pair (2, 2)
    f = base_case(MonodromyDatum(4, (1, 1, 2)), 3)
    g = pad_and_clutch(f, 2, 2)
    assert g.claimed_np == parse("ss^2+ord^5")
    assert g.claimed_np == mu_ordinary(g.datum, 3)


def test_pad_and_clutch_payload_keeps_codim():
    f = payload_base(MonodromyDatum(7, (2, 4, 4, 4)), 3, parse("ss^6"))
    assert f.payload_codim == 1
    g = pad_and_clutch(f, 7, 2)
    # one copy keeps the payload, the other is mu-ordinary
    assert g.claimed_np == parse("(1/3,2/3)^2+ss^6+ord^6")
    assert g.payload_codim == 1
    assert not g.mu_ordinary_claim
    report = verify_family(g, deep=True)
    assert report["ok"]
    assert report["codim"] == 1


def test_payload_chain_requires_two_slope_components():
    # the worked family's orbit {1,7} component has three distinct
    # slopes, so payload chains through it are refused
    f = payload_base(WORKED, 7, parse("ord^2+ss^7"))
    with pytest.raises(GeneratorError):
        pad_and_clutch(f, 8, 2)


def _sequential_fold(std, n, p, r):
    """The oracle: clutch n copies of std one joint at a time."""
    accum, what = std, "chain joint balanced with defect r - 1"
    for _ in range(n - 1):
        accum = generators._joint(accum, std, p, r - 1, what, balanced=True).gamma3
    return accum


def _chain_pairs(rng, count):
    """Seeded (std, p, r): data with m <= 40 and N <= 6, ends at a complementary pair."""
    while count:
        m = rng.randint(2, 40)
        p = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
        if rng.random() < 0.5:  # unpadded: a complementary pair among the entries
            x = rng.randrange(1, m)
            rest = [rng.randrange(1, m) for _ in range(rng.randint(1, 3))]
            a = [x, m - x] + rest + [-sum(rest) % m]
            rng.shuffle(a)
            i = a.index(x)
            j = next(k for k in range(len(a)) if k != i and (a[i] + a[k]) % m == 0)
        else:  # padded: two appended unbranched labels
            rest = [rng.randrange(1, m) for _ in range(rng.randint(2, 5))]
            a = rest + [-sum(rest) % m, 0, 0]
            i, j = len(a) - 2, len(a) - 1
        try:
            datum = MonodromyDatum(m, tuple(a), generalized=True)
            datum.validate()
        except DomainError:
            continue
        if len(a) - a.count(0) > 6:
            continue
        count -= 1
        yield generators._reorder_ends(datum, i, j), p, math.gcd(a[i], m)


def test_halving_fold_matches_the_sequential_fold_and_the_direct_build(monkeypatch):
    # n copies glue to a[:-1] + a[1:-1]*(n - 2) + a[1:], genus n*g + (n - 1)(r - 1),
    # through floor(log2 n) + popcount(n) - 1 joints, each balanced with defect r - 1
    reports = []
    joint = generators._joint

    def recording_joint(*args, **kwargs):
        reports.append(joint(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(generators, "_joint", recording_joint)
    rng = random.Random(20181105)
    padded = 0
    for std, p, r in _chain_pairs(rng, 16):
        a, g = std.a, genus(std)
        padded += a[-1] == 0
        for n in range(1, 41):
            expected = _sequential_fold(std, n, p, r)
            reports.clear()
            folded = generators._fold_chain(std, n, p, r)
            direct = a if n == 1 else a[:-1] + a[1:-1] * (n - 2) + a[1:]
            assert folded == expected, (std, p, n)
            assert folded.a == direct and folded.m == std.m, (std, p, n)
            assert genus(folded) == n * g + (n - 1) * (r - 1), (std, p, n)
            assert len(reports) == n.bit_length() + bin(n).count("1") - 2, (std, p, n)
            assert all(rep.balanced and rep.epsilon == r - 1 for rep in reports)
    assert 0 < padded < 16


def test_a_long_self_chain_makes_logarithmically_many_joints(capsys):
    # 340 copies fold in halves through 11 joints, not one joint per copy
    _memo.clear()
    npcc.cli.main(["generate", "--datum", "1193:3:1,1,1191", "--p-class", "1",
                   "--step", "self:340:auto"])
    out = capsys.readouterr().out
    assert _memo.info()["npcc.clutch.clutch_report"].misses == 11
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cdce07f2f10e13636d7d1ed51e3530df4bf3913999466ab5b2d7bd37f8b38496"
    )


def test_double_induction_balanced_product():
    m9 = MonodromyDatum(6, (1, 3, 4, 4))
    f1 = base_case(m9, 5)
    f2 = payload_base(m9, 5, parse("ss^3"))
    g = double_induction(f1, f2, 1, 1)
    assert g.claimed_np == parse("ord^4+ss^4")
    assert g.steps[-1]["balanced"] is True
    assert g.payload_codim == 1
    assert not g.mu_ordinary_claim
    assert verify_family(g, deep=True)["ok"]


def test_double_induction_unbalanced_branch():
    z = base_case(MonodromyDatum(5, (2, 2, 1)), 2)
    m11 = base_case(MonodromyDatum(5, (1, 3, 3, 3)), 2)
    g = double_induction(z, m11, 1, 2)
    assert g.claimed_np == parse("(1/4,3/4)^2+ss^2+ord^4")
    assert g.steps[-1]["balanced"] is False
    assert not g.mu_ordinary_claim
    assert g.payload_codim is None
    assert any("not balanced" in note for note in g.assumptions)
    # the claim still dominates the recomputed mu-ordinary polygon
    assert verify_family(g)["ok"]


def test_double_induction_unbalanced_footnote_pair():
    # the nine-branch pair fails balance at classes 4 and 7
    for c in (4, 7):
        z = base_case(MonodromyDatum(9, (1, 2, 6)), c)
        m19 = base_case(MonodromyDatum(9, (3, 5, 5, 5)), c)
        for n1, n2 in ((1, 1), (2, 1), (1, 2)):
            g = double_induction(z, m19, n1, n2)
            want = parse("(1/3,2/3)").power(n1 + 2 * n2) + parse("ord").power(
                8 * n1 + 9 * n2 - 14
            )
            assert g.claimed_np == want
            assert genus(g.datum) == 11 * n1 + 15 * n2 - 14
            assert not g.mu_ordinary_claim
            assert g.steps[-1]["balanced"] is False


def test_double_induction_errors():
    f1 = base_case(MonodromyDatum(5, (1, 1, 3)), 2)
    other_m = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    with pytest.raises(GeneratorError):
        double_induction(f1, other_m, 1, 1)
    other_class = base_case(MonodromyDatum(5, (1, 1, 3)), 3)
    with pytest.raises(GeneratorError):
        double_induction(f1, other_class, 1, 1)
    with pytest.raises(GeneratorError):
        double_induction(f1, f1, 0, 1)
    payload = payload_base(WORKED, 7, parse("ord^2+ss^7"))
    mu8 = base_case(MonodromyDatum(8, (4, 2, 5, 5)), 7)
    with pytest.raises(GeneratorError):
        double_induction(payload, mu8, 1, 1)  # payload may only ride second


def test_verify_family_reports():
    f = base_case(MonodromyDatum(5, (1, 1, 3)), 2)
    rep = verify_family(f)
    assert rep["ok"] and rep["mu_match"]
    assert rep["datum"] == "5:3:1,1,3"
    deep = verify_family(payload_base(WORKED, 7, parse("ss^9")), deep=True)
    assert deep["ok"]
    assert deep["codim"] == 2 == deep["payload_codim"]


def test_verify_family_reads_the_kottwitz_set_with_its_cap():
    # 13:4:1,2,3,7 at class 4 has a Kottwitz set of 9 elements
    datum = MonodromyDatum.from_text("13:4:1,2,3,7")
    f = payload_base(datum, 4, parse("(1/3,2/3)^4"), cap=9)
    deep = verify_family(f, deep=True, cap=9)
    assert deep["ok"] and deep["codim"] == f.payload_codim
    with pytest.raises(EnumerationCapError, match="more than 8 elements"):
        verify_family(f, deep=True, cap=8)
    assert verify_family(f, cap=8)["ok"]  # the shallow check builds no set
    for cap in (0, None):
        with pytest.raises(EnumerationCapError, match="^the cap must be at least 1"):
            verify_family(f, cap=cap)


def test_certificate_replay_round_trip():
    f = base_case(MonodromyDatum(5, (2, 2, 2, 2, 2)), 4)
    g = pad_and_clutch(f, 5, 2)
    cert = g.certificate()
    assert cert["version"] == 1
    assert cert["polygon_text"] == str(g.claimed_np)
    h = replay(cert)
    assert h.datum == g.datum
    assert h.claimed_np == g.claimed_np
    assert h.certificate() == cert


def test_replay_of_double_induction_certificate():
    z = base_case(MonodromyDatum(5, (2, 2, 1)), 3)
    m11 = base_case(MonodromyDatum(5, (1, 3, 3, 3)), 3)
    g = double_induction(z, m11, 2, 2)
    h = replay(g.certificate())
    assert h.certificate() == g.certificate()


def test_replay_bounds_a_nested_base_step_by_its_cap():
    # Only the nested base step reads a Kottwitz set, of 2 elements.
    z = base_case(MonodromyDatum(3, (1, 1, 1)), 1)
    other = payload_base(MonodromyDatum(3, (1, 1, 2, 2)), 1, parse("ss^2"))
    g = double_induction(z, other, 1, 2)
    assert replay(g.certificate(), cap=2).certificate() == g.certificate()
    with pytest.raises(EnumerationCapError, match="^more than 1 candidates on orbit"):
        replay(g.certificate(), cap=1)


def test_replay_rejects_bad_certificates():
    f = base_case(MonodromyDatum(5, (1, 1, 3)), 2)
    cert = f.certificate()
    bad = dict(cert)
    bad["version"] = 2
    with pytest.raises(GeneratorError):
        replay(bad)
    with pytest.raises(GeneratorError):
        replay({"version": 1, "steps": []})
    tampered = f.certificate()
    tampered["polygon"] = parse("ord^2").to_json_obj()
    with pytest.raises(GeneratorError):
        replay(tampered)


def _chain_certificate() -> dict:
    return pad_and_clutch(base_case(MonodromyDatum(7, (1, 1, 5)), 2), 7, 2).certificate()


# (step index or None for the certificate itself, field, tampered value)
TAMPERINGS = [
    (None, "assumptions", []),
    (None, "mu_ordinary_claim", False),
    (None, "payload_codim", None),
    (None, "polygon_text", "ord^24"),
    (None, "p_class", 9),
    (1, "epsilon", 999),
    (1, "balanced", False),
    (0, "clause", "made-up"),
    (0, "note", "extra"),
]


@pytest.mark.parametrize("step, field, value", TAMPERINGS, ids=[t[1] for t in TAMPERINGS])
def test_replay_refuses_each_tampered_field(step, field, value):
    cert = _chain_certificate()
    (cert if step is None else cert["steps"][step])[field] = value
    key = field if step is None else "steps"
    with pytest.raises(GeneratorError, match=f"^replay produced a different {key}$"):
        replay(cert)


# Values equal to the recorded ones under Python ==, of another JSON type.
RETYPINGS = [
    (None, "mu_ordinary_claim", 1),
    (None, "payload_codim", 0.0),
    (1, "balanced", 1),
]


@pytest.mark.parametrize(
    "step, field, value", RETYPINGS, ids=[f"{t[1]}-{t[2]!r}" for t in RETYPINGS]
)
def test_replay_refuses_each_retyped_field(step, field, value):
    cert = json.loads(json.dumps(_chain_certificate()))
    target = cert if step is None else cert["steps"][step]
    assert target[field] == value
    target[field] = value
    key = field if step is None else "steps"
    with pytest.raises(GeneratorError, match=f"^replay produced a different {key}$"):
        replay(cert)


def test_replay_names_the_first_tampered_field():
    cert = _chain_certificate()
    cert["assumptions"] = []
    cert["mu_ordinary_claim"] = False
    cert["steps"][1]["epsilon"] = 999
    cert["steps"][0]["clause"] = "made-up"
    with pytest.raises(GeneratorError, match="^replay produced a different mu_ordinary_claim$"):
        replay(cert)


def test_replay_refuses_a_tampered_nested_certificate():
    z = base_case(MonodromyDatum(5, (2, 2, 1)), 3)
    m11 = base_case(MonodromyDatum(5, (1, 3, 3, 3)), 3)
    cert = double_induction(z, m11, 1, 2).certificate()
    cert["steps"][-1]["other"]["assumptions"].append("made-up")
    with pytest.raises(GeneratorError, match="^replay produced a different assumptions$"):
        replay(cert)


def test_replay_refuses_a_different_datum():
    cert = _chain_certificate()
    cert["datum"] = MonodromyDatum(7, (1, 1, 5)).to_json_obj()
    with pytest.raises(GeneratorError, match="^replay produced a different datum$"):
        replay(cert)


def test_replay_refuses_a_misordered_derivation():
    cert = _chain_certificate()
    base, chain = cert["steps"]
    for steps, message in [
        ([base, base], "base step must come first"),
        ([chain, base], "derivation does not start at a base step"),
        ([base, {**chain, "op": "fold"}], "unknown step op 'fold'"),
        ([], "empty derivation"),
    ]:
        with pytest.raises(GeneratorError, match=f"^{message}$"):
            replay({**cert, "steps": steps})


def _certificate_with_step(**fields):
    """A valid one-step certificate whose base step gets the given fields."""
    cert = base_case(MonodromyDatum(5, (1, 1, 3)), 2).certificate()
    cert["steps"][0].update(fields)
    return cert


@pytest.mark.parametrize(
    "cert, message",
    [
        ({"version": 1, "steps": [{"op": "base_case"}]}, "needs 'datum'"),
        ([], "must be a JSON object"),
        ({"version": 1, "steps": "base_case"}, "needs 'steps' as an array"),
        (_certificate_with_step(datum=None), "needs 'datum' as an object"),
        (_certificate_with_step(datum={"m": 5}), "bad datum JSON"),
        (_certificate_with_step(datum={"m": 5, "a": ["x", 1, 3]}), "bad datum JSON"),
        (_certificate_with_step(p_class="2"), "needs 'p_class' as an integer"),
        (_certificate_with_step(p_class=True), "needs 'p_class' as an integer"),
        (_certificate_with_step(op="payload_base"), "needs 'polygon' as an array"),
        (_certificate_with_step(op="payload_base", polygon=[{"num": 1}]), "bad polygon JSON"),
        (
            _certificate_with_step(op="payload_base", polygon=[{"num": 1, "den": 2, "mult": "x"}]),
            "bad polygon JSON",
        ),
    ],
)
def test_replay_rejects_malformed_certificates(cert, message):
    with pytest.raises(GeneratorError, match=message):
        replay(cert)


@pytest.mark.parametrize("mult", [True, 2.9, 2.0, "2", None], ids=repr)
def test_replay_refuses_a_payload_polygon_of_non_integer_json(mult):
    """A multiplicity that is not a JSON integer is refused where the step
    is read, not turned into another polygon that then fails to occur."""
    cert = payload_base(MonodromyDatum.from_text("2:4:1,1,1,1"), 1, parse("ss")).certificate()
    assert replay(copy.deepcopy(cert)).claimed_np == parse("ss")
    cert["steps"][0]["polygon"] = [{"num": 1, "den": 2, "mult": mult}]
    with pytest.raises(GeneratorError, match=r"^step 'payload_base': bad polygon JSON"):
        replay(cert)


# Mu-ordinary chains, each a datum, a class and its --step forms.
FRACTION_FREE_CHAINS = [
    ("7:3:1,1,5", 2, ["self:3:auto"]),
    ("7:3:1,1,5", 2, ["pad:1:2", "extend:2"]),
    ("12:3:1,4,7", 5, ["pad:3:2", "self:2"]),
]


def test_mu_ordinary_chains_build_no_fraction_but_witness_slopes(monkeypatch):
    """Building, dumping, replaying and verifying a mu-ordinary chain does
    its polygon arithmetic in ints: the only Fractions made are the
    witness slopes that compatible_violations returns."""
    made = witnesses = 0
    fraction_new = Fraction.__new__
    violations = clutch.compatible_violations

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return fraction_new(cls, *args, **kwargs)

    def counting_violations(*args):
        nonlocal witnesses
        found = violations(*args)
        witnesses += len(found)
        return found

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(clutch, "compatible_violations", counting_violations)
    Fraction(1, 3)
    assert made == 1  # the count sees every construction
    made = 0
    for text, p, forms in FRACTION_FREE_CHAINS:
        fam = base_case(MonodromyDatum.from_text(text), p)
        for form in forms:
            (op,) = [op for op in CHAIN_OPS.values() if op.parse(form) is not None]
            fam = op.run(fam, **op.parse(form))
        assert fam.mu_ordinary_claim and len(fam.steps) == len(forms) + 1
        back = replay(json.loads(json.dumps(fam.certificate())))
        assert back.claimed_np == fam.claimed_np
        assert verify_family(back)["ok"]
    assert made == witnesses


def test_replay_rejects_malformed_later_steps():
    f = base_case(MonodromyDatum(5, (1, 1, 3)), 2)
    cert = f.certificate()
    for step, message in [
        ("not a step", "step must be a JSON object"),
        ({"op": "extend_ord"}, "needs 'c' as an integer"),
        ({"op": "self_clutch", "n": 2}, "needs 'at' as an array"),
        ({"op": "self_clutch", "n": 2, "at": [0, 1, 2]}, "needs 'at' as two integer labels"),
        ({"op": "self_clutch", "n": 2, "at": [0, "1"]}, "needs 'at' as two integer labels"),
        ({"op": "pad_and_clutch", "t": 5}, "needs 'n' as an integer"),
        ({"op": "double_induction", "n1": 1, "n2": 1}, "needs 'other' as an object"),
        ({"op": "double_induction", "n1": 1, "other": cert}, "needs 'n2' as an integer"),
    ]:
        bad = f.certificate()
        bad["steps"].append(step)
        with pytest.raises(GeneratorError, match=message):
            replay(bad)


GOLDEN = Path(__file__).resolve().parent / "data" / "certificate_golden.json"

# One constant of each JSON type.
_JSON_CONSTANTS = (None, True, 0, 1.5, "x", [], {})


def _json_nodes(value, path=()):
    """(path, value) of every value in a JSON document, the document first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _json_nodes(child, path + (key,))


def _single_edit(rng, cert):
    """A copy of cert with one edit: a value given another JSON type, an
    int moved by one, a key dropped or a list item dropped."""
    edited = copy.deepcopy(cert)
    nodes = list(_json_nodes(edited))
    while True:
        path, value = rng.choice(nodes)
        kind = rng.choice(("retype", "nudge", "drop key", "drop item"))
        if kind == "drop key" and isinstance(value, dict) and value:
            del value[rng.choice(list(value))]
        elif kind == "drop item" and isinstance(value, list) and value:
            del value[rng.randrange(len(value))]
        elif kind in ("retype", "nudge") and path and (kind == "retype" or type(value) is int):
            parent = edited
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = (
                rng.choice([c for c in _JSON_CONSTANTS if type(c) is not type(value)])
                if kind == "retype" else value + rng.choice((-1, 1))
            )
        else:
            continue
        return edited


def test_replay_refuses_or_reproduces_each_single_edit_of_the_golden_certificates():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    certs = list(golden["families"].values())
    certs += [case["certificate"] for case in golden["cases"] if "certificate" in case]
    rng = random.Random(20181104)
    refusals = set()
    for _ in range(4000):
        edited = _single_edit(rng, rng.choice(certs))
        try:
            rebuilt = replay(edited).certificate()
        except DomainError as exc:
            refusals.add(str(exc))
            continue
        # Accepted only when replay gives back the very bytes it read.
        assert json.dumps(rebuilt, sort_keys=True) == json.dumps(edited, sort_keys=True)
    assert len(refusals) > 100  # the edits reach many different checks


def test_replay_refuses_a_golden_certificate_missing_any_field():
    # Every field replay writes must be present, a null "payload_codim" too.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    certs = [case["certificate"] for case in golden["cases"] if "certificate" in case]
    assert sum("payload_codim" in cert and cert["payload_codim"] is None for cert in certs) > 0
    for cert in certs:
        for key in cert:
            with pytest.raises(GeneratorError):
                replay({k: v for k, v in cert.items() if k != key})


def test_replay_refuses_a_modulus_above_the_bound():
    cert = base_case(MonodromyDatum(5, (1, 1, 3)), 2).certificate()
    cert["steps"][0]["datum"] = {"m": 100003, "a": [1, 1, 100001], "generalized": False}
    with pytest.raises(GeneratorError, match="m = 100003 is above MAX_MODULUS"):
        replay(cert)


def test_base_case_honours_the_cap():
    datum = MonodromyDatum(20, (14, 9, 19, 19, 8, 11))
    with pytest.raises(EnumerationCapError, match="more than 60 elements"):
        base_case(datum, 1, cap=60)


def test_replay_bounds_nesting_depth():
    inner = base_case(MonodromyDatum(5, (1, 1, 3)), 2).certificate()
    cert = inner
    for _ in range(MAX_REPLAY_DEPTH + 1):
        outer = copy.deepcopy(inner)
        outer["steps"].append({"op": "double_induction", "n1": 1, "n2": 1, "other": cert})
        cert = outer
    with pytest.raises(GeneratorError, match=f"more than {MAX_REPLAY_DEPTH} levels"):
        replay(cert)


def _sized_steps():
    """(family, op name, keywords) covering every op and size branch."""
    n3 = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    paired = base_case(MonodromyDatum(4, (1, 2, 2, 3)), 3)
    payload = payload_base(MonodromyDatum(4, (1, 2, 2, 3)), 3, parse("ss^2"))
    other = base_case(MonodromyDatum(5, (4, 2, 4)), 4)
    cases = []
    for fam in (n3, paired, payload):
        m = fam.datum.m
        cases += [(fam, "extend_ord", {"c": c}) for c in range(1, m)]
        cases += [
            (fam, "pad_and_clutch", {"t": t, "n": n})
            for t in range(1, m + 1) if m % t == 0 for n in (1, 2, 3)
        ]
        cases += [(fam, "self_clutch", {"n": n, "auto_pad": True}) for n in (1, 2, 3)]
    cases += [(paired, "self_clutch", {"n": 3, "at": (1, 2)})]
    five = base_case(MonodromyDatum(5, (1, 1, 3)), 4)
    cases += [
        (five, "double_induction", {"other": other, "n1": n1, "n2": n2})
        for n1 in (1, 2) for n2 in (1, 2, 3)
    ]
    crossed_payload = payload_base(MonodromyDatum(3, (1, 1, 2, 2)), 1, parse("ss^2"))
    three = base_case(MonodromyDatum(3, (1, 1, 1)), 1)
    cases += [
        (three, "double_induction", {"other": crossed_payload, "n1": n1, "n2": n2})
        for n1 in (1, 2) for n2 in (1, 2, 3)
    ]
    return cases


def test_each_chain_op_refuses_results_over_the_bound(monkeypatch):
    for fam, name, keywords in _sized_steps():
        op = CHAIN_OPS[name]
        size = op.run(fam, **keywords).datum.N
        monkeypatch.setattr(generators, "MAX_BRANCH_POINTS", size - 1)
        with pytest.raises(GeneratorError, match=f"'{name}' would give {size} branch points"):
            op.run(fam, **keywords)
        monkeypatch.setattr(generators, "MAX_BRANCH_POINTS", size)
        assert op.run(fam, **keywords).datum.N == size, (name, keywords)
        monkeypatch.undo()


def _refused_quickly(call, message):
    start = time.perf_counter()
    with pytest.raises(GeneratorError, match=message):
        call()
    assert time.perf_counter() - start < 1.0


def test_chain_steps_are_bounded_before_clutching(monkeypatch):
    _memo.clear()  # no answer kept by an earlier test stands in for a joint
    fam = base_case(MonodromyDatum(7, (1, 1, 5)), 2)
    # A joint clutched before the bound is checked would fail loudly.
    monkeypatch.setattr(generators, "clutch_report", None)
    _refused_quickly(
        lambda: self_clutch(fam, 2000, auto_pad=True),
        "^step 'self_clutch' would give 6002 branch points, more than MAX_BRANCH_POINTS = 1024$",
    )
    _refused_quickly(lambda: self_clutch(fam, 341, auto_pad=True), "1025 branch points")
    _refused_quickly(lambda: pad_and_clutch(fam, 7, 400), "'pad_and_clutch' would give 1202")
    _refused_quickly(lambda: pad_and_clutch(fam, 1, 400), "'pad_and_clutch' would give 1202")
    _refused_quickly(
        lambda: double_induction(fam, fam, 300, 300), "'double_induction' would give 1802"
    )
    wide = MonodromyDatum(7, (1,) * 1021 + (3, 5))
    big = CertifiedFamily(wide, 2, mu_ordinary(wide, 2), True)
    _refused_quickly(lambda: extend_ord(big, 1), "'extend_ord' would give 1025 branch points")
    # 340 copies give 1022 points, within the bound, so the op goes on to clutch.
    with pytest.raises(TypeError, match="'NoneType' object is not callable"):
        self_clutch(fam, 340, auto_pad=True)
    monkeypatch.undo()
    cert = self_clutch(fam, 2, auto_pad=True).certificate()
    for n in (341, 100000):
        cert["steps"][-1]["n"] = n
        _refused_quickly(lambda: replay(cert), f"would give {3 * n + 2} branch points")
    cert = fam.certificate()
    cert["steps"].append({"op": "pad_and_clutch", "t": 7, "n": 400})
    _refused_quickly(lambda: replay(cert), "'pad_and_clutch' would give 1202 branch points")
    other = fam.certificate()
    cert = fam.certificate()
    cert["steps"].append({"op": "double_induction", "n1": 300, "n2": 300, "other": other})
    _refused_quickly(lambda: replay(cert), "'double_induction' would give 1802 branch")


def test_chain_op_cli_forms():
    forms = {name: op.cli for name, op in CHAIN_OPS.items()}
    assert forms == {
        "pad_and_clutch": "pad:T:N",
        "self_clutch": "self:N[:auto]",
        "extend_ord": "extend:C",
        "double_induction": None,
    }
    parsed = {
        text: [(name, op.parse(text)) for name, op in CHAIN_OPS.items() if op.parse(text)]
        for text in ("pad:5:3", "self:2", "self:2:auto", "extend:3", "self:2:pad", "pad:5",
                     "extend:x", "double:1:1", "self:auto")
    }
    assert parsed == {
        "pad:5:3": [("pad_and_clutch", {"t": 5, "n": 3})],
        "self:2": [("self_clutch", {"n": 2})],
        "self:2:auto": [("self_clutch", {"n": 2, "auto_pad": True})],
        "extend:3": [("extend_ord", {"c": 3})],
        "self:2:pad": [],
        "pad:5": [],
        "extend:x": [],
        "double:1:1": [],
        "self:auto": [],
    }


def _json_containers(value):
    """Every dict and list inside a JSON value, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _json_containers(item)


def test_a_returned_certificate_is_a_copy():
    z = base_case(MonodromyDatum(5, (2, 2, 1)), 3)
    m11 = base_case(MonodromyDatum(5, (1, 3, 3, 3)), 3)
    fam = double_induction(z, m11, 1, 2)
    before = fam.certificate()
    edits = [
        lambda cert: cert.update(p_class=99),
        lambda cert: cert["steps"][0].update(clause="made-up"),
        lambda cert: cert["steps"][0]["datum"]["a"].append(7),
        lambda cert: cert["steps"][-1]["other"]["assumptions"].append("made-up"),
        lambda cert: cert["steps"][-1]["other"]["steps"][0]["datum"]["a"].clear(),
    ]
    for edit in edits:
        cert = fam.certificate()
        edit(cert)
        assert cert != before
        assert fam.certificate() == before
    first, second = fam.certificate(), fam.certificate()
    assert first == second
    shared = {id(c) for c in _json_containers(first)} & {id(c) for c in _json_containers(second)}
    assert not shared
    with pytest.raises(TypeError):
        fam.steps[0]["clause"] = "made-up"


def _layout_keys(op):
    return tuple(item if isinstance(item, str) else item[0] for item in op.layout)


def test_each_step_writes_its_ops_layout_and_replays_to_itself():
    ops = {**BASE_OPS, **CHAIN_OPS}
    seen = set()

    def check_steps(cert):
        for step in cert["steps"]:
            assert tuple(step) == ("op",) + _layout_keys(ops[step["op"]]), step
            seen.add(step["op"])
            if step["op"] == "double_induction":
                check_steps(step["other"])

    for fam, name, keywords in _sized_steps():
        cert = CHAIN_OPS[name].run(fam, **keywords).certificate()
        check_steps(cert)
        assert replay(json.loads(json.dumps(cert))).certificate() == cert
    assert seen == set(ops)


def test_a_certificate_replays_the_same_with_kept_and_cleared_memos():
    # replay right after a step reads the joints the step kept; once the
    # memos are cleared it rebuilds them, to the same certificate
    for fam, name, keywords in _sized_steps():
        cert = CHAIN_OPS[name].run(fam, **keywords).certificate()
        assert replay(cert).certificate() == cert, (name, keywords)
        _memo.clear()
        assert replay(cert).certificate() == cert, (name, keywords)


CERTIFY_UNDER_O = """\
import npcc.generators as gen
from npcc import EMPTY, CertificationError, MonodromyDatum

assert False, "assert statements run; the interpreter is not under -O"
fam = gen.base_case(MonodromyDatum(7, (1, 1, 5)), 2)


def attempt(name, fake, call):
    real = getattr(gen, name)
    setattr(gen, name, fake)
    try:
        call()
    except CertificationError as exc:
        print(exc)
    else:
        print("no error")
    finally:
        setattr(gen, name, real)


report = gen.clutch_report
attempt("genus", lambda datum: 1, lambda: gen.extend_ord(fam, 3))
attempt("mu_ordinary", lambda datum, p: EMPTY, lambda: gen.self_clutch(fam, 2, auto_pad=True))
unbalanced = lambda *args, **kwargs: report(*args, **kwargs)._replace(balanced=False)
attempt("clutch_report", unbalanced, lambda: gen.pad_and_clutch(fam, 7, 2))
"""


def test_certification_checks_survive_python_O():
    src = str(Path(npcc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFY_UNDER_O],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "certification check failed: the extending cover has genus 0",
        "certification check failed: mu-ordinary claim recomputes on the chained datum",
        "certification check failed: chain joint balanced with defect r - 1",
    ]
    assert issubclass(CertificationError, GeneratorError)
