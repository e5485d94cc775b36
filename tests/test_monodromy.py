"""Tests for monodromy data and signature arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from npcc import (
    DomainError,
    InvalidDatumError,
    MonodromyDatum,
    Signature,
    base_case,
    genus,
    induce,
    normalize,
    pad_first,
    pad_last,
    self_clutch,
    signature,
    strip_zeros,
)
from npcc.generators import MAX_BRANCH_POINTS
from npcc.monodromy import MAX_MODULUS


def test_datum_basics():
    d = MonodromyDatum(5, (2, 2, 2, 2, 2))
    assert d.m == 5
    assert d.N == 5
    assert d.a == (2, 2, 2, 2, 2)
    assert d.text() == "5:5:2,2,2,2,2"
    assert MonodromyDatum.from_text("5:5:2,2,2,2,2") == d
    assert str(d) == d.text()


@pytest.mark.parametrize(
    "text", ["1_1:3:1,1,9", " 5 : 3 : 1,1,3", "5:3:+1,1,3", "5:3:1,1,٣", "5:3:1,1,3.0", "5:3:1,1,--3"],
)
def test_datum_text_takes_only_an_optional_minus_and_ascii_digits(text):
    with pytest.raises(InvalidDatumError, match="^bad datum text"):
        MonodromyDatum.from_text(text)


def test_datum_text_keeps_a_minus_and_surrounding_space():
    assert MonodromyDatum.from_text(" 5:3:1,-4,3\n") == MonodromyDatum(5, (1, 1, 3))


def test_datum_json_round_trip():
    d = MonodromyDatum(8, (4, 2, 5, 5))
    assert MonodromyDatum.from_json_obj(d.to_json_obj()) == d


@pytest.mark.parametrize(
    "obj",
    [
        {"m": 5, "a": [1, 4, 0], "generalized": "false"},
        {"m": 5, "a": [True, 4, 0], "generalized": True},
        {"m": 5.9, "a": [1, 4, 0], "generalized": True},
        {"m": 5, "a": [1, 4, "0"], "generalized": True},
    ],
    ids=["generalized string", "entry bool", "m float", "entry string"],
)
def test_datum_json_takes_only_json_integers_and_booleans(obj):
    # Read by int() and bool(), each would pass for the generalized datum 5:3:1,4,0.
    with pytest.raises(InvalidDatumError) as raised:
        MonodromyDatum.from_json_obj(obj)
    assert str(raised.value) == f"bad datum JSON: {obj!r}"


def test_read_data_are_bounded_by_the_modulus_bound():
    top = MonodromyDatum(MAX_MODULUS, (1, 1, MAX_MODULUS - 2))
    assert MonodromyDatum.from_text(top.text()) == top
    assert MonodromyDatum.from_json_obj(top.to_json_obj()) == top
    above = MonodromyDatum(MAX_MODULUS + 1, (1, 1, MAX_MODULUS - 1))
    message = f"m = {MAX_MODULUS + 1} is above MAX_MODULUS = {MAX_MODULUS}"
    with pytest.raises(InvalidDatumError, match=message):
        MonodromyDatum.from_text(above.text())
    with pytest.raises(InvalidDatumError, match=message):
        MonodromyDatum.from_json_obj(above.to_json_obj())


def test_datum_validation():
    with pytest.raises(DomainError):
        MonodromyDatum(1, (0, 0, 0))
    with pytest.raises(DomainError):
        MonodromyDatum(5, (1, 2))  # too few labels, bad sum
    with pytest.raises(DomainError):
        MonodromyDatum(5, (1, 4, 5))  # 5 reduces to a zero entry
    # zero residues are fine on generalized data only
    MonodromyDatum(5, (0, 1, 4), generalized=True)
    with pytest.raises(DomainError):
        MonodromyDatum(5, (0, 1, 4))
    # primitive means the entries and m have no common factor
    MonodromyDatum(6, (1, 1, 4)).validate()
    with pytest.raises(DomainError):
        MonodromyDatum(6, (2, 2, 2)).validate()


@pytest.mark.parametrize(
    "m, a, message",
    [
        (0, (1, 1, 1), "m = 0 < 1"),
        (1, (1, 1, 1), "m = 1 < 2"),
        (5, (1, 4), "N = 2 < 3"),
        (5, (1, 1, 1), "entries (1, 1, 1) do not sum to 0 mod 5"),
        (5, (1, 4, 0), "zero entry in non-generalized datum (1, 4, 0)"),
        (5, (1, 4, 5), "zero entry in non-generalized datum (1, 4, 0)"),
        # a datum wrong in two ways gets the first message in this order
        (1, (1, 1), "m = 1 < 2"),
        (5, (1, 1), "N = 2 < 3"),
        (5, (1, 1, 0), "entries (1, 1, 0) do not sum to 0 mod 5"),
    ],
)
def test_datum_is_checked_when_made(m, a, message):
    makers = [
        lambda: MonodromyDatum(m, a),
        lambda: MonodromyDatum.from_json_obj({"m": m, "a": list(a)}),
    ]
    if not message.startswith("zero entry"):  # text marks a zero entry generalized
        makers.append(lambda: MonodromyDatum.from_text(f"{m}:{len(a)}:{','.join(map(str, a))}"))
    for make in makers:
        with pytest.raises(InvalidDatumError) as exc:
            make()
        assert str(exc.value) == message


def test_strip_zeros_refuses_fewer_than_three_branched_labels():
    with pytest.raises(InvalidDatumError) as exc:
        strip_zeros(MonodromyDatum(5, (0, 1, 4), generalized=True))
    assert str(exc.value) == "N = 2 < 3"


def test_signature_values_hand_checked():
    # fractional-part sums computed by hand
    assert signature(MonodromyDatum(4, (1, 1, 2))).values == (1, 0, 0)
    assert signature(MonodromyDatum(8, (4, 2, 5, 5))).values == (1, 1, 0, 0, 2, 0, 1)
    assert signature(MonodromyDatum(8, (2, 2, 2, 5, 5))).values == (2, 2, 0, 0, 3, 1, 1)
    assert signature(MonodromyDatum(5, (2, 2, 2, 2, 2))).values == (2, 0, 3, 1)


def test_signature_total_matches_genus_for_primitive_data():
    for d in [
        MonodromyDatum(4, (1, 1, 2)),
        MonodromyDatum(8, (4, 2, 5, 5)),
        MonodromyDatum(5, (2, 2, 2, 2, 2)),
        MonodromyDatum(9, (3, 5, 5, 5)),
        MonodromyDatum(7, (1, 1, 5)),
    ]:
        f = signature(d)
        assert f.total == genus(d)


def test_signature_call_and_reduction():
    f = signature(MonodromyDatum(4, (1, 1, 2)))
    assert f(1) == 1 and f(2) == 0 and f(3) == 0
    assert f(5) == f(1)  # indices reduce mod m
    assert f(4) == 0  # the trivial character carries no differentials
    assert f(0) == 0


def test_signature_clamp_on_imprimitive_datum():
    # every n*a(i) is 0 mod 6 when n = 3, so the raw sum would be -1
    f = signature(MonodromyDatum(6, (2, 2, 4, 4)))
    assert f(3) == 0
    assert f.values == (1, 1, 0, 1, 1)


def test_signature_of_generalized_datum():
    # zero residues contribute nothing to any character
    plain = signature(MonodromyDatum(5, (1, 3, 3, 3)))
    padded = signature(MonodromyDatum(5, (0, 1, 3, 3, 3, 0), generalized=True))
    assert plain.values == padded.values


def test_genus_values():
    assert genus(MonodromyDatum(4, (1, 1, 2))) == 1
    assert genus(MonodromyDatum(6, (1, 3, 4, 4))) == 3
    assert genus(MonodromyDatum(8, (2, 2, 2, 5, 5))) == 9
    assert genus(MonodromyDatum(12, (4, 6, 7, 7))) == 7
    assert genus(MonodromyDatum(3, (1, 1, 1))) == 1


def test_induce():
    d = MonodromyDatum(4, (1, 1, 2))
    assert induce(d, 2) == MonodromyDatum(8, (2, 2, 4))
    assert induce(d, 1) == d
    with pytest.raises(DomainError):
        induce(d, 0)


def test_induced_signature_restricts_mod_m():
    d = MonodromyDatum(4, (1, 1, 2))
    f = signature(d)
    f2 = signature(induce(d, 3))
    assert f.induced(3).values == f2.values
    # characters of the induced datum only see the residue mod the old m
    for n in range(1, 12):
        assert f2(n) == f(n % 4)
    # the induced cover is 3 disjoint copies, so dimensions triple
    assert f2.total == 3 * f.total


def test_normalize():
    # scaling (1,3,3,3) mod 5 by the unit 2 gives residues (2,1,1,1)
    assert normalize(MonodromyDatum(5, (1, 3, 3, 3))) == (1, 1, 1, 2)
    # already minimal
    assert normalize(MonodromyDatum(3, (1, 1, 1))) == (1, 1, 1)
    # scale invariance: every unit multiple has the same normal form
    base = MonodromyDatum(7, (2, 4, 4, 4))
    for t in range(1, 7):
        scaled = MonodromyDatum(7, tuple(t * x % 7 for x in base.a))
        assert normalize(scaled) == normalize(base)


def test_pad_and_strip():
    d = MonodromyDatum(5, (2, 2, 1))
    assert pad_first(d) == MonodromyDatum(5, (0, 2, 2, 1), generalized=True)
    assert pad_last(d) == MonodromyDatum(5, (2, 2, 1, 0), generalized=True)
    assert pad_first(d).generalized
    assert strip_zeros(pad_first(pad_last(d))) == d
    assert strip_zeros(d) == d


def test_signature_rejects_mismatched_values():
    with pytest.raises(DomainError):
        Signature(5, (1, 2, 3))  # needs m - 1 entries


def _signature_by_fractions(datum):
    """The Fraction-per-branch-point signature; the oracle for signature()."""
    m = datum.m
    vals = []
    for n in range(1, m):
        terms = [(-n * ai) % m for ai in datum.a if ai % m]
        if not any(terms):
            vals.append(0)
            continue
        total = -1 + sum(Fraction(t, m) for t in terms)
        if total.denominator != 1 or total < 0:
            raise InvalidDatumError(
                f"non-integral or negative eigenspace dimension {total} at n = {n}"
            )
        vals.append(int(total))
    return Signature(m, tuple(vals))


def _seeded_data(seed, count):
    """Primitive, induced (imprimitive) and zero-padded generalized data."""
    rng = random.Random(seed)
    out = []
    while len(out) < 3 * count:
        m = rng.randint(2, 30)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(2, 6))]
        last = -sum(a) % m
        if last == 0:
            continue
        datum = MonodromyDatum(m, tuple(a) + (last,))
        if math.gcd(m, *datum.a) != 1:
            continue
        out.append(datum)
        out.append(induce(datum, rng.randint(2, 4)))
        zeros = [0] * rng.randint(1, 3)
        entries = list(datum.a) + zeros
        rng.shuffle(entries)
        out.append(MonodromyDatum(m, tuple(entries), generalized=True))
    return out


def test_signature_matches_fraction_oracle():
    data = _seeded_data(20260, 150)
    assert any(math.gcd(d.m, *d.a) > 1 for d in data)
    assert any(0 in d.a for d in data)
    for datum in data:
        assert signature(datum) == _signature_by_fractions(datum), datum


class _Unvalidated(MonodromyDatum):
    """A datum whose construction checks are skipped, to reach the defensive checks."""

    def __post_init__(self):
        pass


@pytest.mark.parametrize("a", [(1,), (1, 1), (1, 1, 1), (2, 3, 4, 4)])
def test_signature_error_message_matches_fraction_oracle(a):
    # entries not summing to 0 mod m give a negative or non-integral dimension
    datum = _Unvalidated(5, a)
    with pytest.raises(InvalidDatumError) as oracle:
        _signature_by_fractions(datum)
    with pytest.raises(InvalidDatumError) as fast:
        signature(datum)
    assert str(fast.value) == str(oracle.value)


def test_signature_cache_matches_its_body():
    for datum in _seeded_data(20261, 40):
        assert signature(datum) == signature.__wrapped__(datum), datum
        assert signature(datum) is signature(datum)


def test_signature_errors_are_not_cached():
    bad = _Unvalidated(5, (1, 1, 1))
    for _ in range(2):
        with pytest.raises(InvalidDatumError):
            signature(bad)


def _signature_all_entries(datum):
    """The integer loop over all N entries; the oracle for the counted sum."""
    m = datum.m
    vals = []
    for n in range(1, m):
        s = sum((-n * ai) % m for ai in datum.a)
        if not s:
            vals.append(0)
            continue
        q, r = divmod(s - m, m)
        if r or q < 0:
            raise InvalidDatumError(
                "non-integral or negative eigenspace dimension"
                f" {Fraction(s - m, m)} at n = {n}"
            )
        vals.append(q)
    return Signature(m, tuple(vals))


def _chain_glued_data():
    """Glued data of seeded self-clutched chains, N up to MAX_BRANCH_POINTS."""
    rng = random.Random(20262)
    out = []
    for m, a, p in ((7, (1, 1, 5), 2), (12, (1, 4, 7), 5), (25, (3, 9, 13), 2)):
        fam = base_case(MonodromyDatum(m, a), p)
        for n in (2, rng.randint(3, 40), (MAX_BRANCH_POINTS - 2) // 3):
            out.append(self_clutch(fam, n, auto_pad=True).datum)
    assert max(d.N for d in out) == MAX_BRANCH_POINTS - 2
    return out


def test_signature_matches_the_all_entries_loop():
    data = _seeded_data(20263, 60) + _chain_glued_data()
    for datum in data:
        assert signature.__wrapped__(datum) == _signature_all_entries(datum), datum


def test_genus_cache_matches_its_body():
    for datum in _seeded_data(20265, 40) + _chain_glued_data():
        assert genus(datum) == genus.__wrapped__(datum), datum


def test_genus_errors_are_not_cached():
    # only entries off a zero sum reach an odd Riemann-Hurwitz total
    bad = _Unvalidated(4, (1, 1, 1))
    genus.cache_clear()
    for _ in range(2):
        with pytest.raises(InvalidDatumError, match="^odd Riemann-Hurwitz total 1 for 4:3:1,1,1$"):
            genus(bad)
    assert genus.cache_info().currsize == 0


def test_genus_is_the_signature_total_on_induced_data():
    # an induced datum is gcd(m, a) disjoint copies of one curve, and its
    # genus is the dimension of the differentials of their union
    rng = random.Random(20264)
    for datum in _seeded_data(20264, 60):
        big = induce(datum, rng.randint(2, 5))
        assert genus(big) == signature(big).total, big
    assert genus(MonodromyDatum(18, (6, 10, 2))) == 6 == 2 * genus(MonodromyDatum(9, (3, 5, 1)))


def test_induced_values_match_the_call_form():
    # the former induced() read each value through Signature.__call__;
    # that form is the oracle for the tuple-repeat form
    rng = random.Random(20181106)
    for _ in range(300):
        m = rng.randint(2, 40)
        a = [rng.randrange(1, m) for _ in range(rng.randint(2, 6))]
        a.append(-sum(a) % m)
        if 0 in a:
            continue
        f = signature(MonodromyDatum(m, tuple(a)))
        for d in range(1, 7):
            fd = f.induced(d)
            assert fd.m == d * m
            assert fd.values == tuple(f(n % f.m) for n in range(1, d * f.m)), (a, m, d)
    for d in (0, -1):
        with pytest.raises(InvalidDatumError, match="induction factor"):
            f.induced(d)
