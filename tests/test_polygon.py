"""Tests for the exact Newton polygon arithmetic."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from npcc import (
    EMPTY,
    ORD,
    SS,
    AsymmetricPolygonError,
    EndpointMismatchError,
    NewtonPolygon,
    OrbitPolygon,
    PolygonSyntaxError,
    decompose,
    parse,
)
from test_polygon_oracle import FractionNewtonPolygon

F = Fraction


def test_constants():
    assert ORD.segments == ((F(0), 1), (F(1), 1))
    assert SS.segments == ((F(1, 2), 2),)
    assert EMPTY.segments == ()
    assert EMPTY.is_empty
    assert not ORD.is_empty


def test_constructor_merges_and_sorts():
    nu = NewtonPolygon([(F(1, 2), 1), (0, 2), (F(1, 2), 1)])
    assert nu.segments == ((F(0), 2), (F(1, 2), 2))


def test_constructor_rejects_bad_slopes():
    with pytest.raises(PolygonSyntaxError):
        NewtonPolygon([(F(3, 2), 1)])
    with pytest.raises(PolygonSyntaxError):
        NewtonPolygon([(F(-1, 2), 1)])
    with pytest.raises(PolygonSyntaxError):
        NewtonPolygon([(F(1, 2), -1)])


@pytest.mark.parametrize("slope", ["x", None, float("nan"), float("inf"), "1/0"])
def test_an_unreadable_slope_is_a_syntax_error_naming_it(slope):
    with pytest.raises(PolygonSyntaxError, match=re.escape(f"slope {slope!r} ")):
        NewtonPolygon([(slope, 2)])


@pytest.mark.parametrize("slope", [True, False], ids=repr)
def test_a_bool_is_no_slope(slope):
    # bool is an int subclass, and Fraction(True) is 1.
    message = f"^slope {slope!r} is not a rational number$"
    with pytest.raises(PolygonSyntaxError, match=message):
        NewtonPolygon([(slope, 1)])
    with pytest.raises(PolygonSyntaxError, match=message):
        ORD.multiplicity(slope)
    with pytest.raises(PolygonSyntaxError, match=message):
        OrbitPolygon(decompose(3, 1).orbits[0], [(slope, 1)])


@pytest.mark.parametrize("mult", [2.9, 2.0, "2", "x", None, True], ids=repr)
def test_a_multiplicity_that_is_no_int_is_a_syntax_error_naming_it(mult):
    message = f"a multiplicity must be an int, not {mult!r}"
    with pytest.raises(PolygonSyntaxError, match=f"^{re.escape(message)}$"):
        NewtonPolygon([(F(1, 2), mult)])


@pytest.mark.parametrize("d", [2.9, 2.0, "2", None, True], ids=repr)
def test_a_power_that_is_no_int_is_a_syntax_error_naming_it(d):
    message = f"a power must be an int, not {d!r}"
    with pytest.raises(PolygonSyntaxError, match=f"^{re.escape(message)}$"):
        ORD.power(d)


@pytest.mark.parametrize("half", [F(1, 2), 0.5, "1/2", " 1/2 "])
def test_slopes_of_any_readable_type_come_back_as_fractions(half):
    segs = [(0, 1), (half, 3), (1, 1)]
    nu = NewtonPolygon(segs)
    expected = ((F(0), 1), (F(1, 2), 3), (F(1), 1))
    assert nu.segments == FractionNewtonPolygon(segs).segments == expected
    assert {type(slope) for slope, _ in nu.segments} == {Fraction}
    assert nu.degree == F(5, 2) and type(nu.degree) is Fraction
    assert type(parse("ord").degree) is type(EMPTY.degree) is Fraction


def test_height_degree_multiplicity():
    nu = parse("ord^2+ss^3")
    assert nu.height == 10
    assert nu.degree == F(5)
    assert nu.multiplicity(0) == 2
    assert nu.multiplicity(F(1, 2)) == 6
    assert nu.multiplicity(F(1, 3)) == 0
    assert nu.p_rank == 2
    assert EMPTY.height == 0
    assert EMPTY.p_rank == 0


def test_parse_round_trip():
    for text in [
        "ord",
        "ss",
        "ord^4+ss^5",
        "(1/3,2/3)",
        "(1/4,3/4)^2",
        "ord^2+(1/3,2/3)+ss",
        "(2/7,5/7)+(3/7,4/7)",
    ]:
        assert parse(text).canonical_text() == text
    assert parse("0") == EMPTY
    assert str(EMPTY) == "0"


def test_parse_is_order_insensitive():
    assert parse("ss^5+ord^4") == parse("ord^4+ss^5")
    # canonical text always puts slope 0 first
    assert parse("ss^5+ord^4").canonical_text() == "ord^4+ss^5"


def test_parse_whitespace_tolerant():
    assert parse(" ord + ss ^ 2 ") == parse("ord+ss^2")


def test_parse_rejects_garbage():
    for text in ["", "xyz", "ord^", "ord^0", "(1/3,1/3)", "(2/6,4/6)", "(1/3 , 1/2)",
                 "ss^١", "(١/3,2/3)", "ss^²"]:
        with pytest.raises(PolygonSyntaxError):
            parse(text)


@pytest.mark.parametrize(
    "text",
    ["ss^{n}", "({n}/7,1/7)", "(1/{n},6/7)", "(1/7,{n}/7)", "(1/7,6/{n})"],
    ids=["exponent", "first-numerator", "first-denominator", "second-numerator", "second-denominator"],
)
def test_parse_refuses_a_number_past_the_int_digit_limit(text):
    with pytest.raises(PolygonSyntaxError, match="^number too long: 5000 digits$"):
        parse(text.format(n="9" * 5000))


def test_pair_term_semantics():
    # (s/t,(t-s)/t) contributes each slope with multiplicity t
    nu = parse("(1/3,2/3)")
    assert nu.segments == ((F(1, 3), 3), (F(2, 3), 3))
    assert nu.height == 6
    assert nu.degree == F(3)


def test_amalgamate_and_add():
    assert ORD + SS == parse("ord+ss")
    assert ORD.amalgamate(SS) == ORD + SS
    assert ORD + EMPTY == ORD
    assert EMPTY + EMPTY == EMPTY


def test_power():
    assert ORD.power(3) == parse("ord^3")
    assert SS.power(0) == EMPTY
    assert EMPTY.power(5) == EMPTY
    with pytest.raises(PolygonSyntaxError):
        ORD.power(-1)


def test_dual():
    nu = parse("ord^2+(1/3,2/3)")
    assert nu.dual() == nu  # symmetric polygons are self-dual
    skew = NewtonPolygon([(F(1, 3), 3)])
    assert skew.dual() == NewtonPolygon([(F(2, 3), 3)])
    assert skew.dual().dual() == skew


def test_is_symmetric():
    assert parse("ord^4+ss^5").is_symmetric
    assert parse("(2/7,5/7)+(3/7,4/7)").is_symmetric
    assert not NewtonPolygon([(F(1, 3), 3)]).is_symmetric
    assert EMPTY.is_symmetric


def test_genus():
    assert parse("ord^4+ss^5").genus == 9
    assert parse("(1/3,2/3)").genus == 3
    assert EMPTY.genus == 0
    with pytest.raises(AsymmetricPolygonError):
        _ = NewtonPolygon([(F(1, 3), 3)]).genus


def test_integral_breakpoints():
    assert parse("ord^2+ss^3").has_integral_breakpoints
    assert NewtonPolygon([(F(1, 3), 1), (F(2, 3), 1)]).has_integral_breakpoints is False


def test_lies_on_or_above():
    ord3 = parse("ord^3")
    third = parse("(1/3,2/3)")
    ss3 = parse("ss^3")
    assert ord3.lies_on_or_above(ord3)
    assert third.lies_on_or_above(ord3)
    assert ss3.lies_on_or_above(third)
    assert ss3.lies_on_or_above(ord3)
    assert not ord3.lies_on_or_above(ss3)
    assert not third.lies_on_or_above(ss3)
    with pytest.raises(EndpointMismatchError):
        ORD.lies_on_or_above(SS.power(2))


def _lies_on_or_above_oracle(a, b):
    """The former comparison: the Fraction polygons' values at every
    breakpoint of either."""
    a, b = FractionNewtonPolygon(a.segments), FractionNewtonPolygon(b.segments)
    xs = {x for x, _ in a.breakpoints()} | {x for x, _ in b.breakpoints()}
    return all(a.value_at(x) >= b.value_at(x) for x in xs)


def _spread(units):
    """Sorted units with the least lowered and the greatest raised by one:
    the same endpoints and a graph below in between."""
    u = sorted(units)
    u[0] -= 1
    u[-1] += 1
    return u


def test_lies_on_or_above_matches_breakpoint_oracle():
    # Slopes are units of 1/(2e): a low block inside (0, 1/2) and a high
    # block inside (1/2, 1), whose graphs meet at the block boundary.
    # Spreading a block keeps it on its side of 1/2 and lowers the graph
    # over that block only, so spreading neither, one, or each block on a
    # different side gives equal, nested and crossing pairs.
    rng = random.Random(20181)
    kinds = {"equal": 0, "nested": 0, "crossing": 0}
    for n in range(2400):
        e = rng.randint(2, 5)
        low = [rng.randint(1, e - 1) for _ in range(rng.randint(2, 6))]
        high = [rng.randint(e + 1, 2 * e - 1) for _ in range(rng.randint(2, 6))]
        ua, ub = [
            (low + high, low + high),
            (low + high, _spread(low) + high),
            (low + high, low + _spread(high)),
            (_spread(low) + high, low + _spread(high)),
        ][n % 4]
        a = NewtonPolygon((F(v, 2 * e), 1) for v in ua)
        b = NewtonPolygon((F(v, 2 * e), 1) for v in ub)
        above, below = _lies_on_or_above_oracle(a, b), _lies_on_or_above_oracle(b, a)
        assert a.lies_on_or_above(b) is above
        assert b.lies_on_or_above(a) is below
        kinds["equal" if a == b else "nested" if above or below else "crossing"] += 1
    assert kinds == {"equal": 600, "nested": 1200, "crossing": 600}


def test_json_round_trip():
    for text in ["0", "ord^4+ss^5", "(2/7,5/7)+(3/7,4/7)+ord"]:
        nu = parse(text)
        obj = nu.to_json_obj()
        assert NewtonPolygon.from_json_obj(obj) == nu


@pytest.mark.parametrize("value", [2.9, 2.0, True, False, "1", None, [1]], ids=repr)
@pytest.mark.parametrize("key", ["num", "den", "mult"])
def test_json_reader_takes_only_json_integers(key, value):
    entry = {"num": 1, "den": 2, "mult": 2}
    assert NewtonPolygon.from_json_obj([entry]) == SS
    with pytest.raises(PolygonSyntaxError, match="^bad polygon JSON"):
        NewtonPolygon.from_json_obj([{**entry, key: value}])


@pytest.mark.parametrize(
    "obj",
    [
        [{"num": 1, "den": 0, "mult": 1}],
        [{"num": 1, "den": 2}],
        [[1, 2, 2]],
        ["ss"],
        [None],
        7,
        None,
    ],
    ids=repr,
)
def test_json_reader_refuses_what_is_no_list_of_segments(obj):
    with pytest.raises(PolygonSyntaxError, match="^bad polygon JSON"):
        NewtonPolygon.from_json_obj(obj)


def test_bracket_text_for_non_grammar_polygons():
    skew = NewtonPolygon([(F(1, 4), 1), (F(1, 2), 1)])
    text = str(skew)
    assert text.startswith("[") and text.endswith("]")


def test_equality_and_hash():
    a = parse("ord^2+ss")
    b = parse("ss+ord^2")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("ord^2")
    assert len({a, b}) == 1


def _random_polygon(rng):
    """Up to five slopes from a small pool, so that pairs share slopes."""
    pool = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(2, 5), F(5, 7)]
    slopes = rng.sample(pool, rng.randint(0, 5))
    return NewtonPolygon((s, rng.randint(1, 6)) for s in slopes)


def _assert_canonical(nu, rebuilt):
    assert nu.segments == rebuilt.segments
    assert hash(nu) == hash(rebuilt)
    assert all(type(s) is Fraction and type(m) is int for s, m in nu.segments)


def test_algebra_matches_validating_constructor():
    rng = random.Random(1811)
    for _ in range(300):
        a, b = _random_polygon(rng), _random_polygon(rng)
        _assert_canonical(a + b, NewtonPolygon(a.segments + b.segments))
        _assert_canonical(a.amalgamate(b), NewtonPolygon(a.segments + b.segments))
        for d in range(4):
            _assert_canonical(a.power(d), NewtonPolygon((s, m * d) for s, m in a.segments))
        _assert_canonical(a.dual(), NewtonPolygon((1 - s, m) for s, m in a.segments))


def test_equal_polygons_hash_equal_however_built():
    rng = random.Random(1812)
    for _ in range(200):
        a, b = _random_polygon(rng), _random_polygon(rng)
        d = rng.randint(0, 3)
        terms = ("ord", "ss", "(1/3,2/3)", "(1/4,3/4)", "(2/5,3/5)")
        text = "+".join(f"{rng.choice(terms)}^{rng.randint(1, 3)}" for _ in range(d + 1))
        built = {
            "parse": parse(text),
            "__init__": NewtonPolygon(a.segments),
            "_trusted": NewtonPolygon._trusted(a._triples),
            "amalgamate": a.amalgamate(b),
            "dual": a.dual(),
            "power": a.power(d),
        }
        for how, nu in built.items():
            assert hash(nu) == hash(NewtonPolygon(nu.segments)), how
        same = [
            NewtonPolygon(a.segments + b.segments),
            b.amalgamate(a),
            NewtonPolygon._trusted((a + b)._triples),
            a.dual().amalgamate(b.dual()).dual(),
        ]
        for nu in same:
            assert nu == same[0] and hash(nu) == hash(same[0])
        for nu in (a, a + b, a.power(d)):
            for twin in (copy.copy(nu), copy.deepcopy(nu), pickle.loads(pickle.dumps(nu))):
                assert twin == nu and hash(twin) == hash(nu)
