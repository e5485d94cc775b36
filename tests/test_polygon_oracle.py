"""The int-triple Newton polygon against the Fraction one it replaced.

`NewtonPolygon` keeps each slope as a (num, den, mult) int triple and
does its algebra, comparisons, text and JSON in ints, building a
`Fraction` only for the accessors that hand one out.  The oracle below
is the Fraction-slope class it replaced, kept as it was but for two
contracts added since: a slope that `Fraction` cannot read is refused
with PolygonSyntaxError naming it, not `Fraction`'s own error, and so
is a multiplicity that is not an int, which `int()` truncated or read.
Every public method and operator is run on both, on seeded pairs of
polygons: the results must be equal, and so must the type and message
of every exception.  The pairs include the empty polygon, odd
multiplicities of 1/2, the slopes 0 and 1, polygons that print only as
a bracket list, and pairs with equal endpoints, both comparable and
crossing.

The second oracle is the regular expression `parse` read a term with
before it used str methods.  Seeded strings built from the grammar's
pieces, odd whitespace and digits that int() reads but the grammar does
not, must parse to the same triples or raise the same error.
"""

import math
import random
import re
from fractions import Fraction
from typing import Iterable

import npcc.polygon
from npcc import (
    AsymmetricPolygonError,
    EndpointMismatchError,
    NewtonPolygon,
    PolygonSyntaxError,
    parse,
)
from npcc.polygon import _numeral

HALF = Fraction(1, 2)


def _read_slope(slope) -> Fraction:
    """Fraction(slope), refusing a value it cannot read as npcc does."""
    try:
        return Fraction(slope)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise PolygonSyntaxError(f"slope {slope!r} is not a rational number") from None


def _read_mult(mult) -> int:
    """mult, refusing anything but an int (a bool is not one) as npcc does."""
    if type(mult) is not int:
        raise PolygonSyntaxError(f"a multiplicity must be an int, not {mult!r}")
    return mult


class FractionNewtonPolygon:
    """The Fraction-slope Newton polygon, as it was; the tests' oracle."""

    # _hash is filled on first use: totals are dict keys looked up many
    # times, and hashing their Fraction slopes again each time is slow.
    __slots__ = ("_segments", "_hash")

    def __init__(self, segments: Iterable[tuple[Fraction | int, int]] = ()):
        merged: dict[Fraction, int] = {}
        for slope, mult in segments:
            s = _read_slope(slope)
            k = _read_mult(mult)
            if k < 0:
                raise PolygonSyntaxError(f"negative multiplicity {k}")
            if k == 0:
                continue
            if not 0 <= s <= 1:
                raise PolygonSyntaxError(f"slope {s} outside [0, 1]")
            merged[s] = merged.get(s, 0) + k
        self._segments = tuple(sorted(merged.items()))

    @classmethod
    def _trusted(cls, segments: tuple[tuple[Fraction, int], ...]) -> "FractionNewtonPolygon":
        """Wrap a segment tuple that is already canonical, skipping validation.

        The caller guarantees what ``__init__`` would establish: Fraction
        slopes in [0, 1], strictly increasing, with positive int
        multiplicities.  The algebra below keeps these properties on
        valid operands, so it builds its results this way.
        """
        poly = object.__new__(cls)
        poly._segments = segments
        return poly

    # -- basic structure ------------------------------------------------

    @property
    def segments(self) -> tuple[tuple[Fraction, int], ...]:
        return self._segments

    @property
    def is_empty(self) -> bool:
        return not self._segments

    @property
    def height(self) -> int:
        return sum(m for _, m in self._segments)

    @property
    def degree(self) -> Fraction:
        return sum((s * m for s, m in self._segments), Fraction(0))

    def multiplicity(self, slope) -> int:
        s = _read_slope(slope)
        for t, m in self._segments:
            if t == s:
                return m
        return 0

    @property
    def p_rank(self) -> int:
        """Multiplicity of the slope 0."""
        return self.multiplicity(0)

    def breakpoints(self) -> list[tuple[int, Fraction]]:
        """Vertices of the lower convex graph, endpoints included."""
        pts = [(0, Fraction(0))]
        x, y = 0, Fraction(0)
        for s, m in self._segments:
            x += m
            y += s * m
            pts.append((x, y))
        return pts

    def value_at(self, x) -> Fraction:
        """Height of the lower convex graph above x, for 0 <= x <= height."""
        q = Fraction(x)
        if not 0 <= q <= self.height:
            raise EndpointMismatchError(f"x = {q} outside [0, {self.height}]")
        run, y = 0, Fraction(0)
        for s, m in self._segments:
            if q <= run + m:
                return y + s * (q - run)
            run += m
            y += s * m
        return y

    # -- algebra ---------------------------------------------------------

    def amalgamate(self, other: "FractionNewtonPolygon") -> "FractionNewtonPolygon":
        """Multiset union of the slopes."""
        a, b = self._segments, other._segments
        if not a:
            return other
        if not b:
            return self
        merged = []
        i = j = 0
        while i < len(a) and j < len(b):
            s, k = a[i]
            t, n = b[j]
            if s == t:
                merged.append((s, k + n))
                i += 1
                j += 1
            elif s < t:
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        merged += a[i:]
        merged += b[j:]
        return FractionNewtonPolygon._trusted(tuple(merged))

    def __add__(self, other: "FractionNewtonPolygon") -> "FractionNewtonPolygon":
        if not isinstance(other, FractionNewtonPolygon):
            return NotImplemented
        return self.amalgamate(other)

    def power(self, d: int) -> "FractionNewtonPolygon":
        """Scale every multiplicity by d >= 0 (d = 0 gives the empty polygon)."""
        d = int(d)
        if d < 0:
            raise PolygonSyntaxError(f"negative power {d}")
        if d == 0:
            return FractionNewtonPolygon()
        return FractionNewtonPolygon._trusted(tuple((s, m * d) for s, m in self._segments))

    def dual(self) -> "FractionNewtonPolygon":
        """Image under slope -> 1 - slope."""
        return FractionNewtonPolygon._trusted(
            tuple((1 - s, m) for s, m in reversed(self._segments))
        )

    # -- order and shape ---------------------------------------------------

    def lies_on_or_above(self, other: "FractionNewtonPolygon") -> bool:
        """Pointwise comparison of the lower convex graphs.

        Both polygons must share endpoints (height and degree); the
        partial order on Newton polygons of abelian varieties has the
        mu-ordinary one lowest, so "a lies on or above b" means a is
        closer to supersingular than b.
        """
        if self.height != other.height or self.degree != other.degree:
            raise EndpointMismatchError(
                f"endpoints differ: ({self.height}, {self.degree}) vs "
                f"({other.height}, {other.degree})"
            )
        # One sweep over both segment lists: between consecutive
        # breakpoints of either graph both are linear, so the gap (self
        # minus other) only needs checking at those breakpoints.
        left, right = iter(self._segments), iter(other._segments)
        (s, k), (t, n) = next(left, (0, 0)), next(right, (0, 0))
        gap = Fraction(0)
        while k:
            step = min(k, n)
            gap += (s - t) * step
            if gap < 0:
                return False
            k -= step
            n -= step
            if not k:
                s, k = next(left, (0, 0))
            if not n:
                t, n = next(right, (0, 0))
        return True

    @property
    def is_symmetric(self) -> bool:
        """True when slope s and 1 - s have equal multiplicities throughout."""
        return self.dual() == self

    @property
    def has_integral_breakpoints(self) -> bool:
        return all(y.denominator == 1 for _, y in self.breakpoints())

    @property
    def genus(self) -> int:
        """Half the height, defined for symmetric polygons with integral breakpoints."""
        if not self.is_symmetric:
            raise AsymmetricPolygonError(f"{self} is not symmetric")
        if not self.has_integral_breakpoints:
            raise AsymmetricPolygonError(f"{self} has a non-integral breakpoint")
        return self.height // 2

    # -- text and JSON -----------------------------------------------------

    def canonical_text(self) -> str:
        """Grammar string when expressible, bracketed slope list otherwise.

        Units are ordered by their smallest slope, so `ord` comes first,
        then pairs (s/t, (t-s)/t) by increasing s/t, then `ss`.
        """
        if self.is_empty:
            return "0"
        rem = dict(self._segments)
        units: list[tuple[Fraction | int, str, int]] = []
        # The ints 0 and 1 hash and compare equal to the slopes 0 and 1.
        k = min(rem.get(0, 0), rem.get(1, 0))
        if k:
            units.append((0, "ord", k))
            for s in (0, 1):
                rem[s] -= k
                if rem[s] == 0:
                    del rem[s]
        half = rem.get(HALF, 0)
        if half:
            if half % 2:
                return self._bracket_text()
            units.append((HALF, "ss", half // 2))
            del rem[HALF]
        for s in sorted(rem):
            if s >= HALF:
                continue
            t, dual = s.denominator, 1 - s
            if rem[s] % t or rem.get(dual, 0) != rem[s]:
                return self._bracket_text()
            units.append((s, f"({s.numerator}/{t},{dual.numerator}/{t})", rem[s] // t))
            del rem[dual]
            del rem[s]
        if rem:
            return self._bracket_text()
        units.sort(key=lambda u: u[0])
        return "+".join(name if k == 1 else f"{name}^{k}" for _, name, k in units)

    def _bracket_text(self) -> str:
        return "[" + ", ".join(f"{s}:{m}" for s, m in self._segments) + "]"

    def to_json_obj(self) -> list[dict[str, int]]:
        return [
            {"num": s.numerator, "den": s.denominator, "mult": m}
            for s, m in self._segments
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "FractionNewtonPolygon":
        try:
            segments = [(Fraction(e["num"], e["den"]), int(e["mult"])) for e in obj]
        except (KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PolygonSyntaxError(f"bad polygon JSON: {obj!r}") from exc
        return cls(segments)

    # -- dunders -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionNewtonPolygon):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._segments)
            return self._hash

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"NewtonPolygon({list(self._segments)!r})"




POOL = sorted({Fraction(n, d) for d in range(1, 9) for n in range(d + 1)})
PROBES = (0, 1, HALF, Fraction(5, 8), 0.5, "2/3", None)


def _draw(rng, symmetric):
    """Up to five slopes from POOL with their multiplicities.

    A multiplicity is most often a multiple of its slope's denominator,
    which the grammar needs, and otherwise anything from 1 to 7, so odd
    multiplicities of 1/2 come up.  A symmetric draw gives each slope
    below 1/2 its dual with the same multiplicity and drops those above.
    """
    segs = []
    for s in rng.sample(POOL, rng.randint(0, 5)):
        m = s.denominator * rng.randint(1, 3) if rng.random() < 0.6 else rng.randint(1, 7)
        if not symmetric:
            segs.append((s, m))
        elif s <= HALF:
            segs += [(s, m), (1 - s, m)] if s < HALF else [(s, m)]
    return segs


def _height(segs):
    return sum(m for _, m in segs)


def _moved(rng, segs):
    """segs with two units s <= t moved apart or together by the same step:
    the endpoints stay, and the graph moves down or up in between."""
    units = [s for s, m in segs for _ in range(m)]
    if len(units) < 2:
        return segs
    s, t = sorted(rng.sample(units, 2))
    e = Fraction(1, rng.randint(2, 12))
    if rng.random() < 0.5 and s - e >= 0 and t + e <= 1:
        new = (s - e, t + e)
    elif s + e <= t - e:
        new = (s + e, t - e)
    else:
        return segs
    return _replace(segs, (s, t), new)


def _replace(segs, old, new):
    mults = {}
    for s, m in segs:
        mults[s] = mults.get(s, 0) + m
    for s in old:
        mults[s] -= 1  # a unit removed entirely leaves a zero multiplicity
    for s in new:
        mults[s] = mults.get(s, 0) + 1
    return list(mults.items())


def _seeded_pairs(seed, count):
    """Segment lists in pairs of three kinds: drawn apart (endpoints mostly
    differ), both symmetric and padded with slope 1/2 to one height, and
    one drawn with the other one or two two-unit moves of it."""
    rng = random.Random(seed)
    pairs = []
    for n in range(count):
        kind = n % 3
        if kind == 0:
            a, b = _draw(rng, rng.random() < 0.5), _draw(rng, rng.random() < 0.5)
        elif kind == 1:
            a, b = _draw(rng, True), _draw(rng, True)
            gap = _height(a) - _height(b)
            a, b = (a, b + [(HALF, gap)]) if gap > 0 else (a + [(HALF, -gap)], b)
        else:
            a = _draw(rng, rng.random() < 0.5)
            b = _moved(rng, a)
            if rng.random() < 0.5:  # a second move, often the other way
                b = _moved(rng, b)
        pairs.append((a, b))
    return pairs


def _shape(value):
    """A value with the type of every part, so that 1 and Fraction(1) differ."""
    kind = type(value)
    if kind is tuple or kind is list:
        return kind, [_shape(v) for v in value]
    if kind is dict:
        return kind, [(k, _shape(v)) for k, v in value.items()]
    if kind is NewtonPolygon or kind is FractionNewtonPolygon:
        return "polygon", _shape(value.segments)
    return kind, value


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # the oracle's exceptions are compared as they are
        return ("raised", type(exc), str(exc))
    return ("returned", _shape(value))


def _unary_calls():
    calls = [
        ("segments", lambda p: p.segments),
        ("is_empty", lambda p: p.is_empty),
        ("height", lambda p: p.height),
        ("degree", lambda p: p.degree),
        ("p_rank", lambda p: p.p_rank),
        ("is_symmetric", lambda p: p.is_symmetric),
        ("has_integral_breakpoints", lambda p: p.has_integral_breakpoints),
        ("genus", lambda p: p.genus),
        ("canonical_text", lambda p: p.canonical_text()),
        ("str", str),
        ("repr", repr),
        ("to_json_obj", lambda p: p.to_json_obj()),
        ("from_json_obj", lambda p: type(p).from_json_obj(p.to_json_obj())),
        # Hash values differ from the oracle's; equal polygons hash equal.
        ("equal copies hash equal", lambda p: hash(p) == hash(type(p)(p.segments))),
        ("dual", lambda p: p.dual()),
        ("add other", lambda p: p.__add__(1)),
        ("eq other", lambda p: p.__eq__(None)),
    ]
    calls += [(f"multiplicity({s!r})", lambda p, s=s: p.multiplicity(s)) for s in PROBES]
    calls += [(f"power({d})", lambda p, d=d: p.power(d)) for d in (-1, 0, 1, 3)]
    return calls


BINARY_CALLS = [
    ("a + b", lambda a, b: a + b),
    ("b + a", lambda a, b: b + a),
    ("amalgamate", lambda a, b: a.amalgamate(b)),
    ("a == b", lambda a, b: a == b),
    ("a != b", lambda a, b: a != b),
    ("a above b", lambda a, b: a.lies_on_or_above(b)),
    ("b above a", lambda a, b: b.lies_on_or_above(a)),
    ("sum's text", lambda a, b: str(a + b.dual())),
    ("sum's genus", lambda a, b: (a + a.dual() + b + b.dual()).genus),
]


def test_every_method_matches_the_fraction_oracle_on_seeded_pairs():
    seen = {"empty": 0, "odd half": 0, "zero and one": 0, "bracket": 0, "grammar": 0,
            "above": 0, "crossing": 0, "endpoints differ": 0}
    for a_segs, b_segs in _seeded_pairs(20181102, 2000):
        a, b = NewtonPolygon(a_segs), NewtonPolygon(b_segs)
        oa, ob = FractionNewtonPolygon(a_segs), FractionNewtonPolygon(b_segs)
        for new, old in ((a, oa), (b, ob)):
            for label, call in _unary_calls():
                assert _outcome(lambda: call(new)) == _outcome(lambda: call(old)), label
            text = old.canonical_text()
            if not text.startswith("["):
                assert parse(text) == new  # the grammar round-trips
            seen["empty"] += old.is_empty
            seen["odd half"] += old.multiplicity(HALF) % 2
            seen["zero and one"] += bool(old.multiplicity(0) and old.multiplicity(1))
            seen["bracket" if text.startswith("[") else "grammar"] += 1
        for label, call in BINARY_CALLS:
            assert _outcome(lambda: call(a, b)) == _outcome(lambda: call(oa, ob)), label
        try:
            above, below = oa.lies_on_or_above(ob), ob.lies_on_or_above(oa)
        except EndpointMismatchError:
            seen["endpoints differ"] += 1
        else:
            seen["above" if above or below else "crossing"] += 1
    assert min(seen.values()) >= 100, seen


def test_the_constructor_and_json_reader_refuse_as_the_fraction_oracle_does():
    bad = [
        (Fraction(3, 2), 1), (Fraction(-1, 3), 2), (HALF, -1), (Fraction(5, 4), 0),
        (0.5, 2), ("1/3", 3), (2, 1), (HALF, 2.9), (None, 1), (HALF, "x"),
    ]
    rng = random.Random(20181103)
    for n in range(600):
        segs = _draw(rng, n % 2 == 0) + rng.sample(bad, rng.randint(0, 2))
        rng.shuffle(segs)
        assert _outcome(lambda: NewtonPolygon(segs)) == _outcome(lambda: FractionNewtonPolygon(segs))
    # The oracle reads the slope True as 1; npcc refuses a bool as a slope,
    # as it does as a multiplicity.
    assert _outcome(lambda: NewtonPolygon([(True, 1)])) == (
        "raised", PolygonSyntaxError, "slope True is not a rational number"
    )
    # Integer JSON that the old reader and the strict one both take or refuse.
    for obj in (
        [{"num": 2, "den": 4, "mult": 3}, {"num": 1, "den": 2, "mult": 1}],
        [{"num": -1, "den": -2, "mult": 2}, {"num": 0, "den": 5, "mult": 1}],
        [{"num": 3, "den": 2, "mult": 1}],
        [{"num": -1, "den": 2, "mult": 1}],
        [{"num": 1, "den": 2, "mult": -1}],
        [{"num": 7, "den": 2, "mult": 0}],
        [{"num": 1, "den": 0, "mult": 1}],
        [{"num": 1, "den": 2}],
        [[1, 2, 1]],
        7,
        [],
    ):
        assert _outcome(lambda: NewtonPolygon.from_json_obj(obj)) == _outcome(
            lambda: FractionNewtonPolygon.from_json_obj(obj)
        ), obj


# -- the term grammar against the regex it was read with -----------------

_TERM_RE = re.compile(
    r"""^(?:
            (?P<ord>ord) |
            (?P<ss>ss) |
            \(\s*(?P<n1>[0-9]+)\s*/\s*(?P<d1>[0-9]+)\s*,\s*(?P<n2>[0-9]+)\s*/\s*(?P<d2>[0-9]+)\s*\)
        )
        (?:\^(?P<exp>[0-9]+))?$""",
    re.VERBOSE,
)


def _regex_term(term, acc):
    """npcc.polygon._parse_term as it was when it read a term with _TERM_RE."""
    m = _TERM_RE.match(term)
    if m is None:
        raise PolygonSyntaxError(f"cannot parse term {term!r}")
    exp = _numeral(m.group("exp")) if m.group("exp") else 1
    if exp < 1:
        raise PolygonSyntaxError(f"exponent must be >= 1 in {term!r}")
    if m.group("ord"):
        acc.append((0, 1, exp))
        acc.append((1, 1, exp))
        return
    if m.group("ss"):
        acc.append((1, 2, 2 * exp))
        return
    s_num, s_den, u_num, u_den = map(_numeral, m.group("n1", "d1", "n2", "d2"))
    if s_den == 0 or u_den == 0:
        raise PolygonSyntaxError(f"zero denominator in {term!r}")
    if s_den != u_den:
        raise PolygonSyntaxError(f"pair denominators differ in {term!r}")
    t = s_den
    if s_num + u_num != t:
        raise PolygonSyntaxError(f"pair slopes must sum to 1 in {term!r}")
    if s_num > u_num:
        raise PolygonSyntaxError(f"pair slopes out of order in {term!r}")
    if math.gcd(s_num, t) != 1:
        raise PolygonSyntaxError(f"pair (s/t, u/t) needs gcd(s, t) = 1 in {term!r}")
    acc.append((s_num, t, t * exp))
    acc.append((u_num, t, t * exp))


# Whitespace the regex's \s and str.strip() both take (tab, newline, NBSP,
# the separator \x1c, ideographic space), and numbers int() reads but
# [0-9] refuses: superscript two, Arabic-Indic three, full-width one.
SPACES = ["", "", "", " ", "\t", "\n", "\xa0", "\x1c", "\u3000"]
ODD_DIGITS = ["²", "٣", "１"]
FRAGMENTS = ["ord", "ss", "(", ")", "/", ",", "^", "+", "0", "1", "3", "o", "s", "d", *SPACES,
             *ODD_DIGITS]


def _number(rng):
    roll = rng.random()
    if roll < 0.1:
        return str(rng.randrange(10**5)).zfill(5)  # a 5-digit run
    if roll < 0.2:
        return rng.choice(["", *ODD_DIGITS, "1" + rng.choice(ODD_DIGITS), "1 2", "-1", "+1"])
    return str(rng.randrange(13))


def _term(rng):
    """A term: mostly a well-formed one, often with a fragment inserted or dropped."""
    roll = rng.random()
    if roll < 0.25:
        base = rng.choice(["ord", "ss", "or", "sss", "SS", "o\trd"])
    elif roll < 0.9:
        t = rng.randrange(1, 13)
        s = rng.randrange(t // 2 + 1)
        numbers = [str(s), str(t), str(t - s), str(t)]
        numbers = [_number(rng) if rng.random() < 0.15 else n for n in numbers]
        numbers = [rng.choice(SPACES) + n + rng.choice(SPACES) for n in numbers]
        sides = [f"{numbers[0]}/{numbers[1]}", f"{numbers[2]}/{numbers[3]}"]
        if rng.random() < 0.1:
            sides.append(rng.choice(sides))  # a third side
        if rng.random() < 0.1:
            sides[rng.randrange(len(sides))] += "/" + _number(rng)  # a third number
        base = "(" + rng.choice(SPACES) + ",".join(sides) + rng.choice(SPACES) + ")"
    else:
        base = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 6)))
    term = base + rng.choice(["", "", "", "^", "^0", "^00", "^1", "^2", "^" + _number(rng),
                              "^\t3", "^²", "^2^3", "^-1", "^ 4"])
    if rng.random() < 0.2:  # a stray fragment, anywhere
        at = rng.randrange(len(term) + 1)
        term = term[:at] + rng.choice(FRAGMENTS) + term[at:]
    if rng.random() < 0.1 and term:  # or one character dropped
        at = rng.randrange(len(term))
        term = term[:at] + term[at + 1:]
    return term


def _text(rng):
    terms = [_term(rng) for _ in range(rng.choice([1, 1, 1, 2, 3]))]
    return rng.choice(SPACES) + "+".join(terms) + rng.choice(SPACES)


REFUSALS = ("cannot parse term", "empty term", "empty polygon string", "exponent must be >= 1",
            "zero denominator", "pair denominators differ", "pair slopes must sum to 1",
            "pair slopes out of order", "pair (s/t, u/t) needs gcd(s, t) = 1", "number too long")


def _parsed(text):
    try:
        return "parsed", parse(text)._triples
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


def test_the_term_grammar_matches_the_regex_on_seeded_strings(monkeypatch):
    rng = random.Random(20181104)
    texts = [_text(rng) for _ in range(100_000)]
    long = "9" * 5000  # past int()'s digit limit: refused only once the term parses
    texts += [f"(1/3,2/3)^{long}", f"({long}/3,2/3)", f"(1/3,2/{long}", f"(1/3,{long}/3)^x"]
    scanned = [_parsed(text) for text in texts]
    monkeypatch.setattr(npcc.polygon, "_parse_term", _regex_term)
    for text, outcome in zip(texts, scanned):
        assert outcome == _parsed(text), text
    # The strings reach every outcome: polygons, pairs among them, and each refusal.
    kinds = [next((r for r in REFUSALS if o[2].startswith(r)), o[2]) if o[0] == "raised"
             else "pair" if any(den > 2 for _, den, _ in o[1]) else "parsed" for o in scanned]
    counts = {kind: kinds.count(kind) for kind in ("parsed", "pair", *REFUSALS)}
    assert set(kinds) == set(counts) and min(counts.values()) >= 1, counts
    assert counts["parsed"] + counts["pair"] > 5000 and counts["pair"] > 2000, counts
