"""Exact arithmetic for Newton polygons.

A Newton polygon is a finite multiset of rational slopes in [0, 1].
It is stored as (num, den, mult) int triples: the slope num/den in
lowest terms and its multiplicity, by strictly increasing slope.
Drawn as a lower convex graph it runs from (0, 0) to (height, degree),
picking up each slope in increasing order.  All arithmetic is exact
and in ints: slopes compare by cross-multiplying, and heights along
the graph are counted in units of one over the lcm of the
denominators.  Only ``segments`` and ``degree`` hand out slopes or
heights, built as `fractions.Fraction` when asked for; the fractions
module is imported then, by `_fraction`, and not when npcc loads.

Text grammar (canonical form is produced by ``str``)::

    polygon := term ('+' term)*
    term    := base ('^' INT)?
    base    := 'ord' | 'ss' | '(' FRAC ',' FRAC ')'

``ord`` is the multiset {0, 1}, ``ss`` is {1/2, 1/2}, and a pair
``(s/t, u/t)`` with s + u = t, s <= u, gcd(s, t) = 1 contributes the
slopes s/t and u/t each with multiplicity t.  The single string ``0``
is accepted for the empty polygon.  Arbitrary polygons (orbit
components in particular) may not be expressible in the grammar; those
format to a bracketed slope:multiplicity list and round-trip through
JSON instead.
"""

import math
from collections.abc import Callable, Iterable

from .errors import AsymmetricPolygonError, DomainError, EndpointMismatchError, PolygonSyntaxError

__all__ = ["NewtonPolygon", "parse", "EMPTY", "ORD", "SS"]

Triple = tuple[int, int, int]


def _slope_text(num: int, den: int) -> str:
    """The slope num/den as ``str(Fraction(num, den))`` prints it."""
    return str(num) if den == 1 else f"{num}/{den}"


# What fractions.Fraction raises on a value it cannot read as a rational.
_UNREADABLE = (ValueError, TypeError, OverflowError, ZeroDivisionError)


def _fraction(*args):
    """``fractions.Fraction(*args)``, the module imported at the first call.

    Every Fraction npcc builds comes from here.  Parsing the family table
    builds none, so ``import npcc`` does not load fractions, nor the
    decimal and numbers modules it imports.
    """
    from fractions import Fraction

    return Fraction(*args)


def _ratio(slope) -> tuple[int, int]:
    """(num, den) of a slope in lowest terms with den > 0.

    An int is taken as it is, anything else as `fractions.Fraction` reads
    it; a bool, or a value it cannot read, raises PolygonSyntaxError naming it.
    """
    if isinstance(slope, bool):
        raise PolygonSyntaxError(f"slope {slope!r} is not a rational number")
    if not isinstance(slope, int):
        try:
            slope = _fraction(slope)
        except _UNREADABLE:
            raise PolygonSyntaxError(f"slope {slope!r} is not a rational number") from None
    return slope.numerator, slope.denominator


def _int(value, refusal: str, error: type[DomainError] = PolygonSyntaxError) -> int:
    """value, if it is an int (a bool is not one); anything else raises
    ``error(f"{refusal}, not {value!r}")``, where int() would truncate a
    float or read a string."""
    if type(value) is not int:
        raise error(f"{refusal}, not {value!r}")
    return value


def _slope_order(slopes: Iterable[tuple[int, int]]) -> Callable[[tuple[int, int]], int]:
    """Sort key for (num, den) slopes: num/den counted on the lcm of the denominators."""
    scale = math.lcm(*(den for _, den in slopes))
    return lambda slope: slope[0] * (scale // slope[1])


def _canonical(triples: Iterable[Triple]) -> tuple[Triple, ...]:
    """The validating constructor's work on (num, den, mult) int triples.

    Each num/den must be in lowest terms with den > 0.  Every triple is
    checked, equal slopes merge, and the result is sorted by slope.
    """
    merged: dict[tuple[int, int], int] = {}
    for num, den, k in triples:
        if k < 0:
            raise PolygonSyntaxError(f"negative multiplicity {k}")
        if k == 0:
            continue
        if not 0 <= num <= den:
            raise PolygonSyntaxError(f"slope {_slope_text(num, den)} outside [0, 1]")
        merged[num, den] = merged.get((num, den), 0) + k
    order = _slope_order(merged)
    return tuple((*slope, merged[slope]) for slope in sorted(merged, key=order))


class NewtonPolygon:
    """A multiset of rational slopes in [0, 1] with integer multiplicities."""

    __slots__ = ("_triples",)

    def __init__(self, segments: Iterable[tuple[object, int]] = ()):
        """The polygon of (slope, multiplicity) pairs; a slope is an int or
        anything `fractions.Fraction` reads (a Fraction, float or string),
        and a multiplicity an int."""
        self._triples = _canonical(
            (*_ratio(slope), _int(mult, "a multiplicity must be an int"))
            for slope, mult in segments
        )

    @classmethod
    def _trusted(cls, triples: tuple[Triple, ...]) -> "NewtonPolygon":
        """Wrap (num, den, mult) triples that are already canonical, skipping validation.

        The caller guarantees what ``__init__`` would establish: each
        slope num/den in lowest terms with 0 <= num <= den, slopes
        strictly increasing, and positive int multiplicities.  Triples
        merged by `_canonical` have them, and so do the few results built
        to keep them: ``power`` and ``dual`` of a valid polygon, an
        orbit's lambda-scaled slopes and the decoded Kottwitz totals.
        """
        poly = object.__new__(cls)
        poly._triples = triples
        return poly

    # -- basic structure ------------------------------------------------

    @property
    def segments(self) -> tuple[tuple[object, int], ...]:
        """(slope, multiplicity) pairs by increasing slope, each slope a Fraction."""
        return tuple((_fraction(num, den), mult) for num, den, mult in self._triples)

    @property
    def is_empty(self) -> bool:
        return not self._triples

    @property
    def height(self) -> int:
        return sum(mult for _, _, mult in self._triples)

    @property
    def degree(self):
        """The sum of the slopes with multiplicity, as a Fraction."""
        return sum((s * m for s, m in self.segments), _fraction(0))

    def multiplicity(self, slope) -> int:
        key = _ratio(slope)
        for num, den, mult in self._triples:
            if (num, den) == key:
                return mult
        return 0

    @property
    def p_rank(self) -> int:
        """Multiplicity of the slope 0."""
        return self.multiplicity(0)

    # -- algebra ---------------------------------------------------------

    def amalgamate(self, other: "NewtonPolygon") -> "NewtonPolygon":
        """Multiset union of the slopes."""
        return NewtonPolygon._trusted(_canonical(self._triples + other._triples))

    def __add__(self, other: "NewtonPolygon") -> "NewtonPolygon":
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return self.amalgamate(other)

    def power(self, d: int) -> "NewtonPolygon":
        """Scale every multiplicity by d >= 0 (d = 0 gives the empty polygon)."""
        if _int(d, "a power must be an int") < 0:
            raise PolygonSyntaxError(f"negative power {d}")
        if d == 0:
            return EMPTY
        return NewtonPolygon._trusted(tuple((n, den, m * d) for n, den, m in self._triples))

    def dual(self) -> "NewtonPolygon":
        """Image under slope -> 1 - slope; (den - num)/den is in lowest terms too."""
        return NewtonPolygon._trusted(
            tuple((den - num, den, m) for num, den, m in reversed(self._triples))
        )

    # -- order and shape ---------------------------------------------------

    def lies_on_or_above(self, other: "NewtonPolygon") -> bool:
        """Pointwise comparison of the lower convex graphs.

        Both polygons must share endpoints (height and degree); the
        partial order on Newton polygons of abelian varieties has the
        mu-ordinary one lowest, so "a lies on or above b" means a is
        closer to supersingular than b.
        """
        # Slopes and heights are counted in units of 1/scale, as ints.
        a, b = self._triples, other._triples
        scale = math.lcm(*(den for _, den, _ in a), *(den for _, den, _ in b))
        mine = [(num * (scale // den), m) for num, den, m in a]
        theirs = [(num * (scale // den), m) for num, den, m in b]

        def end(scaled):  # (height, scale * degree)
            return sum(m for _, m in scaled), sum(s * m for s, m in scaled)

        if end(mine) != end(theirs):
            raise EndpointMismatchError(
                f"endpoints differ: ({self.height}, {self.degree}) vs "
                f"({other.height}, {other.degree})"
            )
        # One sweep over both segment lists: between consecutive
        # breakpoints of either graph both are linear, so the gap (self
        # minus other) only needs checking at those breakpoints.
        left, right = iter(mine), iter(theirs)
        (s, k), (t, n) = next(left, (0, 0)), next(right, (0, 0))
        gap = 0
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
        # The breakpoints' heights are the partial sums of num*mult/den.
        # All are integers exactly when every term is, and as num/den is
        # in lowest terms, a term is an integer exactly when den | mult.
        return all(mult % den == 0 for _, den, mult in self._triples)

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
        # Keyed by slope, in increasing order.
        rem = {(num, den): mult for num, den, mult in self._triples}
        units: list[tuple[str, int]] = []
        k = min(rem.get((0, 1), 0), rem.get((1, 1), 0))
        if k:
            units.append(("ord", k))
            for s in ((0, 1), (1, 1)):
                rem[s] -= k
                if rem[s] == 0:
                    del rem[s]
        half = rem.pop((1, 2), 0)
        if half % 2:
            return self._bracket_text()
        for num, den in [s for s in rem if 2 * s[0] < s[1]]:
            mult = rem.pop((num, den))
            if mult % den or rem.pop((den - num, den), 0) != mult:
                return self._bracket_text()
            units.append((f"({num}/{den},{den - num}/{den})", mult // den))
        if rem:
            return self._bracket_text()
        if half:
            units.append(("ss", half // 2))
        return "+".join(name if k == 1 else f"{name}^{k}" for name, k in units)

    def _bracket_text(self) -> str:
        return "[" + ", ".join(f"{_slope_text(n, d)}:{m}" for n, d, m in self._triples) + "]"

    def to_json_obj(self) -> list[dict[str, int]]:
        return [{"num": n, "den": d, "mult": m} for n, d, m in self._triples]

    @classmethod
    def from_json_obj(cls, obj) -> "NewtonPolygon":
        """The polygon of a list of {"num", "den", "mult"} objects.

        Each value must be a JSON integer (a bool is not one) and den
        nonzero; anything else is refused with PolygonSyntaxError.
        """
        try:
            rows = [(e["num"], e["den"], e["mult"]) for e in obj]
        except (KeyError, TypeError) as exc:
            raise PolygonSyntaxError(f"bad polygon JSON: {obj!r}") from exc
        if any(type(v) is not int for row in rows for v in row) or any(d == 0 for _, d, _ in rows):
            raise PolygonSyntaxError(f"bad polygon JSON: {obj!r}")
        return cls._trusted(_canonical((*_lowest_terms(n, d), m) for n, d, m in rows))

    # -- dunders -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"NewtonPolygon({list(self.segments)!r})"


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator, for den != 0."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _numeral(digits: str) -> int:
    """The int a run of decimal digits names, refused past int()'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise PolygonSyntaxError(f"number too long: {len(digits)} digits") from None


def _is_numeral(text: str) -> bool:
    """text is a run of ASCII digits; isdigit() alone takes "²" and "٣" too."""
    return text.isascii() and text.isdigit()


def _parse_term(term: str, acc: list[Triple]) -> None:
    # base ('^' INT)?; whitespace may flank each of a pair's four numbers.
    base, caret, exp_text = term.partition("^")
    pair = base[1:-1].split(",") if base[:1] + base[-1:] == "()" else []
    sides = [side.split("/") for side in pair]
    numbers = [number.strip() for side in sides for number in side]
    is_pair = [len(side) for side in sides] == [2, 2] and all(map(_is_numeral, numbers))
    if not (base in ("ord", "ss") or is_pair) or caret and not _is_numeral(exp_text):
        raise PolygonSyntaxError(f"cannot parse term {term!r}")
    exp = _numeral(exp_text) if caret else 1
    if exp < 1:
        raise PolygonSyntaxError(f"exponent must be >= 1 in {term!r}")
    if base == "ord":
        acc.append((0, 1, exp))
        acc.append((1, 1, exp))
        return
    if base == "ss":
        acc.append((1, 2, 2 * exp))
        return
    s_num, s_den, u_num, u_den = map(_numeral, numbers)
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
    # gcd(s, t) = 1 puts s/t, and so u/t = 1 - s/t, in lowest terms.
    acc.append((s_num, t, t * exp))
    acc.append((u_num, t, t * exp))


def parse(text: str) -> NewtonPolygon:
    """Parse the polygon grammar; ``parse(str(p)) == p`` on grammar output."""
    body = text.strip()
    if body == "0":
        return NewtonPolygon()
    if not body:
        raise PolygonSyntaxError("empty polygon string")
    acc: list[Triple] = []
    for raw in body.split("+"):
        term = raw.strip().replace(" ", "")
        if not term:
            raise PolygonSyntaxError(f"empty term in {text!r}")
        _parse_term(term, acc)
    return NewtonPolygon._trusted(_canonical(acc))


EMPTY = NewtonPolygon()
ORD = parse("ord")
SS = parse("ss")
