"""Exact arithmetic for Newton polygons.

A Newton polygon is a finite multiset of rational slopes in [0, 1],
stored as (slope, multiplicity) pairs with strictly increasing slopes.
Drawn as a lower convex graph it runs from (0, 0) to (height, degree),
picking up each slope in increasing order.  All arithmetic is exact:
slopes are `fractions.Fraction` and nothing is ever rounded.

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

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (
    AsymmetricPolygonError,
    EmptyPolygonError,
    EndpointMismatchError,
    PolygonSyntaxError,
)

__all__ = ["NewtonPolygon", "parse", "EMPTY", "ORD", "SS"]

HALF = Fraction(1, 2)

_TERM_RE = re.compile(
    r"""^(?:
            (?P<ord>ord) |
            (?P<ss>ss) |
            \(\s*(?P<n1>\d+)\s*/\s*(?P<d1>\d+)\s*,\s*(?P<n2>\d+)\s*/\s*(?P<d2>\d+)\s*\)
        )
        (?:\^(?P<exp>\d+))?$""",
    re.VERBOSE,
)


class NewtonPolygon:
    """A multiset of rational slopes in [0, 1] with integer multiplicities."""

    # _hash is filled on first use: totals are dict keys looked up many
    # times, and hashing their Fraction slopes again each time is slow.
    __slots__ = ("_segments", "_hash")

    def __init__(self, segments: Iterable[tuple[Fraction | int, int]] = ()):
        merged: dict[Fraction, int] = {}
        for slope, mult in segments:
            s = Fraction(slope)
            k = int(mult)
            if k < 0:
                raise PolygonSyntaxError(f"negative multiplicity {k}")
            if k == 0:
                continue
            if not 0 <= s <= 1:
                raise PolygonSyntaxError(f"slope {s} outside [0, 1]")
            merged[s] = merged.get(s, 0) + k
        self._segments = tuple(sorted(merged.items()))

    @classmethod
    def _trusted(cls, segments: tuple[tuple[Fraction, int], ...]) -> "NewtonPolygon":
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
        s = Fraction(slope)
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

    def amalgamate(self, other: "NewtonPolygon") -> "NewtonPolygon":
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
        return NewtonPolygon._trusted(tuple(merged))

    def __add__(self, other: "NewtonPolygon") -> "NewtonPolygon":
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return self.amalgamate(other)

    def power(self, d: int) -> "NewtonPolygon":
        """Scale every multiplicity by d >= 0 (d = 0 gives the empty polygon)."""
        d = int(d)
        if d < 0:
            raise PolygonSyntaxError(f"negative power {d}")
        if d == 0:
            return EMPTY
        return NewtonPolygon._trusted(tuple((s, m * d) for s, m in self._segments))

    def dual(self) -> "NewtonPolygon":
        """Image under slope -> 1 - slope."""
        return NewtonPolygon._trusted(
            tuple((1 - s, m) for s, m in reversed(self._segments))
        )

    # -- order and shape ---------------------------------------------------

    def lies_on_or_above(self, other: "NewtonPolygon") -> bool:
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

    def first_slope(self) -> Fraction:
        if self.is_empty:
            raise EmptyPolygonError("first slope of the empty polygon")
        return self._segments[0][0]

    def last_slope(self) -> Fraction:
        if self.is_empty:
            raise EmptyPolygonError("last slope of the empty polygon")
        return self._segments[-1][0]

    def middle_slope(self) -> Fraction:
        """The ceil(q/2)-th of the q distinct slopes; needs a symmetric polygon."""
        if self.is_empty:
            raise EmptyPolygonError("middle slope of the empty polygon")
        if not self.is_symmetric:
            raise AsymmetricPolygonError(f"middle slope of asymmetric {self}")
        slopes = [s for s, _ in self._segments]
        return slopes[(len(slopes) + 1) // 2 - 1]

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
    def from_json_obj(cls, obj) -> "NewtonPolygon":
        try:
            segments = [(Fraction(e["num"], e["den"]), int(e["mult"])) for e in obj]
        except (KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PolygonSyntaxError(f"bad polygon JSON: {obj!r}") from exc
        return cls(segments)

    # -- dunders -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._segments)
            return self._hash

    def __iter__(self) -> Iterator[tuple[Fraction, int]]:
        return iter(self._segments)

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"NewtonPolygon({list(self._segments)!r})"


def _parse_term(term: str, acc: list[tuple[Fraction, int]]) -> None:
    m = _TERM_RE.match(term)
    if m is None:
        raise PolygonSyntaxError(f"cannot parse term {term!r}")
    exp = int(m.group("exp")) if m.group("exp") else 1
    if exp < 1:
        raise PolygonSyntaxError(f"exponent must be >= 1 in {term!r}")
    if m.group("ord"):
        acc.append((Fraction(0), exp))
        acc.append((Fraction(1), exp))
        return
    if m.group("ss"):
        acc.append((HALF, 2 * exp))
        return
    s_num, s_den = int(m.group("n1")), int(m.group("d1"))
    u_num, u_den = int(m.group("n2")), int(m.group("d2"))
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
    acc.append((Fraction(s_num, t), t * exp))
    acc.append((Fraction(u_num, t), t * exp))


def parse(text: str) -> NewtonPolygon:
    """Parse the polygon grammar; ``parse(str(p)) == p`` on grammar output."""
    body = text.strip()
    if body == "0":
        return NewtonPolygon()
    if not body:
        raise PolygonSyntaxError("empty polygon string")
    acc: list[tuple[Fraction, int]] = []
    for raw in body.split("+"):
        term = raw.strip().replace(" ", "")
        if not term:
            raise PolygonSyntaxError(f"empty term in {text!r}")
        _parse_term(term, acc)
    return NewtonPolygon(acc)


EMPTY = NewtonPolygon()
ORD = parse("ord")
SS = parse("ss")
