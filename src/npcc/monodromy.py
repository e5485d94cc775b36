"""Monodromy data for cyclic covers of the projective line.

A datum (m, N, a) records a degree-m cyclic cover, m >= 2, branched
over N >= 3 points with local monodromy a = (a(1), ..., a(N)), entries
mod m summing to 0 mod m.  Zero entries mark unbranched labels and are
only legal on generalized data (degenerate fibers of clutching families).

The signature of a datum assigns to each residue n mod m the dimension
f(n) of the corresponding character eigenspace of differentials.
"""

import collections
import math

from ._memo import memo
from ._record import Record, _set
from .errors import InvalidDatumError
from .polygon import _fraction, _int, _is_numeral

__all__ = [
    "MonodromyDatum",
    "Signature",
    "signature",
    "genus",
    "induce",
    "normalize",
    "pad_first",
    "pad_last",
    "strip_zeros",
]


# The largest modulus of a datum read from text or JSON, of `npcc orbits
# --m`, and of a clutching.  Work per call grows with m: per-residue
# loops are O(m), and a joint's balance check sorts each orbit's values,
# O(m log m).  At m = 1193 with p a primitive root (one orbit of size
# m - 1), on a 2-core Xeon host, `npcc generate --step pad:1:2` (two
# joints) takes 0.09 s, `--step pad:1193:6` (three joints) 0.09 s and
# `npcc clutch` 0.08 s, interpreter start included.  The signature of a
# glued datum sums over its distinct entries, so a joint's per-residue
# work stays O(m) however long the chain: `--step self:340:auto` (11
# joints), near MAX_BRANCH_POINTS, takes about 15 ms at class 3 and 70 ms
# at class 1 in process via `npcc.cli.main` (medians of 5, cold memos).
MAX_MODULUS = 1200


def check_modulus(m: int, name: str = "m") -> int:
    """m, unless it is above MAX_MODULUS."""
    if m > MAX_MODULUS:
        raise InvalidDatumError(f"{name} = {m} is above MAX_MODULUS = {MAX_MODULUS}")
    return m


def _gcd_m(value: int, m: int) -> int:
    """gcd with the convention gcd(0, m) = m."""
    return math.gcd(value % m, m) or m


class MonodromyDatum(Record):
    """Branching datum (m, N, a) of a cyclic cover; checked when it is made."""

    __slots__ = _fields = ("m", "a", "generalized")

    def __init__(self, m: int, a: tuple[int, ...], generalized: bool = False):
        if _int(m, "m must be an int", InvalidDatumError) < 1:
            raise InvalidDatumError(f"m = {m} < 1")
        a = tuple(a)
        if not {*map(type, a)} <= {int}:  # one pass in C; the reader names the first non-int
            for x in a:
                _int(x, "a datum entry must be an int", InvalidDatumError)
        a = tuple(x % m for x in a)
        if m < 2:
            raise InvalidDatumError(f"m = {m} < 2")
        if len(a) < 3:
            raise InvalidDatumError(f"N = {len(a)} < 3")
        if sum(a) % m:
            raise InvalidDatumError(f"entries {a} do not sum to 0 mod {m}")
        if not generalized and 0 in a:
            raise InvalidDatumError(f"zero entry in non-generalized datum {a}")
        _set(self, "m", m)
        _set(self, "a", a)
        _set(self, "generalized", generalized)

    @property
    def N(self) -> int:
        return len(self.a)

    def validate(self) -> "MonodromyDatum":
        """Check primitivity, returning self for chaining.

        The shape of the datum was checked when it was made.  Primitivity
        (gcd of the entries and m equal to 1) is checked apart from it
        because data induced along a group extension are intentionally
        imprimitive.
        """
        if math.gcd(self.m, *self.a) != 1:
            raise InvalidDatumError(f"datum {self.a} mod {self.m} is imprimitive")
        return self

    # -- text and JSON ----------------------------------------------------

    def text(self) -> str:
        return f"{self.m}:{self.N}:{','.join(str(x) for x in self.a)}"

    @classmethod
    def from_text(cls, text: str) -> "MonodromyDatum":
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise InvalidDatumError(f"datum text needs m:N:a1,...,aN, got {text!r}")
        try:
            m = _decimal(parts[0])
            n = _decimal(parts[1])
            a = tuple(_decimal(x) for x in parts[2].split(","))
        except ValueError as exc:
            raise InvalidDatumError(f"bad datum text {text!r}") from exc
        check_modulus(m)
        if len(a) != n:
            raise InvalidDatumError(f"datum text {text!r} lists {len(a)} entries, N = {n}")
        # m < 1 is left for the constructor to refuse.
        return cls(m, a, generalized=m > 0 and any(x % m == 0 for x in a))

    def to_json_obj(self) -> dict:
        return {"m": self.m, "a": list(self.a), "generalized": self.generalized}

    @classmethod
    def from_json_obj(cls, obj) -> "MonodromyDatum":
        """The datum of {"m", "a", "generalized"}: m and each entry a JSON
        integer (a bool is not one), "generalized" a JSON boolean or absent."""
        try:
            m, a, generalized = obj["m"], tuple(obj["a"]), obj.get("generalized", False)
        except (KeyError, TypeError) as exc:
            raise InvalidDatumError(f"bad datum JSON: {obj!r}") from exc
        if any(type(v) is not int for v in (m, *a)) or type(generalized) is not bool:
            raise InvalidDatumError(f"bad datum JSON: {obj!r}")
        return cls(check_modulus(m), a, generalized)

    def __str__(self) -> str:
        return self.text()


def _decimal(text: str) -> int:
    """The int of an optional '-' and ASCII digits, and of nothing else.

    int() also reads signs, spaces, underscores and non-ASCII digits;
    the datum text, the CLI's int options and --step take none of them.
    """
    digits = text[1:] if text.startswith("-") else text
    if not _is_numeral(digits):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


class Signature(Record):
    """Eigenspace dimensions f(1), ..., f(m-1), indexed by nonzero residues."""

    __slots__ = _fields = ("m", "values")

    def __init__(self, m: int, values: tuple[int, ...]):
        if len(values) != m - 1:
            raise InvalidDatumError(f"signature mod {m} needs {m - 1} values, got {len(values)}")
        _set(self, "m", m)
        _set(self, "values", values)

    def __call__(self, n: int) -> int:
        n %= self.m
        if n == 0:
            return 0
        return self.values[n - 1]

    @property
    def total(self) -> int:
        return sum(self.values)

    def induced(self, factor: int) -> "Signature":
        """Pull back along Z/(factor*m) -> Z/m, so f'(n) = f(n mod m).

        That is factor copies of (f(1), ..., f(m-1), f(0) = 0), less the last 0.
        """
        d = _int(factor, "an induction factor must be an int", InvalidDatumError)
        if d < 1:
            raise InvalidDatumError(f"induction factor {d} < 1")
        return Signature(d * self.m, ((*self.values, 0) * d)[:-1])

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


# A chain joint asks for the signature of the datum glued so far in
# its clutch report, and the next joint asks for it again as one side
# of its pair; replay and verify_family ask for the same ones.  A call
# that raises is not cached; bounded because a key holds up to
# MAX_BRANCH_POINTS entries and a value up to MAX_MODULUS - 1.
@memo(32)
def signature(datum: MonodromyDatum) -> Signature:
    """Eigenspace dimensions of a datum.

    For a residue n with n*a(i) nonzero mod m for at least one i the
    dimension is -1 + sum_i <-n*a(i)/m> with <.> the fractional part.
    When every product n*a(i) vanishes mod m the character is trivial
    on each connected component of the cover and the dimension is 0;
    this only happens for imprimitive (induced) data.

    The fractional parts are summed as integers (-n*a(i)) mod m, so the
    dimension is (s - m) / m for their sum s.  Equal entries contribute
    equal parts, so the sum runs over the distinct entries with their
    counts: a glued chain datum has three, whatever its N.
    """
    m = datum.m
    columns = (
        [k * (-n * ai % m) for n in range(1, m)] for ai, k in collections.Counter(datum.a).items()
    )
    vals = []
    for n, s in enumerate(map(sum, zip(*columns)), 1):
        if not s:
            vals.append(0)
            continue
        q, r = divmod(s - m, m)
        if r or q < 0:
            raise InvalidDatumError(
                "non-integral or negative eigenspace dimension"
                f" {_fraction(s - m, m)} at n = {n}"
            )
        vals.append(q)
    return Signature(m, tuple(vals))


def genus(datum: MonodromyDatum) -> int:
    """Dimension of the differentials, by Riemann-Hurwitz.

    An imprimitive datum with d = gcd(m, a) describes d disjoint copies
    of one curve, and Riemann-Hurwitz for the disjoint union reads
    2g - 2d = (N - 2) m - sum gcd(a(i), m), with g the sum of the
    copies' genera.  That g is the total of the signature; d = 1 is the
    usual genus of a connected cover.
    """
    m = datum.m
    rhs = (datum.N - 2) * m - sum(_gcd_m(ai, m) for ai in datum.a)
    if rhs % 2:
        raise InvalidDatumError(f"odd Riemann-Hurwitz total {rhs} for {datum}")
    return math.gcd(m, *datum.a) + rhs // 2


def induce(datum: MonodromyDatum, d: int) -> MonodromyDatum:
    """The imprimitive datum (d*m, N, d*a) of the induced d-fold disjoint cover."""
    if _int(d, "an induction factor must be an int", InvalidDatumError) < 1:
        raise InvalidDatumError(f"induction factor {d} < 1")
    return MonodromyDatum(d * datum.m, tuple(d * ai for ai in datum.a), datum.generalized)


def normalize(datum: MonodromyDatum) -> tuple[int, ...]:
    """Smallest sorted entry tuple over multiplication by units mod m.

    Two data with the same normalization differ by relabeling branch
    points and replacing the cover's group generator.
    """
    m = datum.m
    best = None
    for u in range(1, m):
        if math.gcd(u, m) != 1:
            continue
        cand = tuple(sorted((u * ai) % m for ai in datum.a))
        if best is None or cand < best:
            best = cand
    return best


def pad_first(datum: MonodromyDatum) -> MonodromyDatum:
    """Prepend an unbranched label, producing a generalized datum."""
    return MonodromyDatum(datum.m, (0,) + datum.a, generalized=True)


def pad_last(datum: MonodromyDatum) -> MonodromyDatum:
    """Append an unbranched label, producing a generalized datum."""
    return MonodromyDatum(datum.m, datum.a + (0,), generalized=True)


def strip_zeros(datum: MonodromyDatum) -> MonodromyDatum:
    """The non-generalized datum of the branched labels; raises below three."""
    kept = tuple(x for x in datum.a if x)
    return MonodromyDatum(datum.m, kept, generalized=False)
