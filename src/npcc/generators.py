"""Certified inductive families of Newton polygons.

Chains of admissible clutchings, starting from small base families,
produce monodromy data of unbounded genus together with a claimed
Newton polygon.  A CertifiedFamily packages the final datum, the
residue class of the prime, the claimed polygon, and a replayable log
of the steps that built it.  Every step re-checks the arithmetic
hypotheses it depends on (admissibility, balancedness, the slope
interval test, defect and genus bookkeeping), and mu-ordinarity claims
are recomputed from scratch on the datum they are made for.  Existence
statements that cannot be decided from a residue class are recorded as
plain assumption strings instead of being silently trusted.
"""

from __future__ import annotations

import dataclasses
import math
from types import MappingProxyType
from typing import Callable, NamedTuple

from .clutch import _cancelling_pair, check_compatible, clutch_report, reorder_at
from .errors import (
    BadResidueError,
    CertificationError,
    DomainError,
    GeneratorError,
    InvalidDatumError,
    NotABaseCaseError,
    PolygonSyntaxError,
)
from .monodromy import (
    MonodromyDatum,
    _decimal,
    _gcd_m,
    genus,
    normalize,
    pad_first,
    pad_last,
)
from .muord import mu_ordinary
from .polygon import ORD, NewtonPolygon
from .strata import DEFAULT_ENUM_CAP, _check_cap, kottwitz_set

__all__ = [
    "CertifiedFamily",
    "base_case",
    "payload_base",
    "extend_ord",
    "self_clutch",
    "pad_and_clutch",
    "double_induction",
    "verify_family",
    "replay",
]

_UNBALANCED_NOTE = (
    "joining step not balanced: the claimed polygon follows the"
    " construction recipe and its occurrence on a smooth member is"
    " assumed"
)


@dataclasses.dataclass(frozen=True)
class CertifiedFamily:
    """A monodromy datum with a certified Newton polygon claim.

    mu_ordinary_claim records whether the claimed polygon is asserted to
    be the mu-ordinary one of the datum; such claims are recomputed at
    every construction step.  payload_codim, when not None, is the
    codimension of the claimed polygon inside the Kottwitz set where it
    was first certified; the clutching steps transport that codimension
    unchanged, so it can be rechecked on the final datum.  The datum
    must be primitive: an imprimitive one is a disconnected cover, whose
    Riemann-Hurwitz genus is not the genus its polygon has.

    steps holds one read-only record of immutable values per step, keyed
    by its op's layout in BASE_OPS or CHAIN_OPS; certificate() renders
    them as new JSON, so editing a certificate never changes the family.
    """

    datum: MonodromyDatum
    p_class: int
    claimed_np: NewtonPolygon
    mu_ordinary_claim: bool
    steps: tuple = ()
    assumptions: tuple = ()
    payload_codim: int | None = None

    def __post_init__(self):
        self.datum.validate()
        m = self.datum.m
        p = self.p_class % m
        if math.gcd(p, m) != 1:
            raise BadResidueError(
                f"residue class {self.p_class} is not invertible mod {m}"
            )
        object.__setattr__(self, "p_class", p)
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        if self.claimed_np.genus != genus(self.datum):
            raise GeneratorError(
                f"claimed polygon has genus {self.claimed_np.genus}, datum has genus"
                f" {genus(self.datum)}"
            )

    def certificate(self) -> dict:
        """Serializable record of the claim and its full derivation."""
        return {
            "version": 1,
            "datum": self.datum.to_json_obj(),
            "p_class": self.p_class,
            "polygon": self.claimed_np.to_json_obj(),
            "polygon_text": str(self.claimed_np),
            "mu_ordinary_claim": self.mu_ordinary_claim,
            "payload_codim": self.payload_codim,
            "steps": [{key: _json(value) for key, value in step.items()} for step in self.steps],
            "assumptions": list(self.assumptions),
        }


def _json(value):
    """A step record's value as a new JSON value."""
    if isinstance(value, CertifiedFamily):
        return value.certificate()
    if isinstance(value, (MonodromyDatum, NewtonPolygon)):
        return value.to_json_obj()
    return list(value) if isinstance(value, tuple) else value


def _extended(f: CertifiedFamily, op: str, values, datum, claim, **changes) -> CertifiedFamily:
    """f plus one step of CHAIN_OPS[op] holding values; other fields carry over unless changed."""
    steps = f.steps + (CHAIN_OPS[op].record(*values),)
    return dataclasses.replace(f, datum=datum, claimed_np=claim, steps=steps, **changes)


def _certify(holds: bool, what: str) -> None:
    """Raise CertificationError unless a derivation's own check holds."""
    if not holds:
        raise CertificationError(f"certification check failed: {what}")


def _hypothesis(holds: bool, failure: str) -> None:
    """Raise GeneratorError, naming the failure, unless a step's hypothesis holds."""
    if not holds:
        raise GeneratorError(f"hypothesis failure: {failure}")


# The most branch points a chain step may produce; each op checks it
# before it clutches.  A joint builds the glued datum, O(N), and its
# signature and checks, O(m), so a chain of n copies costs O(n (N + m)):
# self:340:auto (N = 1022) takes about 0.1 s on 7:3:1,1,5 and, on
# 1193:3:1,1,1191, about 0.65 s at class 3 and 2.3 s at class 1, in
# process on a 2-core Xeon host.
MAX_BRANCH_POINTS = 1024


def _bound(name: str, size: int) -> None:
    """Refuse a chain step whose result would have more than MAX_BRANCH_POINTS."""
    if size > MAX_BRANCH_POINTS:
        raise GeneratorError(
            f"step {name!r} would give {size} branch points, more than"
            f" MAX_BRANCH_POINTS = {MAX_BRANCH_POINTS}"
        )


def _joint(g1, g2, p, defect, what, balanced=False, direct=False):
    """The clutch report of one chain joint, certified to have the given defect.

    balanced=True also certifies that the joint is balanced; direct=True
    refuses a joint that fails the direct slope interval test.
    """
    rep = clutch_report(g1, g2, p=p)
    _certify(rep.epsilon == defect and (rep.balanced or not balanced), what)
    _hypothesis(
        rep.compatible is True or not direct,
        "the joining step fails the direct slope interval test",
    )
    return rep


def _reorder_ends(datum: MonodromyDatum, i: int, j: int) -> MonodromyDatum:
    a = datum.a
    middle = tuple(a[k] for k in range(len(a)) if k != i and k != j)
    return MonodromyDatum(
        datum.m, (a[i],) + middle + (a[j],), generalized=datum.generalized
    )


def _fold_chain(std: MonodromyDatum, n: int, p: int, r: int) -> MonodromyDatum:
    """Clutch n copies of std end to end and return the folded datum."""
    accum, what = std, "chain joint balanced with defect r - 1"
    for _ in range(n - 1):
        accum = _joint(accum, std, p, r - 1, what, balanced=True).gamma3
    return accum


def _chain_parts(datum, claim, mu_claim, p, i, j, n):
    """Fold n copies of a family at the complementary pair (i, j).

    Returns the folded datum, the claimed polygon and the r of the
    joint.  Payload claims keep the last copy unchained: the first
    n - 1 copies form a mu-ordinary chain which is then joined to the
    payload copy, and that joint must pass the direct interval test.
    """
    m, a = datum.m, datum.a
    if not (0 <= i < len(a) and 0 <= j < len(a)) or i == j:
        raise GeneratorError(f"invalid label pair ({i}, {j})")
    if (a[i] + a[j]) % m:
        raise GeneratorError(
            f"entries at labels ({i}, {j}) are not complementary mod {m}"
        )
    r = _gcd_m(a[i], m)
    std = _reorder_ends(datum, i, j)
    u = mu_ordinary(std, p)
    if mu_claim:
        _certify(u == claim, "mu-ordinary claim recomputes on the chained datum")
        chain = _fold_chain(std, n, p, r)
        np3 = claim.power(n) + ORD.power((n - 1) * (r - 1))
        _certify(np3 == mu_ordinary(chain, p), "chain claim is mu-ordinary")
        return chain, np3, r
    _hypothesis(
        check_compatible(datum, datum, p),
        "an orbit component of the mu-ordinary polygon has more than two distinct slopes",
    )
    twin = _fold_chain(std, n - 1, p, r)
    what = "payload joint balanced with defect r - 1"
    rep = _joint(twin, std, p, r - 1, what, balanced=True, direct=True)
    np3 = u.power(n - 1) + claim + ORD.power((n - 1) * (r - 1))
    return rep.gamma3, np3, r


def _extend_parts(datum, claim, c, p, mu_claim):
    """Clutch a genus-zero three-point cover in front of the datum."""
    m = datum.m
    c %= m
    if not c:
        raise GeneratorError("c must be nonzero mod m")
    t = math.gcd(c, m)
    g1 = MonodromyDatum(m // t, (c // t, (m - c) // t, 0), generalized=True)
    _certify(genus(g1) == 0, "the extending cover has genus 0")
    what = "extension is balanced and compatible, with defect m - t and (c, m - c) first"
    rep = _joint(g1, pad_first(datum), p, m - t, what, balanced=True)
    _certify(rep.compatible is True and rep.gamma3.a[:2] == (c, (m - c) % m), what)
    np3 = claim + ORD.power(m - t)
    if mu_claim:
        _certify(np3 == mu_ordinary(rep.gamma3, p), "extended claim is mu-ordinary")
    return rep.gamma3, np3, t


def _padded_size(big_n: int, n: int) -> int:
    """Branch points of _padded_chain's result."""
    return big_n if n == 1 else n * big_n + 2


def _padded_chain(datum, claim, mu_claim, p, n):
    """Datum and claim of n copies chained at two appended unbranched labels."""
    if n == 1:
        return datum, claim
    padded = pad_last(pad_last(datum))
    return _chain_parts(padded, claim, mu_claim, p, padded.N - 2, padded.N - 1, n)[:2]


def _moonen_match(datum):
    from .catalog import moonen_families

    if 0 in datum.a:
        return None
    key = normalize(datum)
    for fam in moonen_families():
        if fam.m == datum.m and fam.datum.N == datum.N:
            if normalize(fam.datum) == key:
                return fam.label
    return None


def base_case(
    datum: MonodromyDatum, p_class: int, cap: int = DEFAULT_ENUM_CAP
) -> CertifiedFamily:
    """Start a certified family at its mu-ordinary polygon.

    Succeeds when one of three checks supports the claim: the datum has
    exactly three branch points; the datum matches one of the twenty
    listed special families up to multiplier and relabeling; or the
    mu-ordinary polygon is the unique element of maximal p-rank in the
    Kottwitz set, in which case a prime-size condition is recorded as
    an assumption unless N = 4 or the class of p is +-1 mod m.  cap
    bounds that Kottwitz set as in kottwitz_set.  Raises
    NotABaseCaseError when no check applies.
    """
    datum.validate()
    _check_cap(cap)  # also where the clauses below never read it
    u = mu_ordinary(datum, p_class)
    m, big_n = datum.m, datum.N
    label = None if big_n == 3 else _moonen_match(datum)
    if big_n == 3:
        clause, why = "N3", "(three branch points)"
    elif label is not None:
        clause, why = "catalog:" + label, f"(matches listed family {label})"
    elif [t.p_rank for t in kottwitz_set(datum, p_class, cap=cap).totals()].count(u.p_rank) != 1:
        raise NotABaseCaseError(
            f"no base clause applies to {datum.text()} at class {p_class % m} mod {m}"
        )
    elif big_n == 4:
        clause = "unique-max-p-rank:N4"
        why = "(unique maximal p-rank polygon, four branch points)"
    elif p_class % m in (1, m - 1):
        clause = "unique-max-p-rank:pm1"
        why = "(unique maximal p-rank polygon, p is +-1 mod m)"
    else:
        clause = "unique-max-p-rank:large-p"
        why = f"(unique maximal p-rank polygon) assuming p >= {m * (big_n - 3)}"
    assumption = "mu-ordinary stratum nonempty for the base datum " + why
    step = BASE_OPS["base_case"].record(datum, p_class % m, clause)
    return CertifiedFamily(datum, p_class, u, True, (step,), (assumption,), 0)


def payload_base(
    datum: MonodromyDatum,
    p_class: int,
    polygon: NewtonPolygon,
    cap: int = DEFAULT_ENUM_CAP,
) -> CertifiedFamily:
    """Start a family at a claimed polygon from its Kottwitz set.

    The polygon must occur among the set's totals.  Its codimension,
    the minimal length of an element realizing it, is recorded so later
    steps can transport it.  Smooth occurrence is recorded as an
    assumption, in the usual reading that the prime is sufficiently
    large within its class.
    """
    datum.validate()
    ks = kottwitz_set(datum, p_class, cap=cap)
    try:
        codim = ks.codim_of_polygon(polygon)
    except DomainError:
        raise GeneratorError(
            f"{polygon} does not occur in the Kottwitz set of"
            f" {datum.text()} at class {p_class % datum.m}"
        ) from None
    step = BASE_OPS["payload_base"].record(datum, p_class % datum.m, polygon)
    assumption = (
        f"stratum {polygon} nonempty on the base family for sufficiently"
        " large p in its class"
    )
    return CertifiedFamily(datum, p_class, polygon, codim == 0, (step,), (assumption,), codim)


def extend_ord(f: CertifiedFamily, c: int) -> CertifiedFamily:
    """Extend by a genus-zero three-point cover, adding ord^(m - t).

    c is a nonzero residue mod m and t = gcd(m, c); the datum becomes
    (m, N + 2, (c, m - c, a...)).  Admissibility and balancedness hold
    by construction, and the interval test is vacuous against the
    genus-zero side, so payload claims pass through unchanged.
    """
    _bound("extend_ord", f.datum.N + 2)
    m = f.datum.m
    datum3, np3, t = _extend_parts(f.datum, f.claimed_np, c, f.p_class, f.mu_ordinary_claim)
    return _extended(f, "extend_ord", (c % m, t, m - t, True, True, True), datum3, np3)


def self_clutch(f: CertifiedFamily, n: int, at=None, auto_pad: bool = False) -> CertifiedFamily:
    """Clutch n copies of the family with itself at a complementary pair.

    The pair of labels (i, j) must satisfy a(i) + a(j) = 0 mod m; the
    first such pair is used when none is given.  When the datum has no
    complementary pair, auto_pad=True appends two unbranched labels
    which always form one (r = m); otherwise the call fails.  The defect
    is ord^((n-1)(r-1)) with r = gcd(a(i), m).  A payload claim keeps
    its polygon in place of one copy of the mu-ordinary one and
    additionally requires every orbit component of the mu-ordinary
    polygon to have at most two distinct slopes.
    """
    if n < 1:
        raise GeneratorError("n must be a positive integer")
    base, mu_claim = f.datum, f.mu_ordinary_claim
    if at is None:
        at = _cancelling_pair(base, base, within=True)
    padded = at is None
    _bound("self_clutch", _padded_size(base.N, n) if padded and auto_pad else n * (base.N - 2) + 2)
    if n == 1:
        return f
    if padded:
        if not auto_pad:
            raise GeneratorError(
                "no complementary pair a(i) + a(j) = 0 mod m; pass"
                " auto_pad=True to append a pair of unbranched labels"
            )
        at, r = (base.N, base.N + 1), base.m
        datum3, np3 = _padded_chain(base, f.claimed_np, mu_claim, f.p_class, n)
    else:
        i, j = at
        datum3, np3, r = _chain_parts(base, f.claimed_np, mu_claim, f.p_class, i, j, n)
    epsilon, compatible = (n - 1) * (r - 1), None if mu_claim else True
    values = (n, tuple(at), padded, r, epsilon, True, True, compatible)
    return _extended(f, "self_clutch", values, datum3, np3)


def pad_and_clutch(f: CertifiedFamily, t: int, n: int) -> CertifiedFamily:
    """Chain n copies after splitting off a complementary pair of labels.

    t must divide m.  For t = m the datum gains two unbranched labels
    and the chain joins at them; t = m with n = 1 is the identity.  For
    t < m the datum is first extended by the pair (t, m - t), which
    contributes ord^(m - t) per copy, and the chain joins there.  The
    claimed polygon works out to u^n + ord^(mn - n - t + 1) for
    mu-ordinary claims, with one copy of u replaced by the payload
    polygon otherwise.
    """
    m = f.datum.m
    if n < 1:
        raise GeneratorError("n must be a positive integer")
    _bound("pad_and_clutch", _padded_size(f.datum.N, n) if t == m else n * f.datum.N + 2)
    if t < 1 or m % t:
        raise GeneratorError(f"t must be a positive divisor of {m}")
    if t == m and n == 1:
        return f
    mu_claim, p = f.mu_ordinary_claim, f.p_class
    if t == m:
        datum3, np3 = _padded_chain(f.datum, f.claimed_np, mu_claim, p, n)
        r = m
    else:
        datum3, np3, r = _extend_parts(f.datum, f.claimed_np, t, p, mu_claim)
        if n > 1:
            datum3, np3, r = _chain_parts(datum3, np3, mu_claim, p, 0, 1, n)
    _certify(r == t, "the chain joins at labels with gcd t")
    epsilon = m * n - n - t + 1
    if mu_claim:
        expected = f.claimed_np.power(n) + ORD.power(epsilon)
    else:
        expected = mu_ordinary(f.datum, p).power(n - 1) + f.claimed_np + ORD.power(epsilon)
    _certify(np3 == expected, "the chain's claim is u^n + ord^(mn - n - t + 1)")
    values = (t, n, r, epsilon, True, True, None if mu_claim else True)
    return _extended(f, "pad_and_clutch", values, datum3, np3)


def double_induction(
    f1: CertifiedFamily, f2: CertifiedFamily, n1: int, n2: int
) -> CertifiedFamily:
    """Cross the chains of two families sharing the same m.

    Each input is chained with itself (joining at two added unbranched
    labels as in pad_and_clutch with t = m), and the two chains are
    joined once at a designated complementary pair taken from the
    original data, with r = gcd(a1(i0), m).  The claimed polygon is the
    product of the two claims padded by ord^((n1+n2-2)(m-1) + (r-1)).

    The joining step is re-checked.  When it is balanced and both
    claims are mu-ordinary, the result is certified mu-ordinary.  When
    it is not balanced, the claim keeps the shape above, the failed
    check is recorded in the step, and an explicit assumption is
    attached; codimension transport is dropped.  A payload claim may
    ride on f2 only and additionally requires the interval tests for
    (u1, u2) and (u2, u2); with n2 copies, the last one carries the
    payload and is joined through a pair of added unbranched labels.
    """
    big_n = f2.datum.N
    if f2.mu_ordinary_claim or n2 == 1:
        second = _padded_size(big_n, n2)
    else:  # a chain of n2 - 1 copies, then the payload copy
        second = _padded_size(big_n, n2 - 1) + big_n
    _bound("double_induction", _padded_size(f1.datum.N, n1) + second - 2)
    if n1 < 1 or n2 < 1:
        raise GeneratorError("n1 and n2 must be positive integers")
    m = f1.datum.m
    if f2.datum.m != m:
        raise GeneratorError("both families must share the same m")
    if f1.p_class != f2.p_class:
        raise GeneratorError("both families must share the residue class")
    if not f1.mu_ordinary_claim:
        raise GeneratorError(
            "the first family must carry a mu-ordinary claim; payload"
            " claims ride on the second"
        )
    p = f1.p_class
    pair = _cancelling_pair(f1.datum, f2.datum)
    if pair is None:
        raise GeneratorError("no complementary pair between the two data")
    i0, j0 = pair
    v1 = f1.datum.a[i0]
    v2 = f2.datum.a[j0]
    r = _gcd_m(v1, m)
    a_datum, a_np = _padded_chain(f1.datum, f1.claimed_np, True, p, n1)
    assumptions = list(f1.assumptions)
    for note in f2.assumptions:
        if note not in assumptions:
            assumptions.append(note)

    def cross(b_datum, direct=False):
        """Join the first chain to b_datum at the designated pair."""
        g1, g2 = reorder_at(a_datum, b_datum, a_datum.a.index(v1), b_datum.a.index(v2))
        return _joint(g1, g2, p, r - 1, "crossing defect is r - 1", direct=direct)

    if f2.mu_ordinary_claim:
        b_datum, b_np = _padded_chain(f2.datum, f2.claimed_np, True, p, n2)
        rep = cross(b_datum)
        np3 = a_np + b_np + ORD.power(r - 1)
        balanced = bool(rep.balanced)
        _certify(
            (np3 == mu_ordinary(rep.gamma3, p)) == balanced,
            "crossed claim is mu-ordinary exactly when the joint is balanced",
        )
        mu_claim, codim, compatible = balanced, 0, rep.compatible
    else:
        _hypothesis(
            check_compatible(f1.datum, f2.datum, p),
            "interval test for the pair of mu-ordinary polygons",
        )
        _hypothesis(
            check_compatible(f2.datum, f2.datum, p),
            "interval test of the second mu-ordinary polygon against itself",
        )
        if n2 == 1:
            rep = cross(f2.datum, direct=True)
            balanced = bool(rep.balanced)
            np3 = a_np + f2.claimed_np + ORD.power(r - 1)
        else:
            u2 = mu_ordinary(f2.datum, p)
            b_datum, b_np = _padded_chain(f2.datum, u2, True, p, n2 - 1)
            rep4 = cross(b_datum)
            z4_np = a_np + b_np + ORD.power(r - 1)
            balanced = bool(rep4.balanced)
            if balanced:
                _certify(z4_np == mu_ordinary(rep4.gamma3, p), "crossed chain is mu-ordinary")
            what = "payload joint defect is m - 1"
            rep = _joint(pad_last(rep4.gamma3), pad_first(f2.datum), p, m - 1, what, direct=True)
            balanced = balanced and bool(rep.balanced)
            np3 = z4_np + f2.claimed_np + ORD.power(m - 1)
        mu_claim, codim, compatible = False, f2.payload_codim, True
    if not balanced:
        codim = None
        assumptions.append(_UNBALANCED_NOTE)
    values = (n1, n2, (i0, j0), r, True, balanced, compatible, f2)
    return _extended(
        f1, "double_induction", values, rep.gamma3, np3,
        mu_ordinary_claim=mu_claim, assumptions=tuple(assumptions), payload_codim=codim,
    )


def verify_family(f: CertifiedFamily, deep: bool = False, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """Recheck a family's claim against freshly computed invariants.

    Always recomputes the mu-ordinary polygon of the final datum: a
    mu-ordinary claim must equal it, any other claim must lie on or
    above it.  With deep=True a non-mu-ordinary claim is additionally
    located inside the Kottwitz set of the final datum, bounded by cap
    as in kottwitz_set, and its codimension there is compared with the
    recorded payload codimension when one is present.  Returns a report
    dict with an "ok" flag.
    """
    _check_cap(cap)  # also where the deep check never reads it
    u = mu_ordinary(f.datum, f.p_class)
    report = {
        "datum": f.datum.text(),
        "p_class": f.p_class,
        "claimed": str(f.claimed_np),
        "mu_ordinary": str(u),
        "mu_match": u == f.claimed_np,
        "dominates_mu_ordinary": f.claimed_np.lies_on_or_above(u),
    }
    ok = report["mu_match" if f.mu_ordinary_claim else "dominates_mu_ordinary"]
    if deep and not f.mu_ordinary_claim:
        ks = kottwitz_set(f.datum, f.p_class, cap=cap)
        codim = ks.codim_of_polygon(f.claimed_np)
        report["codim"] = codim
        if f.payload_codim is not None:
            report["payload_codim"] = f.payload_codim
            ok = ok and codim == f.payload_codim
    report["ok"] = bool(ok)
    return report


# How deeply double_induction certificates may nest through "other".
MAX_REPLAY_DEPTH = 16

_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer", bool: "a boolean"}


def _field(obj: dict, key: str, kind: type, where: str):
    """obj[key], which must be a JSON value of the given type."""
    value = obj.get(key)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise GeneratorError(f"{where} needs {key!r} as {_JSON_TYPES[kind]}")
    return value


def _same_json(a, b) -> bool:
    """a == b with JSON types kept apart, so 1, 1.0 and true all differ."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _read(step: dict, key: str, kind: type, where: str, cap: int, depth: int):
    """step[key] read back as a step value of the given kind; a tuple is two labels."""
    json_type = {tuple: list, NewtonPolygon: list, MonodromyDatum: dict, CertifiedFamily: dict}
    value = _field(step, key, json_type.get(kind, kind), where)
    if kind is tuple and (len(value) != 2 or not all(type(i) is int for i in value)):
        raise GeneratorError(f"{where} needs {key!r} as two integer labels")
    if kind is CertifiedFamily:
        return replay(value, cap, depth + 1)
    try:
        return kind(value) if kind in (int, bool, tuple) else kind.from_json_obj(value)
    except (InvalidDatumError, PolygonSyntaxError) as exc:
        raise GeneratorError(f"{where}: {exc}") from None


class ChainOp(NamedTuple):
    """A step op: its "op" name, certificate layout, work and --step word.

    layout declares a step's keys after "op" in certificate order: each
    input as (key, kind of its value), then each computed field as a
    bare key, but double_induction's input "other" comes last.  record
    writes steps from it; replay reads their inputs back by kind for
    run(f, **inputs), f being None for a base op.  The --step form is
    word, ":X" per int input x, then "[:auto]" for a flag auto_pad.
    """

    name: str
    layout: tuple
    run: Callable[..., CertifiedFamily]
    word: str | None = None

    @property
    def inputs(self) -> list:
        """The (key, kind) pairs of the op's inputs."""
        return [item for item in self.layout if not isinstance(item, str)]

    def record(self, *values) -> MappingProxyType:
        """A read-only step holding values under this op's layout keys, in order."""
        keys = (item if isinstance(item, str) else item[0] for item in self.layout)
        return MappingProxyType({"op": self.name, **dict(zip(keys, values, strict=True))})

    @property
    def cli(self) -> str | None:
        """The --step form, such as "self:N[:auto]", or None."""
        forms = (f":{key.upper()}" if kind is int else f"[:{key.partition('_')[0]}]"
                 for key, kind in self.inputs if kind in (int, bool))
        return None if self.word is None else self.word + "".join(forms)

    def parse(self, text: str) -> dict | None:
        """The keywords of a --step text in this op's form, or None."""
        given, *values = text.split(":")
        ints = [key for key, kind in self.inputs if kind is int]
        flags = {key: True for key, kind in self.inputs
                 if kind is bool and values[len(ints):] == [key.partition("_")[0]]}
        if given != self.word or len(values) != len(ints) + len(flags):
            return None
        try:
            return {**flags, **{key: _decimal(v) for key, v in zip(ints, values)}}
        except ValueError:
            return None


_CHECKS = ("admissible", "balanced", "compatible")
_DATUM = ("datum", MonodromyDatum), ("p_class", int)

# The ops that start a family.  Each op here and in CHAIN_OPS calls the
# module's function at call time, so whatever the module binds then runs.
BASE_OPS = {op.name: op for op in (
    ChainOp("base_case", (*_DATUM, "clause"), lambda _, **inputs: base_case(**inputs)),
    ChainOp(
        "payload_base", (*_DATUM, ("polygon", NewtonPolygon)),
        lambda _, **inputs: payload_base(**inputs),
    ),
)}

# In the order `npcc generate --step` lists them.
CHAIN_OPS = {op.name: op for op in (
    ChainOp(
        "pad_and_clutch", (("t", int), ("n", int), "r", "epsilon", *_CHECKS),
        lambda f, t, n: pad_and_clutch(f, t, n), "pad",
    ),
    ChainOp(
        "self_clutch", (("n", int), ("at", tuple), ("auto_pad", bool), "r", "epsilon", *_CHECKS),
        # A padded step records the two labels it appended, which f lacks.
        lambda f, n, at=None, auto_pad=False: self_clutch(
            f, n, None if auto_pad else at, auto_pad
        ),
        "self",
    ),
    ChainOp(
        "extend_ord", (("c", int), "t", "epsilon", *_CHECKS),
        lambda f, c: extend_ord(f, c), "extend",
    ),
    ChainOp(
        "double_induction",
        (("n1", int), ("n2", int), "at", "r", *_CHECKS, ("other", CertifiedFamily)),
        lambda f, n1, n2, other: double_induction(f, other, n1, n2),
    ),
)}


def replay(cert: dict, cap: int = DEFAULT_ENUM_CAP, _depth: int = 0) -> CertifiedFamily:
    """Re-run a certificate's derivation and confirm it reproduces it.

    Raises GeneratorError when the certificate is malformed (a missing
    or mistyped field, or double_induction steps nested more than
    MAX_REPLAY_DEPTH deep), when a step would exceed MAX_BRANCH_POINTS,
    or when the replayed certificate differs from the recorded one in
    any field it writes, JSON types included, or the field is missing.
    cap bounds the Kottwitz set of each base step, nested certificates'
    included, as it does in base_case and payload_base.  _depth counts
    the enclosing certificates of a nested one.
    """
    if not isinstance(cert, dict):
        raise GeneratorError("certificate must be a JSON object")
    if cert.get("version") != 1:
        raise GeneratorError("unsupported certificate version")
    if _depth > MAX_REPLAY_DEPTH:
        raise GeneratorError(f"certificates nest more than {MAX_REPLAY_DEPTH} levels deep")
    steps = _field(cert, "steps", list, "certificate")
    _field(cert, "datum", dict, "certificate")
    _field(cert, "polygon", list, "certificate")
    fam = None
    for raw in steps:
        if not isinstance(raw, dict):
            raise GeneratorError("step must be a JSON object")
        name = raw.get("op")
        known = isinstance(name, str)
        op = (BASE_OPS if fam is None else CHAIN_OPS).get(name) if known else None
        if op is None:
            raise GeneratorError(
                "derivation does not start at a base step" if fam is None
                else "base step must come first" if known and name in BASE_OPS
                else f"unknown step op {name!r}"
            )
        where = f"step {name!r}"
        inputs = {key: _read(raw, key, kind, where, cap, _depth) for key, kind in op.inputs}
        if fam is None:
            inputs["cap"] = cap
        fam = op.run(fam, **inputs)
    if fam is None:
        raise GeneratorError("empty derivation")
    for key, value in fam.certificate().items():
        if key not in cert or not _same_json(cert[key], value):
            raise GeneratorError(f"replay produced a different {key}")
    return fam
