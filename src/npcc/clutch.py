"""Clutching combinatorics for pairs of cyclic-cover data.

Two data can be glued along a branch point when the induced local
monodromies there cancel (the pair is then called admissible).  The
glued object has a derived datum, signature, genus, and a defect
epsilon counting the extra toric part; at a residue class p two more
hypotheses enter: balanced (the induced signatures never order a pair
of residues oppositely) and compatible (no slope of the first family's
orbit component falls strictly inside the slope span of the second's).

Everything here is pure bookkeeping on integers and exact rationals.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainError,
    NotAdmissibleError,
    UnsupportedPairError,
)
from .monodromy import (
    MonodromyDatum,
    Signature,
    _gcd_m,
    check_modulus,
    genus,
    pad_first,
    pad_last,
    signature,
)
from .muord import mu_ordinary, mu_ordinary_orbit
from .orbits import Orbit, decompose
from .polygon import ORD, NewtonPolygon

__all__ = [
    "ClutchReport",
    "check_admissible",
    "clutch_data",
    "clutch_report",
    "clutch_polygon",
    "check_balanced",
    "check_compatible",
    "compatible_violations",
    "check_self_compatible",
    "MuOrdProductCheck",
    "mu_ord_product_check",
    "epsilon_orbits",
    "find_admissible_reordering",
    "reorder_at",
    "pad_pair",
]


def _lcm_split(g1: MonodromyDatum, g2: MonodromyDatum) -> tuple[int, int, int]:
    m3 = math.lcm(g1.m, g2.m)
    return m3, m3 // g1.m, m3 // g2.m


def check_admissible(g1: MonodromyDatum, g2: MonodromyDatum) -> bool:
    """Do the last entry of g1 and the first of g2 cancel after induction?"""
    g1.validate()
    g2.validate()
    m3, d1, d2 = _lcm_split(g1, g2)
    return (d1 * g1.a[-1] + d2 * g2.a[0]) % m3 == 0


@dataclass(frozen=True)
class ClutchReport:
    """All derived quantities of one admissible clutching.

    The residue-class flags (balanced, compatible, defects) are None
    unless the report was computed at a p class; compatible stays None
    when m1 does not divide m2, where the predicate is not defined.
    """

    gamma1: MonodromyDatum
    gamma2: MonodromyDatum
    m3: int
    d1: int
    d2: int
    r1: int
    r2: int
    r0: int
    epsilon: int
    gamma3: MonodromyDatum
    f3: Signature
    g3: int
    admissible: bool = True
    p_class: int | None = None
    balanced: bool | None = None
    compatible: bool | None = None
    defects: tuple[tuple[Orbit, int], ...] | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "gamma1": self.gamma1.to_json_obj(),
            "gamma2": self.gamma2.to_json_obj(),
            "m3": self.m3,
            "d1": self.d1,
            "d2": self.d2,
            "r1": self.r1,
            "r2": self.r2,
            "r0": self.r0,
            "epsilon": self.epsilon,
            "gamma3": self.gamma3.to_json_obj(),
            "f3": list(self.f3.values),
            "g3": self.g3,
            "admissible": self.admissible,
        }
        if self.p_class is not None:
            obj["p_class"] = self.p_class
            obj["balanced"] = self.balanced
            obj["compatible"] = self.compatible
            obj["defects"] = [
                {"orbit": list(o.members), "epsilon": e} for o, e in self.defects
            ]
        return obj


def _delta_pair(d: int, big_r: int, n: int, m3: int) -> int:
    """The step function that is 1 when d*R*n vanishes mod m3 but d*n does not."""
    return 1 if (d * big_r * n) % m3 == 0 and (d * n) % m3 != 0 else 0


def _defect_at(d1: int, d2: int, r0: int, n: int, m3: int) -> int:
    """The glued signature's defect term at the residue n mod m3."""
    return _delta_pair(d1 * d2, r0, n, m3) + _delta_pair(d1, d2, n, m3) - _delta_pair(1, d2, n, m3)


def clutch_data(g1: MonodromyDatum, g2: MonodromyDatum) -> ClutchReport:
    """Derived datum, signature, defect, and genus of an admissible pair.

    Both data must be primitive: the genus recursion holds for connected
    covers, and an imprimitive datum is a disjoint union of copies.
    """
    g1.validate(require_primitive=True)
    g2.validate(require_primitive=True)
    if not check_admissible(g1, g2):
        raise NotAdmissibleError(
            f"{g1} and {g2} do not cancel at the clutching point"
        )
    m3, d1, d2 = _lcm_split(g1, g2)
    check_modulus(m3, "m3")
    r1 = _gcd_m(g1.a[-1], g1.m)
    r2 = _gcd_m(g2.a[0], g2.m)
    r0 = math.gcd(r1, r2)
    if not d1 * r1 == d2 * r2 == d1 * d2 * r0:
        raise DomainError("branch-order bookkeeping broke")
    epsilon = d1 * d2 * r0 - d1 - d2 + 1
    if epsilon < 0:
        raise DomainError("defect must be nonnegative")

    entries = tuple((d1 * x) % m3 for x in g1.a[:-1]) + tuple(
        (d2 * x) % m3 for x in g2.a[1:]
    )
    gamma3 = MonodromyDatum(m3, entries, generalized=any(e == 0 for e in entries))

    f1d, f2d = signature(g1).induced(d1).values, signature(g2).induced(d2).values
    defect = (_defect_at(d1, d2, r0, n, m3) for n in range(1, m3))
    f3 = Signature(m3, tuple(a + b + e for a, b, e in zip(f1d, f2d, defect)))

    g3 = d1 * genus(g1) + d2 * genus(g2) + epsilon
    if g3 != genus(gamma3):
        raise DomainError("genus recursion disagrees with Riemann-Hurwitz")
    return ClutchReport(
        gamma1=g1,
        gamma2=g2,
        m3=m3,
        d1=d1,
        d2=d2,
        r1=r1,
        r2=r2,
        r0=r0,
        epsilon=epsilon,
        gamma3=gamma3,
        f3=f3,
        g3=g3,
    )


def clutch_polygon(nu1: NewtonPolygon, nu2: NewtonPolygon, report: ClutchReport) -> NewtonPolygon:
    """The glued polygon: nu1^d1 + nu2^d2 + ord^epsilon."""
    return nu1.power(report.d1) + nu2.power(report.d2) + ORD.power(report.epsilon)


def check_balanced(g1: MonodromyDatum, g2: MonodromyDatum, p: int) -> bool:
    """No orbit carries residues that the two induced signatures order oppositely.

    Sorted by (f1, f2), an orbit's values are ordered oppositely by some
    pair exactly when f2 falls between two neighbours: ties in f1 are
    sorted by f2, so a fall has f1 strictly rising, and an opposite pair
    forces a fall between them.
    """
    m3, d1, d2 = _lcm_split(g1, g2)
    f1, f2 = signature(g1).induced(d1).values, signature(g2).induced(d2).values
    for orbit in decompose(m3, p).orbits:
        pairs = sorted((f1[w - 1], f2[w - 1]) for w in orbit.members)
        if any(b < a for (_, a), (_, b) in zip(pairs, pairs[1:])):
            return False
    return True


def compatible_violations(
    g1: MonodromyDatum, g2: MonodromyDatum, p: int
) -> tuple[tuple[Orbit, Fraction], ...]:
    """Orbits (with a witness slope) where the slope-span condition fails.

    Requires m1 | m2.  On each orbit of the larger modulus, the first
    family's induced orbit component must have no slope strictly
    between the first and last slopes of the second's; orbits where
    either component is empty are vacuously fine.
    """
    if g2.m % g1.m != 0:
        raise UnsupportedPairError(
            f"slope-span check needs m1 | m2, got {g1.m} and {g2.m}"
        )
    d = g2.m // g1.m
    f1d = signature(g1).induced(d)
    f2 = signature(g2)
    dec = decompose(g2.m, p)
    bad = {}
    for orbit in dec.representatives():
        comp1 = mu_ordinary_orbit(orbit, f1d)
        comp2 = mu_ordinary_orbit(orbit, f2)
        if comp1.is_empty or comp2.is_empty:
            continue
        # Slopes on one orbit share the divisor |o| of the lambda scale,
        # so they compare on the orbit scale.
        lo, hi = comp2.segments[0][0], comp2.segments[-1][0]
        inside = [s for s, _ in comp1.segments if lo < s < hi]
        if orbit.is_self_dual:
            mid = comp1.lambda_scale().middle_slope() * orbit.size
            if (not inside) != (mid <= lo):
                raise DomainError("middle-slope characterization disagrees")
        if inside:
            bad[orbit] = inside[0] / orbit.size
            if not orbit.is_self_dual:
                # On -o both components dualize, s -> |o| - s, so the
                # first slope inside its span mirrors the last one here.
                bad[orbit.dual()] = 1 - inside[-1] / orbit.size
    return tuple((o, bad[o]) for o in dec.orbits if o in bad)


def check_compatible(g1: MonodromyDatum, g2: MonodromyDatum, p: int) -> bool:
    """Slope-span compatibility of the pair at p (defined for m1 | m2)."""
    return not compatible_violations(g1, g2, p)


def check_self_compatible(datum: MonodromyDatum, p: int) -> bool:
    """Does every orbit component of the datum have at most two distinct slopes?

    This is the condition letting a family be clutched with itself
    repeatedly: the slope-span check of the datum against itself.
    """
    return check_compatible(datum, datum, p)


@dataclass(frozen=True)
class MuOrdProductCheck:
    """Both sides of the product formula for the glued mu-ordinary polygon."""

    lhs: NewtonPolygon
    rhs: NewtonPolygon
    equal: bool
    balanced: bool

    def to_json_obj(self) -> dict:
        return {
            "lhs": self.lhs.to_json_obj(),
            "rhs": self.rhs.to_json_obj(),
            "equal": self.equal,
            "balanced": self.balanced,
        }


def mu_ord_product_check(
    g1: MonodromyDatum, g2: MonodromyDatum, p: int
) -> MuOrdProductCheck:
    """Compare mu_ordinary of the glued datum against the product polygon.

    The two sides are computed along independent code paths; they agree
    exactly when the pair is balanced at p.
    """
    report = clutch_data(g1, g2)
    lhs = mu_ordinary(report.gamma3, p)
    rhs = clutch_polygon(mu_ordinary(g1, p), mu_ordinary(g2, p), report)
    return MuOrdProductCheck(
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        balanced=check_balanced(g1, g2, p),
    )


def epsilon_orbits(report: ClutchReport, p: int) -> tuple[tuple[Orbit, int], ...]:
    """Distribute the defect over the orbits of the glued modulus.

    An orbit soaks up its full size exactly when the common order e of
    its members divides d1*d2*r0 but neither d1 nor d2; two independent
    evaluations (the divisibility rule and the summed step function)
    are compared, and the total must be the defect.
    """
    m3, d1, d2, r0 = report.m3, report.d1, report.d2, report.r0
    out = []
    total = 0
    for orbit in decompose(m3, p).orbits:
        e = orbit.e
        rule = orbit.size if (d1 * d2 * r0) % e == 0 and d1 % e and d2 % e else 0
        summed = sum(_defect_at(d1, d2, r0, n, m3) for n in orbit.members)
        if rule != summed:
            raise DomainError(f"defect mismatch on orbit {orbit}: {rule} vs {summed}")
        out.append((orbit, rule))
        total += rule
    if total != report.epsilon:
        raise DomainError("orbit defects must sum to the defect")
    return tuple(out)


def clutch_report(
    g1: MonodromyDatum, g2: MonodromyDatum, p: int | None = None
) -> ClutchReport:
    """Full report; with a residue class, the p-dependent flags are filled in."""
    report = clutch_data(g1, g2)
    if p is None:
        return report
    compatible = None
    if g2.m % g1.m == 0:
        compatible = check_compatible(g1, g2, p)
    return dataclasses.replace(
        report,
        p_class=p % report.m3,
        balanced=check_balanced(g1, g2, p),
        compatible=compatible,
        defects=epsilon_orbits(report, p),
    )


def reorder_at(
    g1: MonodromyDatum, g2: MonodromyDatum, i: int, j: int
) -> tuple[MonodromyDatum, MonodromyDatum]:
    """Move entry i of g1 to its end and entry j of g2 to its front.

    The relative order of the other entries is preserved; the result is
    ready for clutching at the chosen labels, and is checked to be
    admissible.
    """
    a1 = g1.a[:i] + g1.a[i + 1 :] + (g1.a[i],)
    a2 = (g2.a[j],) + g2.a[:j] + g2.a[j + 1 :]
    h1 = MonodromyDatum(g1.m, a1, g1.generalized)
    h2 = MonodromyDatum(g2.m, a2, g2.generalized)
    if not check_admissible(h1, h2):
        raise NotAdmissibleError(
            f"entries {g1.a[i]} and {g2.a[j]} do not cancel after induction"
        )
    return h1, h2


def _cancelling_pair(
    g1: MonodromyDatum, g2: MonodromyDatum, within: bool = False
) -> tuple[int, int] | None:
    """The first (i, j), lexicographic, whose entries cancel; j > i within one datum."""
    m3, d1, d2 = _lcm_split(g1, g2)
    for i, x in enumerate(g1.a):
        for j in range(i + 1 if within else 0, g2.N):
            if (d1 * x + d2 * g2.a[j]) % m3 == 0:
                return i, j
    return None


def find_admissible_reordering(
    g1: MonodromyDatum, g2: MonodromyDatum
) -> tuple[MonodromyDatum, MonodromyDatum]:
    """First index pair (lexicographic) whose entries cancel, reordered."""
    pair = _cancelling_pair(g1, g2)
    if pair is None:
        raise NotAdmissibleError(f"no admissible label pair between {g1} and {g2}")
    return reorder_at(g1, g2, *pair)


def pad_pair(
    g1: MonodromyDatum, g2: MonodromyDatum
) -> tuple[MonodromyDatum, MonodromyDatum]:
    """Append and prepend unbranched labels so the pair clutches at zeros."""
    return pad_last(g1), pad_first(g2)
