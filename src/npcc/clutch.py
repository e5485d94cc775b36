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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AsymmetricPolygonError,
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
from .muord import OrbitPolygon, _orbit_table, _self_symmetric, mu_ordinary
from .orbits import Orbit, OrbitDecomposition, decompose
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


def clutch_data(g1: MonodromyDatum, g2: MonodromyDatum) -> ClutchReport:
    """Derived datum, signature, defect, and genus of an admissible pair.

    Both data must be primitive: the genus recursion holds for connected
    covers, and an imprimitive datum is a disjoint union of copies.
    """
    return clutch_report(g1, g2)


def clutch_polygon(nu1: NewtonPolygon, nu2: NewtonPolygon, report: ClutchReport) -> NewtonPolygon:
    """The glued polygon: nu1^d1 + nu2^d2 + ord^epsilon."""
    return nu1.power(report.d1) + nu2.power(report.d2) + ORD.power(report.epsilon)


def check_balanced(g1: MonodromyDatum, g2: MonodromyDatum, p: int) -> bool:
    """No orbit carries residues that the two induced signatures order oppositely."""
    m3, d1, d2 = _lcm_split(g1, g2)
    f1d, f2d = signature(g1).induced(d1), signature(g2).induced(d2)
    return _balanced(f1d, f2d, decompose(m3, p))


def _balanced(f1d: Signature, f2d: Signature, dec: OrbitDecomposition) -> bool:
    """check_balanced given the induced signatures and the glued modulus' orbits.

    Sorted by (f1, f2), an orbit's values are ordered oppositely by some
    pair exactly when f2 falls between two neighbours: ties in f1 are
    sorted by f2, so a fall has f1 strictly rising, and an opposite pair
    forces a fall between them.
    """
    f1, f2 = f1d.values, f2d.values
    for orbit in dec.orbits:
        pairs = sorted((f1[w - 1], f2[w - 1]) for w in orbit.members)
        if any(b < a for (_, a), (_, b) in zip(pairs, pairs[1:])):
            return False
    return True


def _witness_slopes(g1: MonodromyDatum, g2: MonodromyDatum, p: int) -> dict:
    """compatible_violations with each witness slope as an int (num, den) pair."""
    if g2.m % g1.m != 0:
        raise UnsupportedPairError(
            f"slope-span check needs m1 | m2, got {g1.m} and {g2.m}"
        )
    f1d = signature(g1).induced(g2.m // g1.m)
    return _slope_witnesses(f1d, signature(g2), decompose(g2.m, p))


def _slope_witnesses(f1d: Signature, f2: Signature, dec: OrbitDecomposition) -> dict:
    """_witness_slopes given f1 induced to m2, f2, and the orbits mod m2."""
    comps2 = _orbit_table(f2, dec.p_class).values()
    bad = {}
    for (orbit, comp1), comp2 in zip(_orbit_table(f1d, dec.p_class).items(), comps2):
        if not comp1 or not comp2:
            continue
        # Slopes on one orbit share the divisor |o| of the lambda scale,
        # so they compare on the orbit scale, as (rise, width) pairs.
        (lo_r, lo_w), (hi_r, hi_w) = comp2[0], comp2[-1]
        inside = [(r, w) for r, w in comp1 if lo_r * w < r * lo_w and r * hi_w < hi_r * w]
        if orbit.is_self_dual:
            # The middle slope of comp1's lambda-scaled piece, read on the
            # orbit scale: the pieces' slopes are comp1's divided by |o|.
            if not _self_symmetric(orbit, comp1):
                piece = OrbitPolygon._of_pairs(orbit, comp1).lambda_scale()
                raise AsymmetricPolygonError(f"middle slope of asymmetric {piece}")
            mid_r, mid_w = comp1[(len(comp1) + 1) // 2 - 1]
            if (not inside) != (mid_r * lo_w <= lo_r * mid_w):
                raise DomainError("middle-slope characterization disagrees")
        if inside:
            r, w = inside[0]
            bad[orbit] = (r, w * orbit.size)
            if not orbit.is_self_dual:
                # On -o both components dualize, s -> |o| - s, so the
                # first slope inside its span mirrors the last one here.
                r, w = inside[-1]
                bad[orbit.dual()] = (w * orbit.size - r, w * orbit.size)
    return {o: bad[o] for o in dec.orbits if o in bad}


def compatible_violations(
    g1: MonodromyDatum, g2: MonodromyDatum, p: int
) -> tuple[tuple[Orbit, Fraction], ...]:
    """Orbits (with a witness slope) where the slope-span condition fails.

    Requires m1 | m2.  On each orbit of the larger modulus, the first
    family's induced orbit component must have no slope strictly
    between the first and last slopes of the second's; orbits where
    either component is empty are vacuously fine.
    """
    return tuple((o, Fraction(*slope)) for o, slope in _witness_slopes(g1, g2, p).items())


def check_compatible(g1: MonodromyDatum, g2: MonodromyDatum, p: int) -> bool:
    """Slope-span compatibility of the pair at p (defined for m1 | m2)."""
    return not _witness_slopes(g1, g2, p)


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


def _defect_terms(d1: int, d2: int, r0: int, m3: int) -> list[int]:
    """The glued signature's defect term at each residue n = 1, ..., m3 - 1.

    The step functions [d*R*n = 0] - [d*n = 0] mod m3 at (d, R) = (d1*d2, r0)
    and (d1, d2), less the one at (1, d2), telescope to
    [d1*d2*r0*n = 0] - [d1*n = 0] - [d2*n = 0].  [d*n = 0] holds exactly
    on the multiples of m3 / gcd(d, m3), so each indicator is stepped
    over those alone.
    """
    terms = [0] * (m3 - 1)
    for d, sign in ((d1 * d2 * r0, 1), (d1, -1), (d2, -1)):
        step = m3 // math.gcd(d, m3)
        for n in range(step, m3, step):
            terms[n - 1] += sign
    return terms


def epsilon_orbits(report: ClutchReport, p: int) -> tuple[tuple[Orbit, int], ...]:
    """Distribute the defect over the orbits of the glued modulus."""
    m3, d1, d2, r0 = report.m3, report.d1, report.d2, report.r0
    terms = _defect_terms(d1, d2, r0, m3)
    return _orbit_defects(d1, d2, r0, report.epsilon, terms, decompose(m3, p))


def _orbit_defects(
    d1: int, d2: int, r0: int, epsilon: int, terms: list[int], dec: OrbitDecomposition
) -> tuple[tuple[Orbit, int], ...]:
    """epsilon_orbits given the split, the defect, its per-residue terms
    and the glued modulus' orbits.

    An orbit soaks up its full size exactly when the common order e of
    its members divides d1*d2*r0 but neither d1 nor d2; two independent
    evaluations (the divisibility rule and the summed step function)
    are compared, and the total must be the defect.
    """
    out = []
    total = 0
    for orbit in dec.orbits:
        e = orbit.e
        rule = orbit.size if (d1 * d2 * r0) % e == 0 and d1 % e and d2 % e else 0
        summed = sum(terms[n - 1] for n in orbit.members)
        if rule != summed:
            raise DomainError(f"defect mismatch on orbit {orbit}: {rule} vs {summed}")
        out.append((orbit, rule))
        total += rule
    if total != epsilon:
        raise DomainError("orbit defects must sum to the defect")
    return tuple(out)


# A chain step asks for the report of each joint once as it folds, and
# replay and verify_family ask for the same joints right after; a
# chains operation of the benchmark has at most 9 joints, so 16 keep
# each joint of a build until its replay asks again.  The key is
# (g1, g2, p) as the caller passes it, p unreduced, since decompose
# names that p in its errors.  ClutchReport is frozen and holds only
# immutable values, so a kept report is shared safely; a call that
# raises is not cached.  Bounded: 16 reports, each two data and the
# glued one of up to MAX_BRANCH_POINTS entries, a signature of up to
# MAX_MODULUS - 1 values and one defect per orbit (the orbits are
# decompose's own).  A joint at m3 = 1193, N = 1019 holds about 140 KiB
# at class 1, where each residue is an orbit, so 16 hold about 2.3 MiB.
@functools.lru_cache(maxsize=16)
def clutch_report(
    g1: MonodromyDatum, g2: MonodromyDatum, p: int | None = None
) -> ClutchReport:
    """Full report; with a residue class, the p-dependent flags are filled in.

    The derived datum, signature, defect and genus are clutch_data's;
    the flags are check_balanced, check_compatible (None unless m1 | m2)
    and epsilon_orbits at p, each read from one decomposition of m3.
    Reports are kept per (g1, g2, p), so asking again for a joint, as
    replay does for the joints a chain step has just built, returns the
    same report.
    """
    g1.validate()
    g2.validate()
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

    # d1 * x < m3 for an entry x < m1, so entries stay reduced and 0 only where x is.
    entries = tuple(d1 * x for x in g1.a[:-1]) + tuple(d2 * x for x in g2.a[1:])
    gamma3 = MonodromyDatum(m3, entries, generalized=0 in entries)

    f1d, f2d = signature(g1).induced(d1), signature(g2).induced(d2)
    terms = _defect_terms(d1, d2, r0, m3)
    f3 = Signature(m3, tuple(a + b + e for a, b, e in zip(f1d.values, f2d.values, terms)))

    g3 = d1 * genus(g1) + d2 * genus(g2) + epsilon
    if g3 != genus(gamma3):
        raise DomainError("genus recursion disagrees with Riemann-Hurwitz")
    flags = {}
    if p is not None:
        dec = decompose(m3, p)
        flags = {
            "p_class": dec.p_class,
            "balanced": _balanced(f1d, f2d, dec),
            # m1 | m2 makes d2 = 1, so f2d is f2 itself.
            "compatible": not _slope_witnesses(f1d, f2d, dec) if d2 == 1 else None,
            "defects": _orbit_defects(d1, d2, r0, epsilon, terms, dec),
        }
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
        **flags,
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
