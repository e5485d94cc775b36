"""The Kottwitz set against the element-by-element constructions it replaced.

The oracle sums every element's total on its own, finds the distinct
totals by a first-appearance list scan and each codimension by a
linear scan for the least length.  It enumerates its own factors, takes
each candidate's length by a longest-chain search over the candidates
above it, and its Hasse diagram is the transitive reduction of the
order, comparing every pair of elements.  The covers lifted from the
factors are checked against the scan of all comparable pairs one
length apart that they replaced, on sets too large for the transitive
reduction.  The closed-form lattice count is checked against the per-x
sum of ceilings it replaced.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from npcc import (
    DomainError,
    EnumerationCapError,
    MonodromyDatum,
    NewtonPolygon,
    decompose,
    enumerate_orbit_component,
    kottwitz_set,
    signature,
)
from npcc.strata import KottwitzSet, _lattice_count

MAX_ELEMENTS = 300
DOT_ELEMENTS = 40  # the oracle's Hasse diagram is cubic in the set size


def chain_lengths(candidates) -> list[int]:
    """Longest chain up to the factor's top, per candidate.

    Candidates come sorted lowest first, so anything above a given
    candidate appears earlier and its length is already known.
    """
    lengths = [0]
    for i in range(1, len(candidates)):
        above = [
            lengths[j]
            for j in range(i)
            if candidates[j] != candidates[i]
            and candidates[i].lies_on_or_above(candidates[j])
        ]
        assert above, "every candidate must lie above the factor top"
        lengths.append(max(above) + 1)
    return lengths


class OracleSet:
    def __init__(self, datum: MonodromyDatum, p: int):
        f = signature(datum)
        reps = decompose(datum.m, p).representatives()
        factors = [enumerate_orbit_component(o, f, None) for o in reps]
        factor_lengths = [chain_lengths(c) for c in factors]
        self.components = []
        self.totals_by_element = []
        self.lengths = []
        for combo in itertools.product(*(range(len(c)) for c in factors)):
            comps = tuple(c[i] for c, i in zip(factors, combo))
            total = NewtonPolygon()
            for rep, comp in zip(reps, comps):
                piece = comp.lambda_scale()
                total = total + piece
                if not rep.is_self_dual:
                    total = total + piece.dual()
            self.components.append(comps)
            self.totals_by_element.append(total)
            self.lengths.append(sum(fl[i] for fl, i in zip(factor_lengths, combo)))

    def totals(self) -> list[NewtonPolygon]:
        seen = []
        for t in self.totals_by_element:
            if t not in seen:
                seen.append(t)
        return seen

    def with_total(self, nu: NewtonPolygon) -> list[int]:
        return [i for i, t in enumerate(self.totals_by_element) if t == nu]

    def codim(self, nu: NewtonPolygon) -> int:
        return min(self.lengths[i] for i in self.with_total(nu))

    def hasse_dot(self) -> str:
        n = len(self.components)

        def leq(i, j):
            pairs = zip(self.components[i], self.components[j])
            return all(a.lies_on_or_above(b) for a, b in pairs)

        below = [{j for j in range(n) if j != i and leq(j, i)} for i in range(n)]
        edges = sorted(
            (j, i)
            for i in range(n)
            for j in below[i]
            if not any(j in below[k] for k in below[i] if k != j)
        )
        lines = ["digraph kottwitz {", "  rankdir=BT;"]
        for i, t in enumerate(self.totals_by_element):
            lines.append(f'  e{i} [label="{t} (length {self.lengths[i]})"];')
        lines += [f"  e{j} -> e{i};" for j, i in edges]
        lines.append("}")
        return "\n".join(lines)


def scan_hasse_edges(ks: KottwitzSet) -> tuple[tuple[int, int], ...]:
    """Covers of the set by a scan over all pairs of elements.

    The poset is ranked by length, so the covers are the comparable
    pairs whose lengths differ by one; comparable means every component
    of the lower lies on or above the upper's.
    """
    elements = list(ks)
    by_length: dict[int, list[int]] = {}
    for i, n in enumerate(ks.lengths):
        by_length.setdefault(n, []).append(i)
    return tuple(sorted(
        (lower, upper)
        for upper, n in enumerate(ks.lengths)
        for lower in by_length.get(n + 1, ())
        if all(a.lies_on_or_above(b) for a, b in zip(elements[lower], elements[upper]))
    ))


def _sample(seed: int, count: int) -> list[tuple[MonodromyDatum, int, tuple[int, ...]]]:
    """Seeded data with m <= 16 whose Kottwitz sets have 2 to 300 elements."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        m = rng.randint(5, 16)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 6))]
        a.append(-sum(a) % m)
        if a[-1] == 0 or math.gcd(m, *a) != 1:
            continue
        datum = MonodromyDatum(m, tuple(a))
        p = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
        try:
            ks = kottwitz_set(datum, p, cap=MAX_ELEMENTS)
        except EnumerationCapError:
            continue
        if len(ks) > 1:
            found.append((datum, p, tuple(len(c) for c in ks.factors)))
    return found


def _assert_agrees(datum: MonodromyDatum, p: int) -> None:
    ks = kottwitz_set(datum, p)
    oracle = OracleSet(datum, p)
    assert list(ks) == oracle.components
    assert [ks[i] for i in range(len(ks))] == oracle.components
    assert list(ks.lengths) == oracle.lengths
    assert list(ks.totals()) == oracle.totals()
    for t in oracle.totals():
        assert ks.codim_of_polygon(t) == oracle.codim(t)
        assert list(ks.elements_with_total(t)) == oracle.with_total(t)
    for i in (-1, len(ks)):
        with pytest.raises(DomainError):
            ks[i]
        with pytest.raises(DomainError):
            ks.length(i)
    assert ks.hasse_edges() == scan_hasse_edges(ks)
    if len(ks) <= DOT_ELEMENTS:
        assert ks.hasse_dot() == oracle.hasse_dot()


def test_fold_matches_oracle_on_worked_example():
    _assert_agrees(MonodromyDatum(8, (2, 2, 2, 5, 5)), 7)


def test_fold_matches_oracle_on_seeded_sample():
    sample = _sample(20181101, 30)
    shapes = {max(sizes) * 2 > math.prod(sizes) for _, _, sizes in sample}
    assert shapes == {True, False}  # one-orbit and many-orbit sets both occur
    for datum, p, _ in sample:
        _assert_agrees(datum, p)


def test_lattice_count_matches_longest_chain():
    # Per factor, so data up to m = 24 stay cheap; the DP is quadratic
    # in the factor size, which the cap keeps at most 120.
    rng = random.Random(20001101)
    checked = set()
    while len(checked) < 150:
        m = rng.randint(5, 24)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 7))]
        a.append(-sum(a) % m)
        if a[-1] == 0 or math.gcd(m, *a) != 1:
            continue
        f = signature(MonodromyDatum(m, tuple(a)))
        p = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
        for orbit in decompose(m, p).representatives():
            try:
                factor = enumerate_orbit_component(orbit, f, cap=120)
            except EnumerationCapError:
                continue
            if len(factor) > 1 and factor not in checked:
                checked.add(factor)
                assert KottwitzSet._chain_lengths(factor) == tuple(chain_lengths(factor))
    self_dual = {factor[0].orbit.is_self_dual for factor in checked}
    assert self_dual == {True, False}


def lattice_prefix_counts(poly) -> list[int]:
    """Per-x sums of ceilings: entry k is the sum of ceil(poly(x)) over x < k."""
    counts = [0]
    for x in range(poly.height + 1):
        counts.append(counts[-1] + math.ceil(poly.value_at(x)))
    return counts


def _assert_lattice_counts_agree(poly, stops) -> None:
    counts = lattice_prefix_counts(poly)
    for stop in stops:
        assert _lattice_count(poly, stop) == counts[stop], (poly, stop)


def test_lattice_count_matches_per_x_sum_on_seeded_polygons():
    rng = random.Random(20001102)
    for _ in range(2000):
        segments = [
            (Fraction(rng.randint(0, q), q), rng.randint(1, 12))
            for q in (rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        ]
        poly = NewtonPolygon(segments)
        height = poly.height
        stops = {0, 1, height + 1, height // 2 + 1, rng.randint(0, height + 1)}
        _assert_lattice_counts_agree(poly, stops)


def test_lattice_count_matches_per_x_sum_on_factor_candidates():
    for datum, p, _ in _sample(20181101, 30):
        ks = kottwitz_set(datum, p)
        for factor in ks.factors:
            for c in factor:
                _assert_lattice_counts_agree(c, range(c.height + 2))
