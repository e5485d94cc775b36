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
sum of ceilings it replaced.  The fold over int-coded partial totals
is checked against the fold over polygon partial totals it replaced,
and the integer path search against the Fraction-slope search it
replaced: that oracle walks every convex path and keeps the symmetric
ones on a self-dual orbit, where the search walks only the half below
slope |o|/2 and mirrors it.  A polygon's row is checked to be found without hashing a
Fraction, and equal polygons to find the same rows as the totals
handed out.
"""

import copy
import itertools
import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from npcc import (
    DomainError,
    EnumerationCapError,
    MonodromyDatum,
    NewtonPolygon,
    OrbitPolygon,
    decompose,
    enumerate_orbit_component,
    kottwitz_set,
    mu_ordinary_orbit,
    signature,
)
from npcc.monodromy import MAX_MODULUS
from npcc.strata import KottwitzSet, _ceil_sum, _decode_totals, _lattice_count, _search

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


def piece(comp: OrbitPolygon) -> NewtonPolygon:
    """The lambda-scaled polygon, plus its dual when the orbit is not self-dual."""
    scaled = comp.lambda_scale()
    return scaled if comp.orbit.is_self_dual else scaled + scaled.dual()


def heights(poly) -> list[Fraction]:
    """poly's height above x = 0..height, as a running Fraction sum of its slopes."""
    ys = [Fraction(0)]
    for s, w in poly.segments:
        for _ in range(w):
            ys.append(ys[-1] + s)
    return ys


class OracleSet:
    def __init__(self, datum: MonodromyDatum, p: int):
        f = signature(datum)
        reps = decompose(datum.m, p).representatives()
        factors = [enumerate_orbit_component(o, f) for o in reps]
        factor_lengths = [chain_lengths(c) for c in factors]
        self.components = []
        self.totals_by_element = []
        self.lengths = []
        for combo in itertools.product(*(range(len(c)) for c in factors)):
            comps = tuple(c[i] for c, i in zip(factors, combo))
            total = NewtonPolygon()
            for comp in comps:
                total = total + piece(comp)
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
    # Three factors, 1638 elements: each row holds the ascending indices
    # whose pieces sum to its total, and the totals come in order of
    # first appearance over the indices.
    datum = MonodromyDatum.from_text("21:7:1,1,1,1,1,1,15")
    ks, oracle = kottwitz_set(datum, 2), OracleSet(datum, 2)
    assert len(ks.factors) == 3 and len(ks) == 1638
    assert [ks[i] for i in range(len(ks))] == oracle.components
    rows: dict = {}
    for i, total in enumerate(oracle.totals_by_element):
        rows.setdefault(total, []).append(i)
    assert list(ks.totals()) == list(rows)
    for total, indices in rows.items():
        assert list(ks.elements_with_total(total)) == indices


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
                lengths = tuple(n for _, n in _search(orbit, f, 120))
                assert lengths == tuple(chain_lengths(factor))
    self_dual = {factor[0].orbit.is_self_dual for factor in checked}
    assert self_dual == {True, False}


def lattice_prefix_counts(poly) -> list[int]:
    """Per-x sums of ceilings: entry k is the sum of ceil(poly(x)) over x < k."""
    counts = [0]
    for y in heights(poly):
        counts.append(counts[-1] + math.ceil(y))
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
    """Each segment share the search adds, at every prefix of the
    segment, and each chain length it sums from them, against per-x
    sums of ceilings."""
    for datum, p, _ in _sample(20181101, 30):
        ks = kottwitz_set(datum, p)
        for factor, lengths in zip(ks.factors, ks._factor_lengths):
            for c in factor:
                x = y = 0
                for r, w in c._pairs:
                    for n in range(w + 1):
                        expected = sum(math.ceil(y + Fraction(r * k, w)) for k in range(1, n + 1))
                        assert _ceil_sum(n, w, r, y * w) == expected, (c, x, n)
                    x, y = x + w, y + r
            top = factor[0]
            stop = (top.height // 2 if top.orbit.is_self_dual else top.height) + 1
            counts = [lattice_prefix_counts(c)[stop] for c in factor]
            assert lengths == tuple(n - counts[0] for n in counts)


def polygon_fold(ks: KottwitzSet) -> tuple[dict, list[int]]:
    """Totals to sorted indices, and lengths, by amalgamating polygons.

    This is the fold the int-coded partial totals replaced: every
    partial total is a polygon and each meets every piece of the next
    factor by `NewtonPolygon.amalgamate`.
    """
    by_total = {NewtonPolygon(): [0]}
    lengths = [0]
    for factor, steps in zip(ks.factors, ks._factor_lengths):
        pieces = [piece(c) for c in factor]
        folded: dict = {}
        for partial, indices in by_total.items():
            base = [i * len(factor) for i in indices]
            for k, scaled in enumerate(pieces):
                folded.setdefault(partial + scaled, []).extend(b + k for b in base)
        by_total = folded
        lengths = [n + s for n in lengths for s in steps]
    return {t: sorted(ix) for t, ix in by_total.items()}, lengths


def _assert_fold_agrees(ks: KottwitzSet) -> None:
    by_total, lengths = polygon_fold(ks)
    assert list(ks.totals()) == list(by_total)
    for t, indices in by_total.items():
        assert list(ks.elements_with_total(t)) == indices
    assert list(ks.lengths) == lengths


def _all_on_half(poly: NewtonPolygon) -> bool:
    return poly.segments == ((Fraction(1, 2), poly.height),)


def test_int_coded_fold_matches_polygon_fold_on_seeded_sets():
    # p = -1 mod m makes every orbit self-dual of size at most 2, so the
    # bottom element is supersingular: its total puts the whole height
    # on slope 1/2, the largest value one digit of a code has to hold.
    rng = random.Random(20260101)
    sizes, half_bottoms, checked = [], 0, 0
    while checked < 220:
        m = rng.randint(5, 24)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 6))]
        a.append(-sum(a) % m)
        if a[-1] == 0 or math.gcd(m, *a) != 1:
            continue
        units = [c for c in range(1, m) if math.gcd(c, m) == 1]
        p = m - 1 if rng.random() < 0.25 else rng.choice(units)
        try:
            ks = kottwitz_set(MonodromyDatum(m, tuple(a)), p, cap=20_000)
        except EnumerationCapError:
            continue
        _assert_fold_agrees(ks)
        checked += 1
        sizes.append(len(ks))
        half_bottoms += _all_on_half(ks.totals()[-1])
    assert max(sizes) > 5_000 and sum(n > 1 for n in sizes) > 150
    assert half_bottoms >= 20


def test_int_coded_fold_near_the_modulus_bound():
    # 1193 at p = -1 puts the whole height 1192 on slope 1/2, one 11-bit
    # digit; 1187 at 729 has one orbit with 195 candidates.
    half = kottwitz_set(MonodromyDatum.from_text("1193:3:1,1,1191"), 1192)
    assert half.totals() == (NewtonPolygon([(Fraction(1, 2), 1192)]),)
    wide = kottwitz_set(MonodromyDatum.from_text("1187:4:7,693,136,351"), 729)
    assert len(wide) > 100
    for ks in (half, wide):
        assert MAX_MODULUS - ks.m < 20
        _assert_fold_agrees(ks)


def test_decode_refuses_a_total_that_lost_height():
    half = Fraction(1, 2)
    slopes = [(0, 1), (1, 2)]  # two bits per digit
    assert _decode_totals({4: [0]}, slopes, 2, 1) == {NewtonPolygon([(half, 1)])._triples: (0,)}
    # A multiplicity of 4 carries into the next digit, or out of the last.
    with pytest.raises(DomainError):
        _decode_totals({4: [0]}, slopes, 2, 4)
    with pytest.raises(DomainError):
        _decode_totals({16: [0]}, slopes, 2, 4)


def _seeded_sets() -> list[tuple[MonodromyDatum, int]]:
    return [(datum, p) for datum, p, _ in _sample(20181101, 30)]


def test_rows_are_found_without_hashing_a_fraction(monkeypatch):
    cases = [(MonodromyDatum.from_text("20:6:14,9,19,19,8,11"), c) for c in (3, 11)]
    cases += _seeded_sets()
    calls = 0
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    hash(Fraction(1, 3))
    assert calls == 1  # the count sees every hash
    calls = 0
    for datum, p in cases:
        ks = kottwitz_set(datum, p)
        for t in ks.totals():
            ks.codim_of_polygon(t)
            ks.elements_with_total(t)
    assert calls == 0


def test_a_handed_out_total_is_found_without_reading_its_segments(monkeypatch):
    reads = 0
    segments = NewtonPolygon.segments

    def counting_segments(self):
        nonlocal reads
        reads += 1
        return segments.fget(self)

    for datum, p in _seeded_sets():
        ks = kottwitz_set(datum, p)
        equal = [NewtonPolygon(t.segments) for t in ks.totals()]
        with monkeypatch.context() as patch:
            patch.setattr(NewtonPolygon, "segments", property(counting_segments))
            for t in ks.totals():
                ks.codim_of_polygon(t)
                ks.elements_with_total(t)
            assert reads == 0
            ks.elements_with_total(equal[0])
            assert reads == 0  # an equal polygon is coded from its int triples
        reads = 0


def _not_totals(ks: KottwitzSet) -> list:
    """Arguments that name no total of ks: polygons of each kind, and others."""
    totals = list(ks.totals())
    height = totals[0].height
    slopes = sorted({s for t in totals for s, _ in t.segments})
    outside = next(Fraction(1, q) for q in itertools.count(2) if Fraction(1, q) not in slopes)
    first_with = {s: next(t for t in totals if s in dict(t.segments)) for s in slopes}

    def moved(t, s, k, into, n):
        """t with k units of slope s taken away and n units of slope into added."""
        mults = dict(t.segments)
        mults[s] -= k
        mults[into] = mults.get(into, 0) + n
        return NewtonPolygon(mults.items())

    polys = [NewtonPolygon([(outside, height)])]
    polys += [moved(first_with[s], s, 1, outside, 1) for s in slopes]
    # The set's slopes in multiplicities that are no total.
    polys += [NewtonPolygon([(s, height)]) for s in slopes]
    polys += [moved(first_with[s], s, 1, r, 1) for s in slopes for r in slopes if r != s]
    # Other heights, among them codes that carry: 2**bits units of one
    # slope in place of one unit of another, whose digit may be next.
    bits = height.bit_length()
    polys += [moved(t, s, 0, s, 1) for t in totals for s, _ in t.segments]
    polys += [moved(first_with[s], s, 1, r, 2 ** bits) for s in slopes for r in slopes if r != s]
    polys += [t.power(2) for t in totals]
    polys.append(NewtonPolygon())
    polys = [q for q in polys if q not in totals]
    others = [str(totals[0]), totals[0].segments, totals[0].to_json_obj(), ks[0][0], None, 0]
    return polys + others


def test_equal_polygons_find_the_same_rows_and_no_total_finds_none():
    for datum, p in _seeded_sets():
        ks = kottwitz_set(datum, p)
        for t in ks.totals():
            equal = NewtonPolygon(t.segments)
            assert equal is not t
            assert ks.elements_with_total(equal) == ks.elements_with_total(t)
            assert ks.codim_of_polygon(equal) == ks.codim_of_polygon(t)
        for nu in _not_totals(ks):
            assert ks.elements_with_total(nu) == ()
            with pytest.raises(DomainError):
                ks.codim_of_polygon(nu)


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda ks: pickle.loads(pickle.dumps(ks))], ids=["deepcopy", "pickle"]
)
def test_a_copied_set_finds_its_rows_once_the_original_is_gone(clone):
    """A copy keeps the ids of the original's totals, which other objects
    may take once the original is freed; none of them names a row."""
    ks = kottwitz_set(MonodromyDatum.from_text("20:6:14,9,19,19,8,11"), 3)
    rows = [(NewtonPolygon(t.segments), ks.elements_with_total(t)) for t in ks.totals()]
    freed = {id(t) for t in ks.totals()}
    copied = clone(ks)
    del ks
    assert [(t, copied.elements_with_total(t)) for t in copied.totals()] == rows
    probes = []
    while len(probes) < 10_000 and not (probes and id(probes[-1]) in freed):
        probes.append(NewtonPolygon._trusted(()))
    for nu in probes:
        assert copied.elements_with_total(nu) == ()


def fraction_search(orbit, f) -> tuple[tuple, list]:
    """Candidates of one orbit, and the paths found before the self-dual
    filter, by the Fraction-slope search the integer bounds replaced:
    each (x2, y2) is tried and tested one condition at a time.
    """
    mu = mu_ordinary_orbit(orbit, f)
    big_g, big_d, size = mu.height, mu.degree, orbit.size
    if big_g == 0:
        return (mu,), [()]
    lowest = heights(mu)
    found = []

    def rec(x, y, last, segs):
        if x == big_g:
            found.append(segs)
            return
        for x2 in range(x + 1, big_g + 1):
            width = x2 - x
            start = y if last is None else math.floor(y + last * width) + 1
            for y2 in range(start, big_d + 1):
                slope = Fraction(y2 - y, width)
                if last is not None and slope <= last:
                    continue
                if slope > size:
                    break
                if y2 < lowest[x2]:
                    continue
                rest_w, rest_r = big_g - x2, big_d - y2
                if rest_w == 0:
                    if rest_r != 0:
                        continue
                elif not slope * rest_w < rest_r <= size * rest_w:
                    continue
                rec(x2, y2, slope, segs + ((slope, width),))

    rec(0, 0, None, ())
    polys = [OrbitPolygon(orbit, segs) for segs in found]
    if orbit.is_self_dual:
        polys = [q for q in polys if q.is_self_symmetric]
    polys.sort(key=heights)
    return tuple(polys), found


def _search_cases(seed: int, count: int) -> list:
    """Distinct (orbit, signature) pairs from seeded data with m <= 30
    whose Fraction-slope search finds at most 400 paths."""
    rng = random.Random(seed)
    cases: dict = {}
    while len(cases) < count:
        m = rng.randint(3, 30)
        a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 7))]
        a.append(-sum(a) % m)
        if a[-1] == 0 or math.gcd(m, *a) != 1:
            continue
        f = signature(MonodromyDatum(m, tuple(a)))
        p = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
        for orbit in decompose(m, p).representatives():
            if (orbit, f) not in cases:
                expected, paths = fraction_search(orbit, f)
                if len(paths) <= 400:
                    cases[orbit, f] = expected, paths
    return [(orbit, f, *found) for (orbit, f), found in cases.items()]


def test_integer_search_matches_fraction_search_and_keeps_the_cap():
    kinds = set()
    for orbit, f, expected, paths in _search_cases(20260102, 510):
        # The cap counts candidates and fires only when they exceed it.
        assert enumerate_orbit_component(orbit, f, cap=len(expected)) == expected
        if len(expected) > 1:
            with pytest.raises(EnumerationCapError, match=f"more than {len(expected) - 1} candidates"):
                enumerate_orbit_component(orbit, f, cap=len(expected) - 1)
        kinds.add((orbit.is_self_dual, len(expected) > 1, len(paths) > len(expected)))
    # Self-dual orbits where the oracle drops asymmetric paths, and other
    # orbits with several candidates, both occur.
    assert {(True, True, True), (False, True, False)} <= kinds


def test_only_candidates_become_polygons(monkeypatch):
    """A self-dual search walks only its candidates, so it builds one
    polygon per candidate and one for its mu-ordinary bound, and a
    refused search builds only the bound."""
    built = 0
    fill = OrbitPolygon._fill

    def counting_fill(self, orbit, pairs):
        nonlocal built
        built += 1
        return fill(self, orbit, pairs)

    cases = [c for c in _search_cases(20260103, 150) if len(c[3]) > len(c[2])]
    monkeypatch.setattr(OrbitPolygon, "_fill", counting_fill)
    for orbit, f, expected, paths in cases:
        assert orbit.is_self_dual
        built = 0
        assert enumerate_orbit_component(orbit, f, cap=len(expected)) == expected
        assert built == len(expected) + 1
        built = 0
        with pytest.raises(EnumerationCapError, match=f"more than {len(expected) - 1} candidates"):
            enumerate_orbit_component(orbit, f, cap=len(expected) - 1)
        assert built == 1
    assert len(cases) >= 40


def test_a_search_keeps_no_path_it_drops():
    """A self-dual search walks and holds its candidates only.

    On the orbit of 1 at class 5, 23:9:1,...,1,15 has 250 candidates
    among 26,750 convex paths, and 23:10:1,...,1,14 has 869 among 99,443.
    Keeping every path until the cap passed peaked at 5.7 MiB for the
    first search; searching by halves peaks at 0.17 MiB for it, and at
    0.16 MiB for the second refused at 500 candidates.  The bound lies
    over 3x below the first and over 8x above the others.
    """
    orbit = decompose(23, 5).orbit_of(1)
    nine, ten = (signature(MonodromyDatum(23, (1,) * (n - 1) + (24 - n,))) for n in (9, 10))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert len(enumerate_orbit_component(orbit, nine, cap=250)) == 250
        kept = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(EnumerationCapError, match="more than 500 candidates"):
            enumerate_orbit_component(orbit, ten, cap=500)
        refused = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 2**20
    assert refused < 1.5 * 2**20


def test_integer_search_tries_no_dead_end():
    """Every vertex the search tries lies on some candidate it finds.

    The bounds on y2 are exact, so its inner search is called once per
    distinct prefix of the paths found, the empty prefix included; a
    bound one too loose would only add calls that find nothing.  On a
    self-dual orbit each call is a half that closes into one candidate,
    so the calls are exactly the candidates.
    """
    (rec,) = [
        c for c in _search.__code__.co_consts
        if getattr(c, "co_name", None) == "rec"
    ]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is rec:
            calls += 1

    kinds = set()
    for orbit, f, expected, paths in _search_cases(20260103, 150):
        calls = 0
        sys.setprofile(count)
        try:
            result = enumerate_orbit_component(orbit, f, cap=len(expected))
        finally:
            sys.setprofile(None)
        if orbit.is_self_dual:
            assert calls == len(result)
        else:
            assert calls == len({segs[:k] for segs in paths for k in range(len(segs) + 1)})
        kinds.add((orbit.is_self_dual, len(result) > 1))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
