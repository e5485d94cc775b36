"""A Cartier-operator oracle: p-ranks of actual cyclic covers over F_p.

For the curve y^m = prod (x - x_i)^a(i) with distinct x_i in F_p, the
regular differentials of residue n are

    omega_j = x^j prod (x - x_i)^(-e_i/m) dx,  e_i = (-n a(i)) mod m,

for 0 <= j <= sum(e_i)/m - 2, so there are f(n) of them in the
library's signature convention.  With e'_i the exponents of the
residue n' = n/p mod m, c_i = (p e'_i - e_i)/m is an integer in
[0, p), and the Cartier operator sends omega_j to the sum over j' of
the coefficient of x^(p(j'+1)-1-j) in prod (x - x_i)^c_i times
omega'_j' (Bouw, Compositio Math. 126, 2001; Elkin, J. Algebra 327,
2011).  Every coefficient lies in F_p, so the operator is a matrix
over F_p, and the p-rank of the curve is its stable rank: the rank of
its g-th power.  All arithmetic is on integers mod p.
"""

import math
import random

import pytest

from npcc import MonodromyDatum, genus, kottwitz_set, moonen_families, p_rank_bound, signature

PRIMES = [p for p in range(5, 60) if all(p % q for q in range(2, p))]


def _exponents(datum, n):
    return [(-n * a) % datum.m for a in datum.a]


def _times_power(coeffs, root, c, p):
    """coeffs (lowest degree first) times (x - root)^c, mod p."""
    factor = [math.comb(c, k) * pow(-root, c - k, p) % p for k in range(c + 1)]
    out = [0] * (len(coeffs) + c)
    for i, b in enumerate(coeffs):
        if b:
            for k, t in enumerate(factor):
                out[i + k] = (out[i + k] + b * t) % p
    return out


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                k = rows[r][col]
                rows[r] = [(v - k * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def cartier(datum, points, p):
    """(eigenspace dimensions by residue, Cartier matrix over F_p)."""
    m = datum.m
    dims = {n: max(sum(_exponents(datum, n)) // m - 1, 0) for n in range(1, m)}
    index, start = {}, 0
    for n in range(1, m):
        index[n] = start
        start += dims[n]
    matrix = [[0] * start for _ in range(start)]
    p_inv = pow(p, -1, m)
    for n in range(1, m):
        if not dims[n]:
            continue
        target = n * p_inv % m
        e, e2 = _exponents(datum, n), _exponents(datum, target)
        poly = [1]
        for root, lo, hi in zip(points, e, e2):
            c, r = divmod(p * hi - lo, m)
            assert r == 0 and 0 <= c < p
            poly = _times_power(poly, root, c, p)
        for j in range(dims[n]):
            for j2 in range(dims[target]):
                k = p * (j2 + 1) - 1 - j
                if 0 <= k < len(poly):
                    matrix[index[target] + j2][index[n] + j] = poly[k]
    return dims, matrix


def p_rank(datum, points, p):
    _, matrix = cartier(datum, points, p)
    power, k = matrix, 1
    while k < len(matrix):
        power, k = _mat_mul(power, power, p), 2 * k
    return _rank_mod_p(power, p) if matrix else 0


def _primitive_data(rng, n_points, count):
    out = []
    while len(out) < count:
        m = rng.randint(2, 12)
        a = [rng.randint(1, m - 1) for _ in range(n_points - 1)]
        last = -sum(a) % m
        if last and math.gcd(m, *a, last) == 1:
            out.append(MonodromyDatum(m, tuple(a) + (last,)))
    return out


N3_DATA = [
    MonodromyDatum(3, (1, 1, 1)),
    MonodromyDatum(4, (1, 1, 2)),
    MonodromyDatum(5, (1, 1, 3)),
    MonodromyDatum(6, (1, 2, 3)),
    MonodromyDatum(7, (1, 2, 4)),
    MonodromyDatum(8, (1, 3, 4)),
    MonodromyDatum(9, (1, 2, 6)),
    MonodromyDatum(10, (1, 4, 5)),
]


def test_legendre_p_rank_matches_point_count():
    # An independent check of the operator: y^2 = prod (x - x_i) over four
    # points is an elliptic curve with 2 points at infinity; it is ordinary
    # exactly when its Frobenius trace p + 1 - #E is nonzero mod p.
    rng = random.Random(5)
    datum = MonodromyDatum(2, (1, 1, 1, 1))
    seen = set()
    for p in PRIMES:
        squares = {x * x % p for x in range(1, p)}
        for _ in range(4):
            points = rng.sample(range(p), 4)
            count = 2
            for x in range(p):
                h = math.prod(x - r for r in points) % p
                count += 1 if h == 0 else 2 if h in squares else 0
            ordinary = (p + 1 - count) % p != 0
            assert p_rank(datum, points, p) == int(ordinary), (p, points)
            seen.add(ordinary)
    assert seen == {True, False}


def test_eigenspace_dimensions_match_the_signature():
    rng = random.Random(11)
    for datum in N3_DATA + _primitive_data(rng, 4, 20) + _primitive_data(rng, 5, 10):
        dims, _ = cartier(datum, list(range(datum.N)), 61)
        assert tuple(dims[n] for n in range(1, datum.m)) == signature(datum).values
        assert sum(dims.values()) == genus(datum)


def test_three_point_covers_attain_the_bound():
    # With N = 3 the family is one curve with complex multiplication, so
    # its Newton polygon is the mu-ordinary one.
    rng = random.Random(3)
    pairs = 0
    for datum in N3_DATA:
        for p in PRIMES:
            if datum.m % p:
                points = rng.sample(range(p), 3)
                assert p_rank(datum, points, p) == p_rank_bound(datum, p), (datum, p)
                pairs += 1
    assert pairs > 100


def test_four_point_covers_never_exceed_the_bound():
    rng = random.Random(4)
    for datum in _primitive_data(rng, 4, 40):
        p = rng.choice([q for q in PRIMES if datum.m % q])
        points = rng.sample(range(p), 4)
        assert p_rank(datum, points, p) <= p_rank_bound(datum, p), (datum, p, points)


@pytest.mark.parametrize(
    "datum, p",
    [
        (MonodromyDatum(3, (1, 1, 2, 2)), 7),
        (MonodromyDatum(4, (1, 1, 1, 1)), 13),
        (MonodromyDatum(5, (1, 2, 3, 4)), 11),
        (MonodromyDatum(6, (1, 1, 5, 5)), 13),
    ],
)
def test_some_curve_attains_the_bound_when_p_is_1_mod_m(datum, p):
    # Bouw: for p = 1 mod m the generic member is ordinary, so it attains
    # the bound, which is then the genus.
    assert p % datum.m == 1
    bound = p_rank_bound(datum, p)
    assert bound == genus(datum)
    rng = random.Random(p)
    ranks = [p_rank(datum, rng.sample(range(p), 4), p) for _ in range(5)]
    assert max(ranks) == bound
    assert all(r <= bound for r in ranks)


def _family_cases():
    """(family, p) for the twenty families at each prime 5 <= p < 32 that
    is prime to m and at least N + 2, so N distinct branch points are
    drawn from at least N + 2 values."""
    return [
        (fam, p)
        for fam in moonen_families()
        for p in PRIMES
        if p < 32 and fam.m % p and p >= fam.datum.N + 2
    ]


def test_curves_of_the_twenty_families_lie_in_their_kottwitz_sets():
    # A curve's Newton polygon lies in its family's Kottwitz set, so its
    # p-rank is the p-rank of some total; at p = 1 mod m Bouw's theorem
    # makes the generic member ordinary, so some drawn curve reaches the
    # maximal p-rank.  Coverage is evidence only, since the strata need
    # p >> 0 to be nonempty in the supersingular cases.  With seed 32, 84
    # of the 157 cases saw every p-rank of the set, and 65 are at p = 1
    # mod m.
    rng = random.Random(32)
    cases = _family_cases()
    assert len(cases) == 157
    bouw = 0
    for fam, p in cases:
        datum = fam.datum
        ranks = {t.p_rank for t in kottwitz_set(datum, p).totals()}
        seen = {p_rank(datum, rng.sample(range(p), datum.N), p) for _ in range(12)}
        assert seen <= ranks, (fam.label, p, seen, ranks)
        if p % fam.m == 1:
            assert max(seen) == max(ranks) == genus(datum), (fam.label, p)
            bouw += 1
    assert bouw > 0
