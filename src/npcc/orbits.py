"""Orbits of multiplication by p on the nonzero residues mod m.

Newton polygons in characteristic p only depend on the class of p mod
m, and they decompose along the orbits of n -> p*n on {1, ..., m-1}.
An orbit o pairs with its dual -o; the pair supports g(o) = f(n) +
f(m - n) many slopes, a quantity constant on the orbit.
"""

import math

from ._memo import memo
from ._record import Record, _set
from .errors import BadResidueError, InconsistentSignatureError
from .monodromy import Signature

__all__ = ["Orbit", "OrbitDecomposition", "decompose", "g_of_orbit"]


class Orbit(Record):
    """One orbit of multiplication by p on nonzero residues mod m.

    e is the order of the members in Z/m, the same for every member;
    is_self_dual says whether -o, the orbit of m - n, is o itself.
    """

    _fields = ("m", "members")
    __slots__ = (*_fields, "e", "is_self_dual")

    def __init__(self, m: int, members: tuple[int, ...]):
        members = tuple(sorted(members))
        _set(self, "m", m)
        _set(self, "members", members)
        _set(self, "e", m // math.gcd(members[0], m))
        _set(self, "is_self_dual", members == tuple(m - n for n in reversed(members)))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def min(self) -> int:
        return self.members[0]

    def dual(self) -> "Orbit":
        if self.is_self_dual:
            return self
        return Orbit(self.m, tuple(self.m - n for n in self.members))

    def __str__(self) -> str:
        return "{" + ",".join(str(n) for n in self.members) + "}"


class OrbitDecomposition(Record):
    """All orbits of n -> p*n mod m, ordered by smallest member."""

    __slots__ = _fields = ("m", "p_class", "orbits")

    def orbit_of(self, n: int) -> Orbit:
        n %= self.m
        for o in self.orbits:
            if n in o.members:
                return o
        raise BadResidueError(f"residue {n} has no orbit mod {self.m}")

    def representatives(self) -> tuple[Orbit, ...]:
        """One orbit per dual pair: the self-duals plus the smaller of each
        pair, read against m - max(o), the least member of -o."""
        return tuple(o for o in self.orbits if o.min <= self.m - o.members[-1])


def decompose(m: int, p: int) -> OrbitDecomposition:
    """Orbit decomposition for the class of p mod m; needs gcd(p, m) = 1."""
    if m < 2:
        raise BadResidueError(f"m = {m} < 2")
    q = p % m
    if math.gcd(q, m) != 1:
        raise BadResidueError(f"p = {p} shares a factor with m = {m}")
    return _decompose(m, q)


# Chain checks decompose the same few moduli over and over, and
# `npcc moonen --verify-all` the same 35 for its 56 (family, class)
# sets.  Keyed by the residue, so a huge p costs no entry of its own.
# Seed-1 benchmark traffic, memos cleared after input generation: 12,033
# calls on 397 keys in cli-mix miss 2,637 times at 16 entries and 501 at
# 256; 13,126 calls on 205 keys in chains miss 604 and 205.
# Bounded: 256 decompositions, each of up to MAX_MODULUS - 1 members.
# The worst is at class 1, where each residue is an orbit: m = 1198
# holds 207 KiB (tracemalloc, CPython 3.11), so 256 hold about 52 MiB.
@memo(256)
def _decompose(m: int, q: int) -> OrbitDecomposition:
    """decompose for a unit q mod m, already reduced."""
    seen: set[int] = set()
    orbits: list[Orbit] = []
    for n in range(1, m):
        if n in seen:
            continue
        members = []
        k = n
        while k not in seen:
            seen.add(k)
            members.append(k)
            k = (k * q) % m
        orbits.append(Orbit(m, tuple(members)))
    orbits.sort(key=lambda o: o.min)
    return OrbitDecomposition(m, q, tuple(orbits))


def g_of_orbit(orbit: Orbit, f: Signature) -> int:
    """The constant value f(n) + f(m - n) over the orbit.

    A signature that is not constant this way cannot come from a datum
    at this residue class, so the mismatch is reported as an error.
    """
    v, m = f.values, orbit.m
    if f.m != m:
        raise InconsistentSignatureError(f"signature mod {f.m} read on orbit {orbit} mod {m}")
    vals = {v[n - 1] + v[m - n - 1] for n in orbit.members}
    if len(vals) != 1:
        raise InconsistentSignatureError(
            f"f(n) + f(m - n) takes values {sorted(vals)} on orbit {orbit}"
        )
    return vals.pop()
