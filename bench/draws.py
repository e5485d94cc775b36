"""Seeded input generation shared by the workloads.

Everything here runs before timing starts.  Sizes that decide an
operation's cost are drawn by stratified sampling: each block of draws
holds a fixed number of draws from every size bucket, in a seeded
order, so two seeds give different inputs with the same mix of sizes.
"""

from __future__ import annotations

import math
import random

import npcc


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"npcc-bench:{workload}:{seed}")


def block_schedule(rng: random.Random, quotas: dict, count: int):
    """Yield `count` bucket labels; every block holds each label quota[label] times.

    A block is shuffled only when it is reached, so the first k labels,
    and whatever the caller draws from `rng` between them, do not
    depend on `count`.
    """
    block = [label for label, k in quotas.items() for _ in range(k)]
    for i in range(count):
        if i % len(block) == 0:
            rng.shuffle(block)
        yield block[i % len(block)]


def stratified(rng: random.Random, count: int) -> list[float]:
    """`count` uniforms in [0, 1), one in each of `count` equal strata, shuffled."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


class Uniforms:
    """Uniforms in [0, 1), stratified over consecutive blocks of 16 draws."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.queue: list[float] = []

    def draw(self) -> float:
        if not self.queue:
            self.queue = stratified(self.rng, 16)
        return self.queue.pop()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def units(m: int) -> list[int]:
    return [c for c in range(1, m) if math.gcd(c, m) == 1]


def random_datum(rng: random.Random, m: int, big_n: int) -> npcc.MonodromyDatum:
    """A datum with N nonzero entries mod m summing to 0 mod m."""
    while True:
        a = [rng.randint(1, m - 1) for _ in range(big_n - 1)]
        last = -sum(a) % m
        if last:
            return npcc.MonodromyDatum(m, tuple(a) + (last,))


def kottwitz_factor_sizes(datum, p_class: int, limit: int) -> tuple[int, ...] | None:
    """Per-orbit factor sizes of the Kottwitz set, or None above `limit` elements.

    Factors are enumerated smallest orbit first, so a draw far above the
    limit stops early.  Each factor is enumerated with the cap `limit`;
    a smaller cap could reject a self-dual factor whose raw path count
    exceeds it although its symmetric paths fit.  The sizes come back in
    the order of the orbit representatives.
    """
    f = npcc.signature(datum)
    reps = npcc.decompose(datum.m, p_class).representatives()
    sizes = [0] * len(reps)
    total = 1
    for i in sorted(range(len(reps)), key=lambda i: npcc.g_of_orbit(reps[i], f)):
        orbit = reps[i]
        try:
            k = len(npcc.enumerate_orbit_component(orbit, f, limit))
        except npcc.EnumerationCapError:
            return None
        total *= k
        if total > limit:
            return None
        sizes[i] = k
    return tuple(sizes)
