"""Workload `chains`: batch certification of generator chains.

Each operation builds a certified family from a base (a three-point
datum, a listed family, or a listed family carrying a non-generic
polygon), applies one to three clutching steps and sometimes a crossed
chain with a second family, then round-trips the certificate through
JSON, replays it and verifies the replayed family.  The work is mostly
signatures and clutching reports on growing data.

Verification goes into the Kottwitz set (deep) only for payload rows
whose final Kottwitz set has at most DEEP_LIMIT elements; the
generator finds this out before timing, and counts the other payload
rows, which are verified without the Kottwitz set, as excluded.  The
limit is below the kottwitz-totals window on purpose: a single deep
verification of a one-orbit set of about 2000 elements takes seconds
(the factor's chain lengths are quadratic), so a few of them would
decide this workload's time, which is meant to measure signatures and
clutching.  kottwitz-totals measures those sets.
"""

from __future__ import annotations

import json
import math

import npcc

from draws import Uniforms, block_schedule, kottwitz_factor_sizes, random_datum, rng_for, units

NAME = "chains"
PREFIX = 256
DEEP_LIMIT = 300

# One block of 16 operations, by kind of base.
QUOTAS = {"n3": 8, "n3-double": 2, "catalog": 4, "payload": 2}
BLOCK = sum(QUOTAS.values())
BLOCK_S = 0.33  # reference seconds one block takes (see README)
STEP_COUNTS = (1, 2, 3)


class _Steps:
    """Clutching steps whose kinds and copy counts come in balanced blocks."""

    KINDS = {"pad": 9, "self": 6, "extend": 5}

    def __init__(self, rng):
        self.rng = rng
        self.kinds: list[str] = []
        self.copies = {"pad": [], "self": []}

    def _next(self, queue: list, fill: list) -> object:
        if not queue:
            queue.extend(fill)
            self.rng.shuffle(queue)
        return queue.pop()

    def draw(self, m: int) -> list:
        kind = self._next(self.kinds, [k for k, n in self.KINDS.items() for _ in range(n)])
        if kind == "pad":
            divisors = [t for t in range(1, m + 1) if m % t == 0]
            return ["pad", self.rng.choice(divisors), self._next(self.copies["pad"], [1, 2, 3])]
        if kind == "self":
            return ["self", self._next(self.copies["self"], [2, 3])]
        return ["extend", self.rng.randint(1, m - 1)]


def build(spec: dict):
    """The certified family an operation describes."""
    kind, *args = spec["base"]
    if kind == "n3":
        m, a, c = args
        fam = npcc.base_case(npcc.MonodromyDatum(m, tuple(a)), c)
    elif kind == "catalog":
        fam = npcc.moonen_base(*args)
    else:
        fam = npcc.moonen_payload(*args)
    for op, *params in spec["steps"]:
        if op == "pad":
            fam = npcc.pad_and_clutch(fam, *params)
        elif op == "self":
            fam = npcc.self_clutch(fam, *params, auto_pad=True)
        else:
            fam = npcc.extend_ord(fam, *params)
    if spec["double"] is not None:
        m, a, n1, n2 = spec["double"]
        other = npcc.base_case(npcc.MonodromyDatum(m, tuple(a)), fam.p_class)
        fam = npcc.double_induction(fam, other, n1, n2)
    return fam


def make_inputs(seed: int, count: int) -> dict:
    rng = rng_for(NAME, seed)
    families = npcc.moonen_families()
    bases = [(fam.label, c) for fam in families for c in fam.classes()]
    payloads = []
    for fam in families:
        for c in fam.classes():
            try:
                fam.payload_polygon(c)
            except npcc.DomainError:
                continue
            payloads.append((fam.label, c))
    ops = []
    excluded = deep = 0
    kinds = block_schedule(rng, QUOTAS, count)
    moduli = Uniforms(rng)
    step_stream = _Steps(rng)
    for i, kind in enumerate(kinds):
        double = None
        if kind.startswith("n3"):
            m = 3 + int(28 * moduli.draw())
            datum = random_datum(rng, m, 3)
            while math.gcd(m, *datum.a) != 1:  # a connected cover
                datum = random_datum(rng, m, 3)
            m, a0 = datum.m, datum.a[0]
            base = ["n3", m, list(datum.a), rng.choice(units(m))]
            if kind == "n3-double":
                # The partner's first entry cancels the base's first entry.
                x = rng.choice([x for x in range(1, m) if x != a0])
                double = [m, [m - a0, x, (a0 - x) % m], rng.randint(1, 2), rng.randint(1, 2)]
        else:
            label, c = rng.choice(bases if kind == "catalog" else payloads)
            base = [kind, label, c]
            m = npcc.moonen_family(label).m
        steps = [step_stream.draw(m) for _ in range(STEP_COUNTS[i % len(STEP_COUNTS)])]
        spec = {"kind": kind, "base": base, "steps": steps, "double": double, "deep": False}
        if kind == "payload":
            try:
                fam = build(spec)
            except npcc.DomainError:
                fam = None
            if fam is not None:
                if kottwitz_factor_sizes(fam.datum, fam.p_class, DEEP_LIMIT) is None:
                    excluded += 1
                else:
                    spec["deep"] = True
                    deep += 1
        ops.append(spec)
    return {"ops": ops, "excluded": excluded, "info": {"deep": deep, "kinds": QUOTAS}}


def run_op(spec: dict):
    fam = build(spec)
    text = json.dumps(fam.certificate(), sort_keys=True)
    back = npcc.replay(json.loads(text))
    return fam, text, back, npcc.verify_family(back, deep=spec["deep"])


def check(spec: dict, result, count) -> tuple[str, str, str | None]:
    fam, text, back, report = result
    canon = text + "\n" + json.dumps(report, sort_keys=True)
    count("generators.steps", len(fam.steps))
    count("generators.certificate_bytes", len(text))
    if back.datum != fam.datum or back.claimed_np != fam.claimed_np:
        return "failed", canon, "replay reproduced a different datum or polygon"
    if not report["ok"]:
        return "failed", canon, f"verify_family rejected the replayed family: {report}"
    if spec["deep"] and "codim" not in report and not fam.mu_ordinary_claim:
        return "failed", canon, "deep verification did not locate the claim"
    return "ok", canon, None
