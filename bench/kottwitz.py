"""Workload `kottwitz-totals`: the `npcc kottwitz` report.

Each operation builds the Kottwitz set of a datum at a residue class,
lists its distinct total polygons, and gives each its codimension and
element count.  This is where the full product of per-orbit factors
and the quadratic `totals()` show.  Draws cover one large orbit
(enumeration dominates) and many small orbits (building element totals
dominates).

The generator screens each draw's size from its per-orbit factor sizes
before timing and lays the draws out in blocks with a fixed number per
size stratum, so every seed gets the same mix of sizes.
"""

from __future__ import annotations

import itertools
import json
import math

import npcc

from draws import block_schedule, kottwitz_factor_sizes, random_datum, rng_for, units

NAME = "kottwitz-totals"
PREFIX = 74
WINDOW = (100, 2000)

# Size strata: label -> (least and greatest element count, draws per
# block, range of m and range of N for the draws that look for this
# stratum, shape).  Five log-uniform ranges split the window (edges
# 100 * 20**(k/5): 100, 182, 331, 603, 1099, 2000); the first two are
# halved again, so the many small draws spread evenly over their range.
# The cost of an operation roughly doubles from one range to the next
# (totals() is quadratic in the element count), so the draws per block
# fall with size (16, 12, 4, 4, 1 per range) and each range takes a
# similar share of a run's time, within a factor of two: a speed-up on
# large sets moves the result about as much as one on small sets.  The
# counts also put the median inside 182-245 and the 90th percentile
# inside 603-1098; on the edge between two strata a percentile jumped
# by 20% from one seed to the next.  "one-orbit" means one factor holds most elements, so
# enumerating it dominates; among m <= 16 such sets of 100 to 330
# elements come almost only from m = 11 with N = 8.  The m and N ranges
# are where screening finds each stratum cheaply: with m <= 10 sets
# of 100 or more elements are rare, and with N >= 7 screening a draw
# is slow.
BUCKETS = {
    "100-134": (100, 134, 8, (11, 16), (5, 5), "many-orbits"),
    "135-181": (135, 181, 8, (11, 24), (5, 6), "many-orbits"),
    "182-245": (182, 245, 6, (11, 16), (5, 5), "many-orbits"),
    "246-330": (246, 330, 4, (11, 24), (4, 5), "many-orbits"),
    "100-330-one-orbit": (100, 330, 2, (11, 11), (8, 8), "one-orbit"),
    "331-602": (331, 602, 4, (11, 24), (5, 6), "many-orbits"),
    "603-1098": (603, 1098, 4, (11, 16), (5, 6), "many-orbits"),
    "1099-2000": (1099, 2000, 1, (11, 16), (5, 6), "many-orbits"),
}
BLOCK = sum(bucket[2] for bucket in BUCKETS.values())
BLOCK_S = 7.2  # reference seconds one block takes (see README)


def _shape(sizes, n) -> str:
    return "one-orbit" if max(sizes) * 2 > n else "many-orbits"


def make_inputs(seed: int, count: int) -> dict:
    """Screen random draws, block by block, until every stratum is filled.

    Draws above the window are counted as excluded; draws below it, or
    in no stratum the block still needs, are dropped.
    """
    rng = rng_for(NAME, seed)
    schedule = block_schedule(rng, {k: v[2] for k, v in BUCKETS.items()}, count)
    ops: list[dict] = []
    histogram = dict.fromkeys(BUCKETS, 0)
    excluded = draws = 0
    while len(ops) < count:
        labels = list(itertools.islice(schedule, BLOCK))
        need = {label: labels.count(label) for label in BUCKETS}
        found: dict[str, list] = {label: [] for label in BUCKETS}
        for target, (_, _, _, m_range, n_range, _) in BUCKETS.items():
            while len(found[target]) < need[target]:
                datum = random_datum(rng, rng.randint(*m_range), rng.randint(*n_range))
                c = rng.choice(units(datum.m))
                draws += 1
                sizes = kottwitz_factor_sizes(datum, c, WINDOW[1])
                if sizes is None:
                    excluded += 1
                    continue
                n = math.prod(sizes)
                for label, (lo, hi, _, _, _, shape) in BUCKETS.items():
                    if (lo <= n <= hi and len(found[label]) < need[label]
                            and shape == _shape(sizes, n)):
                        found[label].append({"datum": datum.text(), "p_class": c,
                                             "factors": list(sizes), "size": n,
                                             "bucket": label})
                        break
        ops += [found[label].pop(0) for label in labels]
        for label in labels:
            histogram[label] += 1
    return {"ops": ops, "excluded": excluded,
            "info": {"draws": draws, "size_histogram": histogram}}


def _datum(spec):
    return npcc.MonodromyDatum.from_text(spec["datum"])


def run_op(spec: dict):
    ks = npcc.kottwitz_set(_datum(spec), spec["p_class"])
    totals = ks.totals()
    rows = [(t, ks.codim_of_polygon(t), len(ks.elements_with_total(t))) for t in totals]
    return len(ks), rows


def check(spec: dict, result, count) -> tuple[str, str, str | None]:
    size, rows = result
    canon = json.dumps([size, [(str(t), codim, k) for t, codim, k in rows]])
    mu = npcc.mu_ordinary(_datum(spec), spec["p_class"])
    if rows[0][0] != mu or rows[0][1] != 0:
        return "failed", canon, "first total is not the mu-ordinary polygon at codim 0"
    if not all(t.lies_on_or_above(mu) for t, _, _ in rows):
        return "failed", canon, "a total lies below the mu-ordinary polygon"
    if size != spec["size"] or sum(k for _, _, k in rows) != size:
        return "failed", canon, f"{size} elements, factor sizes give {spec['size']}"
    return "ok", canon, None
