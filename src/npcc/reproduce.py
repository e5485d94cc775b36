"""Exact reproduction reports for the bundled family table.

Each report recomputes printed values from scratch and records every
comparison: ``reproduce_appendix`` rebuilds the table's signatures and
polygons from the Kottwitz sets, ``reproduce_applications`` drives the
generator operations through the application tables (chains,
products, crossed chains), and ``worked_clutch_example`` replays one
join in full.  They run strata, clutch and generators, so this module
loads with them, not at ``import npcc``.
"""

import math

from .catalog import _classes_reaching_minus_one, moonen_families, moonen_family
from .clutch import clutch_report
from .generators import (
    CertifiedFamily,
    base_case,
    double_induction,
    pad_and_clutch,
    payload_base,
    verify_family,
)
from .monodromy import MonodromyDatum, genus, signature, strip_zeros
from .muord import mu_ordinary
from .polygon import ORD, SS, NewtonPolygon, parse
from .strata import kottwitz_set

__all__ = [
    "moonen_base",
    "moonen_payload",
    "reproduce_appendix",
    "reproduce_applications",
    "worked_clutch_example",
]


def moonen_base(key: int | str, p_class: int) -> CertifiedFamily:
    """Certified mu-ordinary family on a listed datum."""
    return base_case(moonen_family(key).datum, p_class)


def moonen_payload(key: int | str, p_class: int) -> CertifiedFamily:
    """Certified family carrying a listed non-generic polygon."""
    fam = moonen_family(key)
    return payload_base(fam.datum, p_class, fam.payload_polygon(p_class))


def reproduce_appendix() -> dict:
    """Recompute the bundled table from scratch and compare exactly.

    For every family: the recomputed signature must equal the stored
    one, the congruence classes must cover all units mod m, and for
    each class the set of Kottwitz total polygons must equal the
    printed set with the mu-ordinary polygon listed first.
    """
    report = {"ok": True, "families": []}
    for fam in moonen_families():
        sig = signature(fam.datum)
        entry = {
            "label": fam.label,
            "genus": fam.genus,
            "signature_ok": tuple(sig.values) == fam.f,
            "classes_cover_units": set(fam.classes())
            == {c for c in range(1, fam.m) if math.gcd(c, fam.m) == 1},
            "classes": [],
        }
        for c in fam.classes():
            printed = fam.polygons_for_class(c)
            computed = kottwitz_set(fam.datum, c).totals()
            u = mu_ordinary(fam.datum, c)
            check = {
                "p_class": c,
                "set_match": set(computed) == {poly for poly, _ in printed}
                and len(computed) == len(printed),
                "mu_ordinary_first": u == printed[0][0] and u == computed[0],
                "computed": [str(t) for t in computed],
                "printed": [str(poly) for poly, _ in printed],
            }
            check["ok"] = check["set_match"] and check["mu_ordinary_first"]
            entry["classes"].append(check)
        entry["ok"] = (
            entry["signature_ok"]
            and entry["classes_cover_units"]
            and all(check["ok"] for check in entry["classes"])
        )
        report["families"].append(entry)
        report["ok"] = report["ok"] and entry["ok"]
    return report


def _same_cover(datum: MonodromyDatum, expected: MonodromyDatum) -> bool:
    """Equal modulus and inertia multiset once unbranched labels drop out."""
    got = strip_zeros(datum)
    return got.m == expected.m and tuple(sorted(got.a)) == tuple(sorted(expected.a))


def reproduce_applications() -> dict:
    """Rebuild the application tables through the generator operations.

    Each check row records the construction parameters, the closed-form
    polygon and genus from the table, the generated values, and an
    ``ok`` flag that also needs `verify_family` to pass.  Rows that
    claim a codimension are verified inside the Kottwitz set of the
    final datum.
    """
    chain_n, ss_chain_n, double_n, example_n = 6, 10, 4, 4
    checks: list[dict] = []

    def run(
        table: str,
        params: dict,
        fam: CertifiedFamily,
        expected_np: NewtonPolygon,
        expected_genus: int,
        expected_datum: MonodromyDatum | None = None,
        expected_codim: int | None = None,
        expect_mu_claim: bool | None = None,
        expect_note: bool = False,
    ) -> None:
        ver = verify_family(fam, deep=expected_codim is not None)
        ok = (
            fam.claimed_np == expected_np
            and genus(fam.datum) == expected_genus
            and ver["ok"]
        )
        if expected_datum is not None:
            ok = ok and _same_cover(fam.datum, expected_datum)
        if expected_codim is not None:
            ok = ok and fam.payload_codim == expected_codim
        if expect_mu_claim is not None:
            ok = ok and fam.mu_ordinary_claim == expect_mu_claim
        if expect_note:
            ok = ok and any("not balanced" in note for note in fam.assumptions)
        checks.append(
            {
                "table": table,
                "params": params,
                "expected": str(expected_np),
                "generated": str(fam.claimed_np),
                "expected_genus": expected_genus,
                "genus": genus(fam.datum),
                "ok": ok,
            }
        )

    def chain(table: str, t: int, key: int | None, classes: tuple, n_max: int, genus_form,
              mu_form, payload_form=None, params=lambda c, n: {"p_class": c, "n": n},
              datum_form=lambda n: None) -> None:
        """Rows of pad_and_clutch(root, t, n) for n = 1..n_max in each class,
        checked against closed forms in n.  The root is listed family key's
        base, or the base on (1, 1, t - 2) mod t when key is None; with a
        payload form, each row is followed by the row of key's payload chain."""
        for c in classes:
            if key is None:
                base = base_case(MonodromyDatum(t, (1, 1, t - 2)), c)
            else:
                base = moonen_base(key, c)
            roots = [("", base, mu_form, None)]
            if payload_form is not None:
                roots.append(("-payload", moonen_payload(key, c), payload_form, False))
            for n in range(1, n_max + 1):
                for suffix, root, form, mu_claim in roots:
                    run(table + suffix, params(c, n), pad_and_clutch(root, t, n), form(n),
                        genus_form(n), expected_datum=datum_form(n), expect_mu_claim=mu_claim)

    pair_13 = parse("(1/3,2/3)")
    pair_14 = parse("(1/4,3/4)")

    # Supersingular chains from three branch points.
    for m in (3, 5, 7, 11):
        h = (m - 1) // 2
        chain("ss-chain", m, None, _classes_reaching_minus_one(m), ss_chain_n,
              lambda n: h * (3 * n - 2),
              lambda n: SS.power(h * n) + ORD.power(2 * h * (n - 1)),
              params=lambda c, n: {"m": m, "p_class": c, "n": n})

    # Chains of the five-branch-point m=5 family at class 4.
    chain("ss-chain-4-of-10", 5, 16, (4,), chain_n, lambda n: 10 * n - 4,
          lambda n: SS.power(4 * n) + ORD.power(6 * n - 4),
          params=lambda c, n: {"n": n},
          datum_form=lambda n: MonodromyDatum(5, (2,) * (5 * n)))

    # Products of two listed families with one non-generic side.
    product_rows = [
        (9, 9, 5, MonodromyDatum(6, (1, 1, 4, 4, 4, 4)), SS.power(4) + ORD.power(4), 8),
        (9, 12, 5, MonodromyDatum(6, (1, 1, 1, 1, 4, 4)), SS.power(5) + ORD.power(4), 9),
        (12, 12, 5, MonodromyDatum(6, (1, 1, 1, 1, 1, 1)), SS.power(7) + ORD.power(3), 10),
        (18, 18, 9, MonodromyDatum(10, (3, 3, 6, 6, 6, 6)), SS.power(10) + ORD.power(6), 16),
        (20, 20, 11, MonodromyDatum(12, (4, 4, 7, 7, 7, 7)), SS.power(12) + ORD.power(7), 19),
    ]
    for k1, k2, c, expected_datum, expected_np, g in product_rows:
        fam = double_induction(moonen_base(k1, c), moonen_payload(k2, c), 1, 1)
        run(
            "product-codim-one",
            {"left": f"M[{k1}]", "right": f"M[{k2}]", "p_class": c},
            fam,
            expected_np,
            g,
            expected_datum=expected_datum,
            expected_codim=1,
            expect_mu_claim=False,
        )

    # Self-chains with slope 1/3, plain and with a payload.
    chain("chain-7-3", 7, None, (2, 4), chain_n, lambda n: 9 * n - 6,
          lambda n: pair_13.power(n) + ORD.power(6 * n - 6))
    chain("chain-m17", 7, 17, (3, 5), chain_n, lambda n: 12 * n - 6,
          lambda n: pair_13.power(2 * n) + ORD.power(6 * n - 6),
          lambda n: pair_13.power(2 * n - 2) + SS.power(6) + ORD.power(6 * n - 6))
    chain("chain-m19-lo", 9, 19, (2, 5), chain_n, lambda n: 15 * n - 8,
          lambda n: pair_13.power(2 * n) + SS.power(n) + ORD.power(8 * n - 8),
          lambda n: pair_13.power(2 * n - 2) + SS.power(n + 6) + ORD.power(8 * n - 8))
    chain("chain-m19-hi", 9, 19, (4, 7), chain_n, lambda n: 15 * n - 8,
          lambda n: pair_13.power(2 * n) + ORD.power(9 * n - 8),
          lambda n: pair_13.power(2 * n - 2) + SS.power(6) + ORD.power(9 * n - 8))
    chain("chain-m11", 5, 11, (2, 3), chain_n, lambda n: 8 * n - 4,
          lambda n: pair_14.power(n) + ORD.power(4 * n - 4),
          lambda n: pair_14.power(n - 1) + SS.power(4) + ORD.power(4 * n - 4))
    chain("chain-m18", 10, 18, (3, 7), chain_n, lambda n: 15 * n - 9,
          lambda n: pair_14.power(n) + SS.power(2 * n) + ORD.power(9 * n - 9),
          lambda n: pair_14.power(n - 1) + SS.power(2 * n + 4) + ORD.power(9 * n - 9))

    # Crossed chains of two different families; the joining step is
    # not balanced, so the product polygon is recorded as an assumed
    # claim rather than a mu-ordinary one.
    for c in (2, 3):
        left = base_case(MonodromyDatum(5, (2, 2, 1)), c)
        right = moonen_base(11, c)
        for n1 in range(1, double_n + 1):
            for n2 in range(1, double_n + 1):
                fam = double_induction(left, right, n1, n2 + 1)
                run(
                    "crossed-chains",
                    {"p_class": c, "n1": n1, "n2": n2},
                    fam,
                    pair_14.power(n2 + 1)
                    + SS.power(2 * n1)
                    + ORD.power(4 * (n1 + n2 - 1)),
                    6 * n1 + 8 * n2,
                    expect_mu_claim=False,
                    expect_note=True,
                )

    # Large slope denominators from three branch points.
    chain("slope-fifths", 11, None, (3, 4, 5, 9), example_n, lambda n: 15 * n - 10,
          lambda n: parse("(1/5,4/5)").power(n) + ORD.power(10 * n - 10))
    chain("slope-sevenths", 29, None, (7, 16, 20, 23, 24, 25), example_n, lambda n: 42 * n - 28,
          lambda n: parse("(2/7,5/7)+(3/7,4/7)").power(n) + ORD.power(28 * n - 28))

    return {"ok": all(c["ok"] for c in checks), "count": len(checks), "checks": checks}


def worked_clutch_example() -> dict:
    """Replay a fully worked join where the slope interval test fails.

    Families over m=4 and m=8 are glued at class 7 mod 8.  Every
    intermediate quantity is known in closed form and recomputed here:
    the pair is admissible and balanced but not compatible, the glued
    family is mu-ordinary as a product, and its Kottwitz set contains
    exactly one polygon of codimension one.
    """
    g1 = MonodromyDatum(4, (1, 1, 2))
    g2 = MonodromyDatum(8, (4, 2, 5, 5))
    p_class = 7
    rep = clutch_report(g1, g2, p=p_class)
    f1 = signature(g1)
    f2 = signature(g2)
    checks: list[dict] = []

    def chk(name: str, got, expected) -> None:
        checks.append(
            {"check": name, "got": str(got), "expected": str(expected), "ok": got == expected}
        )

    chk("f2", tuple(f2.values), (1, 1, 0, 0, 2, 0, 1))
    chk("u1", mu_ordinary(g1, p_class), SS)
    u2 = mu_ordinary(g2, p_class)
    chk("u2", u2, parse("ord^2+ss^3"))
    b2 = kottwitz_set(g2, p_class)
    nu2 = parse("ss^5")
    chk("b2_totals", tuple(str(t) for t in b2.totals()), ("ord^2+ss^3", "ss^5"))
    chk("nu2_codim", b2.codim_of_polygon(nu2), 1)
    chk("d1", rep.d1, 2)
    chk("d2", rep.d2, 1)
    chk("r1", rep.r1, 2)
    chk("r2", rep.r2, 4)
    chk("r0", rep.r0, 2)
    chk("f1_induced", tuple(f1.induced(rep.d1).values), (1, 0, 0, 0, 1, 0, 0))
    chk("admissible", rep.admissible, True)
    chk("gamma3", rep.gamma3.text(), "8:5:2,2,2,5,5")
    chk("f3", tuple(rep.f3.values), (2, 2, 0, 0, 3, 1, 1))
    chk("epsilon", rep.epsilon, 2)
    delta = tuple(
        n for n in range(1, 8) if rep.f3(n) != f1.induced(rep.d1)(n) + f2(n)
    )
    chk("defect_support", delta, (2, 6))
    chk("g3", rep.g3, 9)
    chk("balanced", rep.balanced, True)
    chk("compatible", rep.compatible, False)
    u3 = mu_ordinary(rep.gamma3, p_class)
    chk("u3", u3, parse("ord^4+ss^5"))
    chk("u3_is_product", u3, SS.power(rep.d1) + u2 + ORD.power(rep.epsilon))
    b3 = kottwitz_set(rep.gamma3, p_class)
    chk("b3_size", len(b3), 4)
    chk(
        "b3_totals",
        tuple(str(t) for t in b3.totals()),
        ("ord^4+ss^5", "ord^2+ss^7", "ss^9"),
    )
    target = parse("ord^2+ss^7")
    chk("target_codim", b3.codim_of_polygon(target), 1)
    above = tuple(
        str(t)
        for t in b3.totals()
        if t != target and t.lies_on_or_above(target)
    )
    chk("strictly_above_target", above, ("ss^9",))
    return {
        "ok": all(c["ok"] for c in checks),
        "datum1": g1.text(),
        "datum2": g2.text(),
        "p_class": p_class,
        "checks": checks,
    }
