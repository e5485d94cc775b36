"""Command line interface over the whole library.

Subcommands compute signatures, genera, Frobenius orbits, mu-ordinary
polygons, p-rank bounds, Kottwitz sets, clutching reports, certified
generator chains, codimension diagnostics, and the bundled table
reproductions.  Output is plain text by default; --json switches to a
stable versioned JSON document.  Exit status: 0 on success, 1 on a
domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .catalog import (
    moonen_families,
    moonen_family,
    reproduce_appendix,
    worked_clutch_example,
)
from .clutch import clutch_report
from .errors import DomainError
from .generators import (
    base_case,
    double_induction,
    extend_ord,
    pad_and_clutch,
    payload_base,
    replay,
    self_clutch,
    verify_family,
)
from .monodromy import MonodromyDatum, genus, signature
from .muord import mu_ordinary, p_rank_bound
from .orbits import decompose, g_of_orbit
from .polygon import parse
from .strata import DEFAULT_ENUM_CAP, condition_u, kottwitz_set, omega_count

JSON_VERSION = 1


# Miller-Rabin with the prime bases 2..41 decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
P_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < P_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _residue(args: argparse.Namespace, m: int) -> int:
    """Reduce --p or --p-class mod m, validating --p as an actual prime."""
    if getattr(args, "p", None) is not None:
        p = args.p
        if p >= P_BOUND:
            raise DomainError(
                f"p = {p} is too large: --p must be below {P_BOUND},"
                " where primality is decided exactly; pass --p-class instead"
            )
        if not _is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if math.gcd(p, m) != 1:
            raise DomainError(f"p = {p} is not coprime to m = {m}")
        return p % m
    if getattr(args, "p_class", None) is not None:
        return args.p_class % m
    raise DomainError("a residue class is required: pass --p or --p-class")


def _cap(args: argparse.Namespace) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("NPCC_ENUM_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"NPCC_ENUM_CAP = {env!r} is not an integer") from None
    return DEFAULT_ENUM_CAP


def _emit_json(obj: dict) -> int:
    payload = {"version": JSON_VERSION}
    payload.update(obj)
    print(json.dumps(payload, indent=2))
    return 0


def _datum(text: str) -> MonodromyDatum:
    return MonodromyDatum.from_text(text)


def _cmd_signature(args: argparse.Namespace) -> int:
    datum = _datum(args.datum)
    f = signature(datum)
    if args.json:
        return _emit_json(
            {"datum": datum.to_json_obj(), "f": list(f.values), "genus": genus(datum)}
        )
    print(",".join(str(v) for v in f.values))
    return 0


def _cmd_genus(args: argparse.Namespace) -> int:
    datum = _datum(args.datum)
    g = genus(datum)
    if args.json:
        return _emit_json({"datum": datum.to_json_obj(), "genus": g})
    print(g)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    f = None
    if args.datum is not None:
        datum = _datum(args.datum)
        m = datum.m
        f = signature(datum)
    elif args.m is not None:
        m = args.m
    else:
        raise DomainError("orbits needs --m or --datum")
    c = _residue(args, m)
    dec = decompose(m, c)
    reps = set(dec.representatives())
    rows = []
    for o in dec.orbits:
        row = {
            "members": list(o.members),
            "size": o.size,
            "order": o.e,
            "self_dual": o.is_self_dual,
            "representative": o in reps,
        }
        if f is not None:
            row["g"] = g_of_orbit(o, f)
        rows.append(row)
    if args.json:
        return _emit_json({"m": m, "p_class": dec.p_class, "orbits": rows})
    for row in rows:
        text = "{" + ",".join(str(n) for n in row["members"]) + "}"
        notes = [f"size {row['size']}", f"order {row['order']}"]
        if row["self_dual"]:
            notes.append("self-dual")
        if row["representative"]:
            notes.append("representative")
        if "g" in row:
            notes.append(f"g {row['g']}")
        print(f"{text}  " + ", ".join(notes))
    return 0


def _cmd_muord(args: argparse.Namespace) -> int:
    datum = _datum(args.datum)
    c = _residue(args, datum.m)
    u = mu_ordinary(datum, c)
    if args.json:
        return _emit_json(
            {
                "datum": datum.to_json_obj(),
                "p_class": c,
                "polygon": u.to_json_obj(),
                "polygon_text": str(u),
                "p_rank": u.p_rank,
                "genus": genus(datum),
            }
        )
    print(u)
    return 0


def _cmd_prank_bound(args: argparse.Namespace) -> int:
    datum = _datum(args.datum)
    c = _residue(args, datum.m)
    bound = p_rank_bound(datum, c)
    if args.json:
        return _emit_json(
            {"datum": datum.to_json_obj(), "p_class": c, "p_rank_bound": bound}
        )
    print(bound)
    return 0


def _cmd_kottwitz(args: argparse.Namespace) -> int:
    datum = _datum(args.datum)
    c = _residue(args, datum.m)
    ks = kottwitz_set(datum, c, cap=_cap(args))
    if args.dot:
        print(ks.hasse_dot())
        return 0
    rows = [
        {
            "polygon_text": str(t),
            "polygon": t.to_json_obj(),
            "codim": ks.codim_of_polygon(t),
            "elements": len(ks.elements_with_total(t)),
        }
        for t in ks.totals()
    ]
    if args.json:
        return _emit_json(
            {
                "datum": datum.to_json_obj(),
                "p_class": ks.p_class,
                "size": len(ks),
                "totals": rows,
            }
        )
    print(f"{len(ks)} elements, {len(rows)} distinct polygons")
    for row in rows:
        print(f"codim {row['codim']}: {row['polygon_text']}  [{row['elements']} element(s)]")
    return 0


def _cmd_clutch(args: argparse.Namespace) -> int:
    g1 = _datum(args.datum1)
    g2 = _datum(args.datum2)
    p_class = None
    if args.p is not None or args.p_class is not None:
        p_class = _residue(args, math.lcm(g1.m, g2.m))
    rep = clutch_report(g1, g2, p=p_class)
    if args.json:
        return _emit_json(rep.to_json_obj())
    print(f"gamma1: {rep.gamma1.text()}")
    print(f"gamma2: {rep.gamma2.text()}")
    print(f"gamma3: {rep.gamma3.text()}")
    print(f"m3 {rep.m3}, d1 {rep.d1}, d2 {rep.d2}, r1 {rep.r1}, r2 {rep.r2}, r0 {rep.r0}")
    print(f"epsilon {rep.epsilon}, g3 {rep.g3}")
    print("f3: " + ",".join(str(v) for v in rep.f3.values))
    print(f"admissible: {rep.admissible}")
    if rep.p_class is not None:
        print(f"p_class: {rep.p_class}")
        print(f"balanced: {rep.balanced}")
        print(f"compatible: {rep.compatible}")
        defects = ", ".join(f"{o}:{e}" for o, e in rep.defects if e)
        print(f"defects: {defects if defects else 'none'}")
    return 0


def _apply_step(fam, op: str):
    parts = op.split(":")
    kind = parts[0]
    try:
        if kind == "pad" and len(parts) == 3:
            return pad_and_clutch(fam, int(parts[1]), int(parts[2]))
        if kind == "self" and len(parts) in (2, 3):
            auto = len(parts) == 3 and parts[2] == "auto"
            if len(parts) == 3 and not auto:
                raise ValueError
            return self_clutch(fam, int(parts[1]), auto_pad=auto)
        if kind == "extend" and len(parts) == 2:
            return extend_ord(fam, int(parts[1]))
    except ValueError:
        pass
    raise DomainError(
        f"unknown step {op!r}; use pad:T:N, self:N[:auto], or extend:C"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.replay is not None:
        try:
            if args.replay == "-":
                text = sys.stdin.read()
            else:
                with open(args.replay, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read certificate: {exc}") from None
        try:
            cert = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DomainError(f"certificate is not valid JSON: {exc}") from None
        fam = replay(cert)
        report = verify_family(fam)
        if args.json:
            _emit_json({"replayed": True, "verify": report})
        else:
            print(f"replayed: {fam.datum.text()} at class {fam.p_class}")
            print(f"polygon: {fam.claimed_np}")
            print(f"verified: {report['ok']}")
        return 0 if report["ok"] else 1
    if args.datum is None:
        raise DomainError("generate needs --datum (or --replay FILE)")
    datum = _datum(args.datum)
    c = _residue(args, datum.m)
    if args.payload is not None:
        fam = payload_base(datum, c, parse(args.payload), cap=_cap(args))
    else:
        fam = base_case(datum, c)
    for op in args.step:
        fam = _apply_step(fam, op)
    if args.double_with is not None:
        other_datum = _datum(args.double_with)
        if args.double_payload is not None:
            other = payload_base(
                other_datum, c, parse(args.double_payload), cap=_cap(args)
            )
        else:
            other = base_case(other_datum, c)
        fam = double_induction(fam, other, args.n1, args.n2)
    print(json.dumps(fam.certificate(), indent=2))
    return 0


def _cmd_codim_ag(args: argparse.Namespace) -> int:
    nu = parse(args.polygon)
    count = omega_count(nu)
    if args.json:
        return _emit_json({"polygon_text": str(nu), "codim_ag": count})
    print(count)
    return 0


def _cmd_condition_u(args: argparse.Namespace) -> int:
    nu = parse(args.polygon)
    rep = condition_u(nu)
    if args.json:
        return _emit_json({"polygon_text": str(nu), **rep.to_json_obj()})
    print(f"holds={'true' if rep.holds else 'false'}")
    print(f"genus={rep.genus}")
    print(f"dim_mg={rep.dim_mg}")
    print(f"codim_ag={rep.codim_ag}")
    return 0


def _cmd_moonen(args: argparse.Namespace) -> int:
    if args.verify_all:
        rep = reproduce_appendix()
        if args.json:
            _emit_json(rep)
        else:
            for fam in rep["families"]:
                print(f"{fam['label']:<7} {'ok' if fam['ok'] else 'FAIL'}")
            print("all ok" if rep["ok"] else "mismatches found")
        return 0 if rep["ok"] else 1
    if args.family is None:
        fams = moonen_families()
        if args.json:
            return _emit_json(
                {
                    "families": [
                        {
                            "label": fam.label,
                            "m": fam.m,
                            "a": list(fam.a),
                            "genus": fam.genus,
                        }
                        for fam in fams
                    ]
                }
            )
        for fam in fams:
            a_text = ",".join(str(x) for x in fam.a)
            print(f"{fam.label:<7} m={fam.m:<3} a={a_text:<24} genus {fam.genus}")
        return 0
    key = int(args.family) if args.family.isdigit() else args.family
    fam = moonen_family(key)
    if args.p is None and args.p_class is None:
        if args.json:
            return _emit_json(
                {
                    "label": fam.label,
                    "m": fam.m,
                    "a": list(fam.a),
                    "f": list(fam.f),
                    "genus": fam.genus,
                    "rows": [
                        {
                            "classes": list(row.classes),
                            "polygons": [str(poly) for poly in row.polygons],
                            "large_p": list(row.large_p),
                        }
                        for row in fam.rows
                    ],
                }
            )
        print(f"{fam.label}: m={fam.m} a={','.join(str(x) for x in fam.a)} genus {fam.genus}")
        print("f: " + ",".join(str(v) for v in fam.f))
        for row in fam.rows:
            classes = ",".join(str(c) for c in row.classes)
            polys = "; ".join(
                str(poly) + ("*" if flag else "")
                for poly, flag in zip(row.polygons, row.large_p)
            )
            print(f"classes {classes} mod {fam.m}: {polys}")
        return 0
    c = _residue(args, fam.m)
    u = mu_ordinary(fam.datum, c)
    pairs = fam.polygons_for_class(c)
    if args.json:
        return _emit_json(
            {
                "label": fam.label,
                "m": fam.m,
                "p_class": c,
                "mu_ordinary": str(u),
                "polygons": [
                    {"polygon_text": str(poly), "large_p": flag}
                    for poly, flag in pairs
                ],
            }
        )
    print(u)
    listed = "; ".join(str(poly) + ("*" if flag else "") for poly, flag in pairs)
    print(f"class {c} mod {fam.m}: {listed}")
    return 0


def _cmd_clutch_demo(args: argparse.Namespace) -> int:
    rep = worked_clutch_example()
    if args.json:
        _emit_json(rep)
        return 0 if rep["ok"] else 1
    print(f"join {rep['datum1']} with {rep['datum2']} at class {rep['p_class']}")
    for check in rep["checks"]:
        if check["ok"]:
            print(f"[ok]   {check['check']}: {check['got']}")
        else:
            print(
                f"[FAIL] {check['check']}: got {check['got']},"
                f" expected {check['expected']}"
            )
    print(f"ok={'true' if rep['ok'] else 'false'}")
    return 0 if rep["ok"] else 1


def _add_residue_group(sp: argparse.ArgumentParser, required: bool = True) -> None:
    group = sp.add_mutually_exclusive_group(required=required)
    group.add_argument(
        "--p", type=int, help="an actual prime below 3.3*10^24; reduced mod m"
    )
    group.add_argument(
        "--p-class", type=int, dest="p_class", help="a residue class coprime to m"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npcc",
        description="Exact Newton polygon invariants for cyclic covers of the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="emit versioned JSON")
        sp.set_defaults(func=func)
        return sp

    sp = new("signature", _cmd_signature, "signature values of a datum")
    sp.add_argument("--datum", required=True, help="datum as m:N:a1,...,aN")

    sp = new("genus", _cmd_genus, "genus of a datum")
    sp.add_argument("--datum", required=True)

    sp = new("orbits", _cmd_orbits, "orbits of multiplication by p mod m")
    sp.add_argument("--m", type=int, help="modulus (or derive it from --datum)")
    sp.add_argument("--datum", help="optional datum; adds per-orbit g values")
    _add_residue_group(sp)

    sp = new("muord", _cmd_muord, "mu-ordinary polygon of a datum at a class")
    sp.add_argument("--datum", required=True)
    _add_residue_group(sp)

    sp = new("prank-bound", _cmd_prank_bound, "largest p-rank in the Kottwitz set")
    sp.add_argument("--datum", required=True)
    _add_residue_group(sp)

    sp = new("kottwitz", _cmd_kottwitz, "enumerate the Kottwitz set")
    sp.add_argument("--datum", required=True)
    sp.add_argument("--cap", type=int, help="enumeration cap (or NPCC_ENUM_CAP)")
    sp.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    _add_residue_group(sp)

    sp = new("clutch", _cmd_clutch, "clutching report for a pair of data")
    sp.add_argument("--datum1", required=True)
    sp.add_argument("--datum2", required=True)
    _add_residue_group(sp, required=False)

    sp = new("generate", _cmd_generate, "build or replay a certified family")
    sp.add_argument("--datum", help="base datum as m:N:a1,...,aN")
    sp.add_argument("--payload", help="start from a listed non-generic polygon")
    sp.add_argument(
        "--step",
        action="append",
        default=[],
        metavar="OP",
        help="pad:T:N, self:N[:auto], or extend:C; repeatable",
    )
    sp.add_argument("--double-with", help="second datum for a crossed chain")
    sp.add_argument("--double-payload", help="non-generic polygon on the second datum")
    sp.add_argument("--n1", type=int, default=1, help="copies of the first family")
    sp.add_argument("--n2", type=int, default=1, help="copies of the second family")
    sp.add_argument("--cap", type=int, help="enumeration cap (or NPCC_ENUM_CAP)")
    sp.add_argument("--replay", metavar="FILE", help="replay a certificate (- for stdin)")
    _add_residue_group(sp, required=False)

    sp = new("codim-ag", _cmd_codim_ag, "ambient stratum codimension of a polygon")
    sp.add_argument("--polygon", required=True, help='e.g. "ss^7+ord^2"')

    sp = new("condition-u", _cmd_condition_u, "unlikely intersection diagnostic")
    sp.add_argument("--polygon", required=True)

    sp = new("moonen", _cmd_moonen, "bundled family table and its verification")
    sp.add_argument("--family", help="family number 1..20 or label M[k]")
    sp.add_argument(
        "--verify-all",
        action="store_true",
        dest="verify_all",
        help="recompute the whole table and compare",
    )
    _add_residue_group(sp, required=False)

    sp = new("clutch-demo", _cmd_clutch_demo, "worked clutching example replay")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
