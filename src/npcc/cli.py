"""Command line interface over the whole library.

Subcommands compute signatures, genera, Frobenius orbits, mu-ordinary
polygons, p-rank bounds, Kottwitz sets, clutching reports, certified
generator chains, codimension diagnostics, and the bundled table
reproductions.  Output is plain text by default; --json switches to a
stable versioned JSON document.  Exit status: 0 on success, 1 on a
domain error, 2 on a usage error.
"""

import argparse
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from ._memo import memo
from .catalog import moonen_families, moonen_family
from .clutch import clutch_report
from .errors import DomainError
from .generators import (
    CHAIN_OPS,
    base_case,
    double_induction,
    payload_base,
    replay,
    verify_family,
)
from .monodromy import MonodromyDatum, _decimal, check_modulus, genus, signature
from .muord import mu_ordinary, p_rank_bound
from .orbits import decompose, g_of_orbit
from .polygon import parse
from .reproduce import reproduce_appendix, worked_clutch_example
from .strata import DEFAULT_ENUM_CAP, condition_u, kottwitz_set, omega_count

JSON_VERSION = 1


# _PSI[k - 1] is psi_k, the least strong pseudoprime to the first k prime
# bases, so Miller-Rabin on those k bases decides primality below it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    # psi_1..psi_8: Jaeschke, Math. Comp. 61 (1993)
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321,
    # psi_9..psi_11: Jiang and Deng, Math. Comp. 83 (2014)
    3825123056546413051, 3825123056546413051, 3825123056546413051,
    # psi_12, psi_13: Sorenson and Webster, Math. Comp. 86 (2017)
    318665857834031151167461, 3317044064679887385961981,
)
P_BOUND = _PSI[-1]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the fewest prime bases exact for n < P_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_PRIME_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
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


def _given(args: argparse.Namespace, dests: str) -> list[str]:
    """The flags among the space-separated dests that args sets."""
    return ["--" + n.replace("_", "-") for n in dests.split() if getattr(args, n) not in (None, [])]


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _flagged(polygons, large_p) -> str:
    return "; ".join(poly + ("*" if flag else "") for poly, flag in zip(polygons, large_p))


# Each command returns the document --json prints; its text function
# renders the document as plain text.


def _cmd_signature(args: argparse.Namespace) -> dict:
    datum = MonodromyDatum.from_text(args.datum)
    f = list(signature(datum).values)
    return {"datum": datum.to_json_obj(), "f": f, "genus": genus(datum)}


def _cmd_genus(args: argparse.Namespace) -> dict:
    datum = MonodromyDatum.from_text(args.datum)
    return {"datum": datum.to_json_obj(), "genus": genus(datum)}


def _cmd_orbits(args: argparse.Namespace) -> dict:
    f = None
    if args.datum is not None:
        datum = MonodromyDatum.from_text(args.datum)
        m = datum.m
        f = signature(datum)
    elif args.m is not None:
        m = check_modulus(args.m)
        if m < 2:
            raise DomainError(f"m = {m} < 2")
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
    return {"m": m, "p_class": dec.p_class, "orbits": rows}


def _text_orbits(doc: dict) -> list[str]:
    lines = []
    for row in doc["orbits"]:
        notes = [f"size {row['size']}", f"order {row['order']}"]
        if row["self_dual"]:
            notes.append("self-dual")
        if row["representative"]:
            notes.append("representative")
        if "g" in row:
            notes.append(f"g {row['g']}")
        lines.append("{" + _joined(row["members"]) + "}  " + ", ".join(notes))
    return lines


def _cmd_muord(args: argparse.Namespace) -> dict:
    datum = MonodromyDatum.from_text(args.datum)
    c = _residue(args, datum.m)
    u = mu_ordinary(datum, c)
    return {
        "datum": datum.to_json_obj(),
        "p_class": c,
        "polygon": u.to_json_obj(),
        "polygon_text": str(u),
        "p_rank": u.p_rank,
        "genus": genus(datum),
    }


def _cmd_prank_bound(args: argparse.Namespace) -> dict:
    datum = MonodromyDatum.from_text(args.datum)
    c = _residue(args, datum.m)
    return {"datum": datum.to_json_obj(), "p_class": c, "p_rank_bound": p_rank_bound(datum, c)}


def _cmd_kottwitz(args: argparse.Namespace) -> dict:
    datum = MonodromyDatum.from_text(args.datum)
    c = _residue(args, datum.m)
    ks = kottwitz_set(datum, c, cap=args.cap)
    head = {"datum": datum.to_json_obj(), "p_class": ks.p_class, "size": len(ks)}
    if args.dot:
        return {**head, "dot": ks.hasse_dot()}
    rows = [
        {
            "polygon_text": str(t),
            "polygon": t.to_json_obj(),
            "codim": ks.codim_of_polygon(t),
            "elements": len(ks.elements_with_total(t)),
        }
        for t in ks.totals()
    ]
    return {**head, "totals": rows}


def _text_kottwitz(doc: dict) -> list[str]:
    if "dot" in doc:
        return [doc["dot"]]
    return [f"{doc['size']} elements, {len(doc['totals'])} distinct polygons"] + [
        f"codim {row['codim']}: {row['polygon_text']}  [{row['elements']} element(s)]"
        for row in doc["totals"]
    ]


def _cmd_clutch(args: argparse.Namespace) -> dict:
    g1 = MonodromyDatum.from_text(args.datum1)
    g2 = MonodromyDatum.from_text(args.datum2)
    p_class = None
    if args.p is not None or args.p_class is not None:
        p_class = _residue(args, math.lcm(g1.m, g2.m))
    return clutch_report(g1, g2, p=p_class).to_json_obj()


def _text_clutch(doc: dict) -> list[str]:
    lines = [
        f"gamma{k}: {MonodromyDatum.from_json_obj(doc[f'gamma{k}']).text()}" for k in (1, 2, 3)
    ]
    lines += [
        "m3 {m3}, d1 {d1}, d2 {d2}, r1 {r1}, r2 {r2}, r0 {r0}".format(**doc),
        f"epsilon {doc['epsilon']}, g3 {doc['g3']}",
        "f3: " + _joined(doc["f3"]),
        f"admissible: {doc['admissible']}",
    ]
    if "p_class" in doc:
        defects = ", ".join(
            "{" + _joined(d["orbit"]) + "}" + f":{d['epsilon']}"
            for d in doc["defects"]
            if d["epsilon"]
        )
        lines += [
            f"p_class: {doc['p_class']}",
            f"balanced: {doc['balanced']}",
            f"compatible: {doc['compatible']}",
            f"defects: {defects if defects else 'none'}",
        ]
    return lines


def _step_forms() -> str:
    """The --step forms of the chain ops, as "A, B, or C"."""
    *first, last = (op.cli for op in CHAIN_OPS.values() if op.cli)
    return f"{', '.join(first)}, or {last}"


def _apply_step(fam, text: str):
    for op in CHAIN_OPS.values():
        keywords = op.parse(text)
        if keywords is not None:
            return op.run(fam, **keywords)
    raise DomainError(f"unknown step {text!r}; use {_step_forms()}")


def _cmd_generate(args: argparse.Namespace) -> dict:
    if args.replay is not None:
        # Flags that build a family.
        clash = _given(args, "datum payload step double_with double_payload n1 n2 p p_class")
        if clash:
            raise DomainError(f"--replay takes none of {', '.join(clash)}")
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
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
            raise DomainError(f"certificate is not valid JSON: {exc}") from None
        return {"replayed": True, "verify": verify_family(replay(cert, args.cap))}
    if args.double_with is None:
        alone = _given(args, "double_payload n1 n2")
        if alone:
            raise DomainError(f"{alone[0]} needs --double-with")
    if args.datum is None:
        raise DomainError("generate needs --datum (or --replay FILE)")
    datum = MonodromyDatum.from_text(args.datum)
    c = _residue(args, datum.m)

    def start(datum: MonodromyDatum, payload: str | None):
        if payload is None:
            return base_case(datum, c, cap=args.cap)
        return payload_base(datum, c, parse(payload), cap=args.cap)

    fam = start(datum, args.payload)
    for op in args.step:
        fam = _apply_step(fam, op)
    if args.double_with is not None:
        other = start(MonodromyDatum.from_text(args.double_with), args.double_payload)
        n1, n2 = (1 if n is None else n for n in (args.n1, args.n2))
        fam = double_induction(fam, other, n1, n2)
    return fam.certificate()


def _text_generate(doc: dict) -> list[str]:
    if "replayed" not in doc:
        # The certificate is already a versioned document, so text and
        # --json print the same bytes.
        return [_indented(doc)]
    report = doc["verify"]
    return [
        f"replayed: {report['datum']} at class {report['p_class']}",
        f"polygon: {report['claimed']}",
        f"verified: {report['ok']}",
    ]


def _indented(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for the types a document holds: dicts
    with str keys, lists, tuples, str, int, bool and None.

    json.dumps indents through closures it builds on every call, which
    leave a reference cycle behind; this writes the same text directly.
    Any other type raises TypeError, as json.dumps does for a value it
    cannot encode, and an int past sys.get_int_max_str_digits() raises
    ValueError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"a document key must be a str, not {type(key).__name__}")
            items.append(f"{inner}{encode_basestring_ascii(key)}: {_indented(item, inner)}")
        return "{" + ",".join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + ",".join([inner + _indented(item, inner) for item in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_codim_ag(args: argparse.Namespace) -> dict:
    nu = parse(args.polygon)
    return {"polygon_text": str(nu), "codim_ag": omega_count(nu)}


def _cmd_condition_u(args: argparse.Namespace) -> dict:
    nu = parse(args.polygon)
    return {"polygon_text": str(nu), **condition_u(nu).to_json_obj()}


def _text_condition_u(doc: dict) -> list[str]:
    return [
        f"holds={'true' if doc['holds'] else 'false'}",
        f"genus={doc['genus']}",
        f"dim_mg={doc['dim_mg']}",
        f"codim_ag={doc['codim_ag']}",
    ]


def _cmd_moonen(args: argparse.Namespace) -> dict:
    if args.verify_all:
        clash = _given(args, "family p p_class")
        if clash:
            raise DomainError(f"--verify-all takes none of {', '.join(clash)}")
        return reproduce_appendix()
    if args.family is None:
        alone = _given(args, "p p_class")
        if alone:
            raise DomainError(f"{alone[0]} needs --family")
        return {
            "families": [
                {"label": fam.label, "m": fam.m, "a": list(fam.a), "genus": fam.genus}
                for fam in moonen_families()
            ]
        }
    key = args.family
    if key.isascii() and key.isdecimal():
        # Families are numbered 1..20, so a longer number names none;
        # refusing it here also keeps int() within its digit limit.
        digits = key.lstrip("0")
        if len(digits) > 3:
            raise DomainError(f"unknown family: {len(digits)}-digit number")
        key = int(digits or "0")
    fam = moonen_family(key)
    if args.p is None and args.p_class is None:
        return {
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
    c = _residue(args, fam.m)
    return {
        "label": fam.label,
        "m": fam.m,
        "p_class": c,
        "mu_ordinary": str(mu_ordinary(fam.datum, c)),
        "polygons": [
            {"polygon_text": str(poly), "large_p": flag}
            for poly, flag in fam.polygons_for_class(c)
        ],
    }


def _text_moonen(doc: dict) -> list[str]:
    if "ok" in doc:  # --verify-all
        return [
            f"{fam['label']:<7} {'ok' if fam['ok'] else 'FAIL'}" for fam in doc["families"]
        ] + ["all ok" if doc["ok"] else "mismatches found"]
    if "families" in doc:
        return [
            f"{fam['label']:<7} m={fam['m']:<3} a={_joined(fam['a']):<24} genus {fam['genus']}"
            for fam in doc["families"]
        ]
    if "rows" in doc:
        return [
            f"{doc['label']}: m={doc['m']} a={_joined(doc['a'])} genus {doc['genus']}",
            "f: " + _joined(doc["f"]),
        ] + [
            f"classes {_joined(row['classes'])} mod {doc['m']}: "
            + _flagged(row["polygons"], row["large_p"])
            for row in doc["rows"]
        ]
    polygons = doc["polygons"]
    return [
        doc["mu_ordinary"],
        f"class {doc['p_class']} mod {doc['m']}: "
        + _flagged([p["polygon_text"] for p in polygons], [p["large_p"] for p in polygons]),
    ]


def _cmd_clutch_demo(args: argparse.Namespace) -> dict:
    return worked_clutch_example()


def _text_clutch_demo(doc: dict) -> list[str]:
    lines = [f"join {doc['datum1']} with {doc['datum2']} at class {doc['p_class']}"]
    for check in doc["checks"]:
        if check["ok"]:
            lines.append(f"[ok]   {check['check']}: {check['got']}")
        else:
            lines.append(
                f"[FAIL] {check['check']}: got {check['got']}, expected {check['expected']}"
            )
    return lines + [f"ok={'true' if doc['ok'] else 'false'}"]


def _shortened(message: str) -> str:
    """message with each over-long value given as its length.

    Each run of more than 40 digits becomes its digit count, then each
    word (no space or quote) of more than 80 characters its length.  A
    line still longer than 160 characters keeps its first 100 and last
    40, with the length of the cut between them, so the line stays
    short.  P_BOUND's 25 digits print in full.
    """
    message = re.sub(r"[0-9]{41,}", lambda run: f"<{len(run[0])} digits>", message)
    message = re.sub(r"[^\s']{81,}", lambda word: f"<{len(word[0])} characters>", message)
    return re.sub(
        r".{161,}",
        lambda line: f"{line[0][:100]}<{len(line[0]) - 140} characters>{line[0][-40:]}",
        message,
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors shortened as main's error lines are; subparsers share the class."""

    def error(self, message: str):
        super().error(_shortened(message))


def _int_arg(text: str) -> int:
    """An int option's value, read as a datum's numbers are."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_residue_group(sp: argparse.ArgumentParser, required: bool = True) -> None:
    group = sp.add_mutually_exclusive_group(required=required)
    group.add_argument(
        "--p", type=_int_arg, help="an actual prime below 3.3*10^24; reduced mod m"
    )
    group.add_argument(
        "--p-class", type=_int_arg, dest="p_class", help="a residue class coprime to m"
    )


# Building the parser (13 ArgumentParsers, their arguments, gettext and
# terminal-size lookups) costs about 75 times what argparse's parse of one
# argv does and 350 times what _plain's read does, so main() builds it on
# its first call and reuses it.  Reuse leaks no state: the append action
# copies --step's list default before appending, and help and usage text
# is formatted when printed.  Bounded: one parser.
@memo(1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The npcc parser and its subcommands' parsers by name."""
    parser = _Parser(
        prog="npcc",
        description="Exact Newton polygon invariants for cyclic covers of the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name: str, func, text, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="emit versioned JSON")
        sp.set_defaults(func=func, text=text)
        return sp

    sp = new(
        "signature",
        _cmd_signature,
        lambda doc: [_joined(doc["f"])],
        "signature values of a datum",
    )
    sp.add_argument("--datum", required=True, help="datum as m:N:a1,...,aN")

    sp = new("genus", _cmd_genus, lambda doc: [str(doc["genus"])], "genus of a datum")
    sp.add_argument("--datum", required=True)

    sp = new("orbits", _cmd_orbits, _text_orbits, "orbits of multiplication by p mod m")
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--m", type=_int_arg, help="modulus (or derive it from --datum)")
    source.add_argument("--datum", help="optional datum; adds per-orbit g values")
    _add_residue_group(sp)

    sp = new(
        "muord",
        _cmd_muord,
        lambda doc: [doc["polygon_text"]],
        "mu-ordinary polygon of a datum at a class",
    )
    sp.add_argument("--datum", required=True)
    _add_residue_group(sp)

    sp = new(
        "prank-bound",
        _cmd_prank_bound,
        lambda doc: [str(doc["p_rank_bound"])],
        "largest p-rank in the Kottwitz set",
    )
    sp.add_argument("--datum", required=True)
    _add_residue_group(sp)

    sp = new("kottwitz", _cmd_kottwitz, _text_kottwitz, "enumerate the Kottwitz set")
    sp.add_argument("--datum", required=True)
    sp.add_argument("--cap", type=_int_arg, default=DEFAULT_ENUM_CAP,
                    help=f"enumeration cap (default {DEFAULT_ENUM_CAP})")
    sp.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    _add_residue_group(sp)

    sp = new("clutch", _cmd_clutch, _text_clutch, "clutching report for a pair of data")
    sp.add_argument("--datum1", required=True)
    sp.add_argument("--datum2", required=True)
    _add_residue_group(sp, required=False)

    sp = new("generate", _cmd_generate, _text_generate, "build or replay a certified family")
    sp.add_argument("--datum", help="base datum as m:N:a1,...,aN")
    sp.add_argument("--payload", help="start from a listed non-generic polygon")
    sp.add_argument(
        "--step",
        action="append",
        default=[],
        metavar="OP",
        help=f"{_step_forms()}; repeatable",
    )
    sp.add_argument("--double-with", help="second datum for a crossed chain")
    sp.add_argument("--double-payload", help="non-generic polygon on the second datum")
    sp.add_argument("--n1", type=_int_arg, help="copies of the first family")
    sp.add_argument("--n2", type=_int_arg, help="copies of the second family")
    sp.add_argument("--cap", type=_int_arg, default=DEFAULT_ENUM_CAP,
                    help=f"enumeration cap (default {DEFAULT_ENUM_CAP})")
    sp.add_argument("--replay", metavar="FILE", help="replay a certificate (- for stdin)")
    _add_residue_group(sp, required=False)

    sp = new(
        "codim-ag",
        _cmd_codim_ag,
        lambda doc: [str(doc["codim_ag"])],
        "ambient stratum codimension of a polygon",
    )
    sp.add_argument("--polygon", required=True, help='e.g. "ss^7+ord^2"')

    sp = new(
        "condition-u", _cmd_condition_u, _text_condition_u, "unlikely intersection diagnostic"
    )
    sp.add_argument("--polygon", required=True)

    sp = new("moonen", _cmd_moonen, _text_moonen, "bundled family table and its verification")
    sp.add_argument("--family", help="family number 1..20 or label M[k]")
    sp.add_argument(
        "--verify-all",
        action="store_true",
        dest="verify_all",
        help="recompute the whole table and compare",
    )
    _add_residue_group(sp, required=False)

    new("clutch-demo", _cmd_clutch_demo, _text_clutch_demo, "worked clutching example replay")

    return parser, sub.choices


_PLAIN_ACTIONS = (argparse._StoreAction, argparse._StoreTrueAction, argparse._AppendAction)


def _plain(command: argparse.ArgumentParser, words: list[str]) -> argparse.Namespace | None:
    """command.parse_known_args(words)[0], read from command's own
    declarations when each word is a whole option string of a store,
    store_true or append action without choices, each value the next
    word, not starting with "-", and argparse would accept the argv;
    else None.  So abbreviations, --opt=value, "--", a repeated store
    option, help and every usage error are left to argparse."""
    args = argparse.Namespace()
    for action in command._actions:  # defaults first, in argparse's order
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            vars(args).setdefault(action.dest, action.default)
    for dest, value in command._defaults.items():
        vars(args).setdefault(dest, value)
    given = {}  # action -> whether its value counts as given in a group
    i = 0
    while i < len(words):
        option = words[i]
        action = command._option_string_actions.get(option)
        kind = type(action)
        if kind not in _PLAIN_ACTIONS or action.choices is not None or (
            action in given and kind is not argparse._AppendAction
        ):
            return None
        if action.nargs == 0:
            values = []
        elif action.nargs is None and i + 1 < len(words) and not words[i + 1].startswith("-"):
            i += 1
            try:
                values = words[i] if action.type is None else action.type(words[i])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None  # argparse converts it again and reports it
        else:
            return None
        given[action] = values is not action.default
        action(command, args, values, option)
        i += 1
    for action in command._actions:
        # A missing required option or positional, or a typed string
        # default argparse would convert.
        if action not in given and (
            action.required
            or not action.option_strings
            or (isinstance(action.default, str) and action.type is not None)
        ):
            return None
    for group in command._mutually_exclusive_groups:
        count = sum(given.get(action, False) for action in group._group_actions)
        if count > 1 or (group.required and not count):
            return None
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), with one parser pass when argv[0] names a
    subcommand: the top-level parser would hand the rest to that
    subcommand's parser and refuse what it leaves over, as this does.
    A plain rest is read by _plain, without argparse."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _plain(command, argv[1:])
    if args is not None:
        return args
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        out = args.func(args)
    except DomainError as exc:
        print(f"error: {_shortened(str(exc))}", file=sys.stderr)
        return 1
    doc = {"version": JSON_VERSION, **out}
    try:  # every line is made before any is printed
        lines = [_indented(doc)] if args.json else args.text(out)
    except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    # A document that carries a check's verdict exits 1 when it failed.
    return 0 if out.get("verify", out).get("ok", True) else 1


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at
        # interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
