"""Command line interface over the whole library.

Subcommands compute signatures, genera, Frobenius orbits, mu-ordinary
polygons, p-rank bounds, Kottwitz sets, clutching reports, certified
generator chains, codimension diagnostics, and the bundled table
reproductions.  Output is plain text by default; --json switches to a
stable versioned JSON document.  Exit status: 0 on success, 1 on a
domain error, 2 on a usage error.
"""

import argparse
import collections
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


class _Option(collections.namedtuple(
    "_Option", "flag kind required default group metavar help",
    defaults=("text", False, None, None, None, None),
)):
    """An option of a subcommand: kind "text", "int", "flag" (true when
    given) or "repeatable" (each use appends its text to a copy of the
    default).  Of the options sharing a group at most one is given;
    required asks for the option, or for one of its group.  An int
    option defaults to None or an int, and a grouped one to None, False
    or a list: _plain keeps a default as declared and counts a member
    given where argparse would convert a str or see the default object."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


# What argparse is told of each kind.
_KINDS = {"text": {}, "int": {"type": _int_arg}, "flag": {"action": "store_true"},
          "repeatable": {"action": "append"}}
_JSON = _Option("--json", "flag", default=False, help="emit versioned JSON")


class _Command:
    """A subcommand: its name, handler, text renderer, help and options, --json first."""

    def __init__(self, name: str, func, text, help_text: str, *options: _Option):
        self.name, self.func, self.text, self.help = name, func, text, help_text
        self.options = {option.flag: option for option in (_JSON, *options)}
        # The Namespace before a word is read, in argparse's order.
        self.defaults = {option.dest: option.default for option in self.options.values()}
        self.defaults.update(func=func, text=text)
        # Per group, and per required option outside one: whether one of
        # its flags is required, and the flags.
        self.slots = {}
        for option in options:
            if option.required or option.group:
                slot = self.slots.setdefault(option.group or option.flag, (option.required, set()))
                slot[1].add(option.flag)


_DATUM = _Option("--datum", required=True)
_CAP = _Option("--cap", "int", default=DEFAULT_ENUM_CAP,
               help=f"enumeration cap (default {DEFAULT_ENUM_CAP})")
_RESIDUE_REQUIRED = (
    _Option("--p", "int", required=True, group="residue",
            help="an actual prime below 3.3*10^24; reduced mod m"),
    _Option("--p-class", "int", required=True, group="residue",
            help="a residue class coprime to m"),
)
_RESIDUE_OPTIONAL = tuple(option._replace(required=False) for option in _RESIDUE_REQUIRED)

# Every subcommand, in the order help lists them: argparse is built from
# this table, and _plain reads a plain argv from it.
_COMMANDS = {command.name: command for command in (
    _Command("signature", _cmd_signature, lambda doc: [_joined(doc["f"])],
             "signature values of a datum", _DATUM._replace(help="datum as m:N:a1,...,aN")),
    _Command("genus", _cmd_genus, lambda doc: [str(doc["genus"])], "genus of a datum", _DATUM),
    _Command("orbits", _cmd_orbits, _text_orbits, "orbits of multiplication by p mod m",
             _Option("--m", "int", group="source", help="modulus (or derive it from --datum)"),
             _Option("--datum", group="source", help="optional datum; adds per-orbit g values"),
             *_RESIDUE_REQUIRED),
    _Command("muord", _cmd_muord, lambda doc: [doc["polygon_text"]],
             "mu-ordinary polygon of a datum at a class", _DATUM, *_RESIDUE_REQUIRED),
    _Command("prank-bound", _cmd_prank_bound, lambda doc: [str(doc["p_rank_bound"])],
             "largest p-rank in the Kottwitz set", _DATUM, *_RESIDUE_REQUIRED),
    _Command("kottwitz", _cmd_kottwitz, _text_kottwitz, "enumerate the Kottwitz set", _DATUM, _CAP,
             _Option("--dot", "flag", default=False, help="emit the Hasse diagram as DOT"),
             *_RESIDUE_REQUIRED),
    _Command("clutch", _cmd_clutch, _text_clutch, "clutching report for a pair of data",
             _Option("--datum1", required=True), _Option("--datum2", required=True),
             *_RESIDUE_OPTIONAL),
    _Command("generate", _cmd_generate, _text_generate, "build or replay a certified family",
             _Option("--datum", help="base datum as m:N:a1,...,aN"),
             _Option("--payload", help="start from a listed non-generic polygon"),
             _Option("--step", "repeatable", default=[], metavar="OP",
                     help=f"{_step_forms()}; repeatable"),
             _Option("--double-with", help="second datum for a crossed chain"),
             _Option("--double-payload", help="non-generic polygon on the second datum"),
             _Option("--n1", "int", help="copies of the first family"),
             _Option("--n2", "int", help="copies of the second family"),
             _CAP,
             _Option("--replay", metavar="FILE", help="replay a certificate (- for stdin)"),
             *_RESIDUE_OPTIONAL),
    _Command("codim-ag", _cmd_codim_ag, lambda doc: [str(doc["codim_ag"])],
             "ambient stratum codimension of a polygon",
             _Option("--polygon", required=True, help='e.g. "ss^7+ord^2"')),
    _Command("condition-u", _cmd_condition_u, _text_condition_u,
             "unlikely intersection diagnostic", _Option("--polygon", required=True)),
    _Command("moonen", _cmd_moonen, _text_moonen, "bundled family table and its verification",
             _Option("--family", help="family number 1..20 or label M[k]"),
             _Option("--verify-all", "flag", default=False,
                     help="recompute the whole table and compare"),
             *_RESIDUE_OPTIONAL),
    _Command("clutch-demo", _cmd_clutch_demo, _text_clutch_demo,
             "worked clutching example replay"),
)}


def _declare(parser: argparse.ArgumentParser, command: _Command) -> None:
    """Add command's options to parser in table order, then its handler and renderer."""
    groups = {}
    for option in command.options.values():
        keywords = {"default": option.default, "help": option.help, **_KINDS[option.kind]}
        if option.metavar is not None:
            keywords["metavar"] = option.metavar
        if option.group is None:
            keywords["required"] = option.required
        elif option.group not in groups:
            groups[option.group] = parser.add_mutually_exclusive_group(required=option.required)
        groups.get(option.group, parser).add_argument(option.flag, **keywords)
    parser.set_defaults(func=command.func, text=command.text)


# Building the parser (13 ArgumentParsers, their arguments, gettext and
# terminal-size lookups) takes about 1.5 ms warm on a 2-core host, 40 to
# 230 times what argparse's parse of one argv takes and 160 to 730 times
# what _plain's read does, so main() builds it only for an argv _plain
# leaves to argparse, and reuses it.  Reuse leaks no state: the append
# action copies --step's list default before appending, and help and
# usage text is formatted when printed.
# Bounded: one parser, about 245 KiB (tracemalloc, CPython 3.11).
@memo(1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The npcc parser and its subcommands' parsers by name."""
    parser = _Parser(
        prog="npcc",
        description="Exact Newton polygon invariants for cyclic covers of the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS.values():
        _declare(sub.add_parser(command.name, help=command.help), command)
    return parser, sub.choices


def _plain(command: _Command, words: list[str]) -> argparse.Namespace | None:
    """What command's parser's parse_known_args(words)[0] would be, read
    from the table when each word is a whole flag of command followed by
    its value unless it is a flag, no value but "-" starts with "-", only
    a repeatable option comes twice, and argparse would accept the argv;
    else None.  So abbreviations, --opt=value, "--", a repeated option,
    help and every usage error are left to argparse."""
    values = dict(command.defaults)
    given = set()
    i = 0
    while i < len(words):
        option = command.options.get(words[i])
        if option is None or (option.flag in given and option.kind != "repeatable"):
            return None
        given.add(option.flag)
        dest = option.dest
        if option.kind == "flag":
            values[dest] = True
        else:
            i += 1
            if i == len(words) or words[i].startswith("-") and words[i] != "-":
                return None
            value = words[i]
            if option.kind == "int":
                try:
                    value = _int_arg(value)
                except argparse.ArgumentTypeError:
                    return None  # argparse converts it again and reports it
            elif option.kind == "repeatable":
                value = values[dest] + [value]
            values[dest] = value
        i += 1
    for required, flags in command.slots.values():
        count = len(given & flags)
        if count > 1 or (required and not count):
            return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv): by _plain when argv[0] names a subcommand
    and the rest is plain, else by argparse."""
    command = _COMMANDS.get(argv[0]) if argv else None
    args = None if command is None else _plain(command, argv[1:])
    return args if args is not None else _build_parser()[0].parse_args(argv)


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
