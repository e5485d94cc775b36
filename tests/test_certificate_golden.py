"""Byte-for-byte regression suite for the chain ops' certificates.

Every case makes one library call of a chain op (or of a base step)
and compares what it gives with ``data/certificate_golden.json``: the
certificate and the ``verify_family`` report of the family it returns,
or the type and message of the error it raises.  The cases cover each
branch of the four ops: padding at t = m and at a proper divisor, self
clutching at a given pair and with appended labels, extension by units
and non-units, and crossed chains with a mu-ordinary or a payload
second family, balanced or not, together with the refusals.  When an
output changes on purpose, rewrite the data file with

    PYTHONPATH=src python3 tests/test_certificate_golden.py

and review the diff.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from npcc import (
    DomainError,
    MonodromyDatum,
    base_case,
    double_induction,
    extend_ord,
    pad_and_clutch,
    parse,
    payload_base,
    replay,
    self_clutch,
    verify_family,
)

DATA = Path(__file__).resolve().parent / "data" / "certificate_golden.json"


def _base(text: str, c: int):
    return base_case(MonodromyDatum.from_text(text), c)


def _payload(text: str, c: int, polygon: str):
    return payload_base(MonodromyDatum.from_text(text), c, parse(polygon))


@functools.cache
def _families() -> dict:
    return {
        "F5": _base("5:5:2,2,2,2,2", 4),
        "F4": _base("4:3:1,1,2", 3),
        "F6": _base("6:4:1,3,4,4", 7),
        "N7": _base("7:3:1,1,5", 2),
        "N5": _base("5:3:1,1,3", 4),
        "Q4": _base("4:4:1,2,2,3", 3),
        "P4": _payload("4:4:1,2,2,3", 3, "ss^2"),
        "P7": _payload("7:4:2,4,4,4", 3, "ss^6"),
        "PW": _payload("8:5:2,2,2,5,5", 7, "ord^2+ss^7"),
        "P44": _payload("4:4:1,1,1,1", 3, "ss^3"),
        "T3": _base("3:3:1,1,1", 1),
        "P3": _payload("3:4:1,1,2,2", 1, "ss^2"),
        "M9": _base("6:4:1,3,4,4", 5),
        "P9": _payload("6:4:1,3,4,4", 5, "ss^3"),
        "Z2": _base("5:3:2,2,1", 2),
        "M11": _base("5:4:1,3,3,3", 2),
        "Z9": _base("9:3:1,2,6", 4),
        "M19": _base("9:4:3,5,5,5", 4),
        "O5": _base("5:3:4,2,4", 4),
        "N5c3": _base("5:3:1,1,3", 3),
        "P5": _payload("5:4:1,1,1,2", 2, "ss^4"),
        "A6": _base("6:3:3,4,5", 5),
        "P6": _payload("6:5:1,1,1,1,2", 5, "ord^2+ss^5"),
        "T3c2": _base("3:3:1,1,1", 2),
        "P3c2": _payload("3:4:1,1,2,2", 2, "ss^2"),
        "B3c2": _base("3:4:1,1,2,2", 2),
        "P43": _payload("4:4:3,3,3,3", 3, "ss^3"),
    }


_OPS = {
    "pad": pad_and_clutch, "self": self_clutch, "extend": extend_ord,
    "double": double_induction,
}

# (op, family names, arguments[, keywords]); _name(case) is the case's
# name in the data file.
CASES = [
    # pad_and_clutch: t = m, a proper divisor, and t = 1; mu-ordinary and payload
    ("pad", ("F5",), (5, 1)), ("pad", ("F5",), (5, 2)), ("pad", ("F5",), (5, 3)),
    ("pad", ("F5",), (1, 2)), ("pad", ("F4",), (2, 1)), ("pad", ("F4",), (2, 2)),
    ("pad", ("F4",), (2, 3)), ("pad", ("F4",), (4, 3)), ("pad", ("F6",), (3, 2)),
    ("pad", ("P7",), (7, 1)), ("pad", ("P7",), (7, 2)), ("pad", ("P7",), (7, 3)),
    ("pad", ("P7",), (1, 2)), ("pad", ("P4",), (2, 2)), ("pad", ("P4",), (4, 3)),
    ("pad", ("P4",), (1, 1)),
    ("pad", ("F5",), (3, 2)), ("pad", ("F5",), (5, 0)),
    ("pad", ("PW",), (8, 2)), ("pad", ("P44",), (1, 2)),
    # self_clutch: at the first pair, at a given pair, with appended labels
    ("self", ("Q4",), (2,)), ("self", ("Q4",), (3,), {"at": (1, 2)}),
    ("self", ("Q4",), (2,), {"auto_pad": True}), ("self", ("P4",), (2,)),
    ("self", ("P4",), (3,)),
    ("self", ("N7",), (2,), {"auto_pad": True}), ("self", ("N7",), (3,), {"auto_pad": True}),
    ("self", ("N5",), (2,), {"auto_pad": True}), ("self", ("P7",), (2,), {"auto_pad": True}),
    ("self", ("N7",), (1,)), ("self", ("N7",), (2,)), ("self", ("N7",), (0,)),
    ("self", ("Q4",), (2,), {"at": (0, 0)}), ("self", ("Q4",), (2,), {"at": (0, 1)}),
    ("self", ("Q4",), (2,), {"at": (0, 7)}),
    # extend_ord: c coprime to m, c sharing a factor with m
    ("extend", ("N7",), (1,)), ("extend", ("N7",), (3,)), ("extend", ("F4",), (2,)),
    ("extend", ("F6",), (2,)), ("extend", ("F6",), (3,)), ("extend", ("F6",), (5,)),
    ("extend", ("P7",), (3,)), ("extend", ("P4",), (2,)), ("extend", ("N7",), (14,)),
    # double_induction: mu-ordinary second family
    ("double", ("N5", "O5"), (1, 1)), ("double", ("N5", "O5"), (2, 2)),
    ("double", ("N5", "O5"), (1, 3)), ("double", ("Z2", "M11"), (1, 2)),
    ("double", ("Z2", "M11"), (2, 1)), ("double", ("Z9", "M19"), (2, 1)),
    ("double", ("Z9", "M19"), (1, 2)), ("double", ("T3c2", "B3c2"), (1, 2)),
    ("double", ("T3c2", "B3c2"), (2, 1)), ("double", ("F4", "F4"), (2, 2)),
    # double_induction: payload second family
    ("double", ("T3", "P3"), (1, 1)), ("double", ("T3", "P3"), (2, 2)),
    ("double", ("T3", "P3"), (1, 3)), ("double", ("M9", "P9"), (1, 1)),
    ("double", ("M9", "P9"), (2, 2)), ("double", ("F4", "P43"), (1, 1)),
    ("double", ("F4", "P43"), (1, 2)),
    # double_induction: refusals
    ("double", ("N5", "N7"), (1, 1)), ("double", ("N5", "N5c3"), (1, 1)),
    ("double", ("N5", "N5"), (0, 1)), ("double", ("P4", "Q4"), (1, 1)),
    ("double", ("F4", "P44"), (1, 1)), ("double", ("T3c2", "P3c2"), (1, 1)),
    ("double", ("A6", "P6"), (1, 1)), ("double", ("M11", "P5"), (1, 2)),
]


def _name(case) -> str:
    op, fams, args, *rest = case
    words = [*fams, *map(repr, args)]
    words += [f"{k}={v!r}" for k, v in (rest[0] if rest else {}).items()]
    return f"{op}({', '.join(words)})"


def run(case) -> dict:
    op, fams, args, *rest = case
    families = _families()
    try:
        fam = _OPS[op](*(families[name] for name in fams), *args, **(rest[0] if rest else {}))
    except DomainError as exc:
        return {"call": _name(case), "error": f"{type(exc).__name__}: {exc}"}
    return {
        "call": _name(case),
        "certificate": fam.certificate(),
        "verify": verify_family(fam, deep=not fam.mu_ordinary_claim),
    }


def base_refusals() -> list[str]:
    """Errors of the base steps, which every chain starts from."""
    out = []
    for call in (
        lambda: _base("7:5:1,1,1,1,3", 2),
        lambda: _payload("8:5:2,2,2,5,5", 7, "ord^9"),
    ):
        try:
            call()
        except DomainError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert [entry["call"] for entry in golden["cases"]] == [_name(case) for case in CASES]
    assert golden["families"] == {
        name: fam.certificate() for name, fam in _families().items()
    }


@pytest.mark.parametrize("index", range(len(CASES)), ids=[_name(case) for case in CASES])
def test_chain_op_matches_golden(index, golden):
    assert run(CASES[index]) == golden["cases"][index]


def test_base_refusals_match_golden(golden):
    assert base_refusals() == golden["base_refusals"]


def test_every_golden_certificate_replays_to_itself(golden):
    certs = list(golden["families"].values())
    certs += [entry["certificate"] for entry in golden["cases"] if "certificate" in entry]
    assert len(certs) > 50
    for cert in certs:
        assert replay(cert).certificate() == cert


if __name__ == "__main__":
    doc = {
        "families": {name: fam.certificate() for name, fam in _families().items()},
        "cases": [run(case) for case in CASES],
        "base_refusals": base_refusals(),
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['cases'])} cases to {DATA}")
