"""The CLI's fast paths against what they stand for.

`main` hands an argv whose first word names a subcommand straight to
that subcommand's parser; the top-level parser's `parse_args` is the
oracle, reached by emptying the name-to-parser map.  `--json` output
comes from `cli._indented`; `json.dumps(doc, indent=2)` is the oracle.
A last test checks that no call leaves a reference cycle behind, so
what an evicted memo entry held is freed at once, not by the cycle
collector whenever it next runs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
from pathlib import Path

import pytest

import npcc.cli as cli
from npcc import _memo
from test_cli_fuzz import (
    BIG_CALLS,
    BIG_KINDS,
    CERTIFIED,
    HUGE_DRAWS,
    HUGE_REPLAYS,
    HUGE_TEMPLATES,
    SEED,
    SUBCOMMANDS,
    _big_argv,
    _cases,
    _huge,
    _huge_certificate,
    _huge_polygon,
)
from test_cli_golden import CASES, certificates, run_case

DATA = Path(__file__).resolve().parent / "data"

HAND_CASES = [
    [], ["-h"], ["--help"], ["sig"], ["--json", "genus", "--datum", "3:3:1,1,1"],
    ["genus", "--datum", "3:3:1,1,1", "extra"],
    ["genus", "--datum", "3:3:1,1,1", "--", "extra"],
    ["genus", "--", "--datum", "3:3:1,1,1"],
    ["signature", "-h"],
    ["genus", "--dat", "3:3:1,1,1"],
    ["muord", "--datum", "8:4:4,2,5,5", "--p=7"],
    ["orbits", "--m", "15", "--p", "2", "--bogus", "-x", "y"],
]


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fuzz_argv(tmp_path) -> list[list[str]]:
    """The seeded draws of test_cli_fuzz: random argv, moduli above the bound, huge numbers."""
    code, certificate, _ = _outcome(["generate", "--datum", "7:3:1,1,5", "--p-class", "2"])
    assert code == 0
    rng = random.Random(SEED + 1)
    big = [_big_argv(rng, BIG_KINDS[i % len(BIG_KINDS)], json.loads(certificate), tmp_path)
           for i in range(BIG_CALLS)]
    code, certificate, _ = _outcome(CERTIFIED)
    assert code == 0
    rng = random.Random(SEED + 2)
    huge = []
    for template in HUGE_TEMPLATES:
        for _ in range(HUGE_DRAWS):
            n = _huge(rng)
            signed, poly = rng.choice([n, -n]), _huge_polygon(rng, n)
            huge.append(template.format(n=n, signed=signed, poly=poly).split())
    huge += [_huge_certificate(rng, certificate, tmp_path) for _ in range(HUGE_REPLAYS)]
    return _cases() + big + huge


def test_one_parse_matches_the_top_level_parser(monkeypatch, tmp_path):
    files = certificates(tmp_path)
    argvs = [[arg.format(**files) if arg.startswith("{") else arg for arg in argv]
             for argv in CASES] + _fuzz_argv(tmp_path) + HAND_CASES
    direct = [_outcome(argv) for argv in argvs]
    parser, commands = cli._build_parser()
    assert list(commands) == list(SUBCOMMANDS)
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert [_outcome(argv) for argv in argvs] == direct
    # The cases reach usage errors of both parsers and a leftover argument.
    assert any(err.startswith("usage: npcc [-h]") for _, _, err in direct)
    assert any(err.startswith("usage: npcc genus") for _, _, err in direct)
    assert any("unrecognized arguments: extra" in err for _, _, err in direct)


def _documents() -> list:
    """Every golden --json document, every certificate the golden text
    output prints, and every golden certificate."""
    golden = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))
    docs = [json.loads(case["stdout"]) for case in golden
            if case["code"] == 0 and ("--json" in case["argv"] or case["stdout"].startswith("{\n"))]
    certified = json.loads((DATA / "certificate_golden.json").read_text(encoding="utf-8"))
    return docs + list(certified["families"].values()) + [
        case["certificate"] for case in certified["cases"] if "certificate" in case
    ]


def test_the_encoder_matches_json_dumps_on_every_document():
    docs = _documents()
    assert len(docs) > 80
    for doc in docs:
        assert cli._indented(doc) == json.dumps(doc, indent=2)


STRINGS = ["", "a", "é", "Ω≤∞", "\U0001d11e", "\ud800", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f",
           "</script>", "M[17]", "ss^7+ord^2"]


def _value(rng: random.Random, depth: int):
    """A seeded JSON-like value: empty containers at every depth, tuples as lists."""
    kind = rng.randrange(9 if depth < 5 else 5)
    if kind == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 1:
        return rng.choice([0, 1, -1, 2**63, -(10**40), rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([{}, [], ()])
    items = [_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind in (5, 6):
        return {rng.choice(STRINGS) + str(i): item for i, item in enumerate(items)}
    return items if kind == 7 else tuple(items)


def test_the_encoder_matches_json_dumps_on_seeded_nested_documents():
    rng = random.Random(20181104)
    for _ in range(2000):
        doc = _value(rng, 0)
        assert cli._indented(doc) == json.dumps(doc, indent=2), doc


def _raised(encode, value):
    with pytest.raises(Exception) as info:
        encode(value)
    return info.type, str(info.value)


def test_the_encoder_refuses_what_it_cannot_encode():
    past_limit = {"n": [10**4999]}
    assert _raised(cli._indented, past_limit) == _raised(lambda v: json.dumps(v, indent=2), past_limit)
    for value in ({1, 2}, [object()], {"a": {(1, 2): 3}}):
        assert _raised(cli._indented, value)[0] is _raised(json.dumps, value)[0] is TypeError
    # json.dumps writes a float and an int key; no document holds either,
    # and the encoder refuses both with TypeError.
    for value in (0.5, {"a": [1.0]}, {1: 2}):
        assert _raised(cli._indented, value)[0] is TypeError


def test_no_call_leaves_a_reference_cycle(tmp_path):
    # argparse's help formatter holds cycles of its own, so the golden
    # cases that print help or usage are left out.
    golden = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))
    cases = [case["argv"] for case in golden if "usage:" not in case["stdout"] + case["stderr"]]
    assert len(cases) == len(CASES) - 2
    files = certificates(tmp_path)
    for argv in cases:  # warm every memo
        run_case(argv, files)
    # So does the parser, built once per process: this local keeps it
    # alive past _memo.clear(), so only what the calls made is seen.
    parser = cli._build_parser()  # noqa: F841
    gc.collect()
    gc.disable()
    try:
        for argv in cases:
            run_case(argv, files)
        _memo.clear()
        assert gc.collect() == 0
    finally:
        gc.enable()
