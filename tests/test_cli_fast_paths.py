"""The CLI's fast paths against what they stand for.

`main` reads an argv whose first word names a subcommand from the
command table, `cli._COMMANDS`, with `cli._plain` when the rest is
plain, and else hands the rest straight to that subcommand's parser.
The top-level parser's `parse_args` is the oracle of both, reached by
emptying the table's name map.  The argparse parsers are built from the
same table, so `_plain` is checked against the subcommand parser's
`parse_known_args` on every argv here, on argv in the shapes of the
benchmark's cli-mix workload, and on a table with forms npcc's does not
use.  `--json` output comes from `cli._indented`;
`json.dumps(doc, indent=2)` is the oracle.  A last test checks that no
call leaves a reference cycle behind, so what an evicted memo entry
held is freed at once, not by the cycle collector whenever it next runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
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
    _entries,
    _huge,
    _huge_certificate,
    _huge_polygon,
    _text,
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
    _, commands = cli._build_parser()
    assert list(commands) == list(cli._COMMANDS) == list(SUBCOMMANDS)
    monkeypatch.setattr(cli, "_COMMANDS", {})
    assert [_outcome(argv) for argv in argvs] == direct
    # The cases reach usage errors of both parsers and a leftover argument.
    assert any(err.startswith("usage: npcc [-h]") for _, _, err in direct)
    assert any(err.startswith("usage: npcc genus") for _, _, err in direct)
    assert any("unrecognized arguments: extra" in err for _, _, err in direct)


def _read_both(command, parser: argparse.ArgumentParser, words: list[str]):
    """cli._plain(command, words), checked against parser.parse_known_args(words),
    parser being built from the same table entry: a Namespace only where
    argparse reads the same one, attribute for attribute and in the same
    order, and leaves no word over."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected, extras = parser.parse_known_args(words)
        except SystemExit:
            expected = None
    plain = cli._plain(command, words)
    if plain is not None:
        assert expected is not None and not extras, words
        assert list(vars(plain).items()) == list(vars(expected).items()), words
        for name, value in vars(plain).items():
            # The declared default object (--step's list) only where argparse's is.
            default = parser.get_default(name)
            assert (value is default) == (getattr(expected, name) is default), (words, name)
    return plain


def _read_npcc(argv: list[str]):
    """_read_both on npcc's own table entry and parser for argv[0]."""
    return _read_both(cli._COMMANDS[argv[0]], cli._build_parser()[1][argv[0]], argv[1:])


PRIMES = ("2", "101", "1000003", "999999999989")
POLYGONS = ("ord", "ss^7+ord^2", "(1/3,2/3)^2+ss^4", "ord^40+(2/5,3/5)")


def _mix_argv(rng: random.Random) -> list[str]:
    """An argv in one of the shapes the benchmark's cli-mix workload calls."""
    m = rng.randint(3, 40)
    datum, other = (_text(m, _entries(rng, m)) for _ in range(2))
    residue = rng.choice([["--p", rng.choice(PRIMES)], ["--p-class", str(rng.randrange(1, m))]])
    steps = []
    for _ in range(rng.randint(1, 2)):
        steps += ["--step", f"pad:{rng.randint(1, m)}:{rng.randint(1, 2)}"]
    polygon, family = rng.choice(POLYGONS), rng.choice(["17", "M[17]", "3"])
    argv = rng.choice([
        ["signature", "--datum", datum], ["genus", "--datum", datum],
        ["orbits", "--datum", datum, *residue], ["orbits", "--m", str(m), *residue],
        ["muord", "--datum", datum, *residue], ["prank-bound", "--datum", datum, *residue],
        ["kottwitz", "--datum", datum, "--cap", "200", *residue],
        ["clutch", "--datum1", datum, "--datum2", other, *residue],
        ["generate", "--datum", datum, *residue, *steps],
        ["codim-ag", "--polygon", polygon], ["condition-u", "--polygon", polygon],
        ["moonen"], ["moonen", "--verify-all"], ["moonen", "--family", family],
        ["moonen", "--family", family, *residue], ["clutch-demo"],
    ])
    return argv + ["--json"] * rng.randint(0, 1)


def test_the_plain_reader_matches_argparse(tmp_path):
    files = {"cert": "cert.json", "tampered": "tampered.json"}
    golden = [[arg.format(**files) if arg.startswith("{") else arg for arg in argv]
              for argv in CASES]
    rng = random.Random(SEED + 3)
    mix = [_mix_argv(rng) for _ in range(2000)]
    fuzz = _fuzz_argv(tmp_path) + HAND_CASES

    def declined(argvs):
        return [argv for argv in argvs if argv and argv[0] in cli._COMMANDS
                and _read_npcc(argv) is None]

    # Only help and a usage error go to argparse.
    assert declined(golden) == [["generate", "--help"], ["signature"]]
    assert declined(mix) == []
    assert 0 < len(declined(fuzz)) < len(fuzz) / 4


D4 = "8:4:4,2,5,5"
DECLINED = [
    ["genus", "--dat", "3:3:1,1,1"],  # an abbreviation
    ["muord", "--datum", D4, "--p=7"],
    ["genus", "--datum", "3:3:1,1,1", "--datum", "3:3:1,1,1"],
    ["muord", "--datum", D4, "--p", "-7"],  # argparse reads -7 as a value
    ["muord", "--datum", D4, "--p", "7", "--p-class", "3"],
    ["muord", "--p", "7"],  # no --datum
    ["genus", "-h"],
    ["genus", "--", "--datum", "3:3:1,1,1"],
    ["genus", "--datum", "3:3:1,1,1", "extra"],
    ["kottwitz", "--datum", D4, "--p-class", "3", "--cap", "1_000"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_plain_reader_leaves_other_forms_to_argparse(argv):
    assert _read_npcc(argv) is None


# Forms the table declares but npcc's own entries do not use: a flag and
# a repeatable option in one group, a repeatable default that is not
# empty, an int default, a required group of an int and a repeatable.
SYNTHETIC = cli._Command(
    "synthetic", None, None, "forms npcc does not declare",
    cli._Option("--name", required=True),
    cli._Option("--n", "int", default=3),
    cli._Option("--flag", "flag", default=False, group="either"),
    cli._Option("--item", "repeatable", default=["x"], metavar="ITEM", group="either"),
    cli._Option("--left", "int", required=True, group="side"),
    cli._Option("--right", "repeatable", required=True, default=[], group="side"),
)
OPTIONS = ("--name", "--n", "--flag", "--item", "--left", "--right", "--na", "--n=2", "-h",
           "--", "--bogus", "rest")
VALUES = ("a", "b", "7", "-7", "", "1_0", "x y", "-")


def test_the_plain_reader_matches_argparse_on_forms_npcc_does_not_declare():
    parser = argparse.ArgumentParser(prog="synthetic")
    cli._declare(parser, SYNTHETIC)
    rng = random.Random(SEED + 4)
    accepted = 0
    for _ in range(4000):
        chunks = []
        for _ in range(rng.randint(0, 3)):
            option = rng.choice(OPTIONS)
            chunks.append([option, rng.choice(VALUES)] if rng.random() < 0.8 else [option])
        if rng.random() < 0.8:
            chunks.append(["--name", rng.choice(VALUES)])
        if rng.random() < 0.8:
            chunks.append([rng.choice(["--left", "--right"]), rng.choice(VALUES)])
        rng.shuffle(chunks)
        accepted += _read_both(SYNTHETIC, parser, [w for chunk in chunks for w in chunk]) is not None
    assert accepted > 100


def test_every_default_is_one_the_reader_keeps_as_argparse_does():
    # argparse converts a str default of an int option, and counts a
    # group member given only when its value is not the default object;
    # _plain keeps defaults as declared and counts every member given.
    # None, False or a list is never the object a value is read as.
    for command in (*cli._COMMANDS.values(), SYNTHETIC):
        for option in command.options.values():
            where, default = (command.name, option.flag), option.default
            assert option.kind != "int" or default is None or type(default) is int, where
            assert option.group is None or default is None or default is False or (
                type(default) is list), where


def test_a_plain_argv_makes_no_argparse_call(monkeypatch):
    cli._build_parser()
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    plain = ["signature", "--datum", "7:3:1,1,5"]
    outcome = _outcome(plain)
    assert outcome == (0, "1,1,1,0,0,0\n", "") and calls == []
    _outcome(["genus", "--dat", "3:3:1,1,1"])
    assert calls == ["npcc", "npcc genus"]
    monkeypatch.setattr(cli, "_plain", lambda command, words: None)
    assert _outcome(plain) == outcome
    assert calls == ["npcc", "npcc genus", "npcc", "npcc signature"]


def test_a_lone_dash_is_read_as_a_value_without_argparse(monkeypatch):
    # argparse reads "-" (stdin for --replay) as a value, so the table can
    # too; "-7" and other dash words are still left to argparse
    argv = ["generate", "--replay", "-"]
    assert _read_npcc(argv) is not None
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert cli._parse(argv).replay == "-" and calls == []
    assert _read_npcc(["generate", "--replay", "-x"]) is None


FRESH = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from npcc.cli import main
seen = []
for argv in (["signature", "--datum", "7:3:1,1,5"], ["signature"], ["genus", "-h"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append((main(argv), len(built)))
print(seen)
"""


def test_a_fresh_process_builds_the_parser_only_for_argparse():
    # A plain argv is read from the table alone; the first usage error
    # builds the whole tree, the npcc parser and one per subcommand,
    # and help after it reuses that tree.
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", FRESH], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    tree = 1 + len(SUBCOMMANDS)
    assert run.stdout.strip() == str([(0, 0), (2, tree), (0, tree)])


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
