"""Byte-for-byte CLI regression suite.

Every case runs one argv through ``npcc.cli.main`` in process and
compares the exit code, stdout and stderr with ``data/cli_golden.json``.
The data file was captured before the CLI's output paths were merged;
when an output changes on purpose, rewrite it with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review the diff.  A second test runs README's command-line tour and
compares each command's output with the text README shows; a third runs
README's library tour and compares each value with its comment.  argparse
wraps usage and help text to the terminal width, so the command-line
tests fix COLUMNS; its formatting also differs between Python versions,
and the data file was captured with Python 3.11.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from npcc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

D4 = "8:4:4,2,5,5"
D5 = "8:5:2,2,2,5,5"
CERT_ARGV = ["generate", "--datum", "5:5:2,2,2,2,2", "--p-class", "4", "--step", "pad:5:3"]

# Each query runs once as text and once with --json.
QUERIES = [
    ["signature", "--datum", D4],
    ["genus", "--datum", D5],
    ["orbits", "--datum", D5, "--p-class", "3"],
    ["orbits", "--m", "15", "--p", "2"],
    ["muord", "--datum", D4, "--p", "7"],
    ["prank-bound", "--datum", D5, "--p-class", "3"],
    ["kottwitz", "--datum", D5, "--p-class", "7"],
    ["clutch", "--datum1", "4:3:1,1,2", "--datum2", D4, "--p-class", "7"],
    ["clutch", "--datum1", "4:3:1,1,2", "--datum2", D4],
    CERT_ARGV,
    ["codim-ag", "--polygon", "ss^7+ord^2"],
    ["condition-u", "--polygon", "ss^34+ord^66"],
    ["moonen"],
    ["moonen", "--family", "17"],
    ["moonen", "--family", "M[15]", "--p-class", "3"],
    ["moonen", "--verify-all"],
    ["clutch-demo"],
    ["generate", "--replay", "{cert}"],
    ["generate", "--replay", "{tampered}"],
]

OTHERS = [
    ["kottwitz", "--datum", D5, "--p-class", "7", "--dot"],
    ["kottwitz", "--datum", D5, "--p-class", "7", "--dot", "--json"],
    ["generate", "--datum", "4:4:1,2,2,3", "--p-class", "3", "--step", "self:2"],
    ["generate", "--datum", "7:3:1,1,5", "--p-class", "2",
     "--step", "self:2:auto", "--step", "pad:1:2", "--step", "extend:3"],
    ["generate", "--datum", "4:4:1,2,2,3", "--p-class", "3", "--payload", "ss^2",
     "--step", "self:2", "--step", "extend:1"],
    ["generate", "--datum", "5:3:1,1,3", "--p-class", "4",
     "--double-with", "5:3:4,2,4", "--n1", "2", "--n2", "2"],
    ["generate", "--datum", "3:3:1,1,1", "--p-class", "1",
     "--double-with", "3:4:1,1,2,2", "--double-payload", "ss^2", "--n2", "2"],
    ["generate", "--help"],
    # usage and domain errors
    ["signature"],
    ["muord", "--datum", D4, "--p", "9"],
    ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--step", "self:2:pad"],
    ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--step", "pad:2:1"],
]

# Too large to keep as text: 1638 elements and 8181 lines, pinned by digest.
BIG_DOT = ["kottwitz", "--datum", "21:7:1,1,1,1,1,1,15", "--p-class", "2", "--dot"]
BIG_DOT_SHA256 = "b8f0d73eb2469f8b0d3936b07e220bbfceeb50212f64c3c37798647c10f88ec9"

CASES = [q + extra for q in QUERIES for extra in ([], ["--json"])] + OTHERS


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def certificates(directory: Path) -> dict[str, str]:
    """Write a good certificate and one with a tampered polygon."""
    cert = json.loads(run(CERT_ARGV)["stdout"])
    paths = {"cert": directory / "cert.json", "tampered": directory / "tampered.json"}
    paths["cert"].write_text(json.dumps(cert, indent=2), encoding="utf-8")
    cert["polygon"][0]["mult"] += 1
    paths["tampered"].write_text(json.dumps(cert, indent=2), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def run_case(argv: list[str], files: dict[str, str]) -> dict:
    result = run([arg.format(**files) if arg.startswith("{") else arg for arg in argv])
    result["argv"] = argv
    return result


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    return certificates(tmp_path_factory.mktemp("certs"))


def test_golden_covers_every_case(golden):
    assert [entry["argv"] for entry in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(c) for c in CASES])
def test_cli_output_matches_golden(index, golden, files):
    assert run_case(CASES[index], files) == golden[index]


def test_large_dot_output_matches_digest():
    result = run(BIG_DOT)
    assert (result["code"], result["stderr"]) == (0, "")
    assert result["stdout"].count("\n") == 8181
    assert hashlib.sha256(result["stdout"].encode()).hexdigest() == BIG_DOT_SHA256


def readme_tour() -> list[tuple[str, str]]:
    """(command, expected stdout) for each `$ npcc ...` line in README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Command line tour", 1)[1].split("\n## ", 1)[0]
    pairs = []
    for block in re.findall(r"```\n(.*?)```", tour, flags=re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            pairs.append((command, output.rstrip("\n") + "\n" if output.strip() else ""))
    return pairs


def test_readme_command_line_tour(tmp_path):
    pairs = readme_tour()
    assert len(pairs) == 9
    for command, expected in pairs:
        words = shlex.split(command)
        tail = redirect = None
        if "|" in words:
            cut = words.index("|")
            assert words[cut + 1] == "tail", command
            tail = int(words[cut + 2].lstrip("-"))
            words = words[:cut]
        if ">" in words:
            cut = words.index(">")
            redirect = tmp_path / words[cut + 1]
            words = words[:cut]
        assert words[0] == "npcc"
        argv = [str(tmp_path / w) if w.endswith(".json") else w for w in words[1:]]
        result = run(argv)
        assert result["code"] == 0 and result["stderr"] == "", command
        out = result["stdout"]
        if tail is not None:
            out = "".join(out.splitlines(keepends=True)[-tail:])
        if redirect is not None:
            redirect.write_text(out, encoding="utf-8")
            out = ""
        assert out == expected, command


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        # The value's comment ends its line or stands on the next one.
        rest = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        rest = rest or lines[stmt.end_lineno].strip()
        assert rest.startswith("# "), source
        expected = rest[2:]
        assert repr(eval(source, namespace)) == expected, source
        checked.append(expected)
    assert len(checked) == 3


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        paths = certificates(Path(tmp))
        entries = [run_case(argv, paths) for argv in CASES]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} cases to {DATA}")
