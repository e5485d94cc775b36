"""End-to-end tests for the command line interface.

Every test drives cli.main(argv) directly and inspects stdout, stderr,
and the exit status. Expected numbers repeat values that the library
tests already pin down, so these tests are about wiring and formatting.
"""

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import npcc
import npcc._memo as _memo
import npcc.reproduce as reproduce
from npcc import ORD, MonodromyDatum, base_case
from npcc.cli import _PRIME_BASES, _PSI, P_BOUND, _is_prime, main
from test_cli_golden import CASES, DATA, certificates, run_case


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["version"] == 1
    return doc


def test_signature_text(capsys):
    code, out, err = run(capsys, ["signature", "--datum", "8:4:4,2,5,5"])
    assert code == 0
    assert out.strip() == "1,1,0,0,2,0,1"


def test_signature_json(capsys):
    doc = run_json(capsys, ["signature", "--datum", "8:4:4,2,5,5", "--json"])
    assert doc["f"] == [1, 1, 0, 0, 2, 0, 1]
    assert doc["genus"] == 5
    assert doc["datum"]["m"] == 8


def test_genus(capsys):
    code, out, _ = run(capsys, ["genus", "--datum", "12:4:4,6,7,7"])
    assert code == 0
    assert out.strip() == "7"


def test_orbits_with_datum(capsys):
    code, out, _ = run(
        capsys, ["orbits", "--datum", "8:4:4,2,5,5", "--p-class", "7"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "{1,7}  size 2, order 8, self-dual, representative, g 2"
    assert lines[1] == "{2,6}  size 2, order 4, self-dual, representative, g 1"
    assert lines[3] == "{4}  size 1, order 2, self-dual, representative, g 0"


def test_orbits_json(capsys):
    doc = run_json(capsys, ["orbits", "--m", "5", "--p-class", "2", "--json"])
    assert doc["m"] == 5 and doc["p_class"] == 2
    assert len(doc["orbits"]) == 1
    row = doc["orbits"][0]
    assert row["members"] == [1, 2, 3, 4]
    assert row["size"] == 4 and row["self_dual"] and row["representative"]


def test_orbits_needs_modulus(capsys):
    code, _, err = run(capsys, ["orbits", "--p-class", "2"])
    assert code == 1
    assert "orbits needs --m or --datum" in err


def test_orbits_takes_one_of_modulus_and_datum(capsys):
    code, out, err = run(capsys, ["orbits", "--m", "7", "--datum", "5:3:1,1,3", "--p-class", "2"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --datum: not allowed with argument --m\n")


def test_muord_text(capsys):
    code, out, _ = run(
        capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p-class", "7"]
    )
    assert code == 0
    assert out.strip() == "ord^2+ss^3"


def test_muord_json(capsys):
    doc = run_json(
        capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p-class", "7", "--json"]
    )
    assert doc["polygon_text"] == "ord^2+ss^3"
    assert doc["p_rank"] == 2
    assert doc["genus"] == 5


def test_muord_accepts_actual_prime(capsys):
    code, out, _ = run(capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", "7"])
    assert code == 0
    assert out.strip() == "ord^2+ss^3"
    code, out, _ = run(capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", "23"])
    assert code == 0
    assert out.strip() == "ord^2+ss^3"


def test_residue_validation(capsys):
    code, _, err = run(capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", "9"])
    assert code == 1 and "p = 9 is not prime" in err
    code, _, err = run(capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", "2"])
    assert code == 1 and "p = 2 is not coprime to m = 8" in err
    code, _, err = run(
        capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p-class", "2"]
    )
    assert code == 1 and "p = 2 shares a factor with m = 8" in err


def _is_prime_by_trial_division(n):
    """The trial division the CLI used before; the oracle for _is_prime."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == _is_prime_by_trial_division(n) for n in range(-2, 200_000))


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        41041,  # Carmichael
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the prime bases 2..31
        318665857834031151167461,  # strong pseudoprime to the prime bases 2..37
        (2**61 - 1) * (2**19 - 1),
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


def test_is_prime_accepts_large_primes():
    for p in (2**31 - 1, 2**61 - 1, 2**64 - 59, 2**80 - 65):
        assert _is_prime(p)


def _strong_probable_prime(n, a):
    """Whether odd n > a passes the Miller-Rabin round of base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_on_all_bases(n):
    """Miller-Rabin on all 13 prime bases 2..41, whatever the size of n;
    the oracle for the bases _is_prime sizes to n."""
    if n < 2:
        return False
    if any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    return all(_strong_probable_prime(n, a) for a in _PRIME_BASES)


def test_each_psi_is_a_strong_pseudoprime_to_its_bases_and_refused(capsys):
    assert _PSI[-1] == P_BOUND == 1287836182261 * 2575672364521
    for k, psi in enumerate(_PSI, 1):
        assert psi % 2 and all(_strong_probable_prime(psi, a) for a in _PRIME_BASES[:k]), k
        if k < len(_PSI):
            assert not _is_prime(psi) and not _is_prime_on_all_bases(psi), k
    # The last fools all 13 bases, so --p refuses it by size.
    assert _is_prime_on_all_bases(P_BOUND)
    code, _, err = run(capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", str(P_BOUND)])
    assert code == 1 and "too large" in err


def _chernick(low, high, rng):
    """Some Carmichael numbers (6t+1)(12t+1)(18t+1) in [low, high), if any."""
    t_low, t_high = max(1, round((low / 1296) ** (1 / 3)) - 1), round((high / 1296) ** (1 / 3)) + 1
    found = set()
    for _ in range(2000):
        t = rng.randint(t_low, t_high)
        n = (6 * t + 1) * (12 * t + 1) * (18 * t + 1)
        if low <= n < high and all(_is_prime_on_all_bases(f * t + 1) for f in (6, 12, 18)):
            found.add(n)
    return sorted(found)


def test_is_prime_matches_the_full_base_test_in_every_band():
    rng = random.Random(20181105)
    floors = (3, *_PSI[:-1])
    primes = 0
    for k, (low, high) in enumerate(zip(floors, _PSI), 1):
        if low == high:
            continue
        odd = [rng.randrange(low | 1, high, 2) for _ in range(300)]
        edges = [low | 1, (low | 1) + 2, high - 2, high - 4]
        for n in odd + edges + _chernick(low, high, rng):
            expected = _is_prime_on_all_bases(n)
            assert _is_prime(n) == expected, (k, n)
            primes += expected
    assert primes > 100


def test_large_prime_is_answered_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", str(2**61 - 1)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert out.strip() == "ord^2+ss^3"


def test_p_above_bound_is_rejected(capsys):
    code, _, err = run(
        capsys, ["muord", "--datum", "8:4:4,2,5,5", "--p", str(P_BOUND)]
    )
    assert code == 1
    assert f"--p must be below {P_BOUND}" in err


def test_prank_bound(capsys):
    code, out, _ = run(
        capsys, ["prank-bound", "--datum", "6:4:1,3,4,4", "--p-class", "1"]
    )
    assert code == 0
    assert out.strip() == "3"


def test_kottwitz_text(capsys):
    code, out, _ = run(
        capsys, ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 elements, 3 distinct polygons"
    assert lines[1] == "codim 0: ord^4+ss^5  [1 element(s)]"
    assert lines[2] == "codim 1: ord^2+ss^7  [2 element(s)]"
    assert lines[3] == "codim 2: ss^9  [1 element(s)]"


def test_kottwitz_json(capsys):
    doc = run_json(
        capsys,
        ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7", "--json"],
    )
    assert doc["size"] == 4
    assert [row["polygon_text"] for row in doc["totals"]] == [
        "ord^4+ss^5",
        "ord^2+ss^7",
        "ss^9",
    ]
    assert [row["codim"] for row in doc["totals"]] == [0, 1, 2]


def test_kottwitz_dot(capsys):
    code, out, _ = run(
        capsys,
        ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7", "--dot"],
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "e3 -> e1" in out
    doc = run_json(
        capsys,
        ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7", "--dot", "--json"],
    )
    assert doc["dot"] + "\n" == out
    assert doc["size"] == 4 and doc["p_class"] == 7


def test_kottwitz_dot_is_refused_above_max_dot_elements(capsys):
    big = ["kottwitz", "--datum", "20:6:14,9,19,19,8,11", "--p-class", "1"]
    start = time.process_time()
    code, out, err = run(capsys, [*big, "--dot"])
    assert time.process_time() - start < 1  # refused before any DOT line is built
    assert (code, out) == (1, "")
    assert err == "error: a Hasse diagram of 960000 elements is above MAX_DOT_ELEMENTS = 10000\n"
    over = ["kottwitz", "--datum", "20:6:7,1,15,18,12,7", "--p-class", "19", "--dot"]
    code, out, err = run(capsys, over)
    assert (code, out) == (1, "") and "of 20736 elements" in err
    # A set of exactly MAX_DOT_ELEMENTS still draws, and the cap alone
    # bounds the report without --dot.
    at = ["kottwitz", "--datum", "13:6:7,9,11,3,12,10", "--p-class", "1", "--dot"]
    code, out, err = run(capsys, at)
    assert (code, err) == (0, "") and out.count("\n") == 65003
    assert run_json(capsys, [*big, "--json"])["size"] == 960000


def test_a_refused_dot_builds_no_index_rows(capsys):
    """The set of 960,000 elements is refused from its factors alone: the
    fold mapping each total to its element indices, about 60 MiB here,
    runs when strata are first read, which a refused --dot never does.
    The refusal peaks under 1 MiB."""
    big = ["kottwitz", "--datum", "20:6:14,9,19,19,8,11", "--p-class", "1", "--dot"]
    _memo.clear()  # so the factor search is counted too
    tracemalloc.start()
    try:
        code, out, err = run(capsys, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: a Hasse diagram of 960000 elements is above MAX_DOT_ELEMENTS = 10000\n"
    assert peak < 5 * 2**20


def test_kottwitz_cap(capsys):
    code, _, err = run(
        capsys,
        ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7", "--cap", "3"],
    )
    assert code == 1
    assert "error:" in err


def test_kottwitz_cap_counts_candidates(capsys):
    # The orbit of 1 at class 5 is self-dual, with 869 candidates among
    # 99,443 convex paths: the cap counts the candidates alone, so the
    # 3413-element set of 23:12 is within the default cap.
    argv = ["kottwitz", "--datum", "23:10:1,1,1,1,1,1,1,1,1,14", "--p-class", "5"]
    code, out, err = run(capsys, [*argv, "--cap", "869"])
    assert (code, err) == (0, "")
    assert out.startswith("869 elements, 869 distinct polygons\n")
    code, out, err = run(capsys, [*argv, "--cap", "868"])
    assert (code, out) == (1, "")
    members = ",".join(map(str, range(1, 23)))
    assert err == f"error: more than 868 candidates on orbit {{{members}}}; raise the cap\n"
    code, out, err = run(
        capsys, ["kottwitz", "--datum", "23:12:1,1,1,1,1,1,1,1,1,1,1,12", "--p-class", "5"]
    )
    assert (code, err) == (0, "")
    assert out.startswith("3413 elements, 3413 distinct polygons\n")


def test_kottwitz_and_generate_on_a_datum_of_genus_zero(capsys):
    # f(1) = 0: no factor has a slope, so the set is one element whose
    # total is the empty polygon.
    argv = ["--datum", "2:3:1,1,0", "--p-class", "1"]
    code, out, err = run(capsys, ["kottwitz", *argv])
    assert (code, err) == (0, "")
    assert out == "1 elements, 1 distinct polygons\ncodim 0: 0  [1 element(s)]\n"
    doc = run_json(capsys, ["kottwitz", *argv, "--json"])
    assert doc["size"] == 1
    assert doc["totals"] == [{"polygon_text": "0", "polygon": [], "codim": 0, "elements": 1}]
    doc = run_json(capsys, ["generate", *argv])
    assert doc["polygon"] == [] and doc["steps"][0]["op"] == "base_case"


def test_clutch_text(capsys):
    code, out, _ = run(
        capsys,
        [
            "clutch",
            "--datum1", "4:3:1,1,2",
            "--datum2", "8:4:4,2,5,5",
            "--p-class", "7",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "gamma3: 8:5:2,2,2,5,5" in lines
    assert "m3 8, d1 2, d2 1, r1 2, r2 4, r0 2" in lines
    assert "epsilon 2, g3 9" in lines
    assert "f3: 2,2,0,0,3,1,1" in lines
    assert "admissible: True" in lines
    assert "balanced: True" in lines
    assert "compatible: False" in lines
    assert "defects: {2,6}:2" in lines


def test_clutch_without_residue(capsys):
    code, out, _ = run(
        capsys, ["clutch", "--datum1", "4:3:1,1,2", "--datum2", "8:4:4,2,5,5"]
    )
    assert code == 0
    assert "admissible: True" in out
    assert "balanced" not in out and "p_class" not in out


def test_generate_chain(capsys):
    code, out, _ = run(
        capsys,
        [
            "generate",
            "--datum", "5:5:2,2,2,2,2",
            "--p-class", "4",
            "--step", "pad:5:3",
        ],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["version"] == 1
    assert cert["polygon_text"] == "ord^14+ss^12"
    assert cert["mu_ordinary_claim"] is True
    assert cert["payload_codim"] == 0
    assert cert["steps"][0]["clause"] == "catalog:M[16]"
    assert cert["steps"][1]["op"] == "pad_and_clutch"


def test_generate_replay_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "generate",
            "--datum", "5:5:2,2,2,2,2",
            "--p-class", "4",
            "--step", "pad:5:3",
        ],
    )
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, ["generate", "--replay", str(path)])
    assert code == 0
    assert "replayed: " in out
    assert "polygon: ord^14+ss^12" in out
    assert "verified: True" in out


def test_generate_replay_reads_a_certificate_from_stdin(capsys, monkeypatch, tmp_path):
    path = certificates(tmp_path)["cert"]
    code, from_file, err = run(capsys, ["generate", "--replay", path])
    assert (code, err) == (0, "") and len(from_file.splitlines()) == 3
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(path).read_text(encoding="utf-8")))
    assert run(capsys, ["generate", "--replay", "-"]) == (0, from_file, "")


def test_generate_replay_tampered(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"],
    )
    assert code == 0
    cert = json.loads(out)
    cert["polygon"] = [{"num": 1, "den": 2, "mult": 2}]
    cert["polygon_text"] = "ss"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, _, err = run(capsys, ["generate", "--replay", str(path)])
    assert code == 1
    assert "error:" in err


def test_generate_replay_refuses_deleted_assumptions(capsys, tmp_path):
    code, out, _ = run(capsys, ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"])
    assert code == 0
    cert = json.loads(out)
    cert["assumptions"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = run(capsys, ["generate", "--replay", str(path)])
    assert (code, out, err) == (1, "", "error: replay produced a different assumptions\n")


@pytest.mark.parametrize(
    "text",
    [
        '{"version":1,"steps":[{"op":"base_case"}]}',
        '{"version":1,"datum":{"m":7,"a":[1,1,5]},"polygon":[],"steps":[{"op":"base_case"}]}',
        "[1, 2]",
        "[" * 100_000,
    ],
)
def test_generate_replay_malformed(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["generate", "--replay", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_generate_replay_names_the_step_of_a_bad_datum(capsys, tmp_path):
    code, out, _ = run(capsys, ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"])
    assert code == 0
    cert = json.loads(out)
    cert["steps"][0]["datum"]["a"] = [1, 1, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = run(capsys, ["generate", "--replay", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: step 'base_case': entries (1, 1, 1) do not sum to 0 mod 7\n"


def test_generate_replay_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["generate", "--replay", str(tmp_path / "absent.json")])
    assert code == 1 and err.startswith("error: cannot read certificate")


REPLAY_CLASHES = [
    ["--datum", "7:3:1,1,5"],
    ["--payload", "ss^3"],
    ["--step", "pad:7:2"],
    ["--double-with", "7:3:1,1,5"],
    ["--double-payload", "ss^3"],
    ["--p", "2"],
    ["--p-class", "2"],
    ["--n1", "1"],
    ["--n2", "1"],
]


@pytest.mark.parametrize("extra", REPLAY_CLASHES, ids=lambda extra: extra[0])
def test_generate_replay_refuses_flags_that_build_a_family(capsys, tmp_path, extra):
    # each flag would be dropped without a word: the certificate is valid
    code, out, _ = run(capsys, ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"])
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, ["generate", "--replay", str(path), *extra])
    assert (code, out) == (1, "")
    assert err == f"error: --replay takes none of {extra[0]}\n"
    code, out, err = run(capsys, ["generate", "--replay", str(path), "--n1", "1", "--n2", "1"])
    assert (code, out, err) == (1, "", "error: --replay takes none of --n1, --n2\n")


def test_generate_replay_names_every_clashing_flag(capsys):
    argv = ["generate", "--replay", "cert.json", "--step", "pad:5:9", "--datum", "7:3:1,1,5"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: --replay takes none of --datum, --step\n"


def test_generate_double_payload_needs_double_with(capsys):
    argv = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--double-payload", "ss^3"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", "error: --double-payload needs --double-with\n")


@pytest.mark.parametrize("flag", ["--n1", "--n2"])
def test_generate_copy_counts_need_double_with(capsys, flag):
    argv = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", flag, "5"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {flag} needs --double-with\n")


def test_generate_copy_counts_stay_positive(capsys):
    argv = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--double-with", "7:3:6,2,6"]
    code, out, err = run(capsys, argv + ["--n1", "0"])
    assert (code, out, err) == (1, "", "error: n1 and n2 must be positive integers\n")
    # an absent count is one copy
    absent = run(capsys, argv)
    assert absent[0] == 0
    assert absent == run(capsys, argv + ["--n1", "1", "--n2", "1"])


def test_generate_needs_a_residue(capsys):
    code, out, err = run(capsys, ["generate", "--datum", "7:3:1,1,5"])
    assert (code, out, err) == (
        1, "", "error: a residue class is required: pass --p or --p-class\n"
    )


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_pipe_exits_1_without_a_traceback(buffered):
    # the pipe's read end is closed before the child starts, so its
    # first write fails whatever the timing; a buffered stdout writes
    # only when it is flushed
    src = str(Path(npcc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="" if buffered else "1")
    argv = ["signature", "--datum", "8:4:4,2,5,5"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from npcc.cli import entry; entry()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_generate_double(capsys):
    code, out, _ = run(
        capsys,
        [
            "generate",
            "--datum", "6:4:1,3,4,4",
            "--p-class", "5",
            "--double-with", "6:4:1,3,4,4",
            "--double-payload", "ss^3",
            "--n1", "1",
            "--n2", "1",
        ],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["polygon_text"] == "ord^4+ss^4"
    assert cert["mu_ordinary_claim"] is False
    assert cert["payload_codim"] == 1
    assert cert["steps"][-1]["op"] == "double_induction"
    assert cert["steps"][-1]["balanced"] is True


def test_generate_refuses_steps_over_the_branch_point_bound(capsys, tmp_path):
    base = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"]
    start = time.perf_counter()
    code, out, err = run(capsys, base + ["--step", "self:2000:auto"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: step 'self_clutch' would give 6002 branch points,"
        " more than MAX_BRANCH_POINTS = 1024\n"
    )
    code, out, err = run(capsys, base + ["--double-with", "7:3:6,2,6", "--n1", "1000"])
    assert (code, out) == (1, "")
    assert "'double_induction' would give 3003 branch points" in err
    code, out, _ = run(capsys, base + ["--step", "self:2:auto"])
    cert = json.loads(out)
    cert["steps"][-1]["n"] = 100_000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["generate", "--replay", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: step 'self_clutch' would give 300002 branch points,"
        " more than MAX_BRANCH_POINTS = 1024\n"
    )


def test_generate_usage_errors(capsys):
    code, _, err = run(capsys, ["generate", "--p-class", "2"])
    assert code == 1 and "generate needs --datum" in err
    code, _, err = run(
        capsys,
        ["generate", "--datum", "4:3:1,1,2", "--p-class", "3", "--step", "bogus:1"],
    )
    assert code == 1 and "unknown step" in err


def test_codim_ag(capsys):
    code, out, _ = run(capsys, ["codim-ag", "--polygon", "ss^7+ord^2"])
    assert code == 0
    assert out.strip() == "16"


def test_codim_ag_of_a_huge_genus_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["codim-ag", "--polygon", "ss^1000000000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "250000000500000000\n")


def test_balance_check_at_the_modulus_bound_is_quick(capsys):
    # one orbit of size 1192, and three joints
    argv = ["generate", "--datum", "1193:3:1,1,1191", "--p-class", "3", "--step", "pad:1193:6"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.5
    assert code == 0, err
    step = json.loads(out)["steps"][-1]
    assert (step["op"], step["n"], step["balanced"]) == ("pad_and_clutch", 6, True)


def test_condition_u_holds(capsys):
    code, out, _ = run(capsys, ["condition-u", "--polygon", "ss^34+ord^66"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "holds=true"
    assert "genus=100" in lines
    assert "dim_mg=297" in lines
    assert "codim_ag=306" in lines


def test_condition_u_fails(capsys):
    doc = run_json(capsys, ["condition-u", "--polygon", "ss^7+ord^2", "--json"])
    assert doc["holds"] is False
    assert doc["genus"] == 9
    assert doc["dim_mg"] == 24
    assert doc["codim_ag"] == 16


def test_moonen_listing(capsys):
    code, out, _ = run(capsys, ["moonen"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 20
    assert lines[0].startswith("M[1]")
    assert "m=2" in lines[0] and "a=1,1,1,1" in lines[0] and "genus 1" in lines[0]


def test_moonen_family_detail(capsys):
    code, out, _ = run(capsys, ["moonen", "--family", "M[17]"])
    assert code == 0
    assert out.splitlines()[0] == "M[17]: m=7 a=2,4,4,4 genus 6"
    assert "f: 1,2,0,2,0,1" in out
    assert "classes 3,5,6 mod 7: ss^6*" in out


def test_moonen_family_at_class(capsys):
    code, out, _ = run(capsys, ["moonen", "--family", "17", "--p-class", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(1/3,2/3)^2"
    assert lines[1] == "class 3 mod 7: (1/3,2/3)^2; ss^6*"


def test_moonen_family_number_may_have_leading_zeros(capsys):
    assert run(capsys, ["moonen", "--family", "01"]) == run(capsys, ["moonen", "--family", "1"])


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--family", "3"], "--family"),
        (["--p-class", "5"], "--p-class"),
        (["--p", "7", "--family", "M[3]", "--json"], "--family, --p"),
    ],
)
def test_moonen_verify_all_refuses_the_flags_it_would_drop(capsys, extra, named):
    # Each would verify all twenty families with the flag dropped.
    code, out, err = run(capsys, ["moonen", "--verify-all", *extra])
    assert (code, out, err) == (1, "", f"error: --verify-all takes none of {named}\n")


@pytest.mark.parametrize("flag", ["--p", "--p-class"])
def test_moonen_residue_needs_family(capsys, flag):
    # Each would list the table with the flag dropped.
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["moonen", flag, "5", *extra])
        assert (code, out, err) == (1, "", f"error: {flag} needs --family\n")


@pytest.mark.parametrize(
    "family, message",
    [
        ("\u00b2", "unknown family \u00b2"),  # a digit that is not a decimal
        ("9" * 5000, "unknown family: 5000-digit number"),  # past int()'s digit limit
    ],
    ids=["superscript-two", "5000-digits"],
)
def test_moonen_family_that_names_none_is_one_error_line(capsys, family, message):
    code, out, err = run(capsys, ["moonen", "--family", family])
    assert (code, out, err) == (1, "", f"error: {message}\n")


LONG = "9" * 5000  # past int()'s digit limit


@pytest.mark.parametrize(
    "argv",
    [
        ["codim-ag", "--polygon", f"ss^{LONG}"],
        ["condition-u", "--polygon", f"({LONG}/7,1/7)"],
        ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--payload", f"(1/{LONG},6/7)"],
        [
            "generate", "--datum", "7:3:1,1,5", "--p-class", "2",
            "--double-with", "7:3:1,1,5", "--double-payload", f"ss^{LONG}",
        ],
    ],
    ids=["codim-ag", "condition-u", "payload", "double-payload"],
)
def test_polygon_with_an_over_long_number_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", "error: number too long: 5000 digits\n")


HUGE = "9" * 4000  # parses, but codim_ag has more digits than str() prints


@pytest.mark.parametrize(
    "argv",
    [
        ["codim-ag", "--polygon", f"ss^{HUGE}"],
        ["codim-ag", "--polygon", f"ss^{HUGE}", "--json"],
        ["condition-u", "--polygon", f"ss^{HUGE}"],
        ["condition-u", "--polygon", f"ss^{HUGE}", "--json"],
    ],
    ids=["codim-ag", "codim-ag-json", "condition-u", "condition-u-json"],
)
def test_a_result_past_the_int_digit_limit_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (1, "", f"error: a result has more than {limit} digits\n")


_GEN = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"]
_BRANCH = "branch points, more than MAX_BRANCH_POINTS = 1024"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbits", "--m", HUGE, "--p-class", "2"],
         "m = <4000 digits> is above MAX_MODULUS = 1200"),
        (["muord", "--datum", "7:3:1,1,5", "--p", HUGE],
         f"p = <4000 digits> is too large: --p must be below {P_BOUND}, where primality"
         " is decided exactly; pass --p-class instead"),
        (["kottwitz", "--datum", "7:3:1,1,5", "--p-class", "2", "--cap", "-" + HUGE],
         "the cap must be at least 1, not -<4000 digits>"),
        (_GEN + ["--step", f"pad:3:{HUGE}"],
         f"step 'pad_and_clutch' would give <4001 digits> {_BRANCH}"),
        (_GEN + ["--step", f"self:{HUGE}:auto"],
         f"step 'self_clutch' would give <4001 digits> {_BRANCH}"),
        (_GEN + ["--step", f"frob:{HUGE}"],
         "unknown step 'frob:<4000 digits>'; use pad:T:N, self:N[:auto], or extend:C"),
        (_GEN + ["--double-with", "3:3:1,1,1", "--n1", HUGE],
         f"step 'double_induction' would give <4001 digits> {_BRANCH}"),
        (_GEN + ["--payload", f"ss^{HUGE}"],
         "ss^<4000 digits> does not occur in the Kottwitz set of 7:3:1,1,5 at class 2"),
    ],
    ids=["orbits-m", "muord-p", "kottwitz-cap", "pad", "self", "unknown-step", "n1", "payload"],
)
def test_an_error_line_gives_a_long_number_as_its_digit_count(capsys, argv, message):
    _one_error_line_quickly(capsys, argv, message)


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["orbits", "--m", "9" * 5000, "--p-class", "2"], 2,
         "npcc orbits: error: argument --m: invalid int value: '<5000 digits>'"),
        (["kottwitz", "--datum", "7:3:1,1,5", "--p-class", "2", "--cap", "x" * 3000], 2,
         "npcc kottwitz: error: argument --cap: invalid int value: '<3000 characters>'"),
        (_GEN + ["--n1", "9" * 4400], 2,
         "npcc generate: error: argument --n1: invalid int value: '<4400 digits>'"),
        (["codim-ag", "--polygon", "x" * 3000], 1, "error: cannot parse term '<3000 characters>'"),
    ],
    ids=["orbits-m", "kottwitz-cap", "generate-n1", "codim-ag"],
)
def test_an_over_long_value_is_given_as_its_length(capsys, argv, code, line):
    # Usage errors (exit 2) shorten values as error: lines (exit 1) do.
    got, out, err = run(capsys, argv)
    assert (got, out, err.splitlines()[-1]) == (code, "", line)
    assert all(len(text) < 200 for text in err.splitlines())


@pytest.mark.parametrize(
    "argv, code, tail",
    [
        (["foo"], 2, "'condition-u', 'moonen', 'clutch-demo')"),
        (["genus", "--datum", "3:3:1,1,1"] + ["a"] * 500, 2, " a a"),
        (["orbits", "--m", "5", "--p-class", "2", "--bogus"] + [f"--x{i}" for i in range(100)],
         2, " --x98 --x99"),
        (["genus", "--datum", "3:1001:" + ",".join(["1"] * 1001)], 1,
         "error: entries (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,"
         " 1, 1, 1, 1, 1, 1, 1<2893 characters> 1, 1, 1, 1, 1, 1) do not sum to 0 mod 3"),
        (["generate", "--datum", "6:600:" + ",".join(["2", "4"] * 300), "--p-class", "1"], 1,
         "error: datum (2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4,"
         " 2, 4, 2, 4, 2, 4, 2, <1687 characters>, 2, 4, 2, 4, 2, 4) mod 6 is imprimitive"),
    ],
    ids=["unknown-command", "many-arguments", "many-options", "long-entries", "long-datum"],
)
def test_an_over_long_line_keeps_its_ends(capsys, argv, code, tail):
    # A line long without any long word keeps its first 100 and last 40
    # characters of the message, with the length of the cut between them.
    got, out, err = run(capsys, argv)
    last = err.splitlines()[-1]
    assert (got, out, last.endswith(tail)) == (code, "", True), last
    assert " characters>" in last
    assert all(len(text) < 200 for text in err.splitlines())


def test_generate_replay_refuses_an_over_long_json_integer(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"version": 1, "p_class": ' + LONG + "}", encoding="utf-8")
    code, out, err = run(capsys, ["generate", "--replay", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: certificate is not valid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_moonen_verify_all(capsys):
    code, out, _ = run(capsys, ["moonen", "--verify-all"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all ok"
    assert len(lines) == 21
    assert all(line.endswith("ok") for line in lines[:-1])


def test_clutch_demo(capsys):
    code, out, _ = run(capsys, ["clutch-demo"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "join 4:3:1,1,2 with 8:4:4,2,5,5 at class 7"
    assert lines[-1] == "ok=true"
    assert all(line.startswith("[ok]") for line in lines[1:-1])


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_missing_required_argument(capsys):
    code, _, _ = run(capsys, ["signature"])
    assert code == 2


def test_bad_datum_text(capsys):
    code, _, err = run(capsys, ["genus", "--datum", "nonsense"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["signature", "--datum", "0:3:1,1,1"],
        ["clutch", "--datum1", "4:3:1,1,2", "--datum2", "0:3:1,1,1"],
        ["orbits", "--m", "0", "--p-class", "1"],
    ],
)
def test_zero_modulus_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: m = ") and err.count("\n") == 1


@pytest.mark.parametrize("m", [0, 1, -5])
@pytest.mark.parametrize("residue", [["--p", "3"], ["--p-class", "1"]], ids=["p", "p-class"])
def test_orbits_refuses_a_modulus_below_two(capsys, m, residue):
    assert run(capsys, ["orbits", "--m", str(m), *residue]) == (1, "", f"error: m = {m} < 2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["muord", "--datum", "4:3:1,1,1", "--p", "2"],
        ["clutch", "--datum1", "4:3:1,1,1", "--datum2", "4:3:3,1,0", "--p", "2"],
        ["generate", "--datum", "4:3:1,1,1", "--p", "2"],
        ["kottwitz", "--datum", "4:3:1,1,1", "--p", "2"],
        ["prank-bound", "--datum", "4:3:1,1,1", "--p", "2"],
    ],
)
def test_a_bad_datum_is_named_before_a_bad_prime(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: entries (1, 1, 1) do not sum to 0 mod 4\n"


def _one_error_line_quickly(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_generate_cap_bounds_the_base_case(capsys):
    argv = ["generate", "--datum", "20:6:14,9,19,19,8,11", "--p-class", "1", "--cap", "60",
            "--step", "pad:1:3"]
    _one_error_line_quickly(
        capsys, argv,
        "Kottwitz set would have more than 60 elements: the first 3 of 10 factors have"
        " sizes 4 x 4 x 5 = 80; raise the cap",
    )


def _certificate_file(capsys, tmp_path, argv):
    code, out, err = run(capsys, ["generate", *argv])
    assert (code, err) == (0, "")
    assert json.loads(out)["steps"][0]["clause"] == "unique-max-p-rank:large-p"
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_replay_bounds_its_base_step_by_the_cap(capsys, tmp_path):
    # The base clause reads the Kottwitz set, of 6 elements here.
    path = _certificate_file(capsys, tmp_path, ["--datum", "8:5:2,2,2,5,5", "--p-class", "3"])
    code, out, err = run(capsys, ["generate", "--replay", path])
    assert (code, err) == (0, "") and out.endswith("verified: True\n")
    code, out, err = run(capsys, ["generate", "--replay", path, "--cap", "1"])
    assert (code, out) == (1, "")
    assert err == "error: more than 1 candidates on orbit {1,3}; raise the cap\n"


def test_a_certificate_built_above_the_default_cap_replays_with_its_cap(capsys, tmp_path):
    argv = ["--datum", "21:7:9,4,16,15,16,13,11", "--p-class", "8", "--cap", "3000000"]
    path = _certificate_file(capsys, tmp_path, argv)
    code, out, err = run(capsys, ["generate", "--replay", path, "--cap", "3000000"])
    assert (code, err) == (0, "")
    assert out == (
        "replayed: 21:7:9,4,16,15,16,13,11 at class 8\npolygon: ord^43+ss^5\nverified: True\n"
    )
    code, out, err = run(capsys, ["generate", "--replay", path])
    assert (code, out) == (1, "")
    assert err.startswith("error: Kottwitz set would have more than 1000000 elements")
    assert err.endswith(" = 2457600; raise the cap\n")


@pytest.mark.parametrize("extra", [[], ["--payload", "ord^6"]])
def test_generate_refuses_imprimitive_data(capsys, extra):
    argv = ["generate", "--datum", "18:3:6,10,2", "--p-class", "5", *extra]
    _one_error_line_quickly(capsys, argv, "datum (6, 10, 2) mod 18 is imprimitive")


@pytest.mark.parametrize(
    "argv, m",
    [
        (["signature", "--datum", "1000000:3:1,1,999998"], "m = 1000000"),
        (["clutch", "--datum1", "199:3:1,198,0", "--datum2", "211:3:0,1,210", "--p-class", "3"],
         "m3 = 41989"),
        (["orbits", "--m", "1000000000", "--p-class", "3"], "m = 1000000000"),
    ],
)
def test_modulus_above_the_bound_is_one_error_line(capsys, argv, m):
    _one_error_line_quickly(capsys, argv, f"{m} is above MAX_MODULUS = 1200")


def test_clutch_of_imprimitive_data_is_one_error_line(capsys):
    argv = ["clutch", "--datum1", "6:3:2,2,2", "--datum2", "6:3:4,4,4", "--p-class", "5"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: datum (2, 2, 2) mod 6 is imprimitive\n"


def test_long_chain_at_the_modulus_bound_is_pinned_and_quick(capsys):
    # 340 copies (1022 branch points) at m = 1193, where class 3 is a
    # primitive root, folded in halves through 11 joints: every joint
    # clutches a datum of three distinct entries, so each costs O(m)
    # whatever the chain's length.  The run takes about 0.02 s on a 2-core
    # host; with a signature summed over all N entries, O(m N) per joint,
    # it took about 0.4 s.
    argv = ["generate", "--datum", "1193:3:1,1,1191", "--p-class", "3",
            "--step", "self:340:auto"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 15.0
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ecad61fc999de1fe3fb170782955803bb19b61b97328e49252914596d7c924b3"
    )


def test_parser_is_built_once_per_process(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    main(["signature"])  # a usage error needs argparse; a plain argv builds no parser
    files = certificates(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in CASES:
        run_case(argv, files)
    assert built == []
    # the count is live: building a parser afresh is seen
    npcc.cli._build_parser.__wrapped__()
    assert "npcc" in built


def test_golden_cases_in_reverse_order_give_the_golden_output(monkeypatch, tmp_path):
    # One parser serves every call, so no call may leave state behind
    # for the next; running the cases backwards changes what precedes each.
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    files = certificates(tmp_path)
    assert [run_case(argv, files) for argv in reversed(CASES)] == golden[::-1]


def test_steps_of_one_call_do_not_reach_the_next(capsys):
    argv = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"]
    code, out, _ = run(capsys, argv + ["--step", "pad:1:2"])
    assert code == 0 and len(json.loads(out)["steps"]) == 2
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == base_case(MonodromyDatum(7, (1, 1, 5)), 2).certificate()


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["kottwitz", "--datum", "7:3:1,1,5", "--p-class", "2"],
        # a three-point base case, which reads no Kottwitz set
        ["generate", "--datum", "7:3:1,1,5", "--p-class", "2"],
        ["generate", "--datum", "8:5:2,2,2,5,5", "--p-class", "7", "--payload", "ss^9"],
    ],
)
def test_cap_below_one_is_refused(capsys, argv, cap):
    code, out, err = run(capsys, argv + ["--cap", cap])
    assert code == 1 and out == ""
    assert err == f"error: the cap must be at least 1, not {cap}\n"


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["signature", "--datum", "1_1:3:1,1,9"], 1, "error: bad datum text '1_1:3:1,1,9'"),
        (["signature", "--datum", " 5 : 3 : +1, 1,٣"], 1,
         "error: bad datum text ' 5 : 3 : +1, 1,٣'"),
        (["orbits", "--m", "1_5", "--p-class", "2"], 2,
         "npcc orbits: error: argument --m: invalid int value: '1_5'"),
        (["orbits", "--m", "١٥", "--p-class", "2"], 2,
         "npcc orbits: error: argument --m: invalid int value: '١٥'"),
        (["muord", "--datum", "5:3:1,1,3", "--p", " 2"], 2,
         "npcc muord: error: argument --p: invalid int value: ' 2'"),
        (["kottwitz", "--datum", "7:3:1,1,5", "--p-class", "2", "--cap", "+9"], 2,
         "npcc kottwitz: error: argument --cap: invalid int value: '+9'"),
        (["codim-ag", "--polygon", "ss^١"], 1, "error: cannot parse term 'ss^١'"),
        (["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--step", "pad:1_1:2"], 1,
         "error: unknown step 'pad:1_1:2'; use pad:T:N, self:N[:auto], or extend:C"),
        (["moonen", "--family", "١٧"], 1, "error: unknown family ١٧"),
    ],
    ids=["underscore", "spaces-sign-arabic", "m-underscore", "m-arabic", "p-space",
         "cap-plus", "polygon-digit", "step-underscore", "family-arabic"],
)
def test_numbers_are_an_optional_minus_and_ascii_digits(capsys, argv, code, line):
    # int() would read each of these, and the call would run on the number.
    got, out, err = run(capsys, argv)
    assert (got, out, err.splitlines()[-1]) == (code, "", line)
    assert sum("error:" in text for text in err.splitlines()) == 1


def test_codim_ag_refuses_a_pair_out_of_order(capsys):
    _one_error_line_quickly(
        capsys, ["codim-ag", "--polygon", "(2/3,1/3)"],
        "pair slopes out of order in '(2/3,1/3)'",
    )


def test_a_failed_clutch_demo_check_is_shown_and_exits_1(capsys, monkeypatch):
    # one ord too many in every mu-ordinary polygon the example recomputes
    _memo.clear()  # no answer kept by an earlier test stands in for the faulty one
    real = reproduce.mu_ordinary
    monkeypatch.setattr(reproduce, "mu_ordinary", lambda datum, p: real(datum, p) + ORD)
    code, out, err = run(capsys, ["clutch-demo"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] u1: got ord+ss, expected ss",
        "[FAIL] u2: got ord^3+ss^3, expected ord^2+ss^3",
        "[FAIL] u3: got ord^5+ss^5, expected ord^4+ss^5",
    ]
    assert lines[-1] == "ok=false"
    code, out, _ = run(capsys, ["clutch-demo", "--json"])
    assert code == 1 and json.loads(out)["ok"] is False
