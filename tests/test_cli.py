"""End-to-end tests for the command line interface.

Every test drives cli.main(argv) directly and inspects stdout, stderr,
and the exit status. Expected numbers repeat values that the library
tests already pin down, so these tests are about wiring and formatting.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import npcc
from npcc.cli import P_BOUND, _is_prime, main


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


def test_kottwitz_cap(capsys):
    code, _, err = run(
        capsys,
        ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7", "--cap", "3"],
    )
    assert code == 1
    assert "error:" in err


def test_enum_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NPCC_ENUM_CAP", "abc")
    code, _, err = run(
        capsys, ["kottwitz", "--datum", "8:5:2,2,2,5,5", "--p-class", "7"]
    )
    assert code == 1
    assert "NPCC_ENUM_CAP" in err


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
    ["--cap", "5"],
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
    assert (code, err) == (0, "")


def test_generate_replay_names_every_clashing_flag(capsys):
    argv = ["generate", "--replay", "cert.json", "--step", "pad:5:9", "--datum", "7:3:1,1,5"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: --replay takes none of --datum, --step\n"


def test_generate_double_payload_needs_double_with(capsys):
    argv = ["generate", "--datum", "7:3:1,1,5", "--p-class", "2", "--double-payload", "ss^3"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", "error: --double-payload needs --double-with\n")


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
    # one orbit of size 1192, and five joints
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
    # primitive root: every joint clutches a datum of three distinct
    # entries, so each costs O(m) whatever the chain's length.  The run
    # takes about 0.8 s on a 2-core host; an O(m N) joint takes about 30 s.
    argv = ["generate", "--datum", "1193:3:1,1,1191", "--p-class", "3",
            "--step", "self:340:auto"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 15.0
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ecad61fc999de1fe3fb170782955803bb19b61b97328e49252914596d7c924b3"
    )
