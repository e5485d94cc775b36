"""Seeded random argv through every `npcc` subcommand.

Each call must exit 0, 1 or 2, raise nothing, print no traceback and
finish within a time bound.  The draws mix well-formed input with
malformed, zero and negative data, random polygon text, actual primes
and arbitrary integers for ``--p``, residue classes, every ``--step``
form and small caps.  The modulus stays at most 40 and the polygon
exponents small: work still grows with m (a per-residue loop over
every class mod m) and with a polygon's genus, so huge values would
test those open costs rather than the CLI's error handling.  A second
draw takes moduli above MAX_MODULUS, up to 10^12, through every
subcommand that reads a datum: each must be refused at once.  A third
draws numbers of 20 to 4000 digits for every other number the CLI
reads (polygon exponents, numerators and denominators, --p, --p-class,
--cap, --m, --n1, --n2, --step ints, and the ints of a replayed
certificate), on paths that are closed-form or refused: each call must
exit 0 or 1 and keep every stderr line short.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time

import pytest

from npcc.cli import main

SEED = 20181102
CALLS = 300
SECONDS_PER_CALL = 5.0

# Data with a base clause at the given class, so that chains can start.
BASES = (("5:5:2,2,2,2,2", 4), ("7:3:1,1,5", 2), ("4:4:1,2,2,3", 3), ("5:3:1,1,3", 4),
         ("3:3:1,1,1", 1), ("3:4:1,1,2,2", 1))

SUBCOMMANDS = (
    "signature", "genus", "orbits", "muord", "prank-bound", "kottwitz", "clutch",
    "generate", "codim-ag", "condition-u", "moonen", "clutch-demo",
)


def _int(rng: random.Random, low: int = -3, high: int = 40) -> str:
    return str(rng.randint(low, high))


def _entries(rng: random.Random, m: int, first: tuple[int, ...] = ()) -> list[int]:
    """Nonzero entries mod m, starting with `first`, summing to 0 mod m."""
    while True:
        a = [*first] + [rng.randint(1, m - 1) for _ in range(rng.randint(2, 5))]
        last = -sum(a) % m
        if last:
            return a + [last]


def _text(m: int, a: list[int]) -> str:
    return f"{m}:{len(a)}:{','.join(map(str, a))}"


def _datum(rng: random.Random, m: int | None = None, first: tuple[int, ...] = ()):
    """Datum text and its m: mostly a valid datum, else off by a little or malformed."""
    m = m or rng.randint(2, 40)
    a = _entries(rng, m, first)
    text = _text(m, a)
    if rng.random() < 0.7:
        return text, m
    m = rng.choice([m, 0, 1, -rng.randint(1, 5)])
    return rng.choice([
        _text(m, a), f"{m}:3:0,0,0", f"{m}:2:1,{m - 1}", _text(m, a[:-1]),
        f"{m}:{len(a) + 1}:{','.join(map(str, a))}", f"{m}:4:-1,-1,2,{2 * m}",
        text.replace(":", "", 1), text + ":", text.replace(",", ",,", 1),
        "x" + text, "", ":", "8:3:1,a,7", f"{m}:3", " " + text + " ",
    ]), m


def _polygon(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.8:
            base = rng.choice(["ord", "ss", "(1/3,2/3)", "(1/4,3/4)", "(2/5,3/5)"])
            if rng.random() < 0.5:
                base += "^" + _int(rng, 1, 12)
        else:
            base = rng.choice(
                ["(2/4,2/4)", "(1/0,1/1)", "(3/2,1/2)", "foo", "", "0", "ss^", "ss^0",
                 "ord^-2", "ord^x"]
            )
        terms.append(base)
    return "+".join(terms)


def _residue(rng: random.Random, m: int) -> list[str]:
    """--p or --p-class: coprime to m more often than not, or anything."""
    kind = rng.random()
    units = [c for c in range(1, max(m, 2)) if math.gcd(c, m) == 1]
    if kind < 0.4:
        return ["--p-class", str(rng.choice(units) + m * rng.randint(-1, 1))]
    if kind < 0.7:
        primes = [q for q in range(2, 200) if all(q % d for d in range(2, q))]
        return ["--p", str(rng.choice([q for q in primes if m % q] or [2]))]
    if kind < 0.95:
        return [rng.choice(["--p", "--p-class"]), _int(rng, -5, 60)]
    return []


def _step(rng: random.Random, m: int) -> str:
    """A --step: mostly well formed with small counts, else malformed."""
    n = rng.randint(1, 3)
    if rng.random() < 0.75:
        return rng.choice([f"pad:1:{n}", f"pad:{m}:{n}", f"self:{n}:auto", f"extend:{n}"])
    small = _int(rng, -1, 4)
    return rng.choice([
        f"pad:{small}:{n}", f"self:{small}", f"self:{small}:pad", f"extend:{small}",
        "pad:1", "bogus:1", "extend:x", "",
    ])


def _cap(rng: random.Random) -> list[str]:
    return ["--cap", _int(rng, -1, 60)]


def _argv(rng: random.Random, command: str) -> list[str]:
    argv = [command]
    datum, m = _datum(rng)
    if command in ("signature", "genus"):
        argv += ["--datum", datum]
    elif command == "orbits":
        if rng.random() < 0.5:
            argv += ["--datum", datum]
        else:
            m = rng.choice([m, m, 0, 1, -m])
            argv += ["--m", str(m)]
        argv += _residue(rng, m)
    elif command in ("muord", "prank-bound"):
        argv += ["--datum", datum] + _residue(rng, m)
    elif command == "kottwitz":
        argv += ["--datum", datum] + _residue(rng, m) + _cap(rng)
        if rng.random() < 0.3:
            argv.append("--dot")
    elif command == "clutch":
        if rng.random() < 0.7:
            # a valid pair: the second datum cancels the first's last entry
            a = _entries(rng, m := rng.randint(2, 20))
            datum, m2 = _text(m, a), m * rng.randint(1, 2)
            other, m2 = _datum(rng, m2, (-(m2 // m) * a[-1] % m2,))
        else:
            other, m2 = _datum(rng)
        argv += ["--datum1", datum, "--datum2", other]
        argv += _residue(rng, math.lcm(m, m2)) if rng.random() < 0.7 else []
    elif command == "generate":
        if rng.random() < 0.6:
            datum, c = rng.choice(BASES)
            m, residue = int(datum.split(":")[0]), ["--p-class", str(c)]
        else:
            residue = _residue(rng, m)
        argv += ["--datum", datum] + residue + _cap(rng)
        if rng.random() < 0.3:
            argv += ["--payload", _polygon(rng)]
        for _ in range(rng.randint(0, 2)):
            argv += ["--step", _step(rng, m)]
        if rng.random() < 0.2:
            argv += ["--double-with", _datum(rng)[0], "--n1", _int(rng, -1, 3),
                     "--n2", _int(rng, -1, 3)]
    elif command in ("codim-ag", "condition-u"):
        argv += ["--polygon", _polygon(rng)]
    elif command == "moonen":
        kind = rng.random()
        if kind < 0.05:
            argv.append("--verify-all")
        elif kind < 0.8:
            argv += ["--family", rng.choice([_int(rng, -1, 22), "M[3]", "M[21]", "x"])]
            if rng.random() < 0.6:
                argv += _residue(rng, 7)
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.03:
        argv.append(rng.choice(["--bogus", "--help"]))
    return argv


def _cases() -> list[list[str]]:
    rng = random.Random(SEED)
    return [_argv(rng, SUBCOMMANDS[i % len(SUBCOMMANDS)]) for i in range(CALLS)]


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _call(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def test_random_argv_exit_cleanly():
    seen = set()
    for argv in _cases():
        code, out, err, seconds = _call(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        assert seconds < SECONDS_PER_CALL, argv
        if code == 1:
            assert err.startswith("error: ") or "verified: False" in out, argv
        seen.add((argv[0], code))
    # every subcommand succeeds at least once, and all three codes occur
    assert {command for command, code in seen if code == 0} == set(SUBCOMMANDS)
    assert {code for _, code in seen} == {0, 1, 2}


BIG_CALLS = 60
BIG_KINDS = (
    "signature", "genus", "muord", "prank-bound", "kottwitz", "orbits --m", "orbits --datum",
    "clutch", "clutch glued", "generate --datum", "generate --double-with", "generate --replay",
)


def _big_m(rng: random.Random) -> int:
    """A modulus drawn log-uniformly from just above MAX_MODULUS = 1200 to 10^12."""
    return round(math.exp(rng.uniform(math.log(1201), math.log(10**12))))


def _big_argv(rng: random.Random, kind: str, certificate: dict, tmp_path) -> list[str]:
    m = _big_m(rng)
    datum = _text(m, _entries(rng, m))
    residue = rng.choice([["--p-class", str(rng.randrange(1, 100, 2))], ["--p", "3"]])
    command, _, option = kind.partition(" ")
    if command in ("signature", "genus"):
        argv = ["--datum", datum]
    elif kind == "orbits --m":
        argv = ["--m", str(m)] + residue
    elif command in ("muord", "prank-bound", "kottwitz", "orbits"):
        argv = ["--datum", datum] + residue
    elif kind == "clutch":
        small = rng.choice(BASES)[0]
        pair = [small, datum] if rng.random() < 0.5 else [datum, small]
        argv = ["--datum1", pair[0], "--datum2", pair[1]] + residue
    elif kind == "clutch glued":
        # each modulus is under the bound, their lcm is above it
        primes = [q for q in range(37, 1200) if all(q % d for d in range(2, q))]
        m1, m2 = rng.sample(primes, 2)
        argv = ["--datum1", f"{m1}:3:1,{m1 - 1},0", "--datum2", f"{m2}:3:0,1,{m2 - 1}"]
        argv += ["--p-class", "1"] if rng.random() < 0.5 else []
    elif option == "--datum":
        argv = ["--datum", datum] + residue + ["--step", "pad:1:2"]
    elif option == "--double-with":
        base, c = rng.choice(BASES)
        argv = ["--datum", base, "--p-class", str(c), "--double-with", datum]
    else:
        doc = json.loads(json.dumps(certificate))
        doc["datum"]["m"] = doc["steps"][0]["datum"]["m"] = m
        path = tmp_path / f"certificate-{m}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--replay", str(path)]
    return [command] + argv + (["--json"] if rng.random() < 0.5 else [])


def test_moduli_above_the_bound_are_refused_at_once(tmp_path):
    code, out, _, _ = _call(["generate", "--datum", "7:3:1,1,5", "--p-class", "2"])
    assert code == 0
    certificate = json.loads(out)
    rng = random.Random(SEED + 1)
    for i in range(BIG_CALLS):
        argv = _big_argv(rng, BIG_KINDS[i % len(BIG_KINDS)], certificate, tmp_path)
        code, out, err, seconds = _call(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "is above MAX_MODULUS = 1200" in err, (argv, err)
        assert seconds < 1.0, argv


HUGE_DRAWS = 3
HUGE_REPLAYS = 40
GEN = "generate --datum 7:3:1,1,5 --p-class 2"
RESIDUE_READERS = (
    "orbits --m 7", "orbits --datum 7:3:1,1,5", "muord --datum 7:3:1,1,5",
    "prank-bound --datum 7:3:1,1,5", "kottwitz --datum 7:3:1,1,5",
    "clutch --datum1 7:3:1,1,5 --datum2 7:3:2,6,6", "generate --datum 7:3:1,1,5",
    "moonen --family 3",
)
# Each reads the drawn number n in one place: {n} is n, {signed} is n or
# -n, and {poly} a polygon with n as an exponent, numerator or denominator.
HUGE_TEMPLATES = (
    "codim-ag --polygon {poly}", "condition-u --polygon {poly}", GEN + " --payload {poly}",
    GEN + " --double-with 7:3:1,1,5 --double-payload {poly}",
    *(f"{reader} {flag} {{n}}" for reader in RESIDUE_READERS for flag in ("--p", "--p-class")),
    "kottwitz --datum 7:3:1,1,5 --p-class 2 --cap {signed}", GEN + " --cap {signed}",
    "orbits --m {n} --p-class 1",
    GEN + " --double-with 7:3:1,1,5 --n1 {n}", GEN + " --double-with 7:3:1,1,5 --n2 {n}",
    GEN + " --step pad:{n}:2", GEN + " --step pad:1:{n}", GEN + " --step self:{n}",
    GEN + " --step self:{n}:auto", GEN + " --step extend:{n}",
)
# A certificate with a step of every op, a payload and a nested "other".
CERTIFIED = ["generate", "--datum", "3:3:1,1,1", "--p-class", "1", "--step", "pad:3:2",
             "--step", "self:2:auto", "--step", "extend:1", "--double-with", "3:4:1,1,2,2",
             "--double-payload", "ss^2", "--n2", "2"]


def _huge(rng: random.Random) -> int:
    """A positive int whose digit count is drawn log-uniformly from 20 to 4000."""
    digits = round(math.exp(rng.uniform(math.log(20), math.log(4000))))
    return rng.randrange(10 ** (digits - 1), 10**digits)


def _huge_polygon(rng: random.Random, n: int) -> str:
    return rng.choice([
        f"ss^{n}", f"ord^{n}", f"(1/3,2/3)^{n}", f"({n}/7,1/7)", f"(1/{n + 1},{n}/{n + 1})",
        f"({n}/{2 * n + 1},{n + 1}/{2 * n + 1})",
    ])


def _int_paths(doc, at=()):
    """The path to every int in a JSON document, bools left out."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _int_paths(value, at + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _int_paths(value, at + (i,))
    elif isinstance(doc, int) and not isinstance(doc, bool):
        yield at


def _huge_certificate(rng: random.Random, text: str, tmp_path) -> list[str]:
    """--replay of the certificate with one of its ints replaced by a huge one."""
    doc = json.loads(text)
    *parents, last = rng.choice(list(_int_paths(doc)))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = rng.choice([1, -1]) * _huge(rng)
    path = tmp_path / f"certificate-{rng.getrandbits(64)}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["generate", "--replay", str(path)]


def test_huge_numbers_exit_cleanly_with_short_error_lines(tmp_path):
    code, certificate, _, _ = _call(CERTIFIED)
    assert code == 0
    rng = random.Random(SEED + 2)
    cases = []
    for template in HUGE_TEMPLATES:
        for _ in range(HUGE_DRAWS):
            n = _huge(rng)
            signed, poly = rng.choice([n, -n]), _huge_polygon(rng, n)
            cases.append(template.format(n=n, signed=signed, poly=poly).split())
    cases += [_huge_certificate(rng, certificate, tmp_path) for _ in range(HUGE_REPLAYS)]
    codes = set()
    for argv in cases:
        code, out, err, seconds = _call(argv)
        assert code in (0, 1), argv
        assert "Traceback" not in out + err, argv
        assert seconds < SECONDS_PER_CALL, argv
        assert all(len(line) < 200 for line in err.splitlines()), (argv, err[:300])
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err[:300])
        codes.add(code)
    assert codes == {0, 1}
