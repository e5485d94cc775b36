"""Workload `cli-mix`: interactive use of all twelve `npcc` subcommands.

Each operation is one `npcc.cli.main(argv)` call in process with
stdout and stderr captured.  Most calls are tiny, so the fixed cost of
a call (building the parser, checking `--p` for primality, rendering)
dominates.  Half of the calls of each kind pass `--json`; half of the
residue-taking calls pass `--p` with a real prime, log-uniform in
10^2..10^12, so the cost of the primality check shows as it grows
with p.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import npcc
import npcc.cli

from draws import Uniforms, block_schedule, next_prime, random_datum, rng_for, units

NAME = "cli-mix"
PREFIX = 1152
KOTTWITZ_CAP = 200

# One block of 192 calls.  `moonen --verify-all` recomputes the whole
# family table (about twenty times a typical call), so it is rare.
QUOTAS = {
    "signature": 16, "genus": 16, "orbits": 16, "muord": 24, "prank-bound": 16,
    "kottwitz": 16, "clutch": 16, "generate": 16, "codim-ag": 16,
    "condition-u": 16, "moonen-list": 4, "moonen-family": 4, "moonen-class": 7,
    "moonen-verify": 1, "clutch-demo": 8,
}
BLOCK = sum(QUOTAS.values())
BLOCK_S = 0.85  # reference seconds one block takes (see README)
RESIDUE_KINDS = {"orbits", "muord", "prank-bound", "kottwitz", "clutch", "generate",
                 "moonen-class"}


class _Primes(Uniforms):
    """Primes log-uniform in 10^2..10^12."""

    def prime(self, accept) -> int:
        p = next_prime(int(10 ** (2 + 10 * self.draw())))
        while not accept(p):
            p = next_prime(p + 1)
        return p


def _residue(rng, primes, use_p: bool, m: int, accept=lambda p: True) -> list[str]:
    if use_p:
        return ["--p", str(primes.prime(accept))]
    return ["--p-class", str(rng.choice(units(m)))]


def _polygon_text(rng, genus: int) -> str:
    """A polygon of the given genus built from ord, ss and one slope pair."""
    terms = []
    t = rng.choice((3, 4, 5, 7))
    c = rng.randint(0, genus // (2 * t))
    if c:
        s = rng.choice([s for s in range(1, (t + 1) // 2) if math.gcd(s, t) == 1])
        terms.append((f"({s}/{t},{t - s}/{t})", c))
    rest = genus - c * t
    a = rng.randint(0, rest)
    terms += [("ord", a), ("ss", rest - a)]
    rng.shuffle(terms)
    return "+".join(name if k == 1 else f"{name}^{k}" for name, k in terms if k)


def _argv(kind: str, rng, primes, genera, use_p: bool, families) -> list[str]:
    if kind in ("signature", "genus"):
        return [kind, "--datum", random_datum(rng, rng.randint(3, 40), rng.randint(3, 7)).text()]
    if kind == "orbits":
        datum = random_datum(rng, rng.randint(3, 40), rng.randint(3, 7))
        where = ["--datum", datum.text()] if rng.random() < 0.5 else ["--m", str(datum.m)]
        return ["orbits", *where, *_residue(rng, primes, use_p, datum.m)]
    if kind in ("muord", "prank-bound"):
        datum = random_datum(rng, rng.randint(3, 40), rng.randint(3, 7))
        return [kind, "--datum", datum.text(), *_residue(rng, primes, use_p, datum.m)]
    if kind == "kottwitz":
        datum = random_datum(rng, rng.randint(3, 12), rng.randint(3, 5))
        return ["kottwitz", "--datum", datum.text(), "--cap", str(KOTTWITZ_CAP),
                *_residue(rng, primes, use_p, datum.m)]
    if kind == "clutch":
        m1 = rng.randint(3, 20)
        m2 = m1 * rng.randint(1, 2)
        g1 = random_datum(rng, m1, rng.randint(3, 5))
        first = -(m2 // m1) * g1.a[-1] % m2
        while True:
            middle = [rng.randint(1, m2 - 1) for _ in range(rng.randint(1, 3))]
            last = -(first + sum(middle)) % m2
            if last:
                break
        g2 = npcc.MonodromyDatum(m2, (first, *middle, last))
        return ["clutch", "--datum1", g1.text(), "--datum2", g2.text(),
                *_residue(rng, primes, use_p, m2)]
    if kind == "generate":
        datum = random_datum(rng, rng.randint(3, 20), 3)
        divisors = [t for t in range(1, datum.m + 1) if datum.m % t == 0]
        steps = []
        for _ in range(rng.randint(1, 2)):
            steps += ["--step", f"pad:{rng.choice(divisors)}:{rng.randint(1, 2)}"]
        return ["generate", "--datum", datum.text(), *_residue(rng, primes, use_p, datum.m),
                *steps]
    if kind in ("codim-ag", "condition-u"):
        genus = round(2 * 150 ** genera.draw())
        return [kind, "--polygon", _polygon_text(rng, genus)]
    if kind == "moonen-list":
        return ["moonen"]
    if kind == "moonen-verify":
        return ["moonen", "--verify-all"]
    if kind == "clutch-demo":
        return ["clutch-demo"]
    fam = rng.choice(families)
    if kind == "moonen-family":
        return ["moonen", "--family", str(rng.choice((fam.label, fam.label[2:-1])))]
    classes = fam.classes()
    return ["moonen", "--family", fam.label[2:-1],
            *_residue(rng, primes, use_p, fam.m, accept=lambda p: p % fam.m in classes)]


def make_inputs(seed: int, count: int) -> dict:
    rng = rng_for(NAME, seed)
    primes = _Primes(rng)
    genera = Uniforms(rng)
    families = npcc.moonen_families()
    seen: dict[str, int] = {}
    ops = []
    for kind in block_schedule(rng, QUOTAS, count):
        k = seen[kind] = seen.get(kind, -1) + 1
        use_p = kind in RESIDUE_KINDS and (k // 2) % 2 == 1
        argv = _argv(kind, rng, primes, genera, use_p, families)
        if k % 2:
            argv.append("--json")
        ops.append({"kind": kind, "argv": argv})
    return {"ops": ops, "excluded": 0, "info": {"kinds": dict(sorted(seen.items()))}}


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = npcc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_op(spec: dict) -> tuple[int, str, str]:
    return _call(spec["argv"])


def _gamma(obj: dict) -> str:
    return f"{obj['m']}:{len(obj['a'])}:{','.join(str(x) for x in obj['a'])}"


def _flagged(polys, flags) -> str:
    return "; ".join(p + ("*" if flag else "") for p, flag in zip(polys, flags))


def render_text(kind: str, doc: dict) -> list[str]:
    """The text output that the JSON document of the same query implies."""
    if kind == "signature":
        return [",".join(str(v) for v in doc["f"])]
    if kind in ("genus", "prank-bound", "codim-ag"):
        key = {"genus": "genus", "prank-bound": "p_rank_bound", "codim-ag": "codim_ag"}[kind]
        return [str(doc[key])]
    if kind == "muord":
        return [doc["polygon_text"]]
    if kind == "orbits":
        lines = []
        for row in doc["orbits"]:
            notes = [f"size {row['size']}", f"order {row['order']}"]
            notes += ["self-dual"] * row["self_dual"] + ["representative"] * row["representative"]
            if "g" in row:
                notes.append(f"g {row['g']}")
            members = "{" + ",".join(str(n) for n in row["members"]) + "}"
            lines.append(f"{members}  " + ", ".join(notes))
        return lines
    if kind == "kottwitz":
        return [f"{doc['size']} elements, {len(doc['totals'])} distinct polygons"] + [
            f"codim {row['codim']}: {row['polygon_text']}  [{row['elements']} element(s)]"
            for row in doc["totals"]
        ]
    if kind == "clutch":
        lines = [f"gamma{i}: {_gamma(doc[f'gamma{i}'])}" for i in (1, 2, 3)]
        lines += [
            "m3 {m3}, d1 {d1}, d2 {d2}, r1 {r1}, r2 {r2}, r0 {r0}".format(**doc),
            f"epsilon {doc['epsilon']}, g3 {doc['g3']}",
            "f3: " + ",".join(str(v) for v in doc["f3"]),
            f"admissible: {doc['admissible']}",
        ]
        if "p_class" in doc:
            defects = ", ".join(
                "{" + ",".join(str(n) for n in d["orbit"]) + "}" + f":{d['epsilon']}"
                for d in doc["defects"] if d["epsilon"]
            )
            lines += [f"p_class: {doc['p_class']}", f"balanced: {doc['balanced']}",
                      f"compatible: {doc['compatible']}", f"defects: {defects or 'none'}"]
        return lines
    if kind == "condition-u":
        return [f"holds={'true' if doc['holds'] else 'false'}", f"genus={doc['genus']}",
                f"dim_mg={doc['dim_mg']}", f"codim_ag={doc['codim_ag']}"]
    if kind == "moonen-list":
        return [
            f"{fam['label']:<7} m={fam['m']:<3} a={','.join(str(x) for x in fam['a']):<24}"
            f" genus {fam['genus']}"
            for fam in doc["families"]
        ]
    if kind == "moonen-family":
        lines = [f"{doc['label']}: m={doc['m']} a={','.join(str(x) for x in doc['a'])}"
                 f" genus {doc['genus']}", "f: " + ",".join(str(v) for v in doc["f"])]
        lines += [
            f"classes {','.join(str(c) for c in row['classes'])} mod {doc['m']}: "
            + _flagged(row["polygons"], row["large_p"])
            for row in doc["rows"]
        ]
        return lines
    if kind == "moonen-class":
        polys = doc["polygons"]
        return [doc["mu_ordinary"], f"class {doc['p_class']} mod {doc['m']}: " + _flagged(
            [p["polygon_text"] for p in polys], [p["large_p"] for p in polys])]
    if kind == "moonen-verify":
        return [f"{fam['label']:<7} {'ok' if fam['ok'] else 'FAIL'}" for fam in doc["families"]
                ] + ["all ok" if doc["ok"] else "mismatches found"]
    if kind == "clutch-demo":
        lines = [f"join {doc['datum1']} with {doc['datum2']} at class {doc['p_class']}"]
        for c in doc["checks"]:
            if c["ok"]:
                lines.append(f"[ok]   {c['check']}: {c['got']}")
            else:
                lines.append(f"[FAIL] {c['check']}: got {c['got']}, expected {c['expected']}")
        return lines + [f"ok={'true' if doc['ok'] else 'false'}"]
    raise ValueError(f"no text rendering for {kind}")


def check(spec: dict, result, count) -> tuple[str, str, str | None]:
    """Return (status, canonical output, problem or None) for one call."""
    code, out, err = result
    kind, argv = spec["kind"], spec["argv"]
    canon = f"{code}\n{out}\n{err}"
    if code == 1 and err.startswith("error: ") and not out:
        status = "rejected"
    elif code == 0 and not err:
        status = "ok"
    else:
        return "failed", canon, f"exit code {code}, stderr {err[:200]!r}"
    as_json = "--json" in argv
    twin = result if as_json else _call(argv + ["--json"])
    if status == "rejected":
        if twin[0] != 1 or twin[2] != err:
            return "failed", canon, "text and --json calls disagree on the rejection"
        return status, canon, None
    try:
        doc = json.loads(twin[1])
    except json.JSONDecodeError as exc:
        return "failed", canon, f"output is not JSON: {exc}"
    if kind == "generate":
        if doc.get("version") != 1 or json.loads(out) != doc:
            return "failed", canon, "certificate differs between text and --json calls"
        count("generators.steps", len(doc["steps"]))
        count("generators.certificate_bytes", len(out))
        return status, canon, None
    if doc.get("version") != 1:
        return "failed", canon, "JSON document lacks version 1"
    if not as_json:
        expected = "\n".join(render_text(kind, doc)) + "\n"
        if out != expected:
            return "failed", canon, f"text output differs from its JSON: {out[:200]!r}"
    return status, canon, None
