"""Benchmark of npcc: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each run is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs are generated from the seed
before timing starts.  Every output is checked, and a SHA-256 digest
of the canonical outputs of the first PREFIX operations is recorded.

With --trace 0 the run executes a fixed number of operations, whole
blocks of the workload's schedule, as many as take about S seconds at
the speed of the code the benchmark was defined on (and at least 100),
and reports the end-to-end metrics.  The count depends only on S, so
a faster or slower program is measured on the same inputs.  With
--trace 1 it runs each of the first PREFIX operations untraced and
with span wrappers installed, alternating which goes first, and
reports the per-layer metrics and the tracing overhead; both sides
must give the same digest.  The last line of standard output is the result as one JSON
object; a result file with provenance goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-mix", "chains", "kottwitz-totals")
MIN_OPS = 100
SETUP_REPEATS = 11

# Import npcc and parse the bundled family table, in a fresh interpreter;
# then time the speed kernel there (median of five) for the scaling.
SETUP_CODE = """\
import time
start = time.perf_counter()
import npcc
npcc.moonen_families()
setup = time.perf_counter() - start
from speed import kernel
runs = []
for _ in range(5):
    start = time.perf_counter()
    kernel()
    runs.append(time.perf_counter() - start)
print(repr(setup), repr(sorted(runs)[2]))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH),
                                                       env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, after one warm-up start.

    Returns the times as measured, and scaled to the reference speed by
    the kernel time in the same interpreter.
    """
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        setup, kernel_s = map(float, done.stdout.split())
        runs.append((setup, setup * REFERENCE_S / kernel_s))
    return [wall for wall, _ in runs[1:]], [scaled for _, scaled in runs[1:]]


def load_workload(name: str):
    if name == "cli-mix":
        import cli_mix as module
    elif name == "chains":
        import chains as module
    else:
        import kottwitz as module
    return module


def no_count(name: str, value: int) -> None:
    pass


def op_count(workload, seconds: float) -> int:
    """Operations of a --trace 0 run: whole blocks, about `seconds` at the reference speed."""
    blocks = max(-(-MIN_OPS // workload.BLOCK), round(seconds / workload.BLOCK_S))
    return blocks * workload.BLOCK


def execute(workload, spec, npcc, count=no_count, tracer=None) -> tuple:
    """Run and check one operation: (start, latency, status, canonical output, problem).

    With a tracer, its wrappers are installed for the operation only and
    removed before the check; the result says whether every original
    came back.
    """
    error = None
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter
    t0 = clock()
    try:
        result = workload.run_op(spec)
    except npcc.DomainError as exc:
        error = exc
    except Exception:  # an unexpected crash is a failed operation, not a stopped run
        error = traceback.format_exc(limit=4)
    finally:
        latency = clock() - t0
        restored = tracer is None or tracer.restore()
    if isinstance(error, npcc.DomainError):
        status, canon, problem = "rejected", f"{type(error).__name__}: {error}", None
    elif error is not None:
        status, canon, problem = "failed", "crash", error
    else:
        try:
            status, canon, problem = workload.check(spec, result, count)
        except Exception:
            status, canon, problem = "failed", "check crashed", traceback.format_exc(limit=4)
    if not restored:
        status, problem = "failed", "tracer left a wrapper in place"
    return t0, latency, status, canon, problem


class Pass:
    """Latencies, outcomes and output digest of a sequence of operations."""

    def __init__(self, prefix: int):
        self.prefix = prefix
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.statuses = {"ok": 0, "rejected": 0, "failed": 0}
        self.prefix_rejected = 0
        self.sha = hashlib.sha256()
        self.problems: list[str] = []

    def add(self, i: int, spec, start, latency, status, canon, problem) -> None:
        self.starts.append(start)
        self.latencies.append(latency)
        self.statuses[status] += 1
        if problem is not None and len(self.problems) < 10:
            self.problems.append(f"op {i} {json.dumps(spec)[:300]}: {problem}")
        if i < self.prefix:  # the digest covers the first `prefix` operations
            self.sha.update(f"{i}\t{status}\t{canon}\n".encode())
            self.prefix_rejected += status == "rejected"

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()


def run_pass(workload, ops, npcc, probe) -> Pass:
    """Run each operation once, in order, untraced, sampling machine speed between them."""
    done = Pass(workload.PREFIX)
    for i, spec in enumerate(ops):
        probe.maybe_sample()
        done.add(i, spec, *execute(workload, spec, npcc))
    probe.sample()
    return done


def run_traced(workload, ops, npcc, tracer) -> tuple[Pass, Pass]:
    """Run each operation untraced and traced, in turn.

    The order alternates from one operation to the next, so a change in
    machine speed during the run falls on both sides alike.
    """
    untraced, traced = Pass(workload.PREFIX), Pass(workload.PREFIX)
    for i, spec in enumerate(ops):
        tracer.op_id = i
        sides = [(untraced, no_count, None), (traced, tracer.count, tracer)]
        for done, count, maybe_tracer in sides if i % 2 == 0 else sides[::-1]:
            done.add(i, spec, *execute(workload, spec, npcc, count, maybe_tracer))
    return untraced, traced


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _latency_metrics(lat: list[float]) -> dict:
    return {
        "ops_per_s": _metric(len(lat) / sum(lat), "ops/s", len(lat)),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms", len(lat)),
        "op_p90_ms": _metric(statistics.quantiles(lat, n=10)[-1] * 1e3, "ms", len(lat)),
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return "fraction" if name == "trace_overhead_frac" else "count"


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    probe = SpeedProbe()
    setup_wall, setup_times = ([], []) if args.trace else measure_setup()
    import npcc  # noqa: E402  (path set above)
    import npcc.cli  # noqa: F401  (a traced layer, not imported by the package)
    from spans import Tracer, layer_metric_names

    workload = load_workload(args.workload)
    tracer = Tracer(npcc.DomainError) if args.trace else None
    if tracer is not None:  # trace the first, uncached table parse
        tracer.install()
    npcc.moonen_families()
    restored = tracer is None or tracer.restore()

    prefix = workload.PREFIX
    t0 = time.perf_counter()
    inputs = workload.make_inputs(args.seed, op_count(workload, args.seconds))
    generation_s = time.perf_counter() - t0
    ops = inputs["ops"]

    if not args.trace:
        passes = [run_pass(workload, ops, npcc, probe)]
    else:
        passes = list(run_traced(workload, ops[:prefix], npcc, tracer))

    main = passes[0]
    lat = main.latencies
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.statuses["failed"] for p in passes)
    rejected = sum(p.statuses["rejected"] for p in passes)
    digests_agree = all(p.digest == main.digest for p in passes)
    correct = failed == 0 and digests_agree and restored

    if not args.trace:
        scaled = [x * probe.scale(t0, t0 + x) for t0, x in zip(main.starts, lat)]
        metrics = {
            **_latency_metrics(scaled),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MiB", 1),
            "setup_s": _metric(statistics.median(setup_times), "s", len(setup_times)),
        }
        wall = {f"wall_{name}": m for name, m in _latency_metrics(lat).items()}
        wall["wall_setup_s"] = _metric(statistics.median(setup_wall), "s", len(setup_wall))
    else:
        wall = {}
        layer = tracer.metrics()
        layer["trace_overhead_frac"] = sum(passes[1].latencies) / sum(lat) - 1
        metrics = {name: _metric(layer[name], _layer_unit(name), len(lat))
                   for name in layer_metric_names()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    record = {
        "result": result,
        "metrics": metrics,
        "wall_clock": wall,
        "error_rate": failed / attempted,
        "ops_rejected": main.prefix_rejected,
        "rejected_all_ops": rejected,
        f"{args.workload}.excluded": inputs["excluded"],
        "digest": main.digest,
        "digests_agree": digests_agree,
        "wrappers_restored": restored,
        "problems": [problem for p in passes for problem in p.problems][:10],
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "prefix_ops": min(prefix, len(ops)),
            "ops_per_pass": [len(p.latencies) for p in passes],
            "generation_s": generation_s, "setup_s_samples": setup_times,
            "speed_samples": len(probe.seconds),
            "kernel_s_median": statistics.median(probe.seconds) if probe.seconds else None,
            "inputs": inputs["info"],
        },
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}-spans.tsv.gz")
    return record


def print_record(record: dict) -> None:
    for name, m in [*record["metrics"].items(), *record["wall_clock"].items()]:
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']:<9} n={m['samples']}")
    prov = record["provenance"]
    print(f"error_rate {record['error_rate']:.6g} fraction; ops_rejected"
          f" {record['ops_rejected']} of the first {prov['prefix_ops']};"
          f" {prov['workload']}.excluded {record[prov['workload'] + '.excluded']};"
          f" digest {record['digest'][:16]}")
    for problem in record["problems"]:
        print("problem:", problem)


def run_all(args) -> int:
    """Run every workload in its own process and print all end-to-end metrics."""
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        print("\n".join(lines[:-1]))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "npcc" / "__init__.py").is_file():
        print(f"error: npcc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run(args)
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
