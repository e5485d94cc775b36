"""Tests of the benchmark itself (not of npcc).

Run from the repository root with:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import npcc  # noqa: E402
import npcc.cli  # noqa: E402,F401
import run  # noqa: E402
from spans import TARGETS, Tracer, layer_metric_names  # noqa: E402
from speed import REFERENCE_S, WINDOW, SpeedProbe  # noqa: E402

SMALL_COUNT = 6


def _inputs(name: str, seed: int, count: int = SMALL_COUNT) -> dict:
    return run.load_workload(name).make_inputs(seed, count)


def _pass(name: str, seed: int) -> run.Pass:
    workload = run.load_workload(name)
    return run.run_pass(workload, _inputs(name, seed)["ops"], npcc, SpeedProbe())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    first = _inputs(name, 7)
    assert json.dumps(first) == json.dumps(_inputs(name, 7))
    assert first["ops"] != _inputs(name, 8)["ops"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_longer_run_starts_with_the_same_inputs(name):
    block = run.load_workload(name).BLOCK
    assert _inputs(name, 7, 2 * block)["ops"][:block] == _inputs(name, 7, block)["ops"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_run_length_is_whole_blocks_and_at_least_100_operations(name):
    workload = run.load_workload(name)
    for seconds in (1, 35, 60):
        count = run.op_count(workload, seconds)
        assert count % workload.BLOCK == 0 and count >= run.MIN_OPS
    assert run.op_count(workload, 60) >= run.op_count(workload, 35)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_is_correct_and_its_digest_stable(name):
    first = _pass(name, 3)
    assert first.statuses["failed"] == 0, first.problems
    assert len(first.latencies) == SMALL_COUNT
    assert _pass(name, 3).digest == first.digest


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_gives_the_untraced_digest(name):
    workload = run.load_workload(name)
    ops = _inputs(name, 5)["ops"]
    before = _npcc_bindings()
    tracer = Tracer(npcc.DomainError)
    untraced, traced = run.run_traced(workload, ops, npcc, tracer)
    assert traced.statuses["failed"] == untraced.statuses["failed"] == 0, traced.problems
    assert traced.digest == untraced.digest == _pass(name, 5).digest
    assert sum(tracer.calls.values()) > 0
    assert {s[4] for s in tracer.spans} == set(range(len(ops)))
    assert all(value is before[key] for key, value in _npcc_bindings().items())


def _npcc_bindings() -> dict:
    out = {}
    for mod_name, module in sys.modules.items():
        if module is not None and (mod_name == "npcc" or mod_name.startswith("npcc.")):
            for attr, value in vars(module).items():
                out[(mod_name, attr)] = value
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == mod_name:
                    for key, member in vars(value).items():
                        out[(mod_name, f"{attr}.{key}")] = member
    return out


def test_tracer_restores_every_binding_by_identity():
    before = _npcc_bindings()
    tracer = Tracer(npcc.DomainError)
    tracer.install()
    bindings = tracer.bindings()
    try:
        assert {name.split(".")[0] for name in TARGETS} == set(
            "polygon monodromy orbits muord strata clutch generators catalog cli".split())
        assert len(bindings) > len(TARGETS)  # re-exports and imports are wrapped too
        assert all(not Tracer.is_bound(*b) for b in bindings)
        assert npcc.signature is not before[("npcc", "signature")]
        assert npcc.cli.main is not before[("npcc.cli", "main")]
    finally:
        assert tracer.restore()
    assert all(Tracer.is_bound(*b) for b in bindings)
    after = _npcc_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_speed_scaling_uses_the_kernel_samples_around_an_operation():
    probe = SpeedProbe()
    probe.times = [0.0, 0.2, 0.4, 10.0, 10.2, 10.4, 10.6]
    probe.seconds = [0.004, 0.004, 0.004, 0.002, 0.001, 0.002, 0.002]
    assert probe.scale(0.1, 0.3) == pytest.approx(REFERENCE_S / 0.004)
    assert probe.scale(10.1, 10.3) == pytest.approx(REFERENCE_S / 0.002)
    far = 0.4 + 2 * WINDOW  # no sample within WINDOW: the three nearest count
    assert probe.scale(far, far) == pytest.approx(REFERENCE_S / 0.004)
    probe.maybe_sample()
    assert len(probe.seconds) == 8 and probe.seconds[-1] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer(npcc.DomainError)
    tracer.install()
    try:
        ks = npcc.kottwitz_set(npcc.MonodromyDatum(8, (2, 2, 2, 5, 5)), 7)
        ks.codim_of_polygon(npcc.parse("ss^9"))
    finally:
        tracer.restore()
    spans = dict(enumerate(tracer.spans))
    codim = next(i for i, s in spans.items() if s[0] == "strata.codim_of_polygon")
    children = [s for s in spans.values() if s[3] == codim]
    assert {s[0] for s in children} == {"strata.elements_with_total", "strata.length"}
    total = spans[codim][2] - spans[codim][1]
    covered = sum(s[2] - s[1] for s in children)
    assert tracer.self_s["strata.codim_of_polygon"] == pytest.approx(total - covered)
    assert tracer.counts["strata.kottwitz.elements"] == 4
    assert tracer.calls["strata.KottwitzSet"] == 1


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"}
    predictions = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    layer = set(layer_metric_names())
    e2e = {m["name"] for m in spec["end_to_end"]}
    for row in predictions:
        assert set(row["layer_metrics"]) <= layer
        assert set(row["should_move"]) <= e2e
        assert set(row["on"]) | set(row["should_not_move_on"]) <= set(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
