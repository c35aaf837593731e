"""The tracer, BENCHMARK.json, and one short run of every workload."""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench_run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_match_the_code():
    # envelope-scaling runs on request only: its times do not hold steady
    # (bench/README.md, "Steadiness")
    assert [w["name"] for w in SPEC["workloads"]] == [n for n in workloads.WORKLOADS if n != "envelope-scaling"]
    assert [m["name"] for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert {m["unit"] for m in SPEC["per_layer"]} <= {"count", "ms", "lines", "%"}


def test_tracer_wraps_every_binding_and_restores_it():
    import opalg
    import opalg.cli
    import opalg.linalg
    import opalg.tro

    original = opalg.linalg.orthonormalize
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert opalg.tro.orthonormalize is opalg.linalg.orthonormalize is opalg.orthonormalize
        assert opalg.tro.orthonormalize is not original
        assert opalg.cli.analyze_algebra.__wrapped__ is opalg.report.analyze_algebra.__wrapped__
        opalg.cli.run_search(ambient=3, trials=30, seed=5, max_dim=3, tol=opalg.linalg.DEFAULT_TOL)
    finally:
        tracer.uninstall()
    assert opalg.tro.orthonormalize is original and opalg.orthonormalize is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.run_search", "examples.random_triangular_algebra", "linalg.orthonormalize"} <= names
    assert tracer.spans[0][0] == "cli.run_search" and tracer.spans[0][3] == -1
    assert all(s[3] < i for i, s in enumerate(tracer.spans))
    layer = tracer.per_layer(1)
    assert list(layer) == spans.PER_LAYER
    decided = sum(1 for s in tracer.spans if s[0] == "reversibility.decide_reversible")
    assert layer["cli.run_search.cache_hits"] == 30 - decided
    assert 0 <= layer["linalg.orthonormalize.self_ms"]


def busy(seconds):
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass


def test_timed_samples_inside_the_operation_and_leaves_out_its_own_time():
    import numpy as np

    handler = signal.getsignal(signal.SIGALRM)
    ref = bench_run.Reference(np)
    with bench_run.Timed(ref) as timed:
        busy(1.2)
    assert len(timed.samples) == 2 and all(0 < s < 1 for s in timed.samples)
    assert timed.paused >= sum(timed.samples)
    assert abs(timed.seconds + timed.paused - 1.2) < 0.05
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    with bench_run.Timed(ref, sample=False) as quiet:
        busy(0.6)
    assert quiet.samples == [] and quiet.paused == 0.0


EXPECTED = {  # workload: (attempted, failed) in one round
    "corpus-analyze": (51, 6),
    "envelope-scaling": (3, 0),
    "search-m3": (workloads.SEARCH_TRIALS, 0),
    "cb-exits": (17, 2),
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_smoke_run(workload):
    out = run(workload, 0)
    assert out["correct"] is True
    assert (out["attempted"], out["failed"]) == EXPECTED[workload]
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_traced_run():
    out = run("search-m3", 1)
    attempted, failed = EXPECTED["search-m3"]
    assert out["correct"] is True and (out["attempted"], out["failed"]) == (2 * attempted, 0)
    assert list(out["metrics"]) == spans.PER_LAYER
    assert out["metrics"]["src_lines"]["value"] > 0
    assert out["metrics"]["cli.run_search.cache_hits"]["value"] > 0
