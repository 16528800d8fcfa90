"""Self-test of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

Checks that a seed fixes the inputs, that the tracer's wrappers leave every
output unchanged and are all removed again, and the small helpers the
metrics rest on.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import run
import tracer as tr
import worker
import workloads


def _take(workload, seed, n_rounds):
    return list(itertools.islice(workloads.rounds(workload, seed), n_rounds))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _take(workload, 5, 2) == _take(workload, 5, 2)
    assert _take(workload, 5, 2) != _take(workload, 6, 2)


def test_run_length_fixes_the_rounds():
    for workload in workloads.WORKLOADS:
        assert workloads.rounds_for(workload, 0) == workloads.FIXED_ROUNDS[workload]
        assert workloads.rounds_for(workload, 20) >= workloads.rounds_for(workload, 10)


def test_fundamental_pairs_are_distinct():
    ops = [op for r in _take("fundamental", 3, 8) for op in r]
    assert len({(tuple(op["type"]), op["k"]) for op in ops}) == len(ops)
    assert {op["family"] for op in ops} == {"principal", "hook", "two-block", "general"}


def test_recursion_keeps_the_long_row_band():
    ops = [op for r in _take("recursion", 3, 30) for op in r]
    rows = {op["partition"][0] for op in ops if op["n"] <= 3 and op["partition"][0] >= 50}
    assert rows == set(workloads.LONG_ROWS)


def _originals(modules):
    return {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("workload", ["recursion", "fundamental", "verify"])
def test_tracing_leaves_outputs_unchanged(workload):
    from branchkit import branching, cli, fundamental, oracle, pieri

    ctx = {}
    plain, _ = worker.run_ops(workload, 9, 1, ctx, None)
    modules = (branching, branching.BranchEngine, cli, fundamental, oracle, pieri)
    before = _originals(modules)
    t = tr.Tracer()
    tr.install(t)
    try:
        traced, _ = worker.run_ops(workload, 9, 1, ctx, t)
    finally:
        t.restore()
    assert not t.missing
    assert len(t.name) > 0
    assert _originals(modules) == before
    assert worker.digest(plain) == worker.digest(traced)
    assert all(rec["speed"] > 0 for rec in plain + traced)


def test_cli_traced_output_matches(tmp_path):
    op = {"n": 4, "type": [3, 1], "partition": [6, 3, 1]}
    outs = []
    for traced in (False, True):
        ctx = {"workdir": str(tmp_path), "out": str(tmp_path), "seed": 0, "traced": traced,
               "env": dict(os.environ, PYTHONPATH=worker.SRC), "counter": itertools.count(),
               "summaries": [], "cache_kb": []}
        request = worker.cli_request(op, ctx)
        outs.append((request(), request()))
        if traced:
            with open(ctx["summaries"][0], encoding="utf-8") as fh:
                assert json.load(fh)["calls"]["branching.branch"] == 1
    assert outs[0] == outs[1]
    assert outs[0][0] == outs[0][1]


def test_cg_terms_counts_the_convolution():
    rng = random.Random(0)
    for _ in range(50):
        a = {rng.randint(0, 12): 1 for _ in range(rng.randint(1, 5))}
        b = {rng.randint(0, 12): 1 for _ in range(rng.randint(1, 5))}
        brute = sum(len(range(abs(j - k), j + k + 1, 2)) for j in a for k in b)
        assert tr._cg_terms(a, b) == brute


def test_latency_metrics_at_reference_speed():
    recs = [{"cold_ms": 4.0, "warm_ms": 2.0, "speed": 2.0}] * 3
    raw = run.latency_metrics(recs, 0.020, per_speed=False)
    ref = run.latency_metrics(recs, 0.020, per_speed=True)
    assert raw["ops_per_s"][0] == pytest.approx(3 / 0.020)
    assert raw["op_p50_ms"][0] == pytest.approx(6.0)
    assert ref["ops_per_s_at_ref"][0] == pytest.approx(3 / 0.009)
    assert ref["op_p50_ms_at_ref"][0] == pytest.approx(3.0)
    assert ref["warm_p50_ms_at_ref"][0] == pytest.approx(1.0)


def test_percentile_ranks_failures_last():
    assert run.percentile([1.0, 2.0, 3.0], 0.5, 99.0) == 2.0
    assert run.percentile([1.0, 2.0, math.inf, math.inf], 0.9, 99.0) == 99.0
    assert run.percentile([1.0, 3.0], 0.5, 99.0) == 2.0


def test_traced_run_matches_untraced_digest():
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", "recursion", "--seed", "4",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _bench()["per_layer"]}


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in bench["workloads"])
    rec = {"cold_ms": 2.0, "warm_ms": 1.0, "speed": 2.0}
    names = {"setup_s", "peak_rss_mb", *run.latency_metrics([rec], 1.0, per_speed=True)}
    assert names == {m["name"] for m in bench["end_to_end"]}
    empty = {"calls": {}, "self_s": {}, "counts": {}, "missing": []}
    units = {name: unit for name, (_, unit) in tr.layer_metrics(empty, 1.0, 1.0, 0.0).items()}
    assert units == {m["name"]: m["unit"] for m in bench["per_layer"]}
