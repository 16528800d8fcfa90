"""branchkit benchmark: four seeded workloads against the library and the CLI.

    python3 perfbench/run.py --workload recursion|fundamental|verify|cli_cache|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; branchkit is imported from ./src.  Each run
starts fresh interpreters (perfbench/worker.py), so branchkit's module-level
caches begin empty.  Ops run closed-loop from one client, in whole seeded
rounds; S sets how many (workloads.rounds_for), so a seed and S fix every op
a run attempts, and which of them fail, while the ops take about S seconds.

--trace 0 prints the end-to-end metrics: set-up time (median over
SETUP_SAMPLES fresh interpreters, each timed from spawn until `import
branchkit` returns), throughput, latency percentiles (a failed op counts as
slower than any success), and peak RSS of the process doing the work.  The
bounded timings, set-up time included, are taken at the reference speed of
perfbench/speed.py; the raw wall-clock figures are printed beside them.

--trace 1 runs the workload's fixed rounds four times, untraced, traced,
traced and untraced, where traced means every cross-module call wrapped in a
span (perfbench/tracer.py).  It prints the per-layer metrics of the first
traced run and the tracing overhead from all four.  All four must give the
same output digest.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A run record with the
generated inputs goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from speed import calibrate, speed_factor  # noqa: E402

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


class BenchError(Exception):
    pass


def spawn(args, timeout):
    """Run the worker in a fresh interpreter; its JSON result plus setup_s."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:4]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - t0
    return result


def worker_args(workload, seed, seconds, fixed, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--fixed", str(fixed), "--trace", str(trace), "--out", OUT]


def percentile(values, q, cap):
    """Linear-interpolated percentile; inf marks a failed op, read as `cap`."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(v[hi]):
        return cap
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _elapsed_ms(rec):
    return rec["ms"] if "error" in rec else rec["cold_ms"] + rec["warm_ms"]


def latency_metrics(recs, wall_s, per_speed):
    """ops_per_s and the p50 latencies; per_speed divides each op by its speed."""
    def scale(rec):
        return rec["speed"] if per_speed else 1.0

    ok = [r for r in recs if "error" not in r]
    cap = wall_s * 1e3
    inf = [math.inf] * (len(recs) - len(ok))
    if per_speed:
        wall_s = sum(_elapsed_ms(r) / scale(r) for r in recs) / 1e3
    suffix = "_at_ref" if per_speed else ""
    out = {f"ops_per_s{suffix}": (len(ok) / wall_s, "1/s")}
    for name, field in (("op_p50_ms", None), ("cold_p50_ms", "cold_ms"), ("warm_p50_ms", "warm_ms")):
        values = [(_elapsed_ms(r) if field is None else r[field]) / scale(r) for r in ok]
        out[f"{name}{suffix}"] = (percentile(values + inf, 0.5, cap), "ms")
    return out


def end_to_end(workload, seed, seconds):
    setups, factors = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        setups.append(spawn(["--probe"], PROBE_TIMEOUT_S)["setup_s"])
        factors.append(speed_factor(before, calibrate()))
    res = spawn(worker_args(workload, seed, seconds, 0, 0), WORKER_TIMEOUT_S)
    recs = res["records"]
    metrics = {
        "setup_s": (statistics.median(s / f for s, f in zip(setups, factors)), "s"),
        **latency_metrics(recs, res["wall_s"], per_speed=True),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    failed = sum("error" in r for r in recs)
    extra = {**latency_metrics(recs, res["wall_s"], per_speed=False),
             "setup_raw_s": (statistics.median(setups), "s"),
             "ops_failed_frac": (failed / len(recs), "frac"),
             "speed": (statistics.median(r["speed"] for r in recs), "x")}
    if len(recs) >= 100:
        ok = [r for r in recs if "error" not in r]
        lat = [_elapsed_ms(r) for r in ok] + [math.inf] * failed
        extra["op_p90_ms"] = (percentile(lat, 0.9, res["wall_s"] * 1e3), "ms")
    if res["cache_kb"]:
        extra["cache_file_kb"] = (statistics.median(res["cache_kb"]), "KB")
    record = {"setup_samples_s": setups, "setup_speed_factors": factors,
              "wall_s": res["wall_s"], "rounds": res["rounds"],
              "check_s": res["check_s"], "digest": res["digest"], "branchkit": res["branchkit"]}
    return res, metrics, extra, record


def per_layer(workload, seed, seconds):
    # untraced, traced, traced, untraced; ops are taken at the reference speed,
    # and the order cancels what drift in machine speed is left
    runs = [spawn(worker_args(workload, seed, seconds, 1, trace), WORKER_TIMEOUT_S)
            for trace in (0, 1, 1, 0)]
    at_ref = [sum(_elapsed_ms(r) / r["speed"] for r in run["records"]) for run in runs]
    traced = runs[1]
    cache_kb = statistics.median(traced["cache_kb"]) if traced["cache_kb"] else 0.0
    metrics = tr.layer_metrics(traced["layers"], at_ref[0] + at_ref[3], at_ref[1] + at_ref[2],
                               cache_kb)
    record = {"digest": runs[0]["digest"], "digests": [r["digest"] for r in runs],
              "wall_s": [r["wall_s"] for r in runs],
              "spans": traced["spans"], "missing_wrappers": traced["layers"]["missing"],
              "branchkit": traced["branchkit"]}
    if traced["layers"]["missing"]:
        print(f"warning: not traced: {', '.join(traced['layers']['missing'])}", file=sys.stderr)
    return traced, metrics, {}, record


def run_workload(workload, seed, seconds, trace):
    res, metrics, extra, record = (per_layer if trace else end_to_end)(workload, seed, seconds)
    if os.path.commonpath([os.path.abspath(record["branchkit"]), SRC]) != SRC:
        raise BenchError(f"branchkit was imported from {record['branchkit']}, not {SRC}")
    recs = res["records"]
    failed = [r for r in recs if "error" in r]
    wrong = [r for r in failed if r.get("wrong")]
    correct = not wrong and all(d == record["digest"] for d in record.get("digests", ()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{workload:12s} {name:42s} {value:14.6g} {unit}")
    print(f"{workload:12s} {'ops attempted / failed / wrong':42s} "
          f"{len(recs)} / {len(failed)} / {len(wrong)}   digest {record['digest'][:16]}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({
            "workload": workload, "why": workloads.WHY[workload], "seed": seed,
            "seconds": seconds, "trace": trace, "correct": correct,
            "python": sys.version, "platform": platform.platform(), "cpus": os.cpu_count(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
            **record,
            "failures": [{"op": r["op"], "error": r["error"], "detail": r.get("detail")}
                         for r in failed],
            "ops": recs,
        }, fh, indent=1)
    return {"correct": correct, "attempted": len(recs), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "branchkit", "__init__.py")):
        print(f"error: no branchkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if a.workload == "all" else (a.workload,)
    try:
        results = {w: run_workload(w, a.seed, a.seconds, a.trace) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if a.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[a.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
