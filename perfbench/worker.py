"""One run of one workload, in a fresh interpreter.

    python worker.py --probe
    python worker.py --workload W --seed N --seconds S --fixed 0|1 --trace 0|1 --out DIR

branchkit is imported before anything else, and the moment the import
finished is reported (`imported_at`, on the system-wide perf_counter clock),
so that the parent can time set-up from its spawn.  Every module-level cache
in branchkit starts empty because the interpreter is new.

Each op runs its request twice, timed apart: cold, against the caches as the
op finds them, then warm, against the caches the cold call filled.  The
outputs are checked after the timed phase.  The result is one JSON object on
stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import branchkit  # noqa: E402

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

from branchkit import (  # noqa: E402
    BranchEngine,
    DominantWeight,
    SubalgebraType,
    branching,
    dim_irrep,
    fundamental,
    oracle,
    partition_to_omega,
    principal_highest_component,
    rep_dimension,
)

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from speed import CAL_EVERY_S, calibrate, speed_factor  # noqa: E402

# Results are compared with oracle_branch when dim L(lambda) is below this.
ORACLE_CAP = 2000
CLI_TIMEOUT_S = 120
CLI_TRACED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")


class WrongAnswer(Exception):
    pass


class CliFailed(Exception):
    pass


def _weight(op):
    return SubalgebraType(op["type"]), partition_to_omega(op["partition"], op["n"])


def recursion_request(op, ctx):
    engine = BranchEngine()

    def request():
        t, w = _weight(op)
        return engine.branch(t, w)

    return request


def fundamental_request(op, ctx):
    def request():
        return fundamental.fundamental_branching(SubalgebraType(op["type"]), op["k"], verify=True)

    return request


def verify_request(op, ctx):
    def request():
        t, w = _weight(op)
        got = branching.branch(t, w)
        want = oracle.oracle_branch(t, w)
        if got != want:
            raise WrongAnswer(f"branch {got} != oracle {want}")
        return got

    return request


def cli_request(op, ctx):
    cache = os.path.join(ctx["workdir"], "cache.json")
    if os.path.exists(cache):
        os.remove(cache)
    args = [
        "branch", "--n", str(op["n"]),
        "--type", ",".join(map(str, op["type"])),
        "--partition", ",".join(map(str, op["partition"])),
        "--cache", cache, "--format", "json",
    ]
    cold = True

    def request():
        nonlocal cold
        if ctx["traced"]:
            k = next(ctx["counter"])
            summary = os.path.join(ctx["workdir"], f"summary-{k}.json")
            spans = os.path.join(ctx["out"], f"spans-cli_cache-{ctx['seed']}-{k}.npz")
            ctx["summaries"].append(summary)
            cmd = [sys.executable, CLI_TRACED, summary, spans] + args
        else:
            cmd = [sys.executable, "-m", "branchkit.cli"] + args
        proc = subprocess.run(
            cmd, capture_output=True, env=ctx["env"], cwd=ctx["workdir"], timeout=CLI_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise CliFailed(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if cold:
            cold = False
            ctx["cache_kb"].append(os.path.getsize(cache) / 1024)
        return proc.stdout.decode()

    return request


REQUESTS = {
    "recursion": recursion_request,
    "fundamental": fundamental_request,
    "verify": verify_request,
    "cli_cache": cli_request,
}


def canonical(out):
    return out if isinstance(out, str) else sorted(out.items())


def run_ops(workload, seed, n_rounds, ctx, tracer):
    """The first `n_rounds` rounds of the seed's stream, one op after another.

    Returns the records and the wall time of the ops (calibration excluded).
    """
    make = REQUESTS[workload]
    stream = workloads.rounds(workload, seed)
    perf = time.perf_counter
    records = []
    # one canonical output per distinct op, shared by its records, so that the
    # harness's memory does not grow with the op count and show in peak RSS
    outputs = {}
    cal_at, cal_s = [], []
    spent = 0.0  # calibrating

    def calibration():
        nonlocal spent
        t0 = perf()
        cal_s.append(calibrate())
        cal_at.append(len(records))
        spent += perf() - t0

    start = perf()
    calibration()
    for r in range(n_rounds):
        for op in next(stream):
            if perf() - start - spent > CAL_EVERY_S * len(cal_s):
                calibration()
            if tracer is not None:
                tracer.current_op = len(records)
            request = make(op, ctx)
            rec = {"round": r, "op": op}
            t0 = perf()
            try:
                cold = request()
                t1 = perf()
                warm = request()
                t2 = perf()
            except Exception as exc:  # the op failed; record it and go on
                rec.update(ms=(perf() - t0) * 1e3, error=type(exc).__name__,
                           detail=str(exc)[:300])
                if isinstance(exc, WrongAnswer):
                    rec["wrong"] = True
            else:
                out = canonical(cold)
                first = outputs.setdefault(json.dumps(op, sort_keys=True), out)
                rec.update(cold_ms=(t1 - t0) * 1e3, warm_ms=(t2 - t1) * 1e3, out=first,
                           stable=first == out == canonical(warm))
            records.append(rec)
    wall = perf() - start - spent
    calibration()
    # calibrations before and after each op: cal_at[j] is the number of ops
    # run before calibration j
    j = 0
    for i, rec in enumerate(records):
        while cal_at[j + 1] <= i:
            j += 1
        rec["speed"] = speed_factor(cal_s[j], cal_s[j + 1])
    return records, wall


def check_one(workload, rec, oracle_results):
    """None when the op's output is right, else what is wrong with it."""
    op = rec["op"]
    if not rec["stable"]:
        return "output differs between calls of the same op"
    n = op["n"]
    t = SubalgebraType(op["type"])
    if workload == "fundamental":
        w = DominantWeight.omega(n, op["k"])
    else:
        w = partition_to_omega(op["partition"], n)
    if workload == "cli_cache":
        payload = json.loads(rec["out"])
        mv = {int(j): m for j, m in payload["multiplicities"].items()}
        if int(payload["dimension"]) != dim_irrep(w):
            return f"reported dimension {payload['dimension']} != dim_irrep {dim_irrep(w)}"
    else:
        mv = dict(rec["out"])
    dim = dim_irrep(w)
    if rep_dimension(mv) != dim:
        return f"rep_dimension {rep_dimension(mv)} != dim_irrep {dim}"
    if len(t.blocks) == 1 and max(mv) != principal_highest_component(w):
        return f"highest component {max(mv)} != {principal_highest_component(w)}"
    # verify ops compare with the oracle inside the op itself
    if dim < ORACLE_CAP and workload != "verify":
        key = (t.blocks, w.coeffs)
        if key not in oracle_results:
            oracle_results[key] = oracle.oracle_branch(t, w)
        if oracle_results[key] != mv:
            return f"differs from oracle_branch {oracle_results[key]}"
    return None


def check(workload, records):
    oracle_results = {}
    for rec in records:
        if "error" in rec:
            continue
        try:
            problem = check_one(workload, rec, oracle_results)
        except Exception as exc:  # a check that cannot run fails the op
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            rec.update(error="WrongAnswer", detail=problem[:300], wrong=True)


def digest(records):
    """sha256 of the canonical outputs (or error types) of every op."""
    body = [[rec["op"], rec["error"] if "error" in rec else rec["out"]] for rec in records]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def main():
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--fixed", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    a = p.parse_args()

    workdir = os.path.join(a.out, f"work-{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("BRANCHKIT_CACHE", None)
    ctx = {"workdir": workdir, "out": a.out, "seed": a.seed, "env": env, "traced": bool(a.trace),
           "counter": itertools.count(), "summaries": [], "cache_kb": []}
    tracer = None
    if a.trace and a.workload != "cli_cache":
        tracer = tr.Tracer()
        tr.install(tracer)
    try:
        rounds = (workloads.FIXED_ROUNDS[a.workload] if a.fixed
                  else workloads.rounds_for(a.workload, a.seconds))
        records, wall = run_ops(a.workload, a.seed, rounds, ctx, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    who = resource.RUSAGE_CHILDREN if a.workload == "cli_cache" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    layers = spans = None
    if a.trace:
        summaries = []
        if tracer is not None:
            summaries.append(tracer.summary())
            spans = os.path.join(a.out, f"spans-{a.workload}-{a.seed}.npz")
            tracer.save(spans)
        for path in ctx["summaries"]:
            with open(path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        layers = tr.merge(summaries)
    shutil.rmtree(workdir, ignore_errors=True)

    checked_at = time.perf_counter()
    check(a.workload, records)
    result = {
        "check_s": time.perf_counter() - checked_at,
        "imported_at": IMPORTED_AT,
        "branchkit": branchkit.__file__,
        "wall_s": wall,
        "rounds": rounds,
        "peak_rss_kb": peak_kb,
        "cache_kb": ctx["cache_kb"],
        "digest": digest(records),
        "layers": layers,
        "spans": spans,
        "records": [{k: v for k, v in rec.items() if k != "out"}
                    for rec in records],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
