"""Span tracing of branchkit's layers from outside the package.

`install(tracer)` replaces the functions that branchkit's modules call in one
another (the names as bound in the calling module) with wrappers that record
one span per call: name, start, end, parent span and the benchmark op that
caused it.  Spans live in flat arrays in memory and are written once, at the
end, with `Tracer.save`.  A span's self time is its duration minus the time
its direct children cover.  `Tracer.restore` puts every original back.

A target that a later version of branchkit no longer has is skipped and
listed in `Tracer.missing`, so the traced run keeps working and says what it
could not see.
"""

import json
import time
from array import array
from collections import defaultdict

import numpy as np

# Span names whose self times are summed into one per-layer figure.
CONVERT = ("weights.omega_to_partition", "weights.partition_to_omega")
CLOSED_FORMS = (
    "fundamental.mult_strict_count",
    "fundamental.mult_cayley_sylvester",
    "fundamental.mult_macdonald",
    "fundamental.branching_k2_general",
    "fundamental.branching_two_blocks",
    "fundamental.branching_hook",
)
QCOMB = ("qcomb.pi", "qcomb.p_k_n")
ORACLE = ("oracle.oracle_branch", "oracle.tableau_weight_multiset")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _id(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return sid

    def wrap(self, name, fn, after=None):
        """fn with one span per call; after(args, result) updates counters untimed."""
        sid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(sid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            frame = [idx, 0.0]
            t0 = perf()
            self.start.append(t0)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[sid] += 1
                self.self_s[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
                if stack:
                    # keep counter bookkeeping out of the caller's self time
                    stack[-1][1] += perf() - t1
            return result

        return traced

    def patch(self, owner, attr, name, after=None, around=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        fn = original if around is None else around(original)
        setattr(owner, attr, self.wrap(name, fn, after))
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Calls and self seconds per span name, counters, and the number of
        fundamental_branching calls that enumerated a wedge multiset."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        misses = 0
        fb, wedge = self._ids.get("fundamental.fundamental_branching"), self._ids.get(
            "fundamental.wedge_weight_multiset"
        )
        if fb is not None and wedge is not None:
            wp = np.unique(parents[names == wedge])
            wp = wp[wp >= 0]
            misses = int(np.count_nonzero(names[wp] == fb))
        counts = dict(self.counts)
        counts["fundamental.misses"] = misses
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": counts,
            "missing": list(self.missing),
        }

    def save(self, path):
        """Write every span as flat numpy columns plus the name table."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _bits(mv):
    return max((abs(m).bit_length() for m in mv.values()), default=0)


def _cg_terms(a, b):
    """Output terms cg_convolve produces: sum over pairs of min(j, j') + 1."""
    bs = sorted(b)
    prefix = [0]
    for jp in bs:
        prefix.append(prefix[-1] + jp + 1)
    total = 0
    lo = 0
    for j in sorted(a):
        while lo < len(bs) and bs[lo] <= j:
            lo += 1
        total += prefix[lo] + (len(bs) - lo) * (j + 1)
    return total


def install(tracer):
    """Wrap the cross-module calls of every branchkit layer."""
    from branchkit import branching, cli, fundamental, oracle, pieri

    counts = tracer.counts

    def add(key, value):
        counts[key] += value

    def max_bits(args, result):
        if result:
            counts["sl2.max_coeff_bits"] = max(counts["sl2.max_coeff_bits"], _bits(result))

    def cg_after(args, result):
        add("sl2.cg_convolve.terms", _cg_terms(args[0], args[1]))
        max_bits(args, result)

    def engine_stats(original):
        def branch(engine, *args, **kwargs):
            before = dict(engine.stats)
            try:
                return original(engine, *args, **kwargs)
            finally:
                add("branching.queries", 1)
                for key in ("computed", "hits"):
                    add(f"branching.{key}", engine.stats[key] - before[key])
        return branch

    tracer.patch(branching.BranchEngine, "branch", "branching.branch", around=engine_stats)
    for owner in (branching, fundamental):
        tracer.patch(owner, "cg_convolve", "sl2.cg_convolve", after=cg_after)
    tracer.patch(branching, "mv_subtract", "sl2.mv_subtract", after=max_bits)
    tracer.patch(branching, "pieri_set", "pieri.pieri_set",
                 after=lambda args, result: add("pieri.members", len(result)))
    # canonical_partition runs inside these two, so its cost lands in their spans
    for owner in (branching, pieri):
        tracer.patch(owner, "omega_to_partition", "weights.omega_to_partition")
        tracer.patch(owner, "partition_to_omega", "weights.partition_to_omega")
    for owner in (branching, fundamental):
        tracer.patch(owner, "fundamental_branching", "fundamental.fundamental_branching")
    tracer.patch(fundamental, "wedge_weight_multiset", "fundamental.wedge_weight_multiset",
                 after=lambda args, result: add("fundamental.subsets", sum(result.values())))
    for owner in (fundamental, oracle):
        tracer.patch(owner, "mult_from_multiset", "fundamental.mult_from_multiset")
    for name in CLOSED_FORMS + QCOMB:
        tracer.patch(fundamental, name.split(".", 1)[1], name)
    tracer.patch(oracle, "oracle_branch", "oracle.oracle_branch")
    tracer.patch(oracle, "tableau_weight_multiset", "oracle.tableau_weight_multiset",
                 after=lambda args, result: add("oracle.tableaux", sum(result.values())))
    tracer.patch(cli, "load_cache", "cli.load_cache")
    tracer.patch(cli, "save_cache", "cli.save_cache",
                 after=lambda args, result: add("cli.cache_entries", len(args[1])))


def merge(summaries):
    """Sum several summaries (one per traced process) into one."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(int), "missing": set()}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, v in s[key].items():
                out[key][name] += v
        for name, v in s["counts"].items():
            if name == "sl2.max_coeff_bits":
                out["counts"][name] = max(out["counts"][name], v)
            else:
                out["counts"][name] += v
        out["missing"].update(s["missing"])
    out["missing"] = sorted(out["missing"])
    return out


def layer_metrics(s, wall_untraced, wall_traced, cache_file_kb):
    """The per-layer metrics from a merged summary."""
    calls, self_s, counts = s["calls"], s["self_s"], s["counts"]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    computed, hits = counts.get("branching.computed", 0), counts.get("branching.hits", 0)
    fb_calls = c("fundamental.fundamental_branching")
    oracle_s = t(*ORACLE)
    return {
        "branching.queries": (counts.get("branching.queries", 0), "count"),
        "branching.computed": (computed, "count"),
        "branching.hits": (hits, "count"),
        "branching.hit_ratio": (ratio(hits, hits + computed), "ratio"),
        "branching.self_s": (t("branching.branch"), "s"),
        "sl2.cg_convolve.calls": (c("sl2.cg_convolve"), "count"),
        "sl2.cg_convolve.self_s": (t("sl2.cg_convolve"), "s"),
        "sl2.cg_convolve.terms": (counts.get("sl2.cg_convolve.terms", 0), "count"),
        "sl2.mv_subtract.calls": (c("sl2.mv_subtract"), "count"),
        "sl2.mv_subtract.self_s": (t("sl2.mv_subtract"), "s"),
        "sl2.max_coeff_bits": (counts.get("sl2.max_coeff_bits", 0), "bits"),
        "pieri.pieri_set.calls": (c("pieri.pieri_set"), "count"),
        "pieri.pieri_set.self_s": (t("pieri.pieri_set"), "s"),
        "pieri.members": (counts.get("pieri.members", 0), "count"),
        "weights.convert.calls": (c(*CONVERT), "count"),
        "weights.convert.self_s": (t(*CONVERT), "s"),
        "fundamental.fundamental_branching.calls": (fb_calls, "count"),
        "fundamental.cache_hit_ratio": (
            ratio(fb_calls - counts.get("fundamental.misses", 0), fb_calls), "ratio"),
        "fundamental.wedge_weight_multiset.self_s": (t("fundamental.wedge_weight_multiset"), "s"),
        "fundamental.subsets": (counts.get("fundamental.subsets", 0), "count"),
        "fundamental.mult_from_multiset.self_s": (t("fundamental.mult_from_multiset"), "s"),
        "fundamental.closed_forms.self_s": (t(*CLOSED_FORMS), "s"),
        "qcomb.pi.calls": (c("qcomb.pi"), "count"),
        "qcomb.self_s": (t(*QCOMB), "s"),
        "oracle.oracle_branch.calls": (c("oracle.oracle_branch"), "count"),
        "oracle.tableaux": (counts.get("oracle.tableaux", 0), "count"),
        "oracle.self_s": (oracle_s, "s"),
        "oracle.tableaux_per_s": (ratio(counts.get("oracle.tableaux", 0), oracle_s), "1/s"),
        # load_cache and save_cache call nothing traced: self time is all of it
        "cli.load_cache_s": (t("cli.load_cache"), "s"),
        "cli.save_cache_s": (t("cli.save_cache"), "s"),
        "cli.cache_entries": (counts.get("cli.cache_entries", 0), "count"),
        "cli.cache_file_kb": (cache_file_kb, "KB"),
        "trace.overhead_frac": (ratio(wall_traced, wall_untraced) - 1.0, "frac"),
    }


def dump_summary(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
