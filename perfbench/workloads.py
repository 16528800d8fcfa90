"""Seeded input generators for the four benchmark workloads.

Inputs are plain JSON-able dicts built from the seed alone, with the
benchmark's own partition code, so that a change to branchkit's enumeration
helpers cannot change what the benchmark asks for.

Each workload is an endless stream of *rounds*.  A round is a stratified
sample: it holds the same mix of input sizes every time, in a seeded order,
with seeded choices inside each stratum.  A run does a fixed number of
rounds, set by its length in seconds (`rounds_for`), so the seed and the
length alone fix every op of a run: two runs of the same code attempt the
same ops, and fail the same ones.
"""

import itertools
import random
from functools import lru_cache
from math import prod

WHY = {
    "recursion": (
        "cold BranchEngine queries over every type of sl_3..sl_8 plus a long-row sl_2/sl_3 "
        "band: branching, sl2, pieri and weights do the work; the band shows the "
        "recursion-limit crash"
    ),
    "fundamental": (
        "fundamental_branching(verify=True) on distinct (type, k) pairs, C(n,k) 1e4..3e6, "
        "n up to 30: wedge multisets and qcomb closed forms dominate, the recursion idles"
    ),
    "verify": (
        "branch on the shared engine against oracle_branch over all types of sl_7 and all "
        "weights up to 7 boxes: the oracle dominates, the recursion mostly hits its cache"
    ),
    "cli_cache": (
        "the branchkit CLI's branch --cache as a subprocess, cold then warm, cache files of "
        "tens of KB to a few MB: process start and JSON cache load/save"
    ),
}

WORKLOADS = tuple(WHY)

# Rounds of a traced run, and the fewest rounds of any run.
FIXED_ROUNDS = {"recursion": 4, "fundamental": 1, "verify": 8, "cli_cache": 1}

# Rounds per second of run length: about what a 2-vCPU shared VM completes
# per second, so that a run's ops take roughly its --seconds there.  verify
# makes a whole pass over its sweep every VERIFY_STRATA rounds.
ROUNDS_PER_S = {"recursion": 2.1, "fundamental": 0.45, "verify": 3.2, "cli_cache": 0.25}

# First rows of the long-row band: sl_2 and sl_3 rows from 50 to 600.
LONG_ROWS = tuple(range(50, 601, 25))

# Per round, one op per (n, k); C(n, k) runs from about 1e4 to 2.5e6.  Seven
# cheap slots, five middle ones (C(n, k) near 1e5) and seven dear ones, so
# that the median op of a run always falls inside the middle band.  The
# dearest slot, about half of a run's time, has k > n/2: there the hook and
# two-block closed forms do not apply, so its cost does not swing with the
# family drawn.
FUNDAMENTAL_SLOTS = (
    (16, 8), (17, 6), (19, 5), (24, 4), (30, 4), (18, 7), (22, 5),
    (22, 6), (28, 5), (23, 6), (29, 5), (30, 5),
    (25, 6), (21, 8), (23, 7), (27, 6), (22, 8), (26, 7), (24, 13),
)
FAMILIES = ("principal", "hook", "two-block", "general")

VERIFY_N = 7
VERIFY_MAX_BOXES = 7
VERIFY_STRATA = 8  # rounds per pass over the sweep

# CLI queries per round: one small (sl_4, about 50 KB of cache), three medium
# (sl_3 [3], about 400 KB) and one large (sl_3, about 1.7 MB).  The median op of
# a run is then always a medium one.
CLI_SMALL_TYPES = ((4,), (3, 1), (2, 2))
CLI_LARGE_TYPES = ((3,), (2, 1))


@lru_cache(maxsize=None)
def partitions(total, max_parts, max_part=None):
    """Partitions of `total` into at most `max_parts` parts, lex-descending."""
    if max_part is None:
        max_part = total
    if total == 0:
        return ((),)
    if max_parts == 0:
        return ()
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            out.append((first,) + rest)
    return tuple(out)


def types(n):
    """Jordan types of the sl_2 subalgebras of sl_n: partitions of n with a part >= 2."""
    return [p for p in partitions(n, n) if p[0] >= 2]


def weyl_dim(n, lam):
    """dim L(lam) for sl_n by the Weyl product; used only to order the sweep."""
    l = [(lam[i] if i < len(lam) else 0) + n - 1 - i for i in range(n)]
    num = prod(l[i] - l[j] for i in range(n) for j in range(i + 1, n))
    den = prod(j - i for i in range(n) for j in range(i + 1, n))
    return num // den


def _cycle_shuffled(rng, items):
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def recursion_rounds(rng):
    cells = [(n, t) for n in range(3, 9) for t in types(n)]
    sl2_rows = _cycle_shuffled(rng, LONG_ROWS)
    sl3_rows = _cycle_shuffled(rng, LONG_ROWS)
    while True:
        ops = []
        for n, t in cells:
            lam = rng.choice(partitions(rng.randint(8, 16), n - 1))
            ops.append({"n": n, "type": list(t), "partition": list(lam)})
        for _ in range(2):
            ops.append({"n": 2, "type": [2], "partition": [next(sl2_rows)]})
        second = rng.randint(0, 3)
        ops.append({
            "n": 3,
            "type": list(rng.choice(((3,), (2, 1)))),
            "partition": [next(sl3_rows)] + ([second] if second else []),
        })
        rng.shuffle(ops)
        yield ops


@lru_cache(maxsize=None)
def _general_types(n):
    """Types with three to eight blocks that are not hooks."""
    return [p for p in partitions(n, 8) if len(p) >= 3 and p[1] >= 2]


def _stratified(rng, strata=6):
    """Endless fractions in [0, 1): each run of `strata` has one per stratum."""
    while True:
        qs = [(i + rng.random()) / strata for i in range(strata)]
        rng.shuffle(qs)
        yield from qs


def _fundamental_type(rng, n, family, size):
    # A hook's first block and a two-block type's second one set what the
    # closed-form check costs, so they are drawn stratified over their range.
    if family == "principal":
        return (n,)
    if family == "hook":
        r = 2 + int(next(size["hook"]) * (n - 2))
        return (r,) + (1,) * (n - r)
    if family == "two-block":
        s = 2 + int(next(size["two-block"]) * (n // 2 - 1))
        return (n - s, s)
    return rng.choice(_general_types(n))


def _fresh_type(rng, n, k, family, seen, size):
    for fam in (family, "hook", "two-block", "general"):
        for _ in range(20):
            t = _fundamental_type(rng, n, fam, size)
            if (t, k) not in seen:
                return t, fam
    raise ValueError(f"no unused type of sl_{n} for k={k}")


def fundamental_rounds(rng):
    # Every round has the same family mix: one principal op (there is one
    # principal type per n, so it moves to the next slot each round) and six
    # each of hook, two-block and general, rotating over the other slots.
    others = FAMILIES[1:]
    offset = rng.randrange(len(FUNDAMENTAL_SLOTS))
    seen = set()
    size = {"hook": _stratified(rng), "two-block": _stratified(rng)}
    for r in itertools.count():
        ops = []
        j = 0
        for i, (n, k) in enumerate(FUNDAMENTAL_SLOTS):
            if i == (r + offset) % len(FUNDAMENTAL_SLOTS):
                family = "principal"
            else:
                family = others[(j + r) % len(others)]
                j += 1
            t, family = _fresh_type(rng, n, k, family, seen, size)
            seen.add((t, k))
            ops.append({"n": n, "type": list(t), "k": k, "family": family})
        rng.shuffle(ops)
        yield ops


def verify_rounds(rng):
    sweep = [
        (weyl_dim(VERIFY_N, lam), t, lam)
        for boxes in range(VERIFY_MAX_BOXES + 1)
        for lam in partitions(boxes, VERIFY_N - 1)
        for t in types(VERIFY_N)
    ]
    sweep.sort()
    blocks = [sweep[i:i + VERIFY_STRATA] for i in range(0, len(sweep), VERIFY_STRATA)]
    while True:
        for block in blocks:
            rng.shuffle(block)
        for j in range(VERIFY_STRATA):
            ops = [
                {"n": VERIFY_N, "type": list(b[j][1]), "partition": list(b[j][2])}
                for b in blocks if j < len(b)
            ]
            rng.shuffle(ops)
            yield ops


def cli_rounds(rng):
    phase = rng.randrange(len(CLI_SMALL_TYPES) * len(CLI_LARGE_TYPES))
    for r in itertools.count():
        first = rng.randint(19, 21)
        ops = [{"n": 4, "type": list(CLI_SMALL_TYPES[(r + phase) % len(CLI_SMALL_TYPES)]),
                "partition": [first, first // 2, first // 4]}]
        for _ in range(3):
            first = rng.randint(58, 62)
            ops.append({"n": 3, "type": [3], "partition": [first, first // 2]})
        first = rng.randint(94, 98)
        ops.append({"n": 3, "type": list(CLI_LARGE_TYPES[(r + phase) % len(CLI_LARGE_TYPES)]),
                    "partition": [first, first // 2]})
        rng.shuffle(ops)
        yield ops


_ROUNDS = {
    "recursion": recursion_rounds,
    "fundamental": fundamental_rounds,
    "verify": verify_rounds,
    "cli_cache": cli_rounds,
}


def rounds_for(workload, seconds):
    """The number of rounds in a run of `seconds`."""
    return max(FIXED_ROUNDS[workload], round(seconds * ROUNDS_PER_S[workload]))


def rounds(workload, seed):
    """The endless, seeded stream of rounds for one workload."""
    return _ROUNDS[workload](random.Random(f"{workload}/{seed}"))
