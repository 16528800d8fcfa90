"""Command line interface.

Subcommands: branch, fundamental, table, pieri, triple, verify.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 verification
mismatch (a closed form or the oracle disagrees), 2 invalid input, 3 internal
failure (a consistency check or any unexpected exception), 4 oracle budget
exceeded.

`branch --cache` keeps the engine's memo table in a version-tagged file of
compact JSON with sorted keys, its entries checked on load by the engine's
`cache` setter, written entry by entry and replaced atomically (a failed
write names the file, not its temporary twin), and rewritten only when a run
computed a new entry, before the answer is printed.  A run that loaded the
file and then fails a consistency check is repeated once without it; if that
run passes, the file holds a wrong entry (exit 2).  On load, the trivial and
fundamental entries of the queried type are compared with {0: 1} and
fundamental_branching, and a mismatch is rejected the same way.
`verify` runs weight-major, one task per weight for every type, on
min(--jobs, CPU count) worker processes, and imports the process pool only
when that is more than one; it alone imports the tableau oracle, when it
runs.  It refuses a sweep of more than VERIFY_MAX_PAIRS (type, weight) pairs,
or of pairs whose weights hold more than VERIFY_MAX_COEFFS coefficients,
n - 1 each (exit 2), counted from partition numbers before it lists a type
or a weight.  `pieri` refuses a set of more than PIERI_MAX_MEMBERS members,
or of more than PIERI_MAX_PARTS parts, n each (exit 2), counted by
pieri_size before it builds any.  `triple` refuses n above TRIPLE_MAX_N
(exit 2) before it builds a matrix, and a type of rank above
TYPE_MAX_N (exit 2) is refused before any tuple of n entries is built.  JSON
output goes to stdout in blocks as it is encoded.
"""

import argparse
import json
import os
import sys
from itertools import islice
from operator import sub

from .branching import BranchEngine, branch
from .fundamental import ClosedFormMismatchError, fundamental_branching
from .pieri import pieri_set, pieri_size
from .sl2 import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InternalConsistencyError,
    highest_component,
    lowest_component,
    rep_dimension,
)
from .subalgebra import SubalgebraType, all_types, build_triple
from .weights import (
    DominantWeight,
    dim_irrep,
    iter_dominant_weights,
    omega_to_partition,
    padded_partition,
    partition_to_omega,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

CACHE_ENV_VAR = "BRANCHKIT_CACHE"
CACHE_VERSION = 1
# `triple` prints three dense n x n matrices as indented JSON, streamed; at
# this rank that takes about 0.16 s and 19 MB of peak RSS on a 2-vCPU VM, with
# interpreter start, and the matrices' tuples grow as n^2
TRIPLE_MAX_N = 300
# a type of rank past this is refused where it is parsed, before a command
# builds any of its n-long tuples: the weight's coefficients and H's diagonal
# alone take 64 MB at rank 10^6, and `branch --partition 1` of principal
# sl_{10^7} ended in MemoryError after 2 s under a 1 GB address-space limit.
# On a 2-vCPU VM, `branch`, `fundamental` and `table` at rank 10^6 each ran past
# 20 s; the cap is what can be held, not what finishes
TYPE_MAX_N = 10**6
# `verify` refuses a sweep of more (type, weight) pairs than this, counted
# before it lists any.  README's largest sweep has 1922; every type of sl_20
# up to 6 boxes, 18780 pairs, takes about 4.5 s with interpreter start on a
# 2-vCPU VM, and larger weights cost more per pair
VERIFY_MAX_PAIRS = 10**5
# and one whose pairs times n - 1, the coefficients of a weight, pass this:
# at rank 10^9, 7 pairs asked for gigabytes.  Every type of sl_20 up to 6
# boxes comes to 356820
VERIFY_MAX_COEFFS = 10**6
# `pieri` refuses a set of more members than this, counted before it builds
# any: sl_22's 705432 members of (21, 20, ..., 1) and k = 11 print in about
# 16 s and 410 MB of peak RSS on a 2-vCPU VM, and sl_24's 2704156 of k = 12
# ended in MemoryError under a 1 GB address-space limit
PIERI_MAX_MEMBERS = 10**6
# and one whose members times n, the parts it holds, pass this: sl_180's
# 955860 members of k = 3 ended in MemoryError under the same limit
PIERI_MAX_PARTS = 2 * 10**7


def _parse_ints(text, what):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma separated integers, got {text!r}")


def _parse_type(text, n) -> SubalgebraType:
    if n > TYPE_MAX_N:
        raise ValueError(f"types are parsed only up to rank n={TYPE_MAX_N}, got n={n}")
    t = SubalgebraType(_parse_ints(text, "type"))
    if t.n != n:
        raise ValueError(f"type {t} is a partition of {t.n}, not of n={n}")
    return t


def _parse_weight(args) -> DominantWeight:
    if args.weight is not None and args.partition is not None:
        raise ValueError("supply --weight or --partition, not both")
    if args.weight is not None:
        return DominantWeight(args.n, _parse_ints(args.weight, "--weight"))
    if args.partition is not None:
        return partition_to_omega(_parse_ints(args.partition, "--partition"), args.n)
    raise ValueError("one of --weight or --partition is required")


# ---------------------------------------------------------------- formatting

def _print_json(payload):
    """Write payload to stdout as indented JSON with sorted keys, and a newline.

    The text goes out in blocks of encoder chunks: json.dumps (indent forces
    the pure-Python encoder) would hold every chunk at once, several times the
    size of the text, and json.dump writes each chunk on its own, which costs
    more time on sys.stdout.  stdout is read at the call, so a replaced one
    gets the text.
    """
    out = sys.stdout
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while block := "".join(islice(chunks, 4096)):
        out.write(block)
    out.write("\n")


def _latex_multvector(mv) -> str:
    terms = []
    for j in sorted(mv):
        m = mv[j]
        terms.append(("" if m == 1 else str(m)) + f"F_{{{j}}}")
    return "\\oplus ".join(terms) if terms else "0"


def _emit_multvector(fmt, mv, dimension, json_extra):
    if fmt == "json":
        payload = dict(json_extra)
        payload["multiplicities"] = {str(j): mv[j] for j in sorted(mv)}
        payload["dimension"] = str(dimension)
        payload["highest"] = highest_component(mv)
        payload["lowest"] = lowest_component(mv)
        _print_json(payload)
    elif fmt == "csv":
        print("j,multiplicity")
        for j in sorted(mv):
            print(f"{j},{mv[j]}")
    elif fmt == "latex":
        print(_latex_multvector(mv))
    else:
        print("j  multiplicity")
        for j in sorted(mv):
            print(f"{j}  {mv[j]}")
        print(f"dimension {dimension}")
        print(f"highest {highest_component(mv)}")
        print(f"lowest {lowest_component(mv)}")


# ------------------------------------------------------------------ caching

def _cache_key_str(key) -> str:
    n, blocks, lam = key
    return f"{n}|{','.join(map(str, blocks))}|{','.join(map(str, lam))}"


def _cache_key_parse(text):
    n_str, blocks_str, lam_str = text.split("|")
    return int(n_str), _parse_ints(blocks_str, "cache key"), _parse_ints(lam_str, "cache key")


def _unique_keys(pairs) -> dict:
    """object_pairs_hook for json.load: a JSON object with a key repeated."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("a JSON object repeats a key")
    return obj


def load_cache(path, t) -> dict:
    """Read a memo cache file as {(n, blocks, lambda): {j: m_j}}, for the
    BranchEngine.cache setter to check.  ValueError: text that is not JSON or
    nests deeper than the parser's recursion limit, any malformed shape, a
    version other than the int 1, a key or component written or spelled twice,
    or an entry of type t for 0 or omega_k that is not {0: 1} or
    fundamental_branching (other types go unchecked)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"cache {path} is malformed ({type(exc).__name__}: {exc})") from None
    version = data.get("version") if isinstance(data, dict) else None
    if type(version) is not int or version != CACHE_VERSION:
        raise ValueError(f"cache {path} has version {version}, expected {CACHE_VERSION}")
    cache = {}
    try:
        for key_str, mults in data["entries"].items():
            mv = cache[_cache_key_parse(key_str)] = {int(j): m for j, m in mults.items()}
            if len(mv) < len(mults):
                raise ValueError(f"entry {key_str!r} spells a component twice")
        if len(cache) < len(data["entries"]):
            raise ValueError("two keys name the same entry")
    except (AttributeError, KeyError, ValueError) as exc:
        raise ValueError(f"cache {path} is malformed ({type(exc).__name__}: {exc})") from None
    for k in range(t.n):
        key = (t.n, t.blocks, (1,) * k)
        if key in cache and cache[key] != (want := fundamental_branching(t, k) if k else {0: 1}):
            raise ValueError(
                f"cache {path} holds a wrong entry: {_cache_key_str(key)} "
                f"is {cache[key]}, expected {want}"
            )
    return cache


def save_cache(path, cache):
    """Write the memo cache to a temporary file beside path, then rename it over path.

    The bytes are json.dumps(payload, sort_keys=True, separators=(",", ":"))
    and a newline, payload being {"version": 1, "entries": {key string:
    {str(j): m_j}}}, but the entries go out one at a time in the order of
    their key strings: no copy of the memo with string keys, and no text of
    the whole file, is ever held.  Each entry's pairs "j":m_j, j and m_j
    ints, are written straight from the memo in the order of str(j), the
    order sort_keys gives them.  An OSError names path, not the temporary
    file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write('{"entries":{')
            sep = ""
            # key strings are distinct, so the sort never compares two entries
            for key_str, mv in sorted(zip(map(_cache_key_str, cache), cache.values())):
                components = ",".join(f'"{j}":{mv[j]}' for j in sorted(mv, key=str))
                fh.write(f"{sep}{json.dumps(key_str)}:{{{components}}}")
                sep = ","
            fh.write(f'}},"version":{CACHE_VERSION}}}\n')
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write cache {path}: {exc.strerror or exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ----------------------------------------------------------------- commands

def _checked_branch(engine, t, w):
    mv = engine.branch(t, w)
    dim = dim_irrep(w)
    if rep_dimension(mv) != dim:
        raise InternalConsistencyError(
            f"dimension mismatch: sum m_j(j+1) = {rep_dimension(mv)}, dim L(lambda) = {dim}"
        )
    return mv, dim


def cmd_branch(args) -> int:
    t = _parse_type(args.type, args.n)
    w = _parse_weight(args)
    cache_path = args.cache or os.environ.get(CACHE_ENV_VAR)
    loaded = bool(cache_path) and os.path.exists(cache_path)
    memo = load_cache(cache_path, t) if loaded else {}
    try:
        engine = BranchEngine(cache=memo)
    except ValueError as exc:
        raise ValueError(f"cache {cache_path} is malformed (ValueError: {exc})") from None
    try:
        mv, dim = _checked_branch(engine, t, w)
    except InternalConsistencyError:
        if not loaded:
            raise
        # a failure that a run without the file does not repeat is the file's
        _checked_branch(BranchEngine(), t, w)
        raise ValueError(
            f"cache {cache_path} holds a wrong entry: branch({t}, {w}) fails its "
            "consistency checks with it and passes them without it"
        ) from None
    # with nothing computed, the file already holds every entry of the memo
    saved = bool(cache_path) and engine.stats["computed"] > 0
    if saved:
        save_cache(cache_path, engine.cache)
    _emit_multvector(args.format, mv, dim, {
        "n": args.n,
        "type": list(t.blocks),
        "lambda_omega": list(w.coeffs),
        "lambda_partition": list(omega_to_partition(w)),
    })
    if args.stats:
        print(f"computed={engine.stats['computed']} hits={engine.stats['hits']} "
              f"cache_entries={len(engine)} cache_saved={int(saved)}", file=sys.stderr)
    return EXIT_OK


def cmd_fundamental(args) -> int:
    t = _parse_type(args.type, args.n)
    mv = fundamental_branching(t, args.k, verify=args.verify)
    _emit_multvector(
        args.format,
        mv,
        rep_dimension(mv),
        {"n": args.n, "type": list(t.blocks), "k": args.k},
    )
    return EXIT_OK


def cmd_table(args) -> int:
    t = _parse_type(args.type, args.n)
    table = {k: fundamental_branching(t, k) for k in range(1, args.n)}
    if args.format == "json":
        payload = {
            "n": args.n,
            "type": list(t.blocks),
            "table": {
                str(k): {str(j): mv[j] for j in sorted(mv)} for k, mv in table.items()
            },
        }
        _print_json(payload)
    elif args.format == "csv":
        print("k,j,multiplicity")
        for k, mv in table.items():
            for j in sorted(mv):
                print(f"{k},{j},{mv[j]}")
    elif args.format == "latex":
        for k, mv in table.items():
            print(f"L(\\omega_{{{k}}}): {_latex_multvector(mv)}")
    else:
        for k, mv in table.items():
            body = " + ".join(
                (f"{mv[j]}F_{j}" if mv[j] > 1 else f"F_{j}") for j in sorted(mv)
            )
            print(f"k={k}: {body}  (dim {rep_dimension(mv)})")
    return EXIT_OK


def cmd_pieri(args) -> int:
    w = DominantWeight(args.n, _parse_ints(args.weight, "--weight"))
    lam = padded_partition(w)
    cap = min(PIERI_MAX_MEMBERS, PIERI_MAX_PARTS // args.n)
    if pieri_size(lam, args.k, cap) > cap:
        raise ValueError(f"pieri lists at most {PIERI_MAX_MEMBERS} members and "
                         f"{PIERI_MAX_PARTS} parts, n = {args.n} per member; "
                         f"P(lambda, {args.k}) has more, so lower --k or --n")
    for mu in sorted(pieri_set(lam, args.k), reverse=True):
        omega_str = ",".join(map(str, map(sub, mu, mu[1:])))
        part_str = "(" + ",".join(str(x) for x in mu if x) + ")"
        print(f"{omega_str}  {part_str}")
    return EXIT_OK


def cmd_triple(args) -> int:
    if args.n > TRIPLE_MAX_N:
        raise ValueError(f"triple exports dense n x n matrices only up to n={TRIPLE_MAX_N}, "
                         f"got n={args.n}")
    t = _parse_type(args.type, args.n)
    H, X, Y = build_triple(t)
    payload = {"n": args.n, "type": list(t.blocks), "H": H, "X": X, "Y": Y}
    _print_json(payload)
    return EXIT_OK


def _verify_task(task):
    """Every type against one weight: (type index, recursion, oracle) for each mismatch."""
    from .oracle import oracle_branch  # only verify runs the oracle

    all_blocks, w, budget = task
    bad = []
    for k, blocks in enumerate(all_blocks):
        t = SubalgebraType(blocks)
        try:
            got, want = branch(t, w), oracle_branch(t, w, budget=budget)
        except BudgetExceededError as exc:
            lam = omega_to_partition(w)
            raise BudgetExceededError(f"type {t}, lambda {lam or '()'}: {exc}") from None
        if got != want:
            bad.append((k, got, want))
    return bad


def _verify_results(tasks, jobs):
    """_verify_task over tasks, in order; one pool of `jobs` processes serves all."""
    if jobs == 1:
        yield from map(_verify_task, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # only here: costly to import
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn"))
    try:
        yield from pool.map(_verify_task, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def _partition_counts(size, parts, enough):
    """[p_0, ..., p_size], p_s the partitions of s into at most `parts` parts.

    Conjugation makes these the partitions into parts of at most `parts`
    boxes, counted one part size at a time; the counts only grow, and the
    count stops early, short, once enough(counts) holds.
    """
    counts = [1] + [0] * size
    for part in range(1, min(parts, size) + 1):
        for s in range(part, size + 1):
            counts[s] += counts[s - part]
        if enough(counts):
            break
    return counts


def _check_sweep_size(n, n_types, max_boxes):
    """ValueError if the sweep holds more than VERIFY_MAX_PAIRS (type, weight) pairs,
    or more than VERIFY_MAX_COEFFS coefficients in their weights, n - 1 per pair.

    n_types is None for every type of sl_n, p(n) - 1 of them: at least
    n // 2 (the type [n] and the two-block ones), so a large n is refused
    without counting.  There is a weight of each size up to max_boxes.
    """
    cap = VERIFY_MAX_PAIRS
    if n_types is None:
        n_types = n // 2 if n > 2 * cap else _partition_counts(
            n, n, lambda c: c[-1] > cap + 1)[-1] - 1
    if n_types <= cap and max_boxes < cap:
        weights = _partition_counts(max_boxes, n - 1, lambda c: n_types * sum(c) > cap)
        pairs = n_types * sum(weights)
        if pairs <= cap:
            if pairs * (n - 1) <= VERIFY_MAX_COEFFS:
                return
            raise ValueError(f"verify lists at most {VERIFY_MAX_COEFFS} weight coefficients, "
                             f"n - 1 = {n - 1} per (type, weight) pair; this sweep has "
                             f"{pairs * (n - 1)}, so lower --n, narrow --types or lower "
                             "--max-boxes")
    raise ValueError(f"verify checks at most {cap} (type, weight) pairs; this sweep has "
                     "more, so narrow --types or lower --max-boxes")


def cmd_verify(args) -> int:
    for option, value, least in (("--jobs", args.jobs, 1), ("--max-boxes", args.max_boxes, 0),
                                 ("--budget", args.budget, 0)):
        if value < least:
            raise ValueError(f"{option} must be at least {least}, got {value}")
    jobs = min(args.jobs, os.cpu_count() or 1)
    if args.types == "all":
        _check_sweep_size(args.n, None, args.max_boxes)
        types = all_types(args.n)
    else:
        types = [_parse_type(part, args.n) for part in args.types.split(";")]
        _check_sweep_size(args.n, len(types), args.max_boxes)
    weights = list(iter_dominant_weights(args.n, args.max_boxes))
    # weight-major: each task runs every type on one weight, so the oracle's
    # strip plan for that shape serves them all
    blocks = [t.blocks for t in types]
    results = _verify_results([(blocks, w, args.budget) for w in weights], jobs)
    bad = [[] for _ in types]
    for w, found in zip(weights, results):
        for k, got, want in found:
            bad[k].append((w, got, want))
    mismatches = 0
    for t, rows in zip(types, bad):
        if rows:
            mismatches += len(rows)
            print(f"type {t}: {len(rows)} MISMATCH of {len(weights)}")
            for w, got, want in rows:
                print(f"  key ({args.n}, {t.blocks}, {omega_to_partition(w)})")
                print(f"    recursion: {got}")
                print(f"    oracle:    {want}")
        else:
            print(f"type {t}: {len(weights)} weights ok")
    print("OK" if mismatches == 0 else f"FAILED: {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


# ------------------------------------------------------------------- parser

def _parent(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def _command(sub, name, func, help, *parents) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help, parents=parents)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchkit",
        description="Exact branching of irreducible sl_n representations to sl_2 subalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    n_opt = _parent("--n", type=int, required=True, help="rank of sl_n")
    typed = (n_opt, _parent("--type", required=True, help="subalgebra type, e.g. 3,2"))
    fmt = _parent("--format", choices=("pretty", "json", "csv", "latex"), default="pretty",
                  help="output format (default pretty)")

    p = _command(sub, "branch", cmd_branch, "decompose Res L(lambda) for a dominant weight",
                 *typed, fmt)
    p.add_argument("--weight", help="fundamental-weight coordinates a_1,...,a_{n-1}")
    p.add_argument("--partition", help="highest weight as a partition l_1,l_2,...")
    p.add_argument("--cache", help=f"JSON memo cache path (default ${CACHE_ENV_VAR})")
    p.add_argument("--stats", action="store_true", help="print cache statistics to stderr")

    p = _command(sub, "fundamental", cmd_fundamental, "decompose Res L(omega_k)", *typed, fmt)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--verify", action="store_true",
        help="cross-check every applicable closed form against the weight multiset",
    )

    _command(sub, "table", cmd_table, "fundamental branchings for every k", *typed, fmt)

    p = _command(sub, "pieri", cmd_pieri, "list P(lambda, k), lex-descending", n_opt)
    p.add_argument("--weight", required=True)
    p.add_argument("--k", type=int, required=True)

    _command(sub, "triple", cmd_triple, "export the (H, X, Y) matrices as JSON", *typed)

    p = _command(sub, "verify", cmd_verify, "sweep branch against the tableau oracle", n_opt)
    p.add_argument(
        "--types", default="all",
        help="'all' or a semicolon separated list of partitions, e.g. '5;3,2'",
    )
    p.add_argument("--max-boxes", type=int, default=6, help="largest lambda size (default 6)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="oracle tableau cap")

    return parser


# first match wins: BudgetExceededError and InternalConsistencyError are
# RuntimeErrors; anything else, a RecursionError included, falls through to
# the catch-all
EXIT_CODES = (
    (BudgetExceededError, EXIT_BUDGET),
    (InternalConsistencyError, EXIT_INTERNAL),
    (ClosedFormMismatchError, EXIT_MISMATCH),
    ((ValueError, OSError), EXIT_USAGE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, code in EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        # any other failure is a bug: report it, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
