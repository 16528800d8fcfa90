"""The benchmark's tracer patches branchkit's module bindings by name.

perfbench/tracer.py is frozen with the benchmark, so a binding it patches
must not disappear from branchkit; a lost one only shows as a "not traced"
warning in a traced bench run.  This keeps the check in the tier-1 suite.
The tracer imports numpy, but installing and restoring its patches never
reads it, so where numpy is absent a stand-in module serves the import.
"""

import importlib.util
import sys
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the converters left the recursion core before the tracer was frozen, the
# wedge route and the oracle read their multiplicities off packed counts, the
# engine names a negative multiplicity from packed digits, and one product
# over the blocks replaced the hook, two-block and k = 2 closed forms
STALE = [
    "branchkit.branching.cg_convolve",
    "branchkit.branching.fundamental_branching",
    "branchkit.branching.mv_subtract",
    "branchkit.branching.omega_to_partition",
    "branchkit.branching.partition_to_omega",
    "branchkit.fundamental.branching_hook",
    "branchkit.fundamental.branching_k2_general",
    "branchkit.fundamental.branching_two_blocks",
    "branchkit.fundamental.cg_convolve",
    "branchkit.fundamental.mult_from_multiset",
    "branchkit.oracle.mult_from_multiset",
    "branchkit.pieri.omega_to_partition",
    "branchkit.pieri.partition_to_omega",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    try:
        import numpy  # noqa: F401
    except ImportError:
        sys.modules["numpy"] = types.ModuleType("numpy")
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules["numpy"]
    else:
        spec.loader.exec_module(module)
    return module


def test_tracer_finds_its_targets_and_restores_them():
    tr = load_tracer()
    t = tr.Tracer()
    tr.install(t)
    patched = list(t._patched)
    try:
        assert sorted(t.missing) == STALE
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        t.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
