"""The benchmark's tracer patches branchkit's module bindings by name.

perfbench/tracer.py is frozen with the benchmark, so a binding it patches
must not disappear from branchkit; a lost one only shows as a "not traced"
warning in a traced bench run.  This keeps the check in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the converters left the recursion core before the tracer was frozen, and
# the wedge route and the oracle read their multiplicities off packed counts
STALE = [
    "branchkit.branching.omega_to_partition",
    "branchkit.branching.partition_to_omega",
    "branchkit.fundamental.mult_from_multiset",
    "branchkit.oracle.mult_from_multiset",
    "branchkit.pieri.omega_to_partition",
    "branchkit.pieri.partition_to_omega",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
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
