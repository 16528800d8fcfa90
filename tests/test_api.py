"""The exported surface: exactly what the README, the demos and the benchmark use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# read, never executed: the benchmark worker imports its names from branchkit
IMPORTERS = DEMOS + [ROOT / "perfbench" / "worker.py"]

EXPORTED = {
    # highest weights, types and their dictionaries
    "DominantWeight", "SubalgebraType", "all_types", "build_triple", "dim_irrep",
    "h_diagonal", "iter_dominant_weights", "omega_to_partition", "padded_partition",
    "partition_to_omega",
    # the recursion
    "BranchEngine", "branch", "clear_cache", "lex_max_member", "pieri_set",
    "principal_highest_component",
    # fundamental representations and their closed forms
    "fundamental_branching", "mult_cayley_sylvester", "mult_macdonald", "mult_strict_count",
    "wedge_weight_multiset",
    # the tableau oracle
    "oracle_branch", "ssyt_count",
    # sl_2 multiplicity vectors and q-combinatorics
    "cg_convolve", "gaussian_binomial", "highest_component", "lowest_component", "p_k_n",
    "pi", "qpoly_str", "rep_dimension",
    # exceptions
    "BudgetExceededError", "ClosedFormMismatchError", "InternalConsistencyError",
}


def test_all_is_the_documented_surface():
    assert len(branchkit.__all__) == len(EXPORTED) == 34
    assert set(branchkit.__all__) == EXPORTED
    for name in branchkit.__all__:
        assert getattr(branchkit, name) is not None, name


def imported_from_branchkit(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "branchkit":
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_importers_use_exported_names_or_submodules(path):
    names = imported_from_branchkit(path)
    assert names
    for name in names - set(branchkit.__all__):
        assert (SRC / "branchkit" / f"{name}.py").is_file(), f"{path.name} imports {name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def shown_values(block):
    """Run a README block line by line; yield (expression, its value, the value
    its comment shows) for each expression whose comment, on its line or the
    next, is a literal or "the same" (as the expression before)."""
    namespace, prev, pending = {}, None, None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if code:
            try:
                expr = compile(code, "README.md", "eval")
            except SyntaxError:  # a statement: its comment is prose
                exec(code, namespace)
                pending = None
                continue
            pending = code, eval(expr, namespace)
        if comment and pending:
            code, value = pending
            shown = prev if comment.startswith("the same") else ast.literal_eval(comment)
            yield code, value, shown
            prev, pending = value, None


@pytest.mark.parametrize("block", README_BLOCKS, ids=("branch", "pieri_set"))
def test_readme_python_block_shows_its_values(block):
    shown = list(shown_values(block))
    assert shown
    for code, value, want in shown:
        assert value == want, code
