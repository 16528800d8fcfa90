"""Each module of branchkit, the package's __init__ aside, uses every name it
imports: a binding kept only so that something outside can patch it is dead
code, so the name goes with its last use.  The tableau oracle imports from
no module of the package but those its docstring names, so that it stays an
independent route to the answers of the other two, and the table class it
shares with the recursion imports from none."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "branchkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def import_nodes(tree):
    """The import statements of tree, at any depth."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def unused_imports(source: str) -> list[str]:
    """Names that source imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in import_nodes(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os.path\nimport sys as s\nfrom math import comb, gcd\nx = comb(2, 1)\n"
    assert unused_imports(source) == ["gcd", "os", "s"]
    assert unused_imports("import os.path\nx = os.path.sep\n") == []


def test_there_are_modules_to_check():
    assert {"branching.py", "cli.py", "fundamental.py", "qcomb.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set[str]:
    """The modules of branchkit that source imports from, at any depth
    ("branchkit" for the package itself)."""
    found = set()
    for node in import_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            module = ".".join(filter(None, ["branchkit" if node.level else "", node.module]))
            # from the package itself, each name may be one of its modules
            modules = [f"{module}.{a.name}" for a in node.names] if module == "branchkit" else [module]
        found.update(m.partition(".")[2] or m for m in modules if m.partition(".")[0] == "branchkit")
    return found


def test_the_check_finds_every_package_import():
    source = (
        "from . import qcomb\nfrom .sl2 import mult_from_multiset\nimport branchkit.pieri\n"
        "from branchkit.weights import Partition\nimport os\nfrom collections import Counter\n"
        "def f():\n    from .fundamental import wedge_weight_multiset\n"
        "    from branchkit import branching\n"
    )
    assert package_imports(source) == {
        "qcomb", "sl2", "pieri", "weights", "fundamental", "branching"
    }
    assert package_imports("import branchkit\n") == {"branchkit"}


def test_the_oracle_imports_only_what_its_docstring_names():
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"sl2", "subalgebra", "tables", "weights"}


def test_the_table_class_imports_nothing_from_the_package():
    source = (SRC / "tables.py").read_text(encoding="utf-8")
    assert package_imports(source) == set()
