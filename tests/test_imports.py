"""Each module of branchkit, the package's __init__ aside, uses every name it
imports: a binding kept only so that something outside can patch it is dead
code, so the name goes with its last use."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "branchkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that source imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
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
