"""Static checks on the package source, read with :mod:`ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nndiff"
# bench/tracer.py rebinds qp.aypx, so qp keeps importing it
KEPT = {("qp.py", "aypx")}


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, unless ``__all__`` exports them."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_finds_an_unused_import():
    source = "import os.path\nimport sys as system\nfrom x import y, z\n__all__ = ['z']\ny()\n"
    assert unused_imports(source) == ["os", "system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = [name for name in unused_imports(path.read_text()) if (path.name, name) not in KEPT]
    assert unused == []
