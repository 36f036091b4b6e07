"""Static checks over the package source, the demos and the README."""

import ast
import re
from pathlib import Path

import pytest

import tambara

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tambara").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_asserts_in_package(path):
    # `python -O` strips assert statements; invariant checks raise instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_in_package(path):
    # arithmetic stays in exact ints: no float constant, no true division,
    # and no use of the name float
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert found == [], f"{path.name}: float arithmetic at lines {found}"


def _root_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "tambara" and node.level == 0
        for alias in node.names
    }


def test_demos_and_readme_import_only_exported_names():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    imported = set().union(*map(_root_imports, sources))
    assert "BurnsideElement" in imported  # the README block was found
    assert imported <= set(tambara.__all__), sorted(imported - set(tambara.__all__))
    assert all(hasattr(tambara, name) for name in tambara.__all__)
