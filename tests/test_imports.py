"""Every name a module of the package, the tests or the scripts imports is
used in that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by `import` or `from ... import` must appear in the module as
a name (bare, or as the root of an attribute chain).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "emonet").glob("*.py") if p.name != "__init__.py")
MODULES += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
