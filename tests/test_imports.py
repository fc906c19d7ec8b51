"""Every name a package module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule: a stray
import is a dependency nothing needs and a hint of code left behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "amr2text"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other name in ``source`` reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom .langs import a, b as c\nimport x.y\nprint(a, x)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: c"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
