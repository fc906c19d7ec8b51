"""Every top-level definition in the package has a caller outside the tests.

A stdlib-``ast`` stand-in for a dead-code linter: a function or class that
only tests use belongs in ``tests/`` (as the reference searches in
``oracles.py`` and the toy corpus in ``toydata.py`` do).  A definition
counts as used when its own module reads its name outside its body, or
another file of ``src/`` or ``perfbench/`` (read as source, not imported)
imports it or reads it as an attribute of its imported module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amr2text"

# Kept without a caller, each for a stated reason.
ALLOWED = {
    "gradcheck_mode": "switches the library's default dtype to float64 for gradient checks",
    "save_trainer_state": "Adam's state for resuming; the CLI's resume will call it",
    "load_trainer_state": "Adam's state for resuming; the CLI's resume will call it",
}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module ``from X import ...`` reads from: "" for the package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "amr2text":
        return ""
    if node.module and node.module.startswith("amr2text."):
        return node.module.removeprefix("amr2text.")
    return None


def imported_uses(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs a file reads from the package: each name it
    imports from a module, and each attribute it reads off an imported module."""
    uses: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        module = _package_module(node) if isinstance(node, ast.ImportFrom) else None
        for alias in node.names if module is not None else ():
            if module:
                uses.add((module, alias.name))
            else:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                uses.add((aliases[node.value.id], node.attr))
    return uses


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function and class of a package
    module (a ``sources`` key ``src/amr2text/<module>.py``) that no file uses."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses = set().union(*(imported_uses(tree) for tree in trees.values()))
    unused = []
    for path, tree in trees.items():
        if not path.startswith("src/amr2text/"):
            continue
        module = Path(path).stem
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            read_here = {
                sub.id
                for other in tree.body if other is not node
                for sub in ast.walk(other) if isinstance(sub, ast.Name)
            }
            if node.name not in read_here and (module, node.name) not in uses:
                unused.append(f"{module}.{node.name}")
    return unused


def test_checker_flags_a_definition_nothing_uses():
    sources = {
        "src/amr2text/a.py": "def used():\n    pass\n\ndef dead():\n    dead()\n\n"
                             "class Self:\n    def make(self):\n        return Self()\n\n"
                             "def imported():\n    pass\n\ndef attr():\n    pass\n\nused()\n",
        "src/amr2text/b.py": "from .a import imported\nfrom . import a as A\nA.attr\n"
                             "def tensor():\n    pass\n",
        "perfbench/c.py": "tensor = 1\nprint(tensor)\n",
    }
    assert unused_definitions(sources) == ["a.dead", "a.Self", "b.tensor"]


def test_every_definition_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in files}
    unused = unused_definitions(sources)
    assert [name for name in unused if name.split(".")[1] not in ALLOWED] == []
    # an allowed name that gains a caller, or goes away, leaves the list
    assert sorted(ALLOWED) == sorted(name.split(".")[1] for name in unused)
