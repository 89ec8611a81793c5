"""Every private module-level name of a spinalg module is read in the package.

Parsed with ast, nothing is imported.  A private name is one bound at the
top level of a module (a def, a class or an assignment) that starts with a
single underscore.  It counts as read when some module of the package loads
it as a name or as an attribute (cc._wedge), outside its own definition; a
name read only by the tests or by perfbench is an orphan of the package."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinalg"
MODULES = sorted(SRC.glob("*.py"))


def _private_names(tree: ast.Module) -> dict[str, int]:
    """Each private name bound at the top level of the module, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """The names the module loads, bare or as attributes, each top-level
    definition's own body left out so that recursion does not count."""
    read = set()
    for node in tree.body:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                names.add(sub.attr)
        read |= names - {getattr(node, "name", None)}
    return read


def _orphans(sources: dict[str, str]) -> dict[str, tuple[str, int]]:
    """Private top-level names of the sources (module name -> text) that no
    source reads: name -> (module, line)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return {
        name: (module, line)
        for module, tree in trees.items()
        for name, line in _private_names(tree).items()
        if name not in read
    }


def test_every_private_helper_is_read_in_the_package():
    orphans = _orphans({p.name: p.read_text() for p in MODULES})
    assert not orphans, f"private names read nowhere in spinalg: {orphans}"


def test_an_orphan_is_caught():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used(x):\n    return x\n\ndef _dead(x):\n    return _dead(x - 1)\n\nclass _Kept:\n    pass\n",
        "b.py": "from . import a\n\ndef f():\n    return a._used(a._LIMIT), a._Kept\n\ndef __getattr__(name):\n    pass\n",
    }
    assert _orphans(sources) == {"_dead": ("a.py", 6)}
