"""No module-level private name of the library goes unread.

Each ``src/sigmak`` module is parsed with ``ast``.  A module-level ``def``,
``class`` or assignment whose name starts with a single underscore must be
read somewhere in the package: as an ``ast.Name`` in a load context, or as
the attribute of an attribute chain (``module._name``).  A helper whose last
caller was deleted then fails Tier-1 instead of lingering.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sigmak"
FILES = sorted(PACKAGE.glob("*.py"))


def _defined(tree: ast.Module):
    """(name, line) for each private name that a module-level statement binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name[:1] == "_" and name[:2] != "__":
                yield name, node.lineno


def _read(trees) -> set[str]:
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def dead_private_names(paths, path: Path) -> list[str]:
    """The private names defined at the top of `path` that no file of `paths` reads."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    read = _read(trees.values())
    return [f"{name} (line {line})" for name, line in _defined(trees[path]) if name not in read]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_dead_private_names(path):
    assert dead_private_names(FILES, path) == []


def test_the_scan_sees_a_dead_private_name(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "_LIMIT = 3\n_a, _b = 1, 2\n__all__ = []\n"
        "def _used():\n    return _a\n"
        "class _Dead:\n    pass\n"
    )
    user.write_text("import lib\nprint(lib._used(), lib._LIMIT)\n")
    assert dead_private_names([lib, user], lib) == ["_b (line 2)", "_Dead (line 6)"]
