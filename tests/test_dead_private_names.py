"""No module-level name of the library goes unread.

Each ``src/sigmak`` module is parsed with ``ast``.  A module-level ``def``,
``class`` or assignment must be read somewhere in the package: as an
``ast.Name`` in a load context, as the attribute of an attribute chain
(``module.name``), or as a name that a ``from ... import`` imports.  A helper
whose last caller was deleted then fails Tier-1 instead of lingering.

Private names (one leading underscore) have no other reader.  A public name
may also be in ``sigmak.__all__`` (``__init__.py`` imports each of those, so
they count as read) or be on ``OUTSIDE_READERS``, which names the reader
outside the package that keeps it.  That list is exact: a name that gains a
reader in the package, or is deleted, must leave it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sigmak"
FILES = sorted(PACKAGE.glob("*.py"))

OUTSIDE_READERS = {
    "solution.h_eval": "closed form of h: test_solution pins it, conftest's witness reads it",
    "solution.solution_value": "closed form of u: test_solution pins it, conftest.fd_hessian too",
    "verify.sample_point": "perfbench's tracing; the documented way to rebuild sample i",
    "symbolic.sym_sigma_k": "perfbench's certify workload",
    "doubledouble.from_product": "the TwoProd that test_doubledouble composes",
    "errors.CapabilityError": "perfbench's workloads import it",
}


def _defined(tree: ast.Module, private: bool):
    """(name, line) for each private, or each public, name that a
    module-level statement binds; dunder names are neither."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name[:2] != "__" and (name[:1] == "_") == private:
                yield name, node.lineno


def _read(trees) -> set[str]:
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unread(paths, path: Path, private: bool):
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    read = _read(trees.values())
    return [(name, line) for name, line in _defined(trees[path], private) if name not in read]


def dead_private_names(paths, path: Path) -> list[str]:
    """The private names defined at the top of `path` that no file of `paths` reads."""
    return [f"{name} (line {line})" for name, line in _unread(paths, path, private=True)]


def dead_public_names(paths, path: Path) -> set[str]:
    """The public names defined at the top of `path` that no file of `paths`
    reads, as ``module.name``."""
    return {f"{path.stem}.{name}" for name, _ in _unread(paths, path, private=False)}


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_dead_private_names(path):
    assert dead_private_names(FILES, path) == []


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_dead_public_names(path):
    listed = {name for name in OUTSIDE_READERS if name.split(".")[0] == path.stem}
    assert dead_public_names(FILES, path) == listed


def test_the_scan_sees_a_dead_private_name(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "_LIMIT = 3\n_a, _b = 1, 2\n__all__ = []\n"
        "def _used():\n    return _a\n"
        "class _Dead:\n    pass\n"
    )
    user.write_text("import lib\nprint(lib._used(), lib._LIMIT)\n")
    assert dead_private_names([lib, user], lib) == ["_b (line 2)", "_Dead (line 6)"]


def test_the_scan_sees_a_dead_public_name(tmp_path):
    lib, init, user = tmp_path / "lib.py", tmp_path / "__init__.py", tmp_path / "user.py"
    lib.write_text(
        "LIMIT = 3\n__version__ = '1'\n_private = 0\n"
        "def used():\n    return LIMIT\n"
        "def exported():\n    pass\n"
        "def dead():\n    pass\n"
        "class Dead:\n    pass\n"
    )
    init.write_text("from .lib import exported\n__all__ = ['exported']\n")
    user.write_text("from . import lib\nprint(lib.used())\n")
    assert dead_public_names([lib, init, user], lib) == {"lib.dead", "lib.Dead"}
