"""The configuration surface is the table in the README, and nothing else.

Every ``REPRO_*`` environment variable the package knows is one row of
the README's "Configuration" table, and each is *resolved* — read from
``os.environ`` to decide something — in exactly the one module its row
names.  A new knob therefore cannot arrive undocumented, and a second
read site for an old one cannot arrive at all.  Nothing under ``src/``
writes the environment: a setting that has to reach a run travels as an
argument.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KNOB = re.compile(r"REPRO_[A-Z_]+")
ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|[^|]*\| `(repro\.[a-z_.]+)` \|", re.M)


def _table() -> dict[str, str]:
    """knob -> the module the README says reads it."""
    return dict(ROW.findall((ROOT / "README.md").read_text()))


def _modules() -> dict[str, ast.Module]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _scope_nodes(scope: ast.AST):
    """Nodes of one scope (a module or a function), nested functions excluded."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))


def _environ_keys(scope: ast.AST) -> tuple[list[ast.AST], int]:
    """(key expressions *scope* reads from ``os.environ``, how often it writes it)."""
    reads, writes = [], 0
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            if isinstance(node.ctx, ast.Load):
                reads.append(node.slice)
            else:
                writes += 1
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _is_environ(node.func.value)
        ):
            if node.func.attr == "get":
                reads.append(node.args[0])
            else:  # pop / setdefault / update
                writes += 1
    return reads, writes


def _scopes(tree: ast.Module) -> list[ast.AST]:
    return [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]


def test_knobs_in_src_are_exactly_the_documented_table():
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(KNOB.findall(path.read_text()))
    assert found == set(_table()) and len(found) == 2


def test_src_never_writes_the_environment():
    writers = {
        module
        for module, tree in _modules().items()
        for scope in _scopes(tree)
        if _environ_keys(scope)[1]
    }
    assert writers == set()


def test_each_knob_is_resolved_in_the_one_module_its_row_names():
    modules = _modules()
    # NAME = "REPRO_X" constants, so `os.environ.get(catalog.DIR_ENV)` resolves.
    constants = {
        target.id: node.value.value
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and KNOB.fullmatch(node.value.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def knob_of(key: ast.AST) -> str | None:
        if isinstance(key, ast.Constant):
            return key.value
        name = getattr(key, "id", None) or getattr(key, "attr", None)
        return constants.get(name)

    readers: dict[str, set[str]] = {}
    for module, tree in modules.items():
        for scope in _scopes(tree):
            for key in _environ_keys(scope)[0]:
                knob = knob_of(key)
                assert knob is not None, f"{module}: unresolvable environ key"
                readers.setdefault(knob, set()).add(module)
    assert readers == {knob: {module} for knob, module in _table().items()}
