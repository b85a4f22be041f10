"""No module under ``src/``, ``tests/``, ``examples/`` or ``scripts/``
imports a name it never uses.

A module-level import counts as used when its bound name is read
anywhere in the module, appears in a string annotation (a
``TYPE_CHECKING`` import such as ``"FaultPlan | None"``) or is listed in
``__all__``.  Package ``__init__.py`` files are exempt: their imports
are the re-exports that make up the public surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "examples", "scripts")


def _module_imports(tree: ast.Module):
    """Import statements at module level, including those nested in
    top-level ``if``/``try`` blocks (but not in functions or classes)."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            stack.extend(ast.iter_child_nodes(node))


def _string_annotation_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for leaf in ast.walk(annotation) if annotation else ():
            if not (isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)):
                continue
            try:
                parsed = ast.parse(leaf.value, mode="eval")
            except SyntaxError:  # a Literal["..."] value, not a type
                continue
            names |= {
                name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)
            }
    return names


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {ast.literal_eval(element) for element in node.value.elts}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every module-level import ``source`` never uses."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _string_annotation_names(tree) | _all_names(tree)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scanner_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from dataclasses import dataclass, field\n"
        "if TYPE_CHECKING:\n"
        "    from x import Plan, Unused\n"
        "from y import exported\n"
        "__all__ = ['exported']\n"
        "def f(plan: 'Plan | None') -> None:\n"
        "    return os.path.join(dataclass)\n"
    )
    assert unused_imports(source) == [(4, "field"), (6, "Unused")]


def test_no_unused_module_level_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert offenders == []
