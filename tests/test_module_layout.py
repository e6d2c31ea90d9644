"""The hot-path modules hold only code that a production path calls; the
single-vector oracles the tests compare against live in rscf.reference, which
no package module imports."""

import ast
from pathlib import Path

import pytest

import rscf

PACKAGE = Path(rscf.__file__).parent
HOT_PATH = ("models", "transforms", "objectives")
# modules whose top-level names must each have a production caller
PRODUCTION_ONLY = HOT_PATH + ("evaluation", "analysis")


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of every module an import statement may bind, with
    relative imports resolved against the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "rscf" + (f".{base}" if base else "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def _names(node: ast.AST) -> set[str]:
    """Identifiers a node reads: bare names, attribute names and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _test_only(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """Top-level functions and classes of `module` that no production path
    reaches: a name is live when another package module (not rscf.reference)
    or a module-level statement reads it, or a live definition of its own
    module does."""
    defs = {node.name: node for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    roots = set()
    for name, tree in trees.items():
        if name not in (module, "reference"):
            roots |= _names(tree)
    for node in trees[module].body:
        if node not in defs.values():
            roots |= _names(node)
    live = set(defs) & roots
    frontier = list(live)
    while frontier:
        name = frontier.pop()
        for ref in (_names(defs[name]) & set(defs)) - live - {name}:
            live.add(ref)
            frontier.append(ref)
    return set(defs) - live


def _unread_methods(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """Methods (other than dunders) of `module`'s classes whose name no
    package module except rscf.reference reads as an attribute."""
    read = {node.attr for name, tree in trees.items() if name != "reference"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {f"{cls.name}.{fn.name}"
            for cls in trees[module].body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("__") and fn.name not in read}


def test_no_package_module_imports_reference():
    offenders = [name for name, tree in _trees().items()
                 if name != "reference" and "rscf.reference" in _imported_modules(tree)]
    assert offenders == []


@pytest.mark.parametrize("module", PRODUCTION_ONLY)
def test_hot_path_module_has_no_test_only_names(module):
    assert _test_only(module, _trees()) == set()


@pytest.mark.parametrize("module", HOT_PATH)
def test_hot_path_module_has_no_unread_methods(module):
    assert _unread_methods(module, _trees()) == set()
