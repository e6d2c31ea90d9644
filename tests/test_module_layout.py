"""Package modules hold only code that a production path calls; the
single-vector oracles the tests compare against live in rscf.reference, which
no package module imports.

A production caller is any package module other than rscf.reference, or a
benchmark module under perfbench/ (its tests excluded), including the dotted
names perfbench/tracer.py patches through TRACED."""

import ast
import importlib
from pathlib import Path

import pytest

import rscf

PACKAGE = Path(rscf.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"
# every package module except the oracles is held to the scans
SCANNED = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem not in ("__init__", "reference"))


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _benchmark_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(BENCHMARK.glob("*.py")) if not path.stem.startswith("test_")]


def _traced_names(trees: list[ast.Module]) -> set[str]:
    """Each part of the dotted attribute paths in a module-level TRACED list."""
    out = set()
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
                for entry in node.value.elts:
                    out.update(entry.elts[2].value.split("."))
    return out


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


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to a module: `import x`, `import x as y`,
    `from . import x` and `from rscf import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                (node.level and node.module is None) or node.module == "rscf"):
            out.update(alias.asname or alias.name for alias in node.names)
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


def _callers(trees: dict[str, ast.Module], skip: str | None = None) -> list[ast.Module]:
    """Production callers: the package modules except rscf.reference (and
    `skip`), then the benchmark modules."""
    return ([tree for name, tree in trees.items() if name not in (skip, "reference")]
            + _benchmark_trees())


def _test_only(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """Top-level functions and classes of `module` that no production path
    reaches: a name is live when a production caller or a module-level
    statement reads it, or a live definition of its own module does."""
    defs = {node.name: node for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    callers = _callers(trees, module)
    roots = _traced_names(callers)
    for tree in callers:
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


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names read in a module, except those read off a module
    (`json.dumps` is not a read of a method named `dumps`)."""
    modules = _module_aliases(tree)
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


def _overrides_outside_package(cls: type, method: str) -> bool:
    """True when a base class from outside the package defines `method`, so
    the base's own code calls the override (argparse calls `error`)."""
    return any(hasattr(base, method) for base in cls.__mro__[1:]
               if base.__module__.split(".")[0] != "rscf")


def _unread_methods(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """Methods (other than dunders) of `module`'s classes that no production
    caller reads as an attribute and that override no hook of an outside
    base class."""
    callers = _callers(trees)
    read = _traced_names(callers)
    for tree in callers:
        read |= _attribute_reads(tree)
    loaded = importlib.import_module(f"rscf.{module}")
    return {f"{cls.name}.{fn.name}"
            for cls in trees[module].body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("__") and fn.name not in read
            and not _overrides_outside_package(getattr(loaded, cls.name), fn.name)}


def test_no_package_module_imports_reference():
    offenders = [name for name, tree in _trees().items()
                 if name != "reference" and "rscf.reference" in _imported_modules(tree)]
    assert offenders == []


@pytest.mark.parametrize("module", SCANNED)
def test_hot_path_module_has_no_test_only_names(module):
    assert _test_only(module, _trees()) == set()


@pytest.mark.parametrize("module", SCANNED)
def test_hot_path_module_has_no_unread_methods(module):
    assert _unread_methods(module, _trees()) == set()


def _budget_divisions(tree: ast.Module) -> list[int]:
    """Lines that floor-divide a *_BYTES or *_ELEMENTS budget constant."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and any(name.endswith(("_BYTES", "_ELEMENTS")) for name in _names(node.left))]


def _ws_none_defaults(tree: ast.Module) -> set[str]:
    """Functions with a `ws` parameter that defaults to None."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        pairs = (list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                 + list(zip(args.kwonlyargs, args.kw_defaults)))
        if any(arg.arg == "ws" and isinstance(default, ast.Constant) and default.value is None
               for arg, default in pairs):
            out.add(fn.name)
    return out


def test_block_sizes_come_from_the_one_blocking_rule():
    """Only rscf.models divides a budget into rows (rows_per_block,
    row_blocks); every other module asks it."""
    offenders = {name: lines for name, tree in _trees().items()
                 if name != "models" and (lines := _budget_divisions(tree))}
    assert offenders == {}


def test_kernels_default_to_the_fresh_workspace():
    """Kernels default ws to models.FRESH; only total_objective, the entry
    point that makes a per-call Workspace, defaults it to None."""
    offenders = {(name, fn) for name, tree in _trees().items()
                 for fn in _ws_none_defaults(tree)}
    assert offenders == {("objectives", "total_objective")}


def _add_at_sites(tree: ast.Module) -> set[str]:
    """Qualified names of the functions that read `<x>.add.at`, "<module>"
    for a read outside any function."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "at"
                    and isinstance(child.value, ast.Attribute) and child.value.attr == "add"):
                out.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return out


def test_add_at_runs_only_in_scatter_rows():
    """np.add.at, the one per-row scatter that keeps repeated rows in input
    order, is called from objectives.scatter_rows alone; every other scatter
    goes through it."""
    sites = {(name, site) for name, tree in _trees().items() for site in _add_at_sites(tree)}
    assert sites == {("objectives", "scatter_rows")}
