"""Census: every module in ``src/repro`` is reached from an entry point.

The roots are the ``repro`` CLI (``python -m repro``) and the benchmarks
CI gates: ``benchmarks/*.py`` (the paper's figures, tables and bounds)
and ``benchmarks/e2e``.  From them the closure follows every import in
the source, function-local ones included, with one exception: a package
``__init__`` re-exporting a name does not reach the module that defines
it.  Only an importer that asks for the name does.

A module outside the closure is code the system never runs.  It is
deleted with its tests, or, if it is a paper-named idea with no caller,
it moves into ``examples/`` with them.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI = "repro.__main__"
BENCHMARKS = [
    *sorted((ROOT / "benchmarks").glob("*.py")),
    *sorted((ROOT / "benchmarks" / "e2e").glob("*.py")),
]

#: Modules kept although no entry point reaches them, with the reason.
#: The size is pinned below: this list may only shrink.
ALLOWED_UNREACHED = {
    "repro.analysis.timeline": (
        "the per-subrun report over sim/trace.py, used only by "
        "examples/failure_drill.py; it is retired together with "
        "sim/trace.py, whose trace= knob the e2e benchmark still passes"
    ),
}


def _module_paths() -> dict[str, pathlib.Path]:
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _module_paths()


@functools.cache
def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def _base(importer: str | None, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` statement reads from."""
    if not node.level:
        return node.module or ""
    assert importer is not None, "relative import outside src/"
    parts = importer.split(".")
    if not _is_package(importer):
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


@functools.cache
def _reexports(package: str) -> dict[str, str]:
    """``name -> module it is imported from`` in a package ``__init__``."""
    out = {}
    for node in _tree(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = _base(package, node)
    return out


def _origin(module: str, name: str) -> str | None:
    """The module that defines ``name`` as read from ``module``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module) and name in _reexports(module):
        return _origin(_reexports(module)[name], name)
    return module if module in MODULES else None


def _names_used_outside_imports(tree: ast.Module) -> set[str]:
    used = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def _imports(path: pathlib.Path, importer: str | None) -> set[str]:
    """The ``src/repro`` modules one file reaches directly."""
    tree = _tree(path)
    # In a package __init__ a name imported and never used by the
    # __init__'s own code is a re-export, and reaches nothing.
    used = (
        _names_used_outside_imports(tree)
        if importer is not None and _is_package(importer)
        else None
    )
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            base = _base(importer, node)
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                if submodule in MODULES:
                    out.add(submodule)
                elif used is None or (alias.asname or alias.name) in used:
                    origin = _origin(base, alias.name)
                    if origin is not None:
                        out.add(origin)
    return out


def _with_parents(name: str) -> set[str]:
    """Importing a module runs every enclosing package's ``__init__``."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def reached() -> set[str]:
    """The import closure of the entry points over ``src/repro``."""
    todo = {CLI}
    for path in BENCHMARKS:
        todo |= _imports(path, None)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        for module in _with_parents(name) - seen:
            seen.add(module)
            todo |= _imports(MODULES[module], module) - seen
    return seen


def test_every_src_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached() - set(ALLOWED_UNREACHED))
    assert not unreached, (
        "modules no entry point or CI-gated benchmark imports (delete them, "
        "or move a paper-named idea into examples/ with its tests): "
        + ", ".join(unreached)
    )


def test_allow_list_only_shrinks():
    assert len(ALLOWED_UNREACHED) == 1
    closure = reached()
    for name in ALLOWED_UNREACHED:
        assert name in MODULES, f"{name} is gone: drop it from the allow-list"
        assert name not in closure, f"{name} is reached now: drop it"
