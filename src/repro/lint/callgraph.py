"""Module-graph + call-graph builder for the interprocedural rules.

The I5xx family needs to answer "which synchronous helpers does this
coroutine reach?" — so this module indexes every function and method in
the linted tree under a stable qualified name (``module:func`` or
``module:Class.method``) and resolves call expressions to those names.

Resolution is deliberately conservative.  An edge is added only when
the target is unambiguous:

* ``name(...)`` — a top-level function of the same module, or a
  ``from mod import name`` whose origin module is in the tree;
* ``mod.func(...)`` — via the import map (:func:`~repro.lint.engine.
  qualified_name`);
* ``self.method(...)`` — a method of the enclosing class;
* ``self.attr.method(...)`` — a method of the class the enclosing class
  builds ``self.attr`` from (``self.attr = Cls(...)``, when exactly one
  class in the tree is named ``Cls``);
* ``obj.method(...)`` — *only* when exactly one class in the whole
  tree defines ``method`` and the name is not a common container verb
  (``append``, ``get``, ...), so ``self.storage.log_generated(...)``
  resolves to ``NodeStorage.log_generated`` while ``buf.append(...)``
  resolves to nothing.

Unresolved calls simply produce no edge: the interprocedural rules
under-approximate reachability rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .dataflow import self_attr
from .engine import Module, imported_names, qualified_name

__all__ = ["FunctionInfo", "CallSite", "CallGraph", "build_call_graph"]

#: Method names too generic to resolve by the unique-method heuristic:
#: they collide with the stdlib container/IO vocabulary, so an
#: attribute call spelled with one of these never creates an edge.
COMMON_METHOD_NAMES = frozenset(
    {
        "append", "extend", "add", "remove", "discard", "pop", "popleft",
        "get", "set", "put", "update", "clear", "copy", "keys", "values",
        "items", "sort", "index", "count", "insert", "join", "split",
        "read", "write", "close", "open", "send", "recv", "encode",
        "decode", "flush", "start", "stop", "run", "cancel", "result",
        "done", "wait", "release", "acquire", "submit", "format",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    callee: str | None  # qualified name, or None when unresolved
    node: ast.Call


@dataclass
class FunctionInfo:
    """One function or method in the linted tree."""

    qualname: str  # "module:func" or "module:Class.method"
    module: str  # dotted module name
    path: str  # source file (for Violation reporting)
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    calls: list[CallSite] = field(default_factory=list)

    @property
    def callees(self) -> set[str]:
        return {site.callee for site in self.calls if site.callee is not None}


class CallGraph:
    """Function index + resolved call edges over a module list."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        #: method name -> qualnames of every class method with that name
        self._methods_by_name: dict[str, list[str]] = {}
        #: (module, top-level function name) -> qualname
        self._module_functions: dict[tuple[str, str], str] = {}
        #: (module, class, attribute) -> "module:Class" it is built from
        self._attr_classes: dict[tuple[str, str, str], str] = {}

    # -- queries -------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def coroutines(self) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.is_async]

    def callers_of(self, qualname: str) -> set[str]:
        return {
            f.qualname for f in self.functions.values() if qualname in f.callees
        }

    # -- construction --------------------------------------------------

    def _index(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        if info.cls is not None:
            self._methods_by_name.setdefault(info.name, []).append(info.qualname)
        else:
            self._module_functions[(info.module, info.name)] = info.qualname

    def _resolve(
        self, call: ast.Call, info: FunctionInfo, imports: dict[str, str]
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            local = self._module_functions.get((info.module, func.id))
            if local is not None:
                return local
            origin = imports.get(func.id)
            if origin is not None and "." in origin:
                mod, _, name = origin.rpartition(".")
                return self._module_functions.get((mod, name))
            return None
        if not isinstance(func, ast.Attribute):
            return None
        # self.method(...) -> method of the enclosing class.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and info.cls is not None
        ):
            own = f"{info.module}:{info.cls}.{func.attr}"
            if own in self.functions:
                return own
        # self.attr.method(...) -> method of the class self.attr is built from.
        attr = self_attr(func.value)
        if attr is not None and info.cls is not None:
            built = self._attr_classes.get((info.module, info.cls, attr))
            if built is not None and f"{built}.{func.attr}" in self.functions:
                return f"{built}.{func.attr}"
        # mod.func(...) via the import map.
        dotted = qualified_name(func, imports)
        if dotted is not None and "." in dotted:
            mod, _, name = dotted.rpartition(".")
            target = self._module_functions.get((mod, name))
            if target is not None:
                return target
        # obj.method(...) -> unique distinctive method name tree-wide.
        if func.attr not in COMMON_METHOD_NAMES:
            candidates = self._methods_by_name.get(func.attr, ())
            if len(candidates) == 1:
                return candidates[0]
        return None


def _functions_of(module: Module) -> list[FunctionInfo]:
    out: list[FunctionInfo] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                prefix = f"{cls}." if cls is not None else ""
                out.append(
                    FunctionInfo(
                        qualname=f"{module.name}:{prefix}{child.name}",
                        module=module.name,
                        path=module.path,
                        cls=cls,
                        name=child.name,
                        node=child,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                    )
                )
                # Nested defs are not indexed: the interprocedural rules
                # treat a closure as part of its owner (see iter_async_body
                # for the same choice at the single-function level).
            elif isinstance(child, ast.ClassDef) and cls is None:
                visit(child, child.name)

    visit(module.tree, None)
    return out


def _attribute_constructors(module: Module) -> Iterator[tuple[str, str, str]]:
    """``(class, attr, callee)`` for each ``self.attr = callee(...)``."""
    for cls in module.tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = node.value.func
                for target in node.targets:
                    attr = self_attr(target)
                    if attr is not None and isinstance(callee, ast.Name):
                        yield cls.name, attr, callee.id


def build_call_graph(modules: list[Module]) -> CallGraph:
    """Index every function, then resolve every call expression."""
    graph = CallGraph()
    infos: list[tuple[FunctionInfo, dict[str, str]]] = []
    #: class name -> "module:Class" for every top-level class
    classes: dict[str, list[str]] = {}
    built: list[tuple[str, str, str, str]] = []
    for module in modules:
        imports = imported_names(module.tree)
        for info in _functions_of(module):
            graph._index(info)
            infos.append((info, imports))
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(f"{module.name}:{node.name}")
        built.extend((module.name, *site) for site in _attribute_constructors(module))
    for module_name, cls, attr, callee in built:
        if len(classes.get(callee, ())) == 1:
            graph._attr_classes[(module_name, cls, attr)] = classes[callee][0]
    for info, imports in infos:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                info.calls.append(
                    CallSite(graph._resolve(node, info, imports), node)
                )
    return graph
