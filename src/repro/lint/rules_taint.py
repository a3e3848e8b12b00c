"""T-rules: wire-taint typestate for decoded PDUs.

The adversarial PR hardened the receive path by hand: decode, then
``validate_message`` range checks, and only then the engine.  These
rules turn that discipline into a checked invariant:

* **T601** — a value produced by a ``net/wire`` decode (or carried in
  by a wire-PDU-typed handler parameter) must pass a validation
  boundary — ``validate_message``, a guard comparing it, ``min``/
  ``max`` clamping — before it is stored into ``Member``/``Frontend``/
  session state or written to storage.  An unvalidated assignment is
  exactly how a forged CLIENT_ACK credit became a flow-control bypass.
* **T602** — every ``register()``-ed wire tag must have a dispatch
  path (an ``isinstance`` arm or a wire-typed ``on_*`` handler
  parameter) in exactly one engine family; a tag with no handler is
  decoded and then dropped (or crashes the dispatch ``else:`` arm),
  and a tag handled by two different protocol families aliases frames
  on the shared LAN.

T601 is intra-function (taint does not flow through constructors or
returns — a precision choice documented in docs/ANALYSIS.md); T602 is
meaningful on full-tree runs, like the other registry-level W rules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .dataflow import TaintWalker
from .engine import Module, Violation, tree_rule
from .rules_wire import _register_calls

__all__ = ["TAINT_SCOPES", "ENGINE_FAMILIES"]

#: The layers whose decode->state flows T601 polices.
TAINT_SCOPES = ("repro.runtime", "repro.svc")

#: Module-prefix -> protocol family for T602's exclusivity check.
#: Prefixes mapping to None (harness drivers, audits, tooling) are not
#: handler sites: an isinstance there is instrumentation, not dispatch.
ENGINE_FAMILIES: tuple[tuple[str, str | None], ...] = (
    ("repro.core", "urcgc"),
    ("repro.driver", "urcgc"),
    ("repro.runtime", "urcgc"),
    ("repro.net", "urcgc"),
    ("repro.storage", "urcgc"),
    ("repro.detect", "urcgc"),
    ("repro.sim", "urcgc"),
    ("repro.svc", "svc"),
    ("repro.baselines.cbcast", "cbcast"),
    ("repro.baselines.psync", "psync"),
    ("repro.harness", None),
    ("repro.workloads", None),
    ("repro.analysis", None),
    ("repro.obs", None),
    ("repro.lint", None),
)


def _family(module_name: str) -> str | None:
    for prefix, family in ENGINE_FAMILIES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return family
    if module_name == "repro" or module_name.startswith("repro."):
        return None
    # Outside the repro tree (fixtures, scripts) every top-level package
    # is its own family, so the rule stays testable in isolation.
    return module_name.split(".", 1)[0]


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == scope or module_name.startswith(scope + ".")
        for scope in TAINT_SCOPES
    )


def _wire_imported_classes(module: Module) -> set[str]:
    """Class names imported from a ``*wire*`` module (absolute or
    relative, so ``from .wire import ClientAck`` counts)."""
    out: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if "wire" in node.module.rsplit(".", 1)[-1]:
                out.update(alias.asname or alias.name for alias in node.names)
    return out


def _registered_classes(modules: list[Module]) -> dict[str, tuple[Module, ast.Call, int | None]]:
    regs: dict[str, tuple[Module, ast.Call, int | None]] = {}
    for module in modules:
        for call, tag, cls_name in _register_calls(module):
            if cls_name is not None:
                regs.setdefault(cls_name, (module, call, tag))
    return regs


# ----------------------------------------------------------------------
# T601: unvalidated wire input flowing into state.


@tree_rule(
    "T601",
    "unvalidated-wire-input",
    "decoded wire value stored into protocol state without validation",
)
def check_unvalidated_wire_input(modules: list[Module]) -> Iterator[Violation]:
    registered = frozenset(_registered_classes(modules))
    for module in modules:
        if not _in_scope(module.name):
            continue
        wire_classes = frozenset(registered | _wire_imported_classes(module))
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for finding in TaintWalker(func, wire_classes).run():
                yield Violation(
                    module.path, finding.line, finding.col, "T601",
                    f"{finding.sink} absorbs a wire-tainted value from "
                    f"{finding.source} in {func.name}() without a "
                    "validation boundary (validate_message, a range "
                    "guard, or min/max clamping) — forged bytes flow "
                    "straight into protocol state",
                )


# ----------------------------------------------------------------------
# T602: handler completeness over the registered tag space.


def _isinstance_classes(call: ast.Call) -> Iterator[str]:
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"):
        return
    if len(call.args) != 2:
        return
    spec = call.args[1]
    candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    for node in candidates:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _handler_sites(module: Module) -> Iterator[tuple[str, str]]:
    """Yield ``(class_name, handler_description)`` dispatch sites."""

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                label = f"{owner}.{child.name}" if owner else child.name
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        for cls in _isinstance_classes(sub):
                            sites.append((cls, label))
                if child.name.startswith("on_"):
                    for arg in (*child.args.args, *child.args.kwonlyargs):
                        if isinstance(arg.annotation, ast.Name):
                            sites.append((arg.annotation.id, label))
                        elif isinstance(arg.annotation, ast.Attribute):
                            sites.append((arg.annotation.attr, label))
            elif isinstance(child, ast.ClassDef) and owner is None:
                visit(child, child.name)

    sites: list[tuple[str, str]] = []
    visit(module.tree, None)
    yield from sites


@tree_rule(
    "T602",
    "unhandled-wire-tag",
    "registered wire tag without exactly one engine family handling it",
)
def check_handler_completeness(modules: list[Module]) -> Iterator[Violation]:
    registered = _registered_classes(modules)
    if not registered:
        return
    #: class name -> {family: [handler labels]}
    handlers: dict[str, dict[str, list[str]]] = {}
    for module in modules:
        family = _family(module.name)
        if family is None:
            continue
        for cls, label in _handler_sites(module):
            if cls in registered:
                handlers.setdefault(cls, {}).setdefault(family, []).append(
                    f"{module.name}:{label}"
                )
    for cls, (module, call, tag) in sorted(registered.items()):
        tag_text = f"tag {tag}" if tag is not None else "tag ?"
        by_family = handlers.get(cls, {})
        if not by_family:
            yield Violation(
                module.path, call.lineno, call.col_offset, "T602",
                f"{cls} ({tag_text}) is registered but no engine handler "
                "dispatches it (no isinstance arm, no wire-typed on_* "
                "parameter): received frames decode and then vanish",
            )
        elif len(by_family) > 1:
            where = "; ".join(
                f"{family}: {', '.join(sorted(set(labels)))}"
                for family, labels in sorted(by_family.items())
            )
            yield Violation(
                module.path, call.lineno, call.col_offset, "T602",
                f"{cls} ({tag_text}) is dispatched by more than one "
                f"protocol family ({where}); a shared-LAN frame must "
                "have exactly one engine-side owner",
            )
