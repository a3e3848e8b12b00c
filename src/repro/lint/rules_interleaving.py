"""I-rules: cooperative-concurrency (interleaving) hazards.

The protocol engines are sans-IO state machines driven from asyncio
coroutines; every ``await`` is a point where *another* coroutine on the
same loop can run and observe or clobber half-updated state.  The
paper's ordering guarantees assume each protocol step is atomic, so
these rules police the three ways the runtime can break that
assumption:

* **I501** — a ``self._*`` attribute is read, the coroutine suspends,
  and the stale value is written back: the classic asyncio
  read-modify-write race.
* **I502** — the interprocedural upgrade of the A2xx family: a
  *synchronous* helper that blocks (sleep, file/socket I/O, WAL or
  snapshot writes) is reached transitively from a runtime/svc
  coroutine, stalling every node on the loop even though no blocking
  call is visible in any single ``async def``.
* **I503** — a shared ``self`` container is iterated with a suspension
  point inside the loop: a peer coroutine can mutate it mid-iteration
  ("dict changed size during iteration", skipped entries).

All three linearize control flow (branches sequential, loop bodies
once — see :mod:`repro.lint.dataflow`), so cross-iteration windows are
out of scope; documented false positives carry pragmas.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

from .callgraph import CallGraph, FunctionInfo, build_call_graph
from .dataflow import iter_flow, iter_own_nodes, self_attr
from .engine import Module, Violation, imported_names, qualified_name, rule, tree_rule
from .rules_async import _BLOCKING_SLEEPS, _STORAGE_OPS, _SYNC_IO_CALLS

__all__ = ["INTERLEAVING_SCOPES"]

#: The layers whose coroutines the I-rules police.
INTERLEAVING_SCOPES = ("repro.driver", "repro.runtime", "repro.svc")


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == scope or module_name.startswith(scope + ".")
        for scope in INTERLEAVING_SCOPES
    )


# ----------------------------------------------------------------------
# I501: read-modify-write across a suspension point.


@rule(
    "I501",
    "interleaved-read-modify-write",
    "self._* read before an await and written back after it",
    scopes=INTERLEAVING_SCOPES,
)
def check_interleaved_rmw(module: Module) -> Iterator[Violation]:
    for func in ast.walk(module.tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        last_read: dict[str, int] = {}
        stale: dict[str, tuple[int, int]] = {}
        flagged: set[str] = set()
        for event in iter_flow(func):
            if event.kind == "suspend":
                for attr, line in last_read.items():
                    stale.setdefault(attr, (line, event.line))
                continue
            if event.attr is None or not event.attr.startswith("_"):
                continue
            if event.kind == "read":
                last_read[event.attr] = event.line
                # A fresh post-suspension read re-establishes the value.
                stale.pop(event.attr, None)
            elif event.kind == "write":
                if event.attr in stale and event.attr not in flagged:
                    flagged.add(event.attr)
                    # No line numbers in the message: the baseline
                    # fingerprint must survive edits above the finding.
                    yield Violation(
                        module.path, event.line, 0, "I501",
                        f"self.{event.attr} is read before a suspension "
                        f"point in async def {func.name} and the stale "
                        "value is written back after it; another "
                        "coroutine can observe or update the attribute "
                        "in between — update it before suspending (or "
                        "re-read it after)",
                    )
                stale.pop(event.attr, None)
                last_read.pop(event.attr, None)


# ----------------------------------------------------------------------
# I502: transitively-reached blocking call.


def _blocking_leaves(
    info: FunctionInfo, imports: dict[str, str]
) -> list[tuple[ast.Call, str]]:
    """Blocking calls made directly by a *sync* function."""
    leaves: list[tuple[ast.Call, str]] = []
    for node in iter_own_nodes(info.node):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            leaves.append((node, "open()"))
            continue
        dotted = qualified_name(node.func, imports)
        if dotted in _BLOCKING_SLEEPS or dotted in _SYNC_IO_CALLS:
            leaves.append((node, f"{dotted}()"))
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _STORAGE_OPS
        ):
            leaves.append((node, f".{node.func.attr}()"))
    return leaves


@tree_rule(
    "I502",
    "transitive-blocking-call",
    "sync helper that blocks, reached from a runtime/svc coroutine",
)
def check_transitive_blocking(modules: list[Module]) -> Iterator[Violation]:
    graph = build_call_graph(modules)
    imports_by_module = {m.name: imported_names(m.tree) for m in modules}
    leaves: dict[str, list[tuple[ast.Call, str]]] = {}
    for info in graph.functions.values():
        if info.is_async:
            continue  # direct blocking in coroutines is A201/A202/A203
        found = _blocking_leaves(info, imports_by_module[info.module])
        if found:
            leaves[info.qualname] = found
    # Reverse-reachability through sync callers: next_hop[f] is the
    # callee one step closer to a blocking leaf.
    next_hop: dict[str, str | None] = {name: None for name in leaves}
    worklist = deque(leaves)
    while worklist:
        target = worklist.popleft()
        for caller in graph.callers_of(target):
            info = graph.functions[caller]
            if info.is_async or caller in next_hop:
                continue
            next_hop[caller] = target
            worklist.append(caller)
    # Which in-scope coroutines reach which leaf?
    roots_by_site: dict[tuple[str, int], set[str]] = {}
    for coroutine in graph.coroutines():
        if not _in_scope(coroutine.module):
            continue
        for callee in coroutine.callees:
            if callee not in next_hop:
                continue
            chain = [callee]
            while next_hop[chain[-1]] is not None:
                chain.append(next_hop[chain[-1]])  # type: ignore[arg-type]
            leaf = chain[-1]
            for call, _desc in leaves[leaf]:
                roots_by_site.setdefault(
                    (leaf, call.lineno), set()
                ).add(coroutine.name)
    for (leaf, lineno), roots in sorted(roots_by_site.items()):
        info = graph.functions[leaf]
        for call, desc in leaves[leaf]:
            if call.lineno != lineno:
                continue
            yield Violation(
                info.path, call.lineno, call.col_offset, "I502",
                f"{desc} in {info.name}() blocks the event loop when "
                f"reached from async def {'/'.join(sorted(roots))}; move "
                "it behind run_in_executor or out of the coroutine path",
            )


# ----------------------------------------------------------------------
# I503: iterating shared state across a suspension point.


def _shared_iter_attr(node: ast.expr) -> str | None:
    """``self.X`` / ``self.X.values()|items()|keys()`` -> ``X``."""
    attr = self_attr(node)
    if attr is not None:
        return attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "items", "keys")
    ):
        return self_attr(node.func.value)
    return None


def _suspends(body: list[ast.stmt]) -> bool:
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@rule(
    "I503",
    "shared-iteration-across-await",
    "iterating a self container while suspending inside the loop",
    scopes=INTERLEAVING_SCOPES,
)
def check_shared_iteration(module: Module) -> Iterator[Violation]:
    for func in ast.walk(module.tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in iter_own_nodes(func):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            attr = _shared_iter_attr(node.iter)
            if attr is None:
                continue
            if isinstance(node, ast.AsyncFor) or _suspends(node.body):
                yield Violation(
                    module.path, node.lineno, node.col_offset, "I503",
                    f"async def {func.name} iterates self.{attr} with a "
                    "suspension point inside the loop; another coroutine "
                    "can mutate the container mid-iteration — iterate a "
                    f"snapshot (list(self.{attr})) instead",
                )
