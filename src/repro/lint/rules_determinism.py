"""D-rules: determinism inside the simulated / durable core.

The simulator's whole value is that a seed reproduces a run bit-for-bit
(`python -m repro torture --seed N` must replay the exact violation it
reported), and recovery replays a WAL into the same state the crashed
process held.  Both guarantees die the moment ``repro.core``,
``repro.driver``, ``repro.sim`` or ``repro.storage`` reads ambient
state: the process RNG, the wall clock, or the environment.  All randomness must flow
through an injected :class:`random.Random` (usually an
:class:`repro.sim.rng.RngRegistry` stream) and all time through the
event kernel's clock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Module, Violation, imported_names, qualified_name, rule

__all__ = ["DETERMINISM_SCOPES"]

#: Packages whose behaviour must be a pure function of (inputs, seed).
DETERMINISM_SCOPES = ("repro.core", "repro.driver", "repro.sim", "repro.storage")

#: ``random``-module functions that draw from the hidden global RNG.
_GLOBAL_DRAWS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "randbytes",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "betavariate", "binomialvariate", "expovariate", "gammavariate",
        "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "seed",
    }
)

#: Wall-clock reads; the simulator's clock is the only valid time source.
_WALL_CLOCKS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Ambient-entropy reads: process environment and OS randomness.
_ENTROPY_CALLS = frozenset(
    {
        "os.urandom", "os.getrandom", "os.getenv",
        "uuid.uuid1", "uuid.uuid4",
    }
)
_ENTROPY_ATTRS = frozenset({"os.environ"})
_ENTROPY_MODULES = frozenset({"secrets"})


def _calls(module: Module) -> Iterator[tuple[ast.Call, str]]:
    imports = imported_names(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = qualified_name(node.func, imports)
            if name is not None:
                yield node, name


@rule(
    "D101",
    "unseeded-random",
    "module-level random.*() draws from the process-global RNG",
    scopes=DETERMINISM_SCOPES,
)
def check_unseeded_random(module: Module) -> Iterator[Violation]:
    for node, name in _calls(module):
        if name == "random.Random" and not node.args and not node.keywords:
            yield Violation(
                module.path, node.lineno, node.col_offset, "D101",
                "random.Random() without a seed is entropy-seeded; "
                "derive the seed from the experiment's root seed "
                "(e.g. an RngRegistry stream)",
            )
        elif name.startswith("random.") and name.split(".", 1)[1] in _GLOBAL_DRAWS:
            yield Violation(
                module.path, node.lineno, node.col_offset, "D101",
                f"{name}() uses the hidden process-global RNG; draw from an "
                "injected random.Random / sim.rng stream instead",
            )


@rule(
    "D102",
    "wall-clock-read",
    "reads the wall clock instead of the simulated clock",
    scopes=DETERMINISM_SCOPES,
)
def check_wall_clock(module: Module) -> Iterator[Violation]:
    for node, name in _calls(module):
        if name in _WALL_CLOCKS:
            yield Violation(
                module.path, node.lineno, node.col_offset, "D102",
                f"{name}() reads the wall clock; simulated/durable code must "
                "take time from the event kernel (types.Time) so replays "
                "are exact",
            )


@rule(
    "D103",
    "ambient-entropy",
    "reads environment variables or OS entropy",
    scopes=DETERMINISM_SCOPES,
)
def check_ambient_entropy(module: Module) -> Iterator[Violation]:
    imports = imported_names(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = qualified_name(node.func, imports)
            if name is None:
                continue
            if name in _ENTROPY_CALLS or name.split(".")[0] in _ENTROPY_MODULES:
                yield Violation(
                    module.path, node.lineno, node.col_offset, "D103",
                    f"{name}() injects ambient entropy into deterministic "
                    "code; thread the value in through configuration",
                )
        elif isinstance(node, ast.Attribute):
            name = qualified_name(node, imports)
            if name in _ENTROPY_ATTRS:
                yield Violation(
                    module.path, node.lineno, node.col_offset, "D103",
                    f"{name} makes behaviour depend on the process "
                    "environment; thread the value in through configuration",
                )
