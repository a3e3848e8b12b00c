"""Randomized chaos runs against the *live* asyncio runtime.

The live analogue of :mod:`repro.harness.torture`: each iteration
draws a seed, a group size, and a fault plan (coordinator crash with
partial broadcast, partition-then-heal, send/receive omission,
duplication, delay jitter), runs an
:class:`~repro.runtime.node.AsyncGroup` over a
:class:`~repro.runtime.chaos.ChaosFabric` until quiescence (or a
wall-clock budget), then audits the per-node delivery logs with the
Definition 3.2 checkers.  A violation reports the seed that reproduces
it.

``python -m repro chaos`` is the command-line entry point.
"""

from __future__ import annotations

import asyncio
import random
from typing import Iterable, Mapping, Sequence

from ..analysis.verdict import (
    TIMEOUT_TOLERATED,
    RunResult,
    Verdict,
    audit_delivery,
    violations_of,
)
from ..core.config import UrcgcConfig
from ..core.message import UserMessage
from ..core.mid import Mid
from ..net.faults import FaultPlan
from ..runtime.chaos import ChaosFabric
from ..runtime.lan import AsyncLan
from ..runtime.node import AsyncGroup
from ..types import ProcessId

__all__ = [
    "audit_streams",
    "audit_group",
    "group_verdicts",
    "live_torture_once",
    "live_torture",
]


# ----------------------------------------------------------------------
# auditing
# ----------------------------------------------------------------------


def audit_streams(
    streams: Mapping[ProcessId, Sequence[UserMessage]],
    generated: Iterable[Mid],
    processed_by: Mapping[Mid, set[ProcessId]],
    active: set[ProcessId],
    discarded: set[Mid],
    *,
    converged: bool,
) -> list[str]:
    """Run every Definition 3.2 checker over collected delivery logs;
    returns the lines of :func:`~repro.analysis.verdict.audit_delivery`
    (``discarded`` is its ``voided``).

    ``converged=True`` asserts the quiescent-group clauses (equal
    per-origin subsequences and Uniform Atomicity over the active
    set); ``converged=False`` audits an in-flight group, where only
    prefix consistency and local causal order must hold.
    """
    return violations_of(
        audit_delivery(
            streams, generated, processed_by, active, discarded, converged=converged
        )
    )


def group_verdicts(
    group: AsyncGroup,
    *,
    converged: bool,
    expected: Mapping[str, str] | None = None,
) -> tuple[Verdict, Verdict]:
    """Collect a live group's delivery logs and grade Definition 3.2.

    Crashed nodes contribute what they generated, processed, and
    discarded before dying (their history matters for atomicity), but
    only live nodes form the *active* set the guarantees quantify
    over.
    """
    active = {node.pid for node in group.live_nodes}
    streams = {node.pid: list(node.delivered) for node in group.live_nodes}
    generated: list[Mid] = []
    processed_by: dict[Mid, set[ProcessId]] = {}
    discarded: set[Mid] = set()
    for node in group.nodes:
        generated.extend(node.generated_mids)
        discarded.update(node.discarded_mids)
        for message in node.delivered:
            processed_by.setdefault(message.mid, set()).add(node.pid)
    return audit_delivery(
        streams,
        generated,
        processed_by,
        active,
        discarded,
        converged=converged,
        expected=expected,
    )


def audit_group(group: AsyncGroup, *, converged: bool) -> list[str]:
    """:func:`group_verdicts`' checker lines."""
    return violations_of(group_verdicts(group, converged=converged))


# ----------------------------------------------------------------------
# one randomized live scenario
# ----------------------------------------------------------------------


async def _chaos_run(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    K = rng.randint(2, 3)
    omission_rate = rng.choice([0.0, 0.0, 0.01, 0.02])
    duplication = rng.choice([0.0, 0.0, 0.1, 0.25])
    jitter = rng.choice([0.0, 0.5, 1.5]) * round_interval
    message_count = rng.randint(n, 3 * n)
    do_partition = rng.random() < 0.5
    do_crash = rng.random() < 0.5
    pids = [ProcessId(i) for i in range(n)]
    subrun_seconds = 2 * round_interval

    plan = FaultPlan(rng=random.Random(seed + 1))
    if omission_rate:
        plan.set_uniform_omission(pids, omission_rate)
    fabric = ChaosFabric(
        AsyncLan(),
        plan,
        duplication=duplication,
        jitter=jitter,
        seed=seed + 2,
    )
    group = AsyncGroup(
        UrcgcConfig(n=n, K=K, R=2 * K + 4),
        lan=fabric,
        round_interval=round_interval,
    )
    loop = asyncio.get_running_loop()
    started = loop.time()
    crashed: int | None = None
    group.start()
    try:
        for i in range(message_count):
            origin = ProcessId(rng.randrange(n))
            group.nodes[origin].submit(f"chaos-{seed}-{i}".encode())

        if do_partition:
            await asyncio.sleep(rng.uniform(0.5, 2.0) * subrun_seconds)
            split = list(pids)
            rng.shuffle(split)
            cut = rng.randint(1, n - 1)
            plan.partitions.partition(split[:cut], split[cut:])
            await asyncio.sleep(rng.uniform(0.5, 1.5) * subrun_seconds)
            plan.partitions.heal()

        if do_crash:
            partial = rng.choice([None, rng.randint(0, max(0, n - 2))])
            crashed = await group.crash_coordinator_at_subrun(
                rng.randint(1, 4),
                partial_deliveries=partial,
                timeout=budget / 4,
            )

        quiesced = True
        try:
            remaining = budget - (loop.time() - started)
            await group.wait_until(group.quiescent, timeout=max(0.1, remaining))
        except asyncio.TimeoutError:
            quiesced = False
        verdicts = group_verdicts(
            group, converged=quiesced, expected=TIMEOUT_TOLERATED
        )
    finally:
        await group.stop()
    drops = fabric.stats.drop_reasons
    return RunResult(
        family="chaos",
        name="chaos",
        seed=seed,
        quiesced=quiesced,
        verdicts=verdicts,
        evidence={
            "n": n,
            "K": K,
            "crashed": -1 if crashed is None else int(crashed),
            "partitioned": int(do_partition),
            "omission_rate": omission_rate,
            "duplication": duplication,
            "jitter": jitter,
            "messages": message_count,
            **{f"drop.{reason}": drops[reason] for reason in sorted(drops)},
        },
        wall_time=loop.time() - started,
    )


def live_torture_once(
    seed: int, *, budget: float = 20.0, round_interval: float = 0.005
) -> RunResult:
    """One randomized live chaos scenario, fully checked."""
    return asyncio.run(_chaos_run(seed, budget=budget, round_interval=round_interval))


def live_torture(
    iterations: int,
    *,
    start_seed: int = 0,
    budget: float = 20.0,
    round_interval: float = 0.005,
) -> list[RunResult]:
    """Run ``iterations`` randomized live scenarios; returns all results."""
    return [
        live_torture_once(
            start_seed + i, budget=budget, round_interval=round_interval
        )
        for i in range(iterations)
    ]

