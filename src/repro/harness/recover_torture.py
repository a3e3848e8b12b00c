"""Crash-recovery torture runs against the live asyncio runtime.

The durable-state analogue of :mod:`repro.harness.live_torture`: each
iteration draws a seed, spins up an :class:`~repro.runtime.node.
AsyncGroup` with write-ahead logging and snapshots over a
:class:`~repro.storage.MemoryBackend`, fail-stops one node mid-run
(sometimes the rotating coordinator, the paper's hardest case), lets
the survivors make progress, then *recovers* the victim from its
snapshot + WAL as a new incarnation and drives traffic through it
again.

Each run is graded on four verdicts:

* **causal-delivery** and **total-order** — Definition 3.2 across
  incarnations: the rejoined node's full log (both incarnations) is
  audited together with the survivors', with crash-voided mids
  exempted exactly like orphan discards;
* **prefix-consistency** — the recovered incarnation's delivery log
  extends the pre-crash log: same mids, same order, nothing reordered
  or lost below the crash point;
* **recovery** — the rejoin completes within the run's budget.

``python -m repro recover`` is the command-line entry point.
"""

from __future__ import annotations

import asyncio
import random

from ..analysis.verdict import TIMEOUT_TOLERATED, RunResult, grade
from ..core.config import UrcgcConfig
from ..net.faults import FaultPlan
from ..runtime.chaos import ChaosFabric
from ..runtime.lan import AsyncLan
from ..runtime.node import AsyncGroup
from ..storage import GroupStorage, MemoryBackend
from ..types import ProcessId
from .live_torture import group_verdicts

__all__ = ["recover_torture_once", "recover_torture"]


def _check_prefix(pre_mids: list, post_mids: list) -> list[str]:
    """The recovered log must extend the pre-crash log."""
    if post_mids[: len(pre_mids)] == pre_mids:
        return []
    for i, (a, b) in enumerate(zip(post_mids, pre_mids)):
        if a != b:
            return [
                f"[prefix-consistency] p?: recovered log diverges at index {i}: "
                f"replayed {a} where the pre-crash log had {b}"
            ]
    return [
        f"[prefix-consistency] recovered log has {len(post_mids)} entries but "
        f"lost part of the {len(pre_mids)}-entry pre-crash log"
    ]


async def _recover_run(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    K = rng.randint(2, 3)
    snapshot_interval = rng.choice([8, 32, 1000])
    coordinator_crash = rng.random() < 0.5
    phase_messages = rng.randint(n, 2 * n)
    pids = [ProcessId(i) for i in range(n)]
    subrun_seconds = 2 * round_interval

    plan = FaultPlan(rng=random.Random(seed + 1))
    fabric = ChaosFabric(AsyncLan(), plan, seed=seed + 2)
    storage = GroupStorage(MemoryBackend(), snapshot_interval=snapshot_interval)
    group = AsyncGroup(
        UrcgcConfig(n=n, K=K, R=2 * K + 4, enable_rejoin=True),
        lan=fabric,
        round_interval=round_interval,
        storage=storage,
    )
    loop = asyncio.get_running_loop()
    started = loop.time()
    recovered = False
    quiesced = False
    pre_crash = 0
    wal_replayed = 0
    group.start()
    try:
        # Phase 1: everyone generates; reach quiescence so the victim's
        # durable state holds real traffic (and, with a small
        # snapshot_interval, at least one snapshot + compaction).
        await group.run_workload(
            [(pids[i % n], f"pre-{seed}-{i}".encode()) for i in range(phase_messages)],
            timeout=budget / 3,
        )

        # Fail-stop the victim — sometimes the rotating coordinator
        # mid-decision, the paper's hardest failover case.
        if coordinator_crash:
            subrun = group.nodes[0].current_subrun + 1
            victim = await group.crash_coordinator_at_subrun(
                subrun, timeout=budget / 4
            )
            if victim is None:  # pragma: no cover - no live node left
                victim = pids[0]
                await group.crash(victim)
        else:
            victim = pids[rng.randrange(n)]
            await group.crash(victim)
        node = group.nodes[victim]
        pre_mids = [message.mid for message in node.delivered]
        pre_crash = len(pre_mids)

        # Phase 2: survivors make progress while the victim is down,
        # so recovery genuinely has to catch up by state transfer.
        survivors = [pid for pid in pids if pid != victim]
        for i in range(phase_messages):
            group.nodes[survivors[i % len(survivors)]].submit(
                f"mid-{seed}-{i}".encode()
            )
        await asyncio.sleep(rng.uniform(2.0, 5.0) * subrun_seconds)

        # Recover: reload snapshot + WAL, rejoin as a new incarnation.
        group.recover(victim)
        wal_replayed = storage.node(victim).records_since_snapshot
        try:
            await group.wait_until(
                lambda: not node.crashed
                and not node.member.rejoining
                and not node.member.has_left,
                timeout=budget / 2,
            )
            recovered = True
        except asyncio.TimeoutError:
            pass

        # Phase 3: the new incarnation generates alongside everyone.
        if recovered:
            await group.run_workload(
                [
                    (pids[i % n], f"post-{seed}-{i}".encode())
                    for i in range(phase_messages)
                ],
                timeout=budget / 3,
            )
        try:
            remaining = budget - (loop.time() - started)
            await group.wait_until(group.quiescent, timeout=max(0.1, remaining))
            quiesced = True
        except asyncio.TimeoutError:
            quiesced = False

        post_mids = [message.mid for message in node.delivered]
        verdicts = (
            *group_verdicts(
                group,
                converged=quiesced and recovered,
                expected=TIMEOUT_TOLERATED,
            ),
            grade("prefix-consistency", _check_prefix(pre_mids, post_mids)),
            grade(
                "recovery",
                []
                if recovered
                else [f"[recovery] p{victim}: rejoin did not complete within budget"],
            ),
        )
    finally:
        await group.stop()
    node = group.nodes[victim]
    return RunResult(
        family="recover",
        name="recover",
        seed=seed,
        quiesced=quiesced,
        verdicts=verdicts,
        evidence={
            "n": n,
            "K": K,
            "snapshot_interval": snapshot_interval,
            "victim": int(victim),
            "coordinator_crash": int(coordinator_crash),
            "pre_crash_deliveries": pre_crash,
            "post_recovery_deliveries": len(node.delivered),
            "snapshots_taken": storage.node(victim).snapshots_taken,
            "wal_replayed": wal_replayed,
        },
        wall_time=loop.time() - started,
    )


def recover_torture_once(
    seed: int, *, budget: float = 30.0, round_interval: float = 0.004
) -> RunResult:
    """One randomized crash-and-recover scenario, fully checked."""
    return asyncio.run(
        _recover_run(seed, budget=budget, round_interval=round_interval)
    )


def recover_torture(
    iterations: int,
    *,
    start_seed: int = 0,
    budget: float = 30.0,
    round_interval: float = 0.004,
) -> list[RunResult]:
    """Run ``iterations`` crash-and-recover scenarios; returns all."""
    return [
        recover_torture_once(
            start_seed + i, budget=budget, round_interval=round_interval
        )
        for i in range(iterations)
    ]

