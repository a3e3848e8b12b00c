"""Randomized torture runs: fuzz the protocol, check the theorems.

``python -m repro`` grows a ``torture`` subcommand on top of this:
each iteration draws a random group size, parameters, workload, crash
schedule, and omission rates, runs the simulation, and audits the
delivery logs with the Definition 3.2 checkers.  Any violation is
reported with the seed that reproduces it.
"""

from __future__ import annotations

import random
import time
import traceback
from pathlib import Path

from ..analysis.verdict import TIMEOUT_TOLERATED, RunResult, audit_delivery, grade
from ..core.config import UrcgcConfig
from ..net.faults import CrashSchedule, FaultPlan, OmissionModel
from ..types import ProcessId
from ..workloads.generators import BernoulliWorkload
from .cluster import SimCluster

__all__ = ["torture_once", "torture"]


def torture_once(seed: int) -> RunResult:
    """One randomized scenario, fully checked."""
    started = time.perf_counter()
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    K = rng.randint(1, 4)
    load = rng.uniform(0.1, 1.0)
    crash_count = rng.randint(0, max(0, n - 2))
    omission_rate = rng.choice([0.0, 0.0, 0.01, 0.02, 0.05])
    pids = [ProcessId(i) for i in range(n)]

    schedule = CrashSchedule()
    for i in range(crash_count):
        schedule.crash(ProcessId(n - 1 - i), rng.uniform(1.0, 10.0))
    faults = FaultPlan(crashes=schedule, rng=random.Random(seed + 1))
    if omission_rate:
        for pid in pids:
            faults.set_send_omission(pid, OmissionModel(omission_rate))
            faults.set_receive_omission(pid, OmissionModel(omission_rate))

    cluster = SimCluster(
        UrcgcConfig(n=n, K=K, R=2 * K + 4),
        workload=BernoulliWorkload(
            pids, load, rng=random.Random(seed + 2), stop_after_round=24
        ),
        faults=faults,
        max_rounds=500,
        seed=seed,
        trace=False,
    )
    quiesced = cluster.run_until_quiescent(drain_subruns=2 * K + 2) is not None

    active = set(cluster.active_pids())
    log = cluster.delivery_log
    verdicts = audit_delivery(
        {pid: cluster.services[pid].delivered for pid in active},
        log.generated_at,
        log.processed_at,
        active,
        log.discarded,
        converged=quiesced,
        expected=TIMEOUT_TOLERATED,
    )
    return RunResult(
        family="torture",
        name="torture",
        seed=seed,
        quiesced=quiesced,
        verdicts=verdicts,
        evidence={
            "n": n,
            "K": K,
            "crashes": crash_count,
            "omission_rate": omission_rate,
            "messages": len(log.generated_at),
        },
        wall_time=time.perf_counter() - started,
    )


def torture(iterations: int, *, start_seed: int = 0) -> list[RunResult]:
    """Run ``iterations`` randomized scenarios; returns all results.

    An exception out of a scenario is graded, not raised: that seed's
    result carries a violated ``no-exception`` verdict naming the
    exception, with its traceback in ``evidence``, and the next seed
    still runs.
    """
    return [_torture_graded(start_seed + i) for i in range(iterations)]


def _torture_graded(seed: int) -> RunResult:
    started = time.perf_counter()
    try:
        return torture_once(seed)
    except Exception as exc:
        raised = f"{type(exc).__name__}: {exc}"
        frames = traceback.extract_tb(exc.__traceback__)
        return RunResult(
            family="torture",
            name="torture",
            seed=seed,
            quiesced=False,
            verdicts=(grade("no-exception", [f"seed {seed} raised {raised}"]),),
            evidence={
                "exception": type(exc).__name__,
                # innermost frame first, one line
                "traceback": " < ".join(
                    f"{Path(frame.filename).name}:{frame.lineno} {frame.name}"
                    for frame in reversed(frames)
                ),
            },
            wall_time=time.perf_counter() - started,
        )
