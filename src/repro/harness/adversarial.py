"""Adversarial chaos scenarios with per-guarantee survival verdicts.

Where :mod:`repro.harness.live_torture` samples *random* faults inside
the paper's general-omission envelope, this module scripts *named*
scenarios that step outside it — forged dependency vectors, an
equivocating coordinator, a zombie rejoin under a stale incarnation,
heartbeat suppression — plus the canonical coordinator crash, and
audits each one guarantee by guarantee.

Every scenario produces a :class:`~repro.analysis.verdict.RunResult`
holding one :class:`~repro.analysis.verdict.Verdict` per protocol
guarantee:

* **causal-delivery** — Definition 3.2 local causal order over every
  live node's delivery log;
* **total-order** — equal per-origin delivery subsequences (uniform
  ordering) plus, once quiescent, uniform atomicity;
* **view-agreement** — all live members ended with the same alive
  vector, and no live member was evicted from it.

Each verdict is judged against the scenario's documented expectation;
the CI gate fails on any verdict worse than documented.

``python -m repro chaos --scenario NAME|all`` is the CLI entry point.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Sequence

from ..analysis.verdict import RunResult, Verdict
from ..core.config import FailureDetectorConfig, UrcgcConfig
from ..core.message import KIND_HEARTBEAT
from ..core.rejoin import KIND_JOIN
from ..net.addressing import BROADCAST_GROUP
from ..net.faults import FaultPlan
from ..runtime.chaos import ChaosFabric
from ..runtime.lan import AsyncLan
from ..runtime.node import AsyncGroup
from ..storage import GroupStorage, MemoryBackend
from ..types import ProcessId
from .adversary import DepVectorForger, Equivocator, JoinReplayTap
from .live_torture import group_verdicts

__all__ = ["SCENARIOS", "run_scenario", "run_scenarios"]


# ----------------------------------------------------------------------
# the per-guarantee auditor
# ----------------------------------------------------------------------


def _view_agreement(group: AsyncGroup, expected: str) -> Verdict:
    """All live members ended with one alive vector that evicts none
    of them."""
    live = group.live_nodes
    vectors = {tuple(node.member.view.alive_vector()) for node in live}
    if len(vectors) > 1:
        return Verdict(
            "view-agreement",
            "violated",
            expected,
            f"{len(vectors)} distinct alive vectors among live members",
        )
    agreed = next(iter(vectors), ())
    evicted = [int(node.pid) for node in live if not agreed[int(node.pid)]]
    if evicted:
        return Verdict(
            "view-agreement",
            "degraded",
            expected,
            f"live member(s) {evicted} evicted from the agreed view",
        )
    return Verdict("view-agreement", "survived", expected)


# ----------------------------------------------------------------------
# scenario scaffolding
# ----------------------------------------------------------------------

_HEARTBEAT_FD = FailureDetectorConfig(kind="heartbeat")


def _build(
    n: int,
    K: int,
    *,
    round_interval: float,
    detector: FailureDetectorConfig | None = _HEARTBEAT_FD,
    rejoin: bool = False,
    storage: GroupStorage | None = None,
) -> tuple[AsyncGroup, ChaosFabric, FaultPlan]:
    plan = FaultPlan()
    fabric = ChaosFabric(AsyncLan(), plan)
    group = AsyncGroup(
        UrcgcConfig(
            n=n,
            K=K,
            R=2 * K + 4,
            enable_rejoin=rejoin,
            failure_detector=detector,
        ),
        lan=fabric,
        round_interval=round_interval,
        storage=storage,
    )
    return group, fabric, plan


async def _drain(
    group: AsyncGroup, *, budget: float, started: float
) -> bool:
    loop = asyncio.get_running_loop()
    try:
        remaining = budget - (loop.time() - started)
        await group.wait_until(group.quiescent, timeout=max(0.1, remaining))
        return True
    except asyncio.TimeoutError:
        return False


def _result(
    name: str,
    seed: int,
    group: AsyncGroup,
    *,
    quiesced: bool,
    wall_time: float,
    expected: dict[str, str],
    evidence: dict[str, int],
) -> RunResult:
    """Grade every guarantee over the group's final state."""
    return RunResult(
        family="scenario",
        name=name,
        seed=seed,
        quiesced=quiesced,
        verdicts=(
            *group_verdicts(group, converged=quiesced, expected=expected),
            _view_agreement(group, expected.get("view-agreement", "survived")),
        ),
        evidence={"n": group.config.n, **evidence},
        wall_time=wall_time,
    )


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------


async def _coordinator_crash(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    """The paper's canonical failover, observed through the heartbeat
    detector: kill a rotating coordinator mid-protocol and require
    every guarantee to hold over the survivors."""
    n, K = 4, 2
    group, _fabric, _plan = _build(n, K, round_interval=round_interval)
    loop = asyncio.get_running_loop()
    started = loop.time()
    group.start()
    try:
        for i in range(2 * n):
            group.nodes[ProcessId(i % n)].submit(f"cc-{seed}-{i}".encode())
        crashed = await group.crash_coordinator_at_subrun(
            2, partial_deliveries=1, timeout=budget / 4
        )
        for i in range(n):
            pid = ProcessId(i)
            if group.nodes[pid].is_live:
                group.nodes[pid].submit(f"cc-post-{seed}-{i}".encode())
        quiesced = await _drain(group, budget=budget, started=started)
        evidence = {
            "crashed": -1 if crashed is None else int(crashed),
            "suspicions": sum(
                len(node.suspicion_events) for node in group.nodes
            ),
        }
        return _result(
            "coordinator-crash",
            seed,
            group,
            quiesced=quiesced,
            wall_time=loop.time() - started,
            expected={},
            evidence=evidence,
        )
    finally:
        await group.stop()


async def _zombie_rejoin(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    """Crash, recover, then replay the victim's own captured JOIN
    request after it was re-admitted: the stale incarnation must be
    fenced, not re-enter the membership flow."""
    n, K = 4, 2
    victim = ProcessId(1)
    storage = GroupStorage(MemoryBackend(), snapshot_interval=8)
    group, fabric, plan = _build(
        n, K, round_interval=round_interval, rejoin=True, storage=storage
    )
    tap = JoinReplayTap(victim)
    plan.add_mutator(tap)
    loop = asyncio.get_running_loop()
    started = loop.time()
    group.start()
    try:
        await group.run_workload(
            [(ProcessId(i % n), f"zr-{seed}-{i}".encode()) for i in range(2 * n)],
            timeout=budget / 4,
        )
        await group.crash(victim)
        survivors = [ProcessId(i) for i in range(n) if ProcessId(i) != victim]
        for i, pid in enumerate(survivors):
            group.nodes[pid].submit(f"zr-mid-{seed}-{i}".encode())
        await asyncio.sleep(4 * 2 * round_interval)
        node = group.recover(victim)
        rejoined = True
        try:
            await group.wait_until(
                lambda: not node.crashed
                and not node.member.rejoining
                and not node.member.has_left,
                timeout=budget / 2,
            )
        except asyncio.TimeoutError:
            rejoined = False
        # The zombie: replay the stale incarnation's join broadcast.
        replayed = 0
        for payload in tap.captured:
            fabric.sendto(victim, BROADCAST_GROUP, payload, kind=KIND_JOIN)
            replayed += 1
        await asyncio.sleep(4 * 2 * round_interval)
        for pid in survivors:
            group.nodes[pid].submit(f"zr-post-{seed}-{pid}".encode())
        quiesced = await _drain(group, budget=budget, started=started)
        evidence = {
            "rejoined": int(rejoined),
            "joins_replayed": replayed,
            "stale_joins_fenced": sum(
                node.member.stale_joins_fenced for node in group.live_nodes
            ),
        }
        return _result(
            "zombie-rejoin",
            seed,
            group,
            quiesced=quiesced,
            wall_time=loop.time() - started,
            expected={},
            evidence=evidence,
        )
    finally:
        await group.stop()


async def _forged_deps(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    """Rewrite a member's DATA datagrams in flight — out-of-range
    dependency origins on some copies, truncation on others.  The
    hardened decode path must shed every forged copy as a loss and the
    history/recovery machinery must repair the gap."""
    n, K = 4, 2
    victim = ProcessId(0)
    group, _fabric, plan = _build(n, K, round_interval=round_interval)
    forger = DepVectorForger(victim, mode="out-of-range", stride=2)
    truncator = DepVectorForger(victim, mode="truncate", stride=3)
    plan.add_mutator(forger)
    plan.add_mutator(truncator)
    loop = asyncio.get_running_loop()
    started = loop.time()
    group.start()
    try:
        for i in range(3 * n):
            group.nodes[ProcessId(i % n)].submit(f"fd-{seed}-{i}".encode())
        quiesced = await _drain(group, budget=budget, started=started)
        evidence = {
            "forged": forger.forged,
            "truncated": truncator.forged,
            "decode_errors": sum(node.decode_errors for node in group.nodes),
        }
        return _result(
            "forged-deps",
            seed,
            group,
            quiesced=quiesced,
            wall_time=loop.time() - started,
            expected={},
            evidence=evidence,
        )
    finally:
        await group.stop()


async def _equivocation(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    """A coordinator whose DECISION broadcast tells different members
    different things (conflicting stability vectors under one decision
    number).  The engines' per-number decision log must flag the
    conflict and refuse the second story."""
    n, K = 4, 2
    victim = ProcessId(0)  # coordinator of subruns 0, n, 2n, ...
    group, _fabric, plan = _build(n, K, round_interval=round_interval)
    equivocator = Equivocator(victim)
    plan.add_mutator(equivocator)
    loop = asyncio.get_running_loop()
    started = loop.time()
    group.start()
    try:
        for i in range(3 * n):
            group.nodes[ProcessId(i % n)].submit(f"eq-{seed}-{i}".encode())
        quiesced = await _drain(group, budget=budget, started=started)
        evidence = {
            "equivocated_copies": equivocator.equivocated,
            "equivocations_detected": sum(
                node.member.equivocations_detected for node in group.nodes
            ),
        }
        return _result(
            "equivocation",
            seed,
            group,
            quiesced=quiesced,
            wall_time=loop.time() - started,
            expected={},
            evidence=evidence,
        )
    finally:
        await group.stop()


async def _heartbeat_suppression(
    seed: int, *, budget: float, round_interval: float
) -> RunResult:
    """Silence one member's heartbeats without crashing it.  The
    eventually-perfect detector may falsely suspect the victim between
    its coordinator turns, but the timeout backoff must prevent any
    wrongful eviction: the victim stays in every live view."""
    n, K = 4, 2
    victim = ProcessId(2)
    group, _fabric, plan = _build(n, K, round_interval=round_interval)
    plan.suppress_kind(victim, KIND_HEARTBEAT)
    loop = asyncio.get_running_loop()
    started = loop.time()
    group.start()
    try:
        others = [ProcessId(i) for i in range(n) if ProcessId(i) != victim]
        # The victim submits nothing: between its coordinator turns the
        # suppressed heartbeats are its only liveness signal.
        for i in range(3 * n):
            group.nodes[others[i % len(others)]].submit(
                f"hs-{seed}-{i}".encode()
            )
        await _drain(group, budget=budget / 2, started=started)
        # Dwell long enough for suspicion timeouts to lapse between the
        # victim's coordinator turns (and for the backoff to stabilize
        # after each false suspicion), then make more progress.
        await asyncio.sleep(20 * n * 2 * round_interval)
        for i, pid in enumerate(others):
            group.nodes[pid].submit(f"hs-post-{seed}-{i}".encode())
        quiesced = await _drain(group, budget=budget, started=started)
        false_suspicions = 0
        for node in group.nodes:
            detector = node.member.detector
            false_suspicions += getattr(detector, "false_suspicions_total", 0)
        evidence = {
            "suspicions": sum(
                len(node.suspicion_events) for node in group.nodes
            ),
            "false_suspicions": false_suspicions,
            "victim_live": int(group.nodes[victim].is_live),
        }
        return _result(
            "heartbeat-suppression",
            seed,
            group,
            quiesced=quiesced,
            wall_time=loop.time() - started,
            # Transient false suspicion is acceptable by design; actual
            # eviction of the live victim is not.
            expected={"view-agreement": "degraded"},
            evidence=evidence,
        )
    finally:
        await group.stop()


ScenarioFn = Callable[..., Awaitable[RunResult]]


def _svc_scenario(name: str) -> ScenarioFn:
    """Adapt a service-tier chaos scenario (:mod:`repro.svc.chaos`) to
    this registry's async signature.

    The tier scenarios are simulation-driven and fully deterministic in
    the seed; ``budget``/``round_interval`` govern the live asyncio
    runtime and do not apply (the sim's round budget bounds them).
    Imported lazily to keep :mod:`repro.svc` out of this module's
    import graph.
    """

    async def run(
        seed: int, *, budget: float, round_interval: float
    ) -> RunResult:
        from ..svc.chaos import run_svc_scenario

        return run_svc_scenario(name, seed=seed)

    return run


#: name -> coroutine factory, the ``--scenario`` registry.
SCENARIOS: dict[str, ScenarioFn] = {
    "coordinator-crash": _coordinator_crash,
    "zombie-rejoin": _zombie_rejoin,
    "forged-deps": _forged_deps,
    "equivocation": _equivocation,
    "heartbeat-suppression": _heartbeat_suppression,
    # Service-tier failover/rebalance family (PROTOCOL §14.7-14.8).
    "frontend-failover": _svc_scenario("frontend-failover"),
    "shard-rebalance": _svc_scenario("shard-rebalance"),
    "failover-storm": _svc_scenario("failover-storm"),
}


def run_scenario(
    name: str,
    *,
    seed: int = 0,
    budget: float = 20.0,
    round_interval: float = 0.005,
) -> RunResult:
    """Run one named scenario to completion and grade it."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
    return asyncio.run(fn(seed, budget=budget, round_interval=round_interval))


def run_scenarios(
    names: Sequence[str] | None = None,
    *,
    seeds: Sequence[int] = (0,),
    budget: float = 20.0,
    round_interval: float = 0.005,
) -> list[RunResult]:
    """Run each named scenario for each seed (all scenarios if None)."""
    chosen = list(names) if names else sorted(SCENARIOS)
    return [
        run_scenario(
            name, seed=seed, budget=budget, round_interval=round_interval
        )
        for name in chosen
        for seed in seeds
    ]

