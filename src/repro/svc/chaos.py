"""Failover and rebalance chaos scenarios over the sharded tier.

Where :mod:`repro.harness.adversarial` torments a *single* group with
scripted adversaries, this family torments the **service tier**: it
kills home/delivery frontends mid-run and mutates the consistent-hash
ring under live traffic, then grades what the tier promises
(PROTOCOL §14.7–14.8) with :func:`~repro.svc.serve.judge_tier`, the
judge ``python -m repro serve`` uses: causal-delivery,
bridge-ordering, acked-durability and stream-integrity, each
documented as surviving frontend death and ring changes.  Each run is
a :class:`~repro.analysis.verdict.RunResult`, so these scenarios
render and gate exactly like the single-group family, and ``python -m
repro chaos --scenario all`` includes them.
"""

from __future__ import annotations

import random
import time

from ..analysis.verdict import RunResult
from ..errors import ProtocolError
from .serve import Published, _pick_victim, judge_tier
from .tier import ShardedService

__all__ = ["SVC_SCENARIOS", "run_svc_scenario"]

#: Scenario knobs: (shards, members, kills, grow, shrink, messages).
_SCRIPTS: dict[str, tuple[int, int, int, int, int, int]] = {
    # One home frontend dies mid-run, then a delivery agent: the
    # bread-and-butter failover path.
    "frontend-failover": (2, 5, 2, 0, 0, 60),
    # The ring grows and then retires its oldest shard, each change
    # handing the moved topic slice over through the bridge fence.
    "shard-rebalance": (2, 3, 0, 1, 1, 60),
    # Kills and growth together: repeated failovers interleaved with a
    # topic handoff, the worst case the tier documents surviving.
    "failover-storm": (2, 5, 3, 1, 0, 80),
}

_TOPICS = 12
_SESSIONS = 8
_SUBSCRIPTIONS = 3
_MULTI_RATIO = 0.25


def run_svc_scenario(name: str, *, seed: int = 0) -> RunResult:
    """Run one named service-tier chaos scenario and grade it.

    Deterministic in ``(name, seed)``: the simulation clock drives
    everything, so reruns reproduce byte-identical outcomes.
    """
    try:
        shards, members, kills, grow, shrink, messages = _SCRIPTS[name]
    except KeyError:
        known = ", ".join(sorted(_SCRIPTS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
    started = time.perf_counter()
    rng = random.Random(seed)
    tier = ShardedService(shards, members, seed=seed)
    topics = [b"chaos/%d" % i for i in range(_TOPICS)]

    client_ids = rng.sample(range(1_000_000), _SESSIONS)
    subscriptions: dict[int, set[bytes]] = {}
    for client_id in client_ids:
        tier.connect(client_id)
        interest = set(rng.sample(topics, _SUBSCRIPTIONS))
        subscriptions[client_id] = interest
        tier.subscribe(client_id, tuple(sorted(interest)))

    # Chaos schedule: spread the scripted events across the publish
    # loop so every fault lands on a tier with traffic in flight.
    events = ["kill"] * kills + ["grow"] * grow + ["shrink"] * shrink
    chaos_at: dict[int, list[str]] = {}
    for j, event in enumerate(events):
        chaos_at.setdefault((j + 1) * messages // (len(events) + 1), []).append(event)

    published: list[Published] = []
    bridged = 0
    for i in range(messages):
        client_id = client_ids[i % len(client_ids)]
        if rng.random() < _MULTI_RATIO:
            publish_topics = tuple(rng.sample(topics, 2))
        else:
            publish_topics = (rng.choice(topics),)
        payload = b"chaos-%d-c%d" % (i, client_id)
        if len(tier.router.shards_for(publish_topics)) > 1:
            bridged += 1
        tier.publish(client_id, publish_topics, payload)
        published.append((client_id, publish_topics, payload))
        for event in chaos_at.get(i, ()):
            if event == "kill":
                victim = _pick_victim(tier)
                if victim is not None:
                    tier.fail_frontend(*victim)
            elif event == "grow":
                tier.add_shard()
            else:
                tier.remove_shard(_oldest_ringed_shard(tier))
        if (i + 1) % (_SESSIONS // 2) == 0:
            tier.step()

    quiesced = True
    try:
        tier.run()
    except ProtocolError:
        # Failure to drain is itself a graded outcome: the judges run
        # anyway and every unsatisfied guarantee reports "degraded".
        quiesced = False

    evidence = {
        "n": tier.shards * members,
        "publishes": len(published),
        "bridged": bridged,
        "deliveries": sum(len(s.delivered) for s in tier.sessions.values()),
        "failovers": tier.failovers,
        "moved_topics": tier.moved_topics,
        "dropped_pdus": tier.dropped_pdus,
        "dup_filtered": sum(s.dup_filtered for s in tier.sessions.values()),
    }
    return RunResult(
        family="scenario",
        name=name,
        seed=seed,
        quiesced=quiesced,
        verdicts=judge_tier(tier, subscriptions, published, quiesced=quiesced),
        evidence=evidence,
        wall_time=time.perf_counter() - started,
    )


def _oldest_ringed_shard(tier: ShardedService) -> int:
    return next(s for s in range(tier.shards) if not tier.router.is_removed(s))


#: name -> seed-parameterized factory (the adversarial registry wraps
#: these as async entries so ``--scenario all`` includes the family).
SVC_SCENARIOS = tuple(sorted(_SCRIPTS))
