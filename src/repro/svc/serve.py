"""The ``python -m repro serve`` demo: sharded chat at client scale.

Drives a :class:`~repro.svc.tier.ShardedService` with a simulated chat
workload — a client id space of millions (the point of the tier: ids
are unrelated to group cardinality), a sampled set of *active*
sessions, Zipf-popular topics
(:class:`~repro.workloads.generators.ZipfTopics`), and a configurable
fraction of multi-topic publishes that cross shards through the
causal bridge.

After the run :func:`judge_tier` grades the four tier guarantees —
Definition 3.2 per shard, bridge ordering across shards, acked
durability and stream integrity per session — the same judge the
failover scenarios (:mod:`repro.svc.chaos`) use.  The client-tier
counters land in one obs :class:`~repro.obs.Registry` whose report the
CLI prints (and CI archives).
"""

from __future__ import annotations

import random
import time

from ..analysis.checkers import check_bridge_ordering
from ..analysis.verdict import RunResult, Verdict, audit_delivery, grade, violations_of
from ..errors import ConfigError, ProtocolError
from ..obs import Registry
from ..workloads.generators import ZipfTopics
from .tier import ShardedService

__all__ = ["audit_tier", "judge_tier", "serve", "registry_report"]

#: One publish as the driver sent it: ``(client_id, topics, payload)``.
Published = tuple[int, tuple[bytes, ...], bytes]


def audit_tier(
    tier: ShardedService, *, quiesced: bool, include_bridge: bool = True
) -> list[str]:
    """Audit every shard with the Definition 3.2 checkers plus the
    cross-shard bridge-ordering checker; returns violation strings.

    :func:`judge_tier` grades the bridge as its own guarantee and
    passes ``include_bridge=False`` here.  Iterates ``tier.shards`` —
    the *current* count, so shards added by a mid-run rebalance are
    audited too.  Crashed members are excluded (their logs
    legitimately stop early); the converged-only checks (uniform
    ordering's completeness arm, uniform atomicity) apply only to
    quiesced runs.
    """
    violations: list[str] = []
    for shard in range(tier.shards):
        cluster = tier.clusters[shard]
        log = cluster.delivery_log
        verdicts = audit_delivery(
            tier.shard_streams(shard),
            log.generated_at,
            log.processed_at,
            set(cluster.active_pids()),
            log.discarded,
            converged=quiesced,
        )
        violations.extend(f"s{shard}: {line}" for line in violations_of(verdicts))
        tier.registry.set_gauge(
            "svc.shard.processed", len(log.generated_at), shard=shard
        )
    if include_bridge:
        violations.extend(
            str(v) for v in check_bridge_ordering(tier.bridge_logs()).violations
        )
    return violations


def judge_tier(
    tier: ShardedService,
    subscriptions: dict[int, set[bytes]],
    published: list[Published],
    *,
    quiesced: bool,
) -> tuple[Verdict, ...]:
    """Grade the four tier guarantees over the final state.

    * **causal-delivery** — every shard satisfies Definition 3.2 over
      its surviving members (:func:`audit_tier`);
    * **bridge-ordering** — bridged publishes are processed in one
      timestamp order at every pair of shards they share;
    * **acked-durability** — every session ends fully acked with an
      empty retransmit buffer;
    * **stream-integrity** — each subscriber received every publish
      matching its subscription, and no delivery twice per shard.

    Every guarantee is documented as *surviving* frontend death and
    ring changes; a run that did not quiesce is ``degraded``.
    """
    bridge = [str(v) for v in check_bridge_ordering(tier.bridge_logs()).violations]

    durability: list[str] = []
    integrity: list[str] = []
    for client_id, session in tier.sessions.items():
        sent = session.next_seq - 1
        if session.acked != sent:
            durability.append(
                f"c{client_id}: acked {session.acked} of {sent} publishes"
            )
        if session.retained:
            durability.append(
                f"c{client_id}: {session.retained} publishes still unacked"
            )
        if session.queued:
            durability.append(f"c{client_id}: {session.queued} publishes never sent")
        per_shard: dict[int, list[tuple[int, int]]] = {}
        for deliver in session.delivered:
            per_shard.setdefault(deliver.shard, []).append(
                (deliver.origin, deliver.origin_seq)
            )
        for shard, ids in per_shard.items():
            if len(ids) != len(set(ids)):
                integrity.append(
                    f"c{client_id} s{shard}: {len(ids) - len(set(ids))} duplicate "
                    "deliveries"
                )
        got = {d.payload for d in session.delivered}
        interest = subscriptions[client_id]
        for _, pub_topics, payload in published:
            if interest.intersection(pub_topics) and payload not in got:
                integrity.append(f"c{client_id}: never received {payload!r}")

    return (
        grade(
            "causal-delivery",
            audit_tier(tier, quiesced=quiesced, include_bridge=False),
            quiesced=quiesced,
            detail=f"{tier.shards} shards clean under Definition 3.2",
        ),
        grade(
            "bridge-ordering",
            bridge,
            quiesced=quiesced,
            detail="bridged stamp order agreed across all shard pairs",
        ),
        grade(
            "acked-durability",
            durability,
            quiesced=quiesced,
            detail=f"{len(published)} publishes fully acked, none lost",
        ),
        grade(
            "stream-integrity",
            integrity,
            quiesced=quiesced,
            detail="all streams duplicate-free and complete",
        ),
    )


def serve(
    *,
    shards: int = 4,
    members: int = 3,
    clients: int = 1_000_000,
    sessions: int = 48,
    messages: int = 160,
    topics: int = 64,
    zipf_s: float = 1.1,
    multi_ratio: float = 0.2,
    subscriptions: int = 3,
    seed: int = 0,
    kill_frontends: int = 0,
    ring_changes: int = 0,
    registry: Registry | None = None,
) -> RunResult:
    """Run the sharded-chat demo and grade it with :func:`judge_tier`.

    The result's ``wall_time`` times the traffic phase — first publish
    to settled tier; session set-up and the audit are outside it — and
    is the base of the two rates in its evidence.  The client-tier
    counters land in ``registry`` (a fresh one when not given).

    Parameters
    ----------
    shards, members:
        Service topology (``shards`` URCGC groups of ``members``).
    clients:
        Size of the client *id space*; sessions are sampled from it,
        so a million-client run stays cheap while exercising 64-bit
        identities end to end.
    sessions:
        Concurrently active client sessions (each connects, subscribes
        and publishes).
    messages:
        Total publishes across all sessions.
    topics, zipf_s:
        Topic universe and its Zipf popularity exponent.
    multi_ratio:
        Fraction of publishes naming several topics — the publishes
        that may span shards and go through the causal bridge.
    subscriptions:
        Topics per client's interest set.
    seed:
        Determinism: the same arguments reproduce the same run.
    kill_frontends:
        Frontends to kill spread across the run (PROTOCOL §14.7): each
        kill crashes the victim's group member mid-run and drives the
        full failover path — salvage, session re-homing, stream
        re-anchoring.  Kills that would cost a shard its live majority
        are skipped (and not counted).
    ring_changes:
        Shards to *add* spread across the run (PROTOCOL §14.8); each
        addition migrates the moved slice of the topic space through
        the causal-bridge handoff fence.
    """
    if clients < 1:
        raise ConfigError(f"need a positive client id space, got {clients}")
    if not 1 <= sessions:
        raise ConfigError(f"need at least one session, got {sessions}")
    if not 0.0 <= multi_ratio <= 1.0:
        raise ConfigError(f"multi_ratio must be in [0, 1], got {multi_ratio}")

    registry = registry if registry is not None else Registry()
    rng = random.Random(seed)
    tier = ShardedService(shards, members, seed=seed, registry=registry)
    zipf = ZipfTopics(topics, s=zipf_s, rng=rng)

    registry.set_gauge("svc.clients.registered", clients)

    # Sample the active population from the full id space: the session
    # count is what bounds the run's cost, the id space is what the
    # wire format and hashing must carry.
    population = min(sessions, clients)
    client_ids = (
        rng.sample(range(clients), population)
        if clients > population
        else list(range(clients))
    )
    interests: dict[int, set[bytes]] = {}
    for client_id in client_ids:
        tier.connect(client_id)
        interest = zipf.subscription(min(subscriptions, topics))
        interests[client_id] = set(interest)
        tier.subscribe(client_id, interest)

    # Spread the chaos events (frontend kills, ring growth) evenly
    # across the publish schedule so failover and handoff run against
    # live traffic, not a quiet tier.
    chaos_at: dict[int, list[str]] = {}
    events = ["kill"] * kill_frontends + ["grow"] * ring_changes
    for j, event in enumerate(events):
        index = (j + 1) * messages // (len(events) + 1)
        chaos_at.setdefault(index, []).append(event)

    published: list[Published] = []
    bridged = 0
    started = time.perf_counter()
    for i in range(messages):
        client_id = client_ids[i % len(client_ids)]
        if rng.random() < multi_ratio and topics >= 2:
            publish_topics = zipf.draw_set(rng.randint(2, min(3, topics)))
        else:
            publish_topics = (zipf.draw(),)
        if len(tier.router.shards_for(publish_topics)) > 1:
            bridged += 1
        payload = b"m%d from c%d" % (i, client_id)
        tier.publish(client_id, publish_topics, payload)
        published.append((client_id, publish_topics, payload))
        for event in chaos_at.get(i, ()):
            if event == "kill":
                victim = _pick_victim(tier)
                if victim is not None:
                    tier.fail_frontend(*victim)
            else:
                tier.add_shard()
        # Interleave simulation progress with traffic so publish windows
        # recycle and deliveries stream out while the run is still hot.
        if (i + 1) % max(1, len(client_ids) // 2) == 0:
            tier.step()
            tier.refresh_health()

    quiesced = True
    try:
        tier.run()
    except ProtocolError:  # budget exhausted: report as non-quiescent, audit anyway
        quiesced = False
    wall_s = time.perf_counter() - started

    verdicts = judge_tier(tier, interests, published, quiesced=quiesced)

    acked = sum(s.acked for s in tier.sessions.values())
    deliveries = sum(len(s.delivered) for s in tier.sessions.values())
    registry.set_gauge("svc.deliveries.total", deliveries)
    registry.set_gauge("svc.pdus.moved", tier.pdus_moved)
    return RunResult(
        family="serve",
        name="serve",
        seed=seed,
        quiesced=quiesced,
        verdicts=verdicts,
        evidence={
            "shards": tier.shards,
            "members": members,
            "clients": clients,
            "sessions": len(client_ids),
            "publishes": messages,
            "acked": acked,
            "bridged": bridged,
            "deliveries": deliveries,
            "pdus_moved": tier.pdus_moved,
            "failovers": tier.failovers,
            "moved_topics": tier.moved_topics,
            "acked_per_s": acked / wall_s,
            "deliveries_per_s": deliveries / wall_s,
        },
        wall_time=wall_s,
    )


def _pick_victim(tier: ShardedService) -> tuple[int, int] | None:
    """The most-homed frontend that can die without costing its shard
    a live majority (None when no kill is safe)."""
    homes: dict[tuple[int, int], int] = {}
    for home in tier._home.values():
        homes[home] = homes.get(home, 0) + 1
    candidates = sorted(
        (
            (shard, member)
            for shard in range(tier.shards)
            for member in tier.live_members(shard)
            if (len(tier.live_members(shard)) - 1) * 2 > tier.members
        ),
        key=lambda fm: (-homes.get(fm, 0), fm),
    )
    return candidates[0] if candidates else None


def registry_report(registry: Registry) -> str:
    """Render the service-tier registry as a plain-text report."""
    lines = ["service-tier registry", "====================="]
    for family, name, labels, metric in registry.walk():
        label_text = (
            "{" + ", ".join(f"{k}={v}" for k, v in labels) + "}" if labels else ""
        )
        if family == "counter":
            lines.append(f"counter   {name}{label_text} = {int(metric)}")
        elif family == "gauge":
            lines.append(f"gauge     {name}{label_text} = {float(metric):g}")
        elif family == "histogram":
            lines.append(f"histogram {name}{label_text}: {metric.summary()}")
        else:
            lines.append(f"series    {name}{label_text}: {len(metric)} samples")
    return "\n".join(lines)
