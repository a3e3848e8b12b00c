"""One workload in one process: set up, warm up, measure, audit.

``run.py`` starts this file once per pass, so each number comes from
a fresh interpreter with one thread (or one asyncio loop).  The last
line of standard output is the result as JSON; a failed audit exits
non-zero after printing it.

Modes: ``measure`` (the end-to-end pass), ``reference`` (the traced
pass's untraced twin, for the tracing overhead and the p99
diagnostics), ``trace``.
"""

import time

PROCESS_START = time.perf_counter()  # before `import repro`: set-up counts imports

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import estimators  # noqa: E402
import loads  # noqa: E402
import spec  # noqa: E402

RESULTS = os.path.join(HERE, "results")

#: Measured epochs per run, after one warm-up epoch of the same size
#: that counts as set-up.  ``--quick`` and the traced pass use fewer.
EPOCHS = 8
QUICK_EPOCHS = 3
TRACE_EPOCHS = 2


def epoch_units(workload: str, seconds: float, quick: bool) -> float:
    """Units of work per epoch: ``tier.step()`` calls, rounds, or —
    live — seconds of wall clock."""
    planned = QUICK_EPOCHS if quick else EPOCHS
    if workload == "live_durable":
        return seconds / planned
    return max(1, round(loads.UNITS_PER_SECOND[workload] * seconds / planned))


def park_the_heap() -> None:
    """Called before every epoch, outside the timed window: move what
    is alive now out of the cyclic collector's sight.

    The sim workloads keep every delivered message at every member for
    the audit, so the heap grows through the run and a full collection
    — which rescans all of it — grows with it: by the end of
    ``group_wide`` one collection takes 1.2 s of a 3 s epoch, 25–40% of
    an epoch is collector time, and which epochs contain a full
    collection is an accident of the allocation count.  Parked, a
    collection inside an epoch scans that epoch's objects only (README
    "Estimators"), so epochs of equal work cost the same.
    """
    gc.collect()
    gc.freeze()


def epoch_row(epoch: loads.Epoch) -> dict:
    return {
        "wall_s": epoch.wall_s,
        "cpu_s": epoch.cpu_s,
        "agreed": epoch.agreed,
        "agreed_msgs_per_s": epoch.agreed / epoch.wall_s,
        "cpu_us_per_msg": epoch.cpu_s / epoch.agreed * 1e6 if epoch.agreed else float("nan"),
        "ack_p50_ms": estimators.percentile(epoch.ack_ms, 0.50),
        "ack_p90_ms": estimators.percentile(epoch.ack_ms, 0.90),
        "last_delivery_p50_ms": estimators.percentile(epoch.last_ms, 0.50),
        "last_delivery_p90_ms": estimators.percentile(epoch.last_ms, 0.90),
        "ack_samples": len(epoch.ack_ms),
        "last_delivery_samples": len(epoch.last_ms),
    }


def recorder_on_over_off(seed: int, rounds: int) -> float:
    """``UrcgcConfig(observability=True)`` vs off on a short
    ``group_wide``: wall seconds per agreed message, on over off."""
    cost = {}
    for observability in (False, True):
        load = loads.GroupLoad(seed, total_rounds=rounds, observability=observability)
        load.build()
        epoch = load.run_epoch(rounds)
        cost[observability] = epoch.wall_s / max(epoch.agreed, 1)
    return cost[True] / cost[False]


def layer_metrics(tracer, load, before: dict, after: dict, msgs: int, shares: dict) -> dict:
    """Every per-layer number the traced child can know by itself
    (run.py adds the ones that need the reference child)."""
    delta = {key: after[key] - before.get(key, 0) for key in after}
    tally = tracer.window_tally
    pubs = delta.get("publishes", 0)
    fanout = load.n - 1

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    persist_calls = tally.get("storage.snapshot.persist.calls", 0)
    out = dict(shares)
    out.update(
        {
            "svc.frontend.deliveries_per_publish": per(delta.get("deliveries", 0), pubs),
            "svc.frontend.parked_max": after.get("parked_max", 0),
            "svc.tier.pdus_per_publish": per(delta.get("pdus_moved", 0), pubs),
            "svc.wire.roundtrips_per_publish": per(tally.get("svc.wire.encodes", 0), pubs),
            "svc.wire.bytes_per_publish": per(tally.get("svc.wire.bytes", 0), pubs),
            "svc.bridge.stamped_share": per(tracer.calls("svc.bridge"), pubs),
            "net.wire.encodes_per_msg": per(tally.get("net.wire.encodes", 0), msgs),
            "net.wire.decodes_per_msg": per(tally.get("net.wire.decodes", 0), msgs),
            "net.wire.bytes_per_generate": per(delta["data_bytes"], msgs),
            "core.member.on_message_per_msg": per(
                tally.get("core.member.on_message.calls", 0), msgs
            ),
            "core.member.history_len_max": after["history_len_max"],
            "core.member.recoveries_per_msg": per(delta["recoveries"], msgs),
            "core.waiting.waited_share": per(
                tally.get("core.waiting.add.calls", 0), msgs * fanout
            ),
            "core.waiting.len_max": after["waiting_len_max"],
            "core.batcher.msgs_per_frame": per(
                tally.get("batch.in", 0), tally.get("batch.out", 0)
            ),
            "sim.kernel.events_per_msg": per(tally.get("sim.kernel.events", 0), msgs),
            "net.transport.datagrams_per_msg": per(delta.get("datagrams", 0), msgs),
            "net.transport.dropped_share": after.get("dropped_share", 0.0),
            "runtime.node.rounds_per_s": per(delta.get("rounds", 0), tracer.window_wall),
            "runtime.node.rejoin_ms": after.get("rejoin_ms", 0.0),
            "runtime.udp.datagrams_per_msg": per(delta.get("udp_datagrams", 0), msgs),
            "storage.wal.appends_per_msg": per(
                tally.get("storage.wal.append.calls", 0), msgs
            ),
            "storage.wal.append_us": tracer.mean("storage.wal.append", 1e6),
            "storage.wal.bytes_per_msg": per(tally.get("storage.wal.bytes", 0), msgs),
            "storage.snapshot.persist_ms": per(
                tally.get("storage.snapshot.persist.seconds", 0.0) * 1e3, persist_calls
            ),
            "storage.snapshot.count": delta.get("snapshots", 0),
            "storage.store.load_ms": after.get("load_ms", 0.0),
            "storage.snapshot.replay_records_per_s": after.get("replay_records_per_s", 0.0),
        }
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["measure", "reference", "trace"])
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    per_epoch = epoch_units(args.workload, args.seconds, args.quick)
    if args.mode in ("reference", "trace"):
        epochs = TRACE_EPOCHS
    else:
        epochs = QUICK_EPOCHS if args.quick else EPOCHS
    total_units = int((1 + epochs) * per_epoch) if args.workload == "group_wide" else 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(spec.layers(spec.load()))
        tracing.install(tracer)

    load = loads.WORKLOADS[args.workload](args.seed, total_units, RESULTS)
    load.sample_layers = tracer is not None
    result: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": args.mode,
        "quick": args.quick,
        "epoch_units": per_epoch,
    }
    try:
        load.build()
        park_the_heap()
        load.run_epoch(per_epoch)  # warm-up
        load.mark()
        result["setup_s"] = time.perf_counter() - PROCESS_START

        state_before = load.layer_state() if tracer else {}
        if tracer:
            load.window = tracer.window  # after warm-up: measured windows only
        measured = []
        for _ in range(epochs):
            park_the_heap()
            measured.append(load.run_epoch(per_epoch))
        if tracer:
            shares = tracer.shares()
            state_window = load.layer_state()
        load.finish()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        totals = load.totals()
        violations = load.audit()

        result["epochs"] = [epoch_row(epoch) for epoch in measured]
        result["totals"] = vars(totals)
        result["violations"] = violations[:20]
        result["attempted"] = totals.attempted
        result["failed"] = totals.failed + len(violations)
        result["correct"] = result["failed"] == 0
        window_msgs = sum(epoch.agreed for epoch in measured)
        result["wall_per_msg_s"] = sum(e.wall_s for e in measured) / max(window_msgs, 1)
        if args.mode == "reference":
            acks = [ms for epoch in measured for ms in epoch.ack_ms]
            lasts = [ms for epoch in measured for ms in epoch.last_ms]
            # Pooled over the reference run's epochs; BENCHMARK.json's
            # per_layer list decides which of them are reported.
            result["diagnostics"] = {
                "e2e.cpu_us_per_msg": sum(e.cpu_s for e in measured) / max(window_msgs, 1) * 1e6,
                "e2e.delay_mean_rtd": totals.delay_mean_rtd,
                **{
                    f"e2e.{kind}_p{q}_ms": estimators.percentile(samples, q / 100)
                    for kind, samples in (("ack", acks), ("last_delivery", lasts))
                    for q in (50, 90, 99)
                },
            }
            if args.workload == "group_wide":
                result["diagnostics"]["obs.recorder_on_over_off"] = recorder_on_over_off(
                    args.seed, max(2, int(per_epoch) // 2)
                )
        if tracer:
            # Read after finish(): the crash-and-recover numbers (live).
            late = load.layer_state()
            state_window.update(
                {key: late[key] for key in ("rejoin_ms", "load_ms", "replay_records_per_s")
                 if key in late}
            )
            result["layers"] = layer_metrics(
                tracer, load, state_before, state_window, window_msgs, shares
            )
            result["missing_entry_points"] = tracer.missing
            os.makedirs(RESULTS, exist_ok=True)
            tracer.write(
                os.path.join(RESULTS, f"trace_{args.workload}.jsonl"),
                workload=args.workload,
                seed=args.seed,
            )
    finally:
        load.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
