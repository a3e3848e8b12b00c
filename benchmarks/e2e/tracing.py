"""Span tracing from outside: wrappers round each layer's entry points.

:func:`install` replaces each layer's *public* entry points with timing
wrappers before the topology is built.  Where a layer is entered
through a callback it registered with another layer's public API (a
frontend's indication handler, the cluster's round handler), the
registering call is wrapped instead and the callback is billed to the
layer its code lives in — no private name is patched, so a refactor
inside a layer cannot break the trace.  An entry point that no longer
exists is skipped and listed in :attr:`Tracer.missing`; its layer then
reads 0 and its time falls to the enclosing span.

Each call becomes a span ``(id, layer, start, end, parent, operation)``;
a layer's self time is its spans' duration minus the part their child
spans cover.  Aggregates cover every span; the first
``MAX_SPANS_KEPT`` spans are also kept and written as JSONL at exit.

Nothing here is imported by the untraced pass.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable

#: Spans kept for the trace file; the per-layer aggregates always cover
#: every span.
MAX_SPANS_KEPT = 100_000

_clock = time.perf_counter


class Tracer:
    def __init__(self, layers: list[str]) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.next_id = 0
        #: layer -> [self seconds, calls, total seconds], since install
        self.layers: dict[str, list[float]] = {name: [0.0, 0, 0.0] for name in layers}
        #: free-form tallies the wrappers add to (bytes, events, ...)
        self.tally: dict[str, float] = {}
        #: the same two, summed over the measured windows only
        self.window_layers: dict[str, list[float]] = {name: [0.0, 0, 0.0] for name in layers}
        self.window_tally: dict[str, float] = {}
        self.window_wall = 0.0
        self.window_cpu = 0.0
        self.origin = _clock()
        #: entry points :func:`install` did not find
        self.missing: list[str] = []
        self._opened: tuple | None = None

    def window(self, opening: bool) -> None:
        """Loads call this at the start and end of each measured window;
        per-layer numbers cover the windows only (not set-up, warm-up,
        ramps or audits).  The first opening also drops the spans kept
        so far, so the trace file starts with the first window."""
        now, cpu = _clock(), time.process_time()
        if opening:
            if self.window_wall == 0.0:
                del self.spans[:]
                self.origin = now
            self._opened = (
                now, cpu, {k: list(v) for k, v in self.layers.items()}, dict(self.tally)
            )
            return
        if self._opened is None:
            raise RuntimeError("window closed before it was opened")
        began, cpu_began, layers, tally = self._opened
        self.window_wall += now - began
        self.window_cpu += cpu - cpu_began
        for layer, record in self.layers.items():
            for i in range(3):
                self.window_layers[layer][i] += record[i] - layers[layer][i]
        for key, value in self.tally.items():
            self.window_tally[key] = (
                self.window_tally.get(key, 0) + value - tally.get(key, 0)
            )

    def add(self, key: str, amount: float) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    # ------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        *,
        op: Callable[..., Any] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
        key: str | None = None,
        materialize: bool = False,
    ) -> Callable:
        """Span wrapper for a synchronous callable.

        ``op`` maps the call's arguments to an operation id (a span
        without one inherits its parent's); ``after(args, result)``
        feeds tallies; ``key`` tallies this entry point's own calls and
        seconds (a layer's record pools all its entry points);
        ``materialize`` drains a generator inside the
        span (its callers all do ``list(...)`` anyway).
        """
        stack = self.stack
        spans = self.spans
        record = self.layers[layer]
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            operation = op(*args) if op is not None else None
            if operation is None and parent is not None:
                operation = parent[2]
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [span_id, 0.0, operation]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start
                record[0] += elapsed - frame[1]
                record[1] += 1
                record[2] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if key is not None:
                    tracer.add(key + ".calls", 1)
                    tracer.add(key + ".seconds", elapsed)
                if len(spans) < MAX_SPANS_KEPT:
                    spans.append(
                        (span_id, layer, start, end,
                         parent[0] if parent is not None else -1, operation)
                    )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_callback(self, callback: Callable) -> Callable:
        """A callback one layer hands to another: billed to the layer
        its code lives in (``repro.svc.frontend`` -> ``svc.frontend``),
        left alone when that is not a traced layer."""
        module = getattr(callback, "__module__", None) or ""
        layer = module.removeprefix("repro.")
        if not callable(callback) or layer not in self.layers:
            return callback
        return self.wrap(callback, layer)

    def wrap_detached(self, fn: Callable, key: str) -> Callable:
        """Timing for a call that runs on another thread (snapshot
        persistence on the executor): tallied, not part of the span
        tree or of any self share."""
        tracer = self

        def timed(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(key + ".seconds", _clock() - start)
                tracer.add(key + ".calls", 1)

        return timed

    # ------------------------------------------------------------------

    def shares(self) -> dict[str, float]:
        """``<layer>.self_share`` for every layer, the unattributed
        rest as ``bench.driver.self_share``, and the CPU share."""
        wall = self.window_wall
        out = {
            f"{layer}.self_share": record[0] / wall
            for layer, record in self.window_layers.items()
        }
        out["bench.driver.self_share"] = 1.0 - sum(out.values())
        out["bench.cpu_share"] = self.window_cpu / wall
        return out

    def count(self, key: str) -> float:
        return self.window_tally.get(key, 0)

    def calls(self, layer: str) -> int:
        return int(self.window_layers[layer][1])

    def mean(self, key: str, scale: float = 1.0) -> float:
        """Mean seconds per call of a ``key``-tallied entry point."""
        calls = self.count(key + ".calls")
        return self.count(key + ".seconds") / calls * scale if calls else 0.0

    def write(self, path: str, **header: object) -> None:
        total = self.next_id
        with open(path, "w") as handle:
            handle.write(
                json.dumps({**header, "spans_total": total, "spans_kept": len(self.spans),
                            "missing_entry_points": self.missing})
                + "\n"
            )
            origin = self.origin
            for span_id, layer, start, end, parent, operation in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": layer,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                            "op": _jsonable(operation),
                        }
                    )
                    + "\n"
                )


def _jsonable(operation: Any):
    if operation is None:
        return None
    if isinstance(operation, tuple):
        return [int(part) for part in operation]
    origin = getattr(operation, "origin", None)
    if origin is not None:  # a Mid
        return [int(origin), int(operation.seq)]
    return str(operation)


# ----------------------------------------------------------------------
# the entry points
# ----------------------------------------------------------------------


def _resolve(path: str) -> tuple[Any, str, Any] | None:
    """``"repro.svc.tier:ShardedService.step"`` -> (owner, name, value),
    or None when the module or any attribute on the way is gone."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def install(tracer: Tracer) -> None:
    """Patch every layer's public entry points.  Call before building."""
    add = tracer.add

    def patch(path: str, layer: str, **options) -> None:
        found = _resolve(path)
        if found is None:
            tracer.missing.append(path)
            return
        owner, name, fn = found
        setattr(owner, name, tracer.wrap(fn, layer, **options))

    def seam(path: str, position: int, keyword: str) -> None:
        """Wrap the callback passed to a public registration call."""
        found = _resolve(path)
        if found is None:
            tracer.missing.append(path)
            return
        owner, name, register = found

        def registering(*args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = tracer.wrap_callback(kwargs[keyword])
            elif len(args) > position:
                args = (*args[:position], tracer.wrap_callback(args[position]),
                        *args[position + 1:])
            return register(*args, **kwargs)

        setattr(owner, name, registering)

    # -- client tier -----------------------------------------------------
    tier = "repro.svc.tier:ShardedService."
    patch(tier + "publish", "svc.tier",
          op=lambda tier, client_id, *_: (client_id, tier.sessions[client_id].next_seq))
    for name in ("step", "pump", "refresh_health", "run"):
        patch(tier + name, "svc.tier")
    frontend = "repro.svc.frontend:Frontend."
    patch(frontend + "on_publish", "svc.frontend",
          op=lambda _, pub: (pub.client_id, pub.client_seq))
    patch(frontend + "inject", "svc.frontend", op=lambda _, envelope: envelope.msg_id)
    for name in ("drain_outbox", "on_deliver_ack", "on_processed_elsewhere"):
        patch(frontend + name, "svc.frontend")
    # Deliveries enter a frontend through the handler it registers here.
    seam("repro.core.service:UrcgcService.add_indication_handler", 1, "handler")
    session = "repro.svc.session:ClientSession."
    patch(session + "publish", "svc.session")
    patch(session + "on_deliver", "svc.session",
          op=lambda _, deliver: (deliver.origin, deliver.origin_seq))
    patch(session + "on_ack", "svc.session")
    patch("repro.svc.router:ShardRouter.shards_for", "svc.router")
    patch("repro.svc.router:ShardRouter.ingress_member", "svc.router")
    patch("repro.svc.bridge:CausalBridge.stamp", "svc.bridge")

    # -- codecs: one registry, split by PDU family -------------------------
    install_codecs(tracer)

    # -- engine -----------------------------------------------------------
    from repro.core.message import UserMessage

    patch("repro.core.member:Member.on_message", "core.member",
          key="core.member.on_message",
          op=lambda _, message: message.mid if isinstance(message, UserMessage) else None)
    patch("repro.core.member:Member.on_round", "core.member")
    patch("repro.core.waiting:WaitingList.add", "core.waiting", key="core.waiting.add")
    patch("repro.core.waiting:WaitingList.notify_processed", "core.waiting")
    patch("repro.core.waiting:WaitingList.discard_dependent", "core.waiting")
    # compute_decision and expand_message are called through the names
    # their callers imported.
    patch("repro.core.member:compute_decision", "core.decision")
    patch("repro.core.batcher:Batcher.pack", "core.batcher",
          after=lambda args, out: (add("batch.in", len(args[1])), add("batch.out", len(out))))
    for module in ("repro.harness.cluster", "repro.runtime.node"):
        patch(module + ":expand_message", "core.batcher", materialize=True)

    # -- sim driver ---------------------------------------------------------
    for name in ("run", "run_until_quiescent", "resume_rounds"):
        patch("repro.harness.cluster:SimCluster." + name, "harness.cluster")
    # The cluster is entered per round and per datagram through these.
    seam("repro.sim.rounds:RoundScheduler.subscribe", 1, "handler")
    seam("repro.net.transport:MulticastTransport.__init__", 4, "on_data")
    patch("repro.sim.kernel:Kernel.run", "sim.kernel",
          after=lambda _, executed: add("sim.kernel.events", executed))
    patch("repro.net.transport:MulticastTransport.t_data_rq", "net.transport")
    # ... and the transport per packet through this one.
    seam("repro.net.network:DatagramNetwork.attach", 2, "handler")

    # -- live driver ----------------------------------------------------------
    # The ticker and receiver tasks have no public entry: their glue
    # falls to bench.driver.self_share, with the idle loop.
    for name in ("submit", "recover"):
        patch("repro.runtime.node:AsyncNode." + name, "runtime.node")
    patch("repro.runtime.udp:UdpFabric.sendto", "runtime.udp")

    # -- storage ----------------------------------------------------------------
    wal = "repro.storage.wal:WriteAheadLog."
    for name in ("append_generated", "append_processed", "append_decision"):
        patch(wal + name, "storage.wal", key="storage.wal.append",
              after=lambda _, record: add("storage.wal.bytes", len(record)))
    patch(wal + "rewrite", "storage.wal")
    patch(wal + "open", "storage.wal")
    for name in ("begin_snapshot", "save_snapshot", "finish_snapshot"):
        patch("repro.storage.store:NodeStorage." + name, "storage.snapshot")
    patch("repro.storage.store:NodeStorage.load", "storage.store")
    patch("repro.runtime.node:restore_member", "storage.snapshot")
    persist = _resolve("repro.storage.store:SnapshotJob.persist")
    if persist is None:
        tracer.missing.append("repro.storage.store:SnapshotJob.persist")
    else:
        owner, name, fn = persist
        setattr(owner, name, tracer.wrap_detached(fn, "storage.snapshot.persist"))


def install_codecs(tracer: Tracer) -> None:
    """``CodecRegistry.encode/decode``, billed to ``svc.wire`` for
    client PDUs (what ``repro.svc.wire`` registers) and to ``net.wire``
    for group PDUs."""
    try:
        import repro.svc.wire as client_wire
        from repro.net.wire import CodecRegistry, global_registry
    except ImportError:
        tracer.missing.append("repro.net.wire:CodecRegistry")
        return
    registered = global_registry.registered()
    client_tags = frozenset(
        tag for tag, cls in registered.items() if cls.__module__ == client_wire.__name__
    )
    client_types = tuple(registered[tag] for tag in client_tags)
    add = tracer.add

    encode_client = tracer.wrap(
        CodecRegistry.encode, "svc.wire",
        after=lambda _, data: add("svc.wire.bytes", len(data)),
    )
    encode_group = tracer.wrap(CodecRegistry.encode, "net.wire")
    decode_client = tracer.wrap(CodecRegistry.decode, "svc.wire")
    decode_group = tracer.wrap(CodecRegistry.decode, "net.wire")

    def encode(registry, message):
        if isinstance(message, client_types):
            add("svc.wire.encodes", 1)
            return encode_client(registry, message)
        add("net.wire.encodes", 1)
        return encode_group(registry, message)

    def decode(registry, data):
        if data and data[0] in client_tags:
            return decode_client(registry, data)
        add("net.wire.decodes", 1)
        return decode_group(registry, data)

    CodecRegistry.encode = encode
    CodecRegistry.decode = decode
