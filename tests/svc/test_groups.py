"""Tests for the client-server group structure (paper Section 3).

``ClientServerGroup`` lives in ``examples/replicated_kv_store.py``, its
one caller; these tests load it from there.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.core.config import UrcgcConfig
from repro.errors import ConfigError, ProtocolError
from repro.harness.cluster import SimCluster
from repro.types import ProcessId

_EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "replicated_kv_store.py"
)
_spec = importlib.util.spec_from_file_location("replicated_kv_store", _EXAMPLE)
kv_store = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = kv_store  # dataclasses resolve their module here
_spec.loader.exec_module(kv_store)

CallHandle = kv_store.CallHandle
ClientServerGroup = kv_store.ClientServerGroup
Role = kv_store.Role
first_reply = kv_store.first_reply
majority_vote = kv_store.majority_vote


def build_cs_cluster(n=4, servers=(0, 1), handler=None):
    """A SimCluster with ClientServerGroup adapters on every member."""
    cluster = SimCluster(UrcgcConfig(n=n), max_rounds=80)
    server_set = {ProcessId(s) for s in servers}
    handler = handler or (lambda client, body: b"ack:" + body)
    adapters = []
    for i in range(n):
        pid = ProcessId(i)
        role = Role.SERVER if pid in server_set else Role.CLIENT
        adapters.append(
            ClientServerGroup(
                cluster.services[i],
                role,
                server_set,
                handler=handler if role is Role.SERVER else None,
            )
        )
    return cluster, adapters


class TestVotingFunctions:
    def test_majority(self):
        assert majority_vote([b"a", b"b", b"a"]) == b"a"

    def test_majority_tie_deterministic(self):
        assert majority_vote([b"b", b"a"]) == majority_vote([b"a", b"b"])

    def test_first(self):
        assert first_reply([b"x", b"y"]) == b"x"

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            majority_vote([])
        with pytest.raises(ProtocolError):
            first_reply([])


class TestCallHandle:
    """Direct unit tests of the call resolution logic (no cluster)."""

    def test_resolves_at_h_replies(self):
        handle = CallHandle(1, 2, majority_vote)
        assert not handle.on_reply(ProcessId(0), b"x")
        assert not handle.resolved
        assert handle.on_reply(ProcessId(1), b"x")
        assert handle.resolved
        assert handle.result == b"x"
        assert handle.responders == [ProcessId(0), ProcessId(1)]

    def test_late_replies_ignored(self):
        handle = CallHandle(1, 1, first_reply)
        assert handle.on_reply(ProcessId(0), b"first")
        assert not handle.on_reply(ProcessId(1), b"late")
        assert handle.result == b"first"
        assert len(handle.replies) == 1

    def test_voting_folds_all_collected_replies(self):
        handle = CallHandle(1, 3, majority_vote)
        handle.on_reply(ProcessId(0), b"a")
        handle.on_reply(ProcessId(1), b"b")
        handle.on_reply(ProcessId(2), b"a")
        assert handle.result == b"a"


class _StubService:
    """Captures data_rq payloads; enough of UrcgcService for a role test."""

    class _Member:
        def __init__(self, pid):
            self.pid = pid

    def __init__(self, pid=0):
        self.member = self._Member(ProcessId(pid))
        self.sent = []
        self.handlers = []

    def data_rq(self, payload):
        self.sent.append(payload)

    def add_indication_handler(self, handler):
        self.handlers.append(handler)


class TestRoleLogic:
    """Direct unit tests of role checks via a stub service."""

    def test_client_call_submits_one_request(self):
        service = _StubService(pid=2)
        group = ClientServerGroup(
            service, Role.CLIENT, {ProcessId(0), ProcessId(1)}
        )
        group.call(b"payload")
        assert len(service.sent) == 1
        assert service.handlers  # registered composably, not exclusively

    def test_server_cannot_call_stub(self):
        service = _StubService(pid=0)
        group = ClientServerGroup(
            service, Role.SERVER, {ProcessId(0)}, handler=lambda c, b: b""
        )
        with pytest.raises(ProtocolError):
            group.call(b"nope")

    def test_foreign_payloads_skipped(self):
        """Traffic from other consumers of the member (e.g. a service
        frontend's envelopes) must not trip the call decoder."""
        from repro.core.mid import Mid
        from repro.core.message import UserMessage
        from repro.types import SeqNo

        service = _StubService(pid=1)
        group = ClientServerGroup(
            service, Role.CLIENT, {ProcessId(0)}
        )
        envelope_like = UserMessage(
            Mid(ProcessId(0), SeqNo(1)), (), bytes([0xE5]) + b"not ours"
        )
        group._on_indication(envelope_like)  # must not raise
        assert group.served_count == 0


class TestClientServer:
    def test_call_resolves_with_h_replies(self):
        cluster, adapters = build_cs_cluster()
        client = adapters[2]
        handle = client.call(b"read x", h=2, v=majority_vote)
        cluster.run_until_quiescent(drain_subruns=2)
        assert handle.resolved
        assert handle.result == b"ack:read x"
        assert len(handle.replies) >= 2
        assert set(handle.responders) <= {ProcessId(0), ProcessId(1)}

    def test_every_server_serves_each_call_once(self):
        cluster, adapters = build_cs_cluster()
        adapters[2].call(b"op")
        cluster.run_until_quiescent(drain_subruns=2)
        assert adapters[0].served_count == 1
        assert adapters[1].served_count == 1
        assert adapters[3].served_count == 0  # clients never serve

    def test_servers_process_calls_in_same_order(self):
        """Uniform ordering carries over: both servers see the two
        calls in the same causal order."""
        orders = {0: [], 1: []}

        def handler_for(sid):
            def handler(client, body):
                orders[sid].append(bytes(body))
                return b"ok"
            return handler

        cluster = SimCluster(UrcgcConfig(n=4), max_rounds=80)
        servers = {ProcessId(0), ProcessId(1)}
        adapters = []
        for i in range(4):
            pid = ProcessId(i)
            role = Role.SERVER if pid in servers else Role.CLIENT
            adapters.append(
                ClientServerGroup(
                    cluster.services[i],
                    role,
                    servers,
                    handler=handler_for(i) if role is Role.SERVER else None,
                )
            )
        adapters[2].call(b"first")
        adapters[3].call(b"second")
        cluster.run_until_quiescent(drain_subruns=2)
        assert sorted(orders[0]) == [b"first", b"second"]
        assert orders[0] == orders[1]

    def test_h_bounds_checked(self):
        _, adapters = build_cs_cluster()
        with pytest.raises(ConfigError):
            adapters[2].call(b"x", h=3)  # only 2 servers
        with pytest.raises(ConfigError):
            adapters[2].call(b"x", h=0)

    def test_config_validation(self):
        cluster = SimCluster(UrcgcConfig(n=3), max_rounds=10)
        with pytest.raises(ConfigError):
            ClientServerGroup(cluster.services[0], Role.SERVER, set())
        with pytest.raises(ConfigError):
            ClientServerGroup(
                cluster.services[0], Role.SERVER, {ProcessId(1)},
                handler=lambda c, b: b"",
            )
        with pytest.raises(ConfigError):
            ClientServerGroup(cluster.services[0], Role.SERVER, {ProcessId(0)})
