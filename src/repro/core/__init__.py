"""The urcgc protocol core — the paper's primary contribution.

Sans-IO implementation of the Uniform Reliable Causal Group
Communication algorithm: application-declared causal dependencies,
rotating-coordinator decisions, history buffers with agreed cleaning,
point-to-point recovery, orphan-sequence discard, and the distributed
flow control of Section 6.
"""

from .causality import (
    CausalContext,
    ContiguousDependencyTracker,
    validate_deps,
)
from .config import LeaveRule, UrcgcConfig
from .decision import Decision, RequestInfo, compute_decision, initial_decision
from .effects import (
    Confirm,
    DecisionApplied,
    Deliver,
    Discarded,
    Effect,
    Left,
    Rejoined,
    Send,
)
from .group_view import GroupView
from .history import History
from .member import Member
from .message import (
    KIND_DATA,
    KIND_DECISION,
    KIND_RECOVERY_RQ,
    KIND_RECOVERY_RSP,
    KIND_REQUEST,
    DecisionMessage,
    RecoveryRequest,
    RecoveryResponse,
    RequestMessage,
    UserMessage,
)
from .mid import NO_MESSAGE, Mid
from .rejoin import (
    KIND_JOIN,
    JoinRequest,
    MemberState,
    build_member,
    export_state,
    replay,
)
from .service import RequestHandle, UrcgcService
from .total_order import TotalOrderView, attach_total_order
from .waiting import WaitingList

__all__ = [
    "CausalContext",
    "ContiguousDependencyTracker",
    "validate_deps",
    "LeaveRule",
    "UrcgcConfig",
    "Decision",
    "RequestInfo",
    "compute_decision",
    "initial_decision",
    "Confirm",
    "DecisionApplied",
    "Deliver",
    "Discarded",
    "Effect",
    "Left",
    "Rejoined",
    "Send",
    "GroupView",
    "History",
    "Member",
    "KIND_DATA",
    "KIND_DECISION",
    "KIND_RECOVERY_RQ",
    "KIND_RECOVERY_RSP",
    "KIND_REQUEST",
    "DecisionMessage",
    "RecoveryRequest",
    "RecoveryResponse",
    "RequestMessage",
    "UserMessage",
    "Mid",
    "NO_MESSAGE",
    "KIND_JOIN",
    "JoinRequest",
    "MemberState",
    "build_member",
    "export_state",
    "replay",
    "RequestHandle",
    "UrcgcService",
    "TotalOrderView",
    "attach_total_order",
    "WaitingList",
]
