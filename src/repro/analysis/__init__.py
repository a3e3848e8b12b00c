"""Analysis: delay statistics, invariant checkers, the per-guarantee
verdict schema, analytic cost models, and report rendering."""

from .causal_graph import CausalGraph, build_causal_graph
from .checkers import (
    CheckResult,
    Violation,
    check_bridge_ordering,
    check_local_causal_order,
    check_uniform_atomicity,
    check_uniform_ordering,
)
from .cost_models import (
    ControlTraffic,
    cbcast_agreement_time,
    cbcast_control_traffic,
    urcgc_agreement_time,
    urcgc_control_traffic,
    urcgc_history_bound,
)
from .delay import DelayReport, DeliveryLog
from .report import format_value, render_series, render_table
from .timeline import SubrunSummary, Timeline, build_timeline
from .verdict import RunResult, Verdict, audit_delivery, results_as_json

__all__ = [
    "CausalGraph",
    "build_causal_graph",
    "CheckResult",
    "Violation",
    "check_bridge_ordering",
    "check_local_causal_order",
    "check_uniform_atomicity",
    "check_uniform_ordering",
    "ControlTraffic",
    "cbcast_agreement_time",
    "cbcast_control_traffic",
    "urcgc_agreement_time",
    "urcgc_control_traffic",
    "urcgc_history_bound",
    "DelayReport",
    "DeliveryLog",
    "format_value",
    "render_series",
    "render_table",
    "SubrunSummary",
    "Timeline",
    "build_timeline",
    "RunResult",
    "Verdict",
    "audit_delivery",
    "results_as_json",
]
