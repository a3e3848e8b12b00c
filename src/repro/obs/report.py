"""Render a JSONL trace back into paper-style tables.

``python -m repro report run.jsonl`` feeds the parsed records through
:func:`render_trace_report`: run metadata, span counts, the flushed
registry state, and the reconstructed causal timeline of one message
(generated → declared deps → requested → decided → processed), i.e.
the per-message view Nédelec et al. argue causal-broadcast cost is
only understandable through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable

from .events import (
    SPAN_DECISION,
    SPAN_GENERATED,
    SPAN_PROCESSED,
    SPAN_REQUEST,
)

__all__ = ["message_timeline", "render_trace_report"]


def _table_renderer() -> "Callable[..., str]":
    # Imported lazily: ``repro.analysis`` pulls in ``repro.core``, and a
    # module-level import here would close an import cycle when
    # ``core.message`` → ``net`` → ``sim.kernel`` → ``obs.metrics``
    # reaches this package while ``core`` is still initializing.
    from ..analysis.report import render_table

    return render_table


def _events(records: list[dict], kind: str) -> list[dict]:
    return [r for r in records if r.get("ev") == kind]


def message_timeline(records: list[dict], mid: str | None = None) -> dict:
    """Reconstruct one message's causal timeline from trace records.

    Returns a dict with the chosen ``mid``, its declared ``deps``, and
    a ``stages`` list of ``(stage, time, node)`` covering generated →
    requested → decided → processed-per-node; ``group_processed`` is
    the instant the whole group had it (None until every stage is
    observable).  Raises ``KeyError`` if the mid never appears.
    """
    generated = _events(records, SPAN_GENERATED)
    if mid is None:
        if not generated:
            raise KeyError("trace contains no generated message")
        chosen = generated[0]
    else:
        matches = [r for r in generated if r.get("mid") == mid]
        if not matches:
            raise KeyError(f"mid {mid!r} was never generated in this trace")
        chosen = matches[0]
    mid = chosen["mid"]
    origin = chosen.get("node")
    t_generated = chosen["t"]
    stages: list[tuple[str, float, int | None]] = [("generated", t_generated, origin)]

    requested = next(
        (
            r
            for r in _events(records, SPAN_REQUEST)
            if r.get("node") == origin and r["t"] >= t_generated
        ),
        None,
    )
    if requested is not None:
        stages.append(("requested", requested["t"], origin))

    t_floor = requested["t"] if requested is not None else t_generated
    decided = next(
        (r for r in _events(records, SPAN_DECISION) if r["t"] >= t_floor),
        None,
    )
    if decided is not None:
        stages.append(("decided", decided["t"], decided.get("node")))

    processed_at: dict[int, float] = {}
    for record in _events(records, SPAN_PROCESSED):
        if record.get("mid") == mid and record.get("node") is not None:
            processed_at.setdefault(record["node"], record["t"])
    for node in sorted(processed_at):
        stages.append((f"processed@p{node}", processed_at[node], node))

    return {
        "mid": mid,
        "origin": origin,
        "deps": list(chosen.get("deps", [])),
        "stages": stages,
        "group_processed": max(processed_at.values()) if processed_at else None,
    }


def _render_meta(records: list[dict]) -> str:
    meta = next((r for r in records if r.get("ev") == "meta"), None)
    if meta is None:
        return "trace: (no meta record)"
    parts = [f"{k}={v}" for k, v in sorted(meta.items()) if k != "ev"]
    return "trace: " + " ".join(parts)


def _render_span_counts(records: list[dict]) -> str:
    counts: dict[str, int] = {}
    for record in records:
        kind = record.get("ev", "?")
        if kind in ("meta", "metric"):
            continue
        counts[kind] = counts.get(kind, 0) + 1
    rows = [[kind, count] for kind, count in sorted(counts.items())]
    return _table_renderer()(["span", "events"], rows, title="Span events")


def _render_metrics(records: list[dict]) -> str:
    scalar_rows = []
    summary_rows = []
    for record in _events(records, "metric"):
        labels = record.get("labels", {})
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        if "value" in record:
            scalar_rows.append(
                [record["name"], label_text, record["family"], record["value"]]
            )
        else:
            summary = record.get("summary", {})
            summary_rows.append(
                [
                    record["name"],
                    label_text,
                    summary.get("count", 0),
                    summary.get("mean", float("nan")),
                    summary.get("p50", float("nan")),
                    summary.get("p95", float("nan")),
                    summary.get("p99", float("nan")),
                    summary.get("maximum", float("nan")),
                ]
            )
    sections = []
    render_table = _table_renderer()
    if scalar_rows:
        sections.append(
            render_table(
                ["metric", "labels", "family", "value"],
                scalar_rows,
                title="Counters and gauges",
            )
        )
    if summary_rows:
        sections.append(
            render_table(
                ["metric", "labels", "n", "mean", "p50", "p95", "p99", "max"],
                summary_rows,
                title="Histograms and series",
            )
        )
    return "\n\n".join(sections) if sections else "(no metric records)"


def _render_timeline(records: list[dict], mid: str | None) -> str:
    try:
        timeline = message_timeline(records, mid)
    except KeyError as exc:
        return f"timeline: {exc.args[0]}"
    deps = ", ".join(timeline["deps"]) or "(none)"
    rows = [
        [stage, time, f"p{node}" if node is not None else "-"]
        for stage, time, node in timeline["stages"]
    ]
    return _table_renderer()(
        ["stage", "t", "node"],
        rows,
        title=f"Timeline of {timeline['mid']} (declared deps: {deps})",
    )


def render_trace_report(records: list[dict], *, mid: str | None = None) -> str:
    """The ``python -m repro report`` rendering of one parsed trace."""
    return "\n\n".join(
        [
            _render_meta(records),
            _render_span_counts(records),
            _render_metrics(records),
            _render_timeline(records, mid),
        ]
    )
