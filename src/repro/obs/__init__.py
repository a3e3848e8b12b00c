"""Unified observability: metrics registry, structured spans, exporters.

The paper's whole evaluation — Table 1's control-traffic accounting,
Figure 4's end-to-end delays, Figure 6's history occupancy — is an
observability exercise.  This package is the one instrumentation
surface shared by the simulator and the live asyncio runtime:

* :class:`Registry` — process-wide counters, gauges, exact-percentile
  histograms and time series, labellable by node / round / message
  family.  It absorbs the seed-era ``MetricSet`` (now an alias) and
  the scattered ad-hoc counters of the net, runtime and storage layers.
* :class:`Recorder` — structured span events (``subrun`` / ``request``
  / ``decision`` / ``generated`` / ``processed``) with a pluggable
  clock (simulated time or wall time), from which a message's full
  causal timeline can be reconstructed.  :data:`NULL_RECORDER` is the
  zero-cost disabled instance behind ``UrcgcConfig(observability=...)``.
* Exporters — JSONL trace writer (:func:`write_jsonl`),
  Prometheus-style text dump (:func:`prometheus_text`), and the bench
  exporter (:func:`bench_payload`) that seeds ``BENCH_*.json``.
* ``python -m repro report`` renders a trace back into the paper-style
  tables (:func:`render_trace_report`).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and file formats.
"""

from .events import (
    NULL_RECORDER,
    MetricRecord,
    NullRecorder,
    ObsEvent,
    Recorder,
    mid_label,
)
from .export import (
    bench_payload,
    events_as_dicts,
    prometheus_text,
    read_jsonl,
    registry_records,
    write_bench_json,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSet,
    Registry,
    Series,
    Summary,
    summarize,
)
from .report import message_timeline, render_trace_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSet",
    "Registry",
    "Series",
    "Summary",
    "summarize",
    "ObsEvent",
    "MetricRecord",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "mid_label",
    "write_jsonl",
    "read_jsonl",
    "events_as_dicts",
    "registry_records",
    "prometheus_text",
    "bench_payload",
    "write_bench_json",
    "message_timeline",
    "render_trace_report",
]
