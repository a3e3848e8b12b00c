"""Metric primitives and the process-wide registry.

Counters, gauges, exact-percentile histograms and time series, plus
:class:`Summary` statistics.  :class:`Registry` is the labelled bag
every layer records into; it supersedes the seed-era
``MetricSet`` (kept as an alias) so one registry serves
the simulator kernel, the asyncio runtime, the fault fabrics and the
storage layer alike.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator

from ..types import Time

__all__ = [
    "Counter",
    "Gauge",
    "Series",
    "Histogram",
    "Summary",
    "summarize",
    "Registry",
    "MetricSet",
]

#: Canonical (sorted) label form: ``(("kind", "data"), ("node", "3"))``.
LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonic named counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a Gauge or Series")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value that may move in both directions."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Series:
    """A time series of ``(time, value)`` samples.

    Samples may be recorded out of timestamp order — chaos jitter and
    recovery replay both produce that — so the series keeps itself
    sorted by time (lazily, with a stable sort: ties keep arrival
    order).  All readers observe chronological order.
    """

    __slots__ = ("_samples", "_ordered")

    def __init__(self) -> None:
        self._samples: list[tuple[Time, float]] = []
        self._ordered = True

    def record(self, time: Time, value: float) -> None:
        if self._samples and time < self._samples[-1][0]:
            self._ordered = False
        self._samples.append((time, value))

    def _sorted_samples(self) -> list[tuple[Time, float]]:
        if not self._ordered:
            self._samples.sort(key=lambda sample: sample[0])
            self._ordered = True
        return self._samples

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[tuple[Time, float]]:
        return iter(self._sorted_samples())

    @property
    def times(self) -> list[Time]:
        return [t for t, _ in self._sorted_samples()]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self._sorted_samples()]

    def max(self) -> float:
        """Largest sampled value (0.0 for an empty series)."""
        return max((v for _, v in self._samples), default=0.0)

    def last(self) -> float | None:
        """Value of the chronologically latest sample."""
        samples = self._sorted_samples()
        return samples[-1][1] if samples else None

    def at_or_before(self, time: Time) -> float | None:
        """Value of the latest sample with timestamp <= ``time``.

        Correct regardless of recording order: the scan is a bisect
        over the time-sorted samples, not a break-on-first-later walk.
        """
        samples = self._sorted_samples()
        idx = bisect_right(samples, time, key=lambda sample: sample[0])
        return samples[idx - 1][1] if idx else None

    def summary(self) -> "Summary":
        return summarize(self.values)


class Histogram:
    """A sample set with exact percentiles (all samples retained)."""

    __slots__ = ("_samples", "_ordered")

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._ordered = True

    def observe(self, value: float) -> None:
        if self._samples and value < self._samples[-1]:
            self._ordered = False
        self._samples.append(float(value))

    def _sorted_samples(self) -> list[float]:
        if not self._ordered:
            self._samples.sort()
            self._ordered = True
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return math.fsum(self._samples)

    def percentile(self, q: float) -> float:
        """Exact linear-interpolation percentile (NaN if empty)."""
        samples = self._sorted_samples()
        if not samples:
            return float("nan")
        return _percentile(samples, q)

    def summary(self) -> "Summary":
        return summarize(self._sorted_samples())

    def __repr__(self) -> str:
        return f"Histogram(n={self.count})"


class Summary:
    """Summary statistics of a sample set.

    The empty case is explicit: :meth:`empty` returns the singleton
    with ``count == 0`` and NaN statistics, which renders as
    ``n=0 (no samples)`` — never confusable with a real all-zero
    sample set (the seed-era behaviour).
    """

    __slots__ = ("count", "mean", "stdev", "minimum", "maximum", "p50", "p95", "p99")

    def __init__(
        self,
        count: int,
        mean: float,
        stdev: float,
        minimum: float,
        maximum: float,
        p50: float,
        p95: float,
        p99: float,
    ) -> None:
        self.count = count
        self.mean = mean
        self.stdev = stdev
        self.minimum = minimum
        self.maximum = maximum
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99

    _EMPTY: "Summary | None" = None

    @classmethod
    def empty(cls) -> "Summary":
        """The explicit no-samples summary (a singleton)."""
        if cls._EMPTY is None:
            nan = float("nan")
            cls._EMPTY = cls(0, nan, nan, nan, nan, nan, nan, nan)
        return cls._EMPTY

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Summary):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"Summary({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly form (omits the NaN fields of the empty case)."""
        if self.is_empty:
            return {"count": 0}
        return {name: getattr(self, name) for name in self.__slots__}

    def __str__(self) -> str:  # human-readable one-liner for reports
        if self.is_empty:
            return "n=0 (no samples)"
        return (
            f"n={self.count} mean={self.mean:.3f} sd={self.stdev:.3f} "
            f"min={self.minimum:.3f} p50={self.p50:.3f} p95={self.p95:.3f} "
            f"p99={self.p99:.3f} max={self.maximum:.3f}"
        )


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of a pre-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def summarize(samples: Iterable[float]) -> Summary:
    """Compute :class:`Summary` statistics over ``samples``.

    An empty sample set yields :meth:`Summary.empty` (``count == 0``),
    not a fabricated all-zero summary.
    """
    data = sorted(samples)
    if not data:
        return Summary.empty()
    n = len(data)
    mean = sum(data) / n
    var = sum((x - mean) ** 2 for x in data) / n
    return Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=data[0],
        maximum=data[-1],
        p50=_percentile(data, 0.50),
        p95=_percentile(data, 0.95),
        p99=_percentile(data, 0.99),
    )


class Registry:
    """A labelled bag of counters, gauges, histograms and series.

    The process-wide metric surface: one registry is shared by a whole
    simulation (``kernel.metrics``) or a whole live group
    (``recorder.registry``).  Metrics are keyed by name plus an
    optional label set (``registry.count("net.sent", kind="data")``),
    so one family covers every node / round / message-family split.

    The seed-era ``MetricSet`` API (``count`` / ``counter`` /
    ``sample`` / ``series_for``) is a strict subset; ``MetricSet`` is
    now an alias of this class.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_series")

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._series: dict[tuple[str, LabelKey], Series] = {}

    # -- access / creation ---------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Return (creating if needed) the counter ``name``."""
        key = (name, label_key(labels))
        ctr = self._counters.get(key)
        if ctr is None:
            ctr = self._counters[key] = Counter()
        return ctr

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        return histogram

    def series_for(self, name: str, **labels: object) -> Series:
        """Return (creating if needed) the series ``name``."""
        key = (name, label_key(labels))
        ser = self._series.get(key)
        if ser is None:
            ser = self._series[key] = Series()
        return ser

    # -- recording shorthands ------------------------------------------

    def count(self, name: str, amount: int = 1, **labels: object) -> None:
        self.counter(name, **labels).add(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.histogram(name, **labels).observe(value)

    def sample(self, name: str, time: Time, value: float, **labels: object) -> None:
        self.series_for(name, **labels).record(time, value)

    # -- introspection (exporters walk this) ---------------------------

    def walk(
        self,
    ) -> Iterator[tuple[str, str, LabelKey, Counter | Gauge | Histogram | Series]]:
        """Yield ``(family, name, labels, metric)`` in sorted order."""
        families: list[
            tuple[str, dict[tuple[str, LabelKey], Counter | Gauge | Histogram | Series]]
        ] = [
            ("counter", dict(self._counters)),
            ("gauge", dict(self._gauges)),
            ("histogram", dict(self._histograms)),
            ("series", dict(self._series)),
        ]
        for family, metrics in families:
            for (name, labels), metric in sorted(metrics.items()):
                yield family, name, labels, metric

    # -- MetricSet-era compatibility views -----------------------------

    @property
    def counters(self) -> dict[str, Counter]:
        """Unlabelled counters by name (the seed-era ``MetricSet`` view)."""
        return {name: c for (name, labels), c in self._counters.items() if not labels}

    @property
    def series(self) -> dict[str, Series]:
        """Unlabelled series by name (the seed-era ``MetricSet`` view)."""
        return {name: s for (name, labels), s in self._series.items() if not labels}


#: The seed-era name: one bag of counters and series per simulation.
MetricSet = Registry
