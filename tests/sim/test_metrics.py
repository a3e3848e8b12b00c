"""Unit tests for counters, series, and summary statistics."""

import math

import pytest

from repro.obs.metrics import Counter, MetricSet, Series, summarize


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().value == 0

    def test_add(self):
        counter = Counter()
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_int_conversion(self):
        counter = Counter()
        counter.add(7)
        assert int(counter) == 7


class TestSeries:
    def test_record_and_iterate(self):
        series = Series()
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert list(series) == [(0.0, 1.0), (1.0, 3.0)]
        assert series.times == [0.0, 1.0]
        assert series.values == [1.0, 3.0]

    def test_max_and_last(self):
        series = Series()
        assert series.max() == 0.0
        assert series.last() is None
        series.record(0.0, 5.0)
        series.record(1.0, 2.0)
        assert series.max() == 5.0
        assert series.last() == 2.0

    def test_at_or_before(self):
        series = Series()
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.at_or_before(0.5) is None
        assert series.at_or_before(1.0) == 10.0
        assert series.at_or_before(1.5) == 10.0
        assert series.at_or_before(5.0) == 20.0

    def test_at_or_before_out_of_order_samples(self):
        # Regression: the scan used to break at the first timestamp
        # above the query, returning the pre-gap value even when an
        # out-of-order sample further down the list was the answer.
        series = Series()
        series.record(1.0, 10.0)
        series.record(5.0, 50.0)
        series.record(2.0, 20.0)  # recorded late, belongs at t=2
        assert series.at_or_before(2.5) == 20.0
        assert series.at_or_before(4.9) == 20.0
        assert series.at_or_before(5.0) == 50.0

    def test_out_of_order_reads_are_chronological(self):
        series = Series()
        series.record(3.0, 30.0)
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.times == [1.0, 2.0, 3.0]
        assert series.values == [10.0, 20.0, 30.0]
        assert series.last() == 30.0

    def test_at_or_before_tie_keeps_latest_recorded(self):
        series = Series()
        series.record(1.0, 10.0)
        series.record(1.0, 11.0)
        assert series.at_or_before(1.0) == 11.0


class TestSummarize:
    def test_empty_is_explicit(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.is_empty
        assert math.isnan(summary.mean)
        assert math.isnan(summary.p50)
        assert math.isnan(summary.p95)
        assert math.isnan(summary.minimum)
        assert math.isnan(summary.maximum)
        assert "no samples" in str(summary)
        assert summary.as_dict() == {"count": 0}

    def test_empty_is_not_all_zero_samples(self):
        # Regression: summarize([]) used to fabricate min=max=p50=0.0,
        # indistinguishable from a genuine all-zero sample set.
        assert summarize([]) != summarize([0.0, 0.0])
        assert summarize([]) == summarize([])

    def test_single(self):
        summary = summarize([3.0])
        assert summary.count == 1
        assert summary.mean == 3.0
        assert summary.p50 == 3.0
        assert summary.stdev == 0.0

    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5
        assert math.isclose(summary.stdev, math.sqrt(1.25))

    def test_percentiles_interpolate(self):
        summary = summarize(range(101))
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0

    def test_order_insensitive(self):
        assert summarize([3, 1, 2]) == summarize([1, 2, 3])


class TestMetricSet:
    def test_counter_created_on_demand(self):
        metrics = MetricSet()
        metrics.count("x", 2)
        metrics.count("x")
        assert metrics.counter("x").value == 3

    def test_series_created_on_demand(self):
        metrics = MetricSet()
        metrics.sample("s", 0.0, 1.0)
        assert metrics.series_for("s").values == [1.0]

    def test_distinct_names_distinct_objects(self):
        metrics = MetricSet()
        assert metrics.counter("a") is not metrics.counter("b")
        assert metrics.counter("a") is metrics.counter("a")
