"""Tests for the metrics registry and its primitives."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeightedValue,
)
from repro.sim import Environment


class TestCounter:
    def test_accumulates(self):
        counter = Counter("launches")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_monotonic(self):
        counter = Counter("launches")
        with pytest.raises(SimulationError):
            counter.inc(-1.0)


class TestGauge:
    def test_moves_both_ways_and_remembers_peak(self):
        gauge = Gauge("inflight")
        gauge.add(3)
        gauge.add(-2)
        assert gauge.value == pytest.approx(1)
        assert gauge.peak == pytest.approx(3)

    def test_snapshot(self):
        gauge = Gauge("inflight")
        gauge.set(4.0)
        assert gauge.snapshot() == {"value": 4.0, "peak": 4.0}


class TestHistogram:
    def test_bucketises(self):
        histogram = Histogram("wait", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"][1.0] == 1
        assert snap["buckets"][10.0] == 1
        assert snap["buckets"][float("inf")] == 1

    def test_mean_min_max(self):
        histogram = Histogram("wait", bounds=(100.0,))
        for value in (1.0, 2.0, 9.0):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(4.0)
        assert histogram.min_value == pytest.approx(1.0)
        assert histogram.max_value == pytest.approx(9.0)

    def test_quantile_bucket_resolution(self):
        histogram = Histogram("wait", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(0.5)
        assert histogram.quantile(0.5) == pytest.approx(1.0)
        assert histogram.quantile(1.0) == pytest.approx(50.0)

    def test_empty_rejected(self):
        histogram = Histogram("wait")
        with pytest.raises(SimulationError):
            _ = histogram.mean
        with pytest.raises(SimulationError):
            histogram.quantile(0.5)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=(10.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=())
        histogram = Histogram("q", bounds=(1.0,))
        histogram.observe(0.5)
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)


class TestTimeWeighted:
    def test_integrates_against_virtual_clock(self):
        env = Environment()
        level = TimeWeightedValue(env, value=2.0)

        def proc():
            yield env.timeout(10.0)
            level.set(6.0)
            yield env.timeout(10.0)

        env.process(proc())
        env.run()
        # 2.0 for 10 s then 6.0 for 10 s -> average 4.0.
        assert level.time_average() == pytest.approx(4.0)
        assert level.peak == pytest.approx(6.0)

    def test_no_elapsed_time_rejected(self):
        level = TimeWeightedValue(Environment(), value=1.0)
        with pytest.raises(SimulationError):
            level.time_average()


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_time_weighted_needs_clock(self):
        registry = MetricsRegistry()
        with pytest.raises(SimulationError):
            registry.time_weighted("level")
        registry.attach_clock(Environment())
        assert registry.time_weighted("level").value == 0.0

    def test_value_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("count.launches").inc(3)
        assert registry.value("count.launches") == pytest.approx(3)
        assert registry.value("missing", default=-1.0) == -1.0
        assert "count.launches" in registry
        assert "missing" not in registry

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.counter("energy_j.launch").inc(10.0)
        registry.counter("energy_j.dock").inc(5.0)
        registry.counter("count.launches").inc()
        assert registry.counters_with_prefix("energy_j.") == {
            "launch": 10.0,
            "dock": 5.0,
        }

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("count.launches").inc(2)
        registry.histogram("wait", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["count.launches", "wait"]
        assert snapshot["count.launches"] == {"type": "counter", "value": 2}
        assert snapshot["wait"]["type"] == "histogram"
        assert snapshot["wait"]["buckets"] == {1.0: 1, float("inf"): 0}
