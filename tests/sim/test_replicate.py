"""Tests for the Monte-Carlo replication harness."""

import json
import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.sim import Environment, Resource
from repro.sim.replicate import (
    MetricStats,
    render_payload,
    replicate,
    result_payload,
    summarise,
    write_report,
)


def fixed_run(seed):
    """Deterministic toy metrics: linear in the seed."""
    return {"latency_s": 10.0 + seed, "served": 100.0 - seed}


def constant_run(seed):
    return {"value": 7.0}


def ragged_run(seed):
    return {"a": 1.0} if seed % 2 == 0 else {"b": 2.0}


def queueing_run(seed):
    """One seeded queueing run: a capacity-2 station, exponential arrivals.

    Module-level (picklable) so process workers can run it; returns
    wait-time KPIs, deterministic per seed.
    """
    rng = random.Random(seed)
    env = Environment()
    station = Resource(env, capacity=2)
    waits = []

    def job(arrival):
        with station.request() as claim:
            yield claim
            waits.append(env.now - arrival)
            yield env.timeout(1.0)

    def source():
        for _ in range(400):
            yield env.timeout(rng.expovariate(1.5))
            env.process(job(env.now))

    env.process(source())
    env.run()
    ordered = sorted(waits)
    return {
        "jobs": float(len(waits)),
        "mean_wait_s": math.fsum(waits) / len(waits),
        "p95_wait_s": ordered[int(0.95 * (len(ordered) - 1))],
        "makespan_s": env.now,
    }


class TestSummarise:
    def test_mean_std_ci95_by_hand(self):
        stats = summarise("x", [1.0, 2.0, 3.0, 4.0])
        assert stats.n == 4
        assert stats.mean == pytest.approx(2.5)
        # Sample std (ddof=1) of 1..4 is sqrt(5/3).
        assert stats.std == pytest.approx(math.sqrt(5.0 / 3.0))
        assert stats.ci95 == pytest.approx(1.96 * stats.std / 2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == pytest.approx(2.5)

    def test_single_sample_has_zero_spread(self):
        stats = summarise("x", [42.0])
        assert stats.mean == 42.0
        assert stats.std == 0.0
        assert stats.ci95 == 0.0
        assert stats.p50 == stats.p95 == stats.p99 == 42.0

    def test_percentiles_use_the_shared_rule(self):
        from repro.core.percentiles import percentile

        samples = [float(value) for value in range(11)]
        stats = summarise("x", samples)
        assert stats.p95 == percentile(samples, 95.0)
        assert stats.p99 == percentile(samples, 99.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            summarise("x", [])


class TestReplicate:
    def test_merges_in_seed_order(self):
        result = replicate(fixed_run, [3, 1, 2])
        assert result.seeds == (3, 1, 2)
        assert [output["latency_s"] for output in result.per_seed] == [
            13.0, 11.0, 12.0,
        ]
        assert result.stat("latency_s").mean == pytest.approx(12.0)
        assert result.stat("served").mean == pytest.approx(98.0)

    def test_stats_sorted_by_metric_name(self):
        result = replicate(fixed_run, [0, 1])
        assert [entry.name for entry in result.stats] == ["latency_s", "served"]

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate(fixed_run, [])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            replicate(fixed_run, [1, 1])

    def test_mismatched_metric_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="produced metrics"):
            replicate(ragged_run, [0, 1])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            replicate(fixed_run, [0], engine="gpu")

    def test_unknown_metric_lookup_rejected(self):
        result = replicate(constant_run, [0])
        with pytest.raises(ConfigurationError):
            result.stat("missing")


class TestDeterministicPayload:
    def test_payload_excludes_engine_and_wall_time(self):
        result = replicate(fixed_run, [0, 1])
        payload = result_payload(result)
        rendered = render_payload(payload)
        assert payload["schema"] == "repro-replicate/1"
        assert payload["n_replications"] == 2
        assert "engine" not in payload
        assert "wall" not in rendered
        # Canonical form round-trips.
        assert json.loads(rendered) == json.loads(
            json.dumps(payload, sort_keys=True)
        )

    def test_serial_and_process_payloads_byte_identical(self):
        seeds = range(3)
        serial = replicate(queueing_run, seeds, engine="serial")
        process = replicate(queueing_run, seeds, engine="process", workers=2)
        assert render_payload(result_payload(serial)) == render_payload(
            result_payload(process)
        )

    def test_write_report_is_canonical(self, tmp_path):
        result = replicate(fixed_run, [5])
        path = str(tmp_path / "rep.json")
        assert write_report(result_payload(result), path) == path
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("\n")
        assert json.loads(text)["seeds"] == [5]


class TestMetricStats:
    def test_is_frozen(self):
        stats = MetricStats("x", 1, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            stats.mean = 2.0
