"""Tests for the synthetic workload generator."""

import struct

import pytest

from repro.errors import ConfigurationError
from repro.units import GB, HOUR, TB
from repro.core.chunks import map_chunks
from repro.workloads.generator import (
    DEFAULT_MIX,
    _fingerprint_chunk,
    TrafficClass,
    TransferJob,
    WorkloadGenerator,
    jobs_by_kind,
    stream_fingerprint,
    total_offered_bytes,
)


class TestTrafficClass:
    def test_default_mix_has_papers_applications(self):
        names = {traffic_class.name for traffic_class in DEFAULT_MIX}
        assert "ml-dataset" in names
        assert "bulk-backup" in names
        assert "small-sync" in names

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficClass("bad", rate_per_hour=0, median_bytes=GB)
        with pytest.raises(ConfigurationError):
            TrafficClass("bad", rate_per_hour=1, median_bytes=GB, sigma=0)


class TestGenerator:
    def test_deterministic_under_seed(self):
        first = WorkloadGenerator(seed=9).generate(4 * HOUR)
        second = WorkloadGenerator(seed=9).generate(4 * HOUR)
        assert first == second

    def test_seeds_differ(self):
        assert WorkloadGenerator(seed=1).generate(HOUR) != WorkloadGenerator(
            seed=2
        ).generate(HOUR)

    def test_arrivals_sorted_within_horizon(self):
        jobs = WorkloadGenerator(seed=3).generate(2 * HOUR)
        arrivals = [job.arrival_s for job in jobs]
        assert arrivals == sorted(arrivals)
        assert all(0 <= arrival <= 2 * HOUR for arrival in arrivals)

    def test_job_ids_sequential(self):
        jobs = WorkloadGenerator(seed=3).generate(2 * HOUR)
        assert [job.job_id for job in jobs] == list(range(len(jobs)))

    def test_job_count_tracks_rates(self):
        # 24h at ~46.75 jobs/hour total: Poisson concentration.
        jobs = WorkloadGenerator(seed=5).generate(24 * HOUR)
        expected = sum(c.rate_per_hour for c in DEFAULT_MIX) * 24
        assert expected * 0.7 < len(jobs) < expected * 1.3

    def test_sizes_positive_and_heavy_tailed(self):
        jobs = WorkloadGenerator(seed=7).generate(24 * HOUR)
        sizes = [job.size_bytes for job in jobs]
        assert min(sizes) > 0
        # The ML/backup classes push the max orders beyond the median.
        assert max(sizes) > 100 * sorted(sizes)[len(sizes) // 2]

    def test_custom_classes(self):
        only_small = (TrafficClass("tiny", rate_per_hour=100, median_bytes=GB),)
        jobs = WorkloadGenerator(classes=only_small, seed=1).generate(HOUR)
        assert all(job.kind == "tiny" for job in jobs)
        assert all(job.size_bytes < TB for job in jobs)

    def test_requires_classes(self):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(classes=())

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            WorkloadGenerator().generate(0)


class TestHelpers:
    def test_total_offered_bytes(self):
        jobs = [
            TransferJob(0, 0.0, 10.0, "a"),
            TransferJob(1, 1.0, 5.0, "b"),
        ]
        assert total_offered_bytes(jobs) == 15.0

    def test_jobs_by_kind(self):
        jobs = WorkloadGenerator(seed=3).generate(12 * HOUR)
        grouped = jobs_by_kind(jobs)
        assert sum(len(group) for group in grouped.values()) == len(jobs)
        for kind, group in grouped.items():
            assert all(job.kind == kind for job in group)

    def test_job_validation(self):
        with pytest.raises(ConfigurationError):
            TransferJob(0, -1.0, 10.0, "a")
        with pytest.raises(ValueError):
            TransferJob(0, 0.0, 0.0, "a")


class TestSeededDeterminism:
    """Satellite contract: same seed => byte-identical job stream,
    in-process and under a ``map_chunks`` process pool."""

    def test_same_seed_is_byte_identical_across_runs(self):
        first = stream_fingerprint(seed=11, horizon_s=6 * HOUR)
        second = stream_fingerprint(seed=11, horizon_s=6 * HOUR)
        assert first == second
        assert len(first) > 0

    def test_different_seeds_differ(self):
        assert stream_fingerprint(seed=1, horizon_s=6 * HOUR) != (
            stream_fingerprint(seed=2, horizon_s=6 * HOUR)
        )

    def test_generator_state_does_not_leak_between_streams(self):
        generator = WorkloadGenerator(seed=5)
        generator.generate(2 * HOUR)  # advance the RNG
        fresh = WorkloadGenerator(seed=5).generate(2 * HOUR)
        again = WorkloadGenerator(seed=5).generate(2 * HOUR)
        assert fresh == again

    def test_identical_under_process_pool_engine(self):
        """Process workers regenerate *the* stream, not a similar one."""
        items = tuple((seed, 4 * HOUR) for seed in (0, 1, 2, 3, 4))
        serial = map_chunks(_fingerprint_chunk, items, engine="serial")
        process = map_chunks(
            _fingerprint_chunk, items, engine="process", workers=2
        )
        assert process == serial

    def test_fingerprint_packs_exact_bits(self):
        jobs = WorkloadGenerator(seed=9).generate(4 * HOUR)
        blob = stream_fingerprint(seed=9, horizon_s=4 * HOUR)
        offset = 0
        for job in jobs:
            job_id, arrival, size, kind_len = struct.unpack_from(
                "<qddq", blob, offset
            )
            offset += struct.calcsize("<qddq")
            kind = blob[offset:offset + kind_len].decode("utf-8")
            offset += kind_len
            assert job_id == job.job_id
            assert arrival == job.arrival_s  # bit-exact, no approx
            assert size == job.size_bytes
            assert kind == job.kind
        assert offset == len(blob)
