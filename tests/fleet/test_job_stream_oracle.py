"""Exact oracles for a fleet run's job stream: generation and binding.

``WorkloadGenerator.generate`` builds each ``TransferJob`` once, from
``tolist()`` rows, and ``_bind_jobs`` draws datasets from raw PCG64
words instead of one ``Generator.random`` / ``Generator.integers`` call
per job.  Both must produce exactly what the per-job numpy code did;
that code lives on here, and only here, as the oracle:

* :func:`two_pass_generate` — every job built from numpy scalars with
  ``job_id=-1``, sorted, then rebuilt renumbered;
* :func:`scalar_bind` — two numpy scalar calls per job on the
  ``seed + 1`` substream.

The count pins say what the rewrite removed: one ``TransferJob`` per
generated job (was two) and no ``numpy.random.Generator`` method call
per bound job (was up to two).
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet.controlplane import (
    FLEET_MIX,
    _RAW_CHUNK,
    _bind_jobs,
    _dataset_draws,
    default_scenario,
)
from repro.fleet.sla import DEFAULT_TARGET
from repro.fleet.topology import DatasetCatalog
from repro.workloads.generator import (
    DEFAULT_MIX,
    TrafficClass,
    TransferJob,
    WorkloadGenerator,
)
from repro.units import GB, PB, TB


def two_pass_generate(classes, seed, horizon_s):
    """The stream as ``generate`` built it before: two jobs per job."""
    rng = np.random.default_rng(seed)
    jobs = []
    for traffic_class in classes:
        rate_per_s = traffic_class.rate_per_hour / 3600.0
        count = int(rng.poisson(rate_per_s * horizon_s))
        arrivals = np.sort(rng.uniform(0.0, horizon_s, size=count))
        sizes = rng.lognormal(mean=np.log(traffic_class.median_bytes),
                              sigma=traffic_class.sigma, size=count)
        for arrival, size in zip(arrivals, sizes):
            jobs.append(TransferJob(job_id=-1, arrival_s=float(arrival),
                                    size_bytes=float(size),
                                    kind=traffic_class.name))
    jobs.sort(key=lambda job: job.arrival_s)
    return [
        TransferJob(job_id=index, arrival_s=job.arrival_s,
                    size_bytes=job.size_bytes, kind=job.kind)
        for index, job in enumerate(jobs)
    ]


def scalar_bind(scenario, jobs):
    """``_bind_jobs`` as it drew before: numpy scalar calls per job."""
    rng = np.random.default_rng(scenario.seed + 1)
    catalog = scenario.catalog
    hot, cold = catalog.hot_names, catalog.cold_names
    targets = dict(scenario.targets)
    for job in jobs:
        if hot and (not cold or float(rng.random()) < catalog.hot_fraction):
            dataset = hot[int(rng.integers(len(hot)))]
        else:
            dataset = cold[int(rng.integers(len(cold)))]
        target = targets.get(job.kind, DEFAULT_TARGET)
        yield (job.job_id, job.arrival_s, job.size_bytes, job.kind, dataset,
               min(job.size_bytes, catalog.dataset_bytes),
               job.arrival_s + target.deadline_s, target.priority, "")


def fields(fjob):
    return (fjob.job_id, fjob.arrival_s, fjob.size_bytes, fjob.kind,
            fjob.dataset, fjob.read_bytes, fjob.deadline_at, fjob.priority,
            fjob.tenant)


def exact(jobs):
    """Jobs as comparable rows, floats by their bit patterns."""
    return [(job.job_id, job.arrival_s.hex(), job.size_bytes.hex(), job.kind)
            for job in jobs]


traffic_classes = st.builds(
    TrafficClass,
    name=st.sampled_from(["interactive", "batch", "archive", "sync"]),
    rate_per_hour=st.floats(0.5, 400.0),
    median_bytes=st.floats(GB, 10 * PB),
    sigma=st.floats(0.1, 2.0),
)

catalogs = st.integers(1, 40).flatmap(lambda n: st.builds(
    DatasetCatalog,
    n_datasets=st.just(n),
    dataset_bytes=st.sampled_from([2 * TB, 24 * TB]),
    hot_count=st.sampled_from([0, n, min(1, n)]) | st.integers(0, n),
    hot_fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
))


class TestGenerateOracle:
    @given(
        classes=st.lists(traffic_classes, min_size=1, max_size=4).map(tuple),
        seed=st.integers(0, 2**32 - 1),
        horizon_s=st.floats(1.0, 6 * 3600.0),
    )
    def test_equals_the_two_pass_build(self, classes, seed, horizon_s):
        jobs = WorkloadGenerator(classes=classes, seed=seed).generate(horizon_s)
        assert exact(jobs) == exact(two_pass_generate(classes, seed, horizon_s))

    @pytest.mark.parametrize("classes", [DEFAULT_MIX, FLEET_MIX])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_two_pass_build_on_the_shipped_mixes(self, classes, seed):
        jobs = WorkloadGenerator(classes=classes, seed=seed).generate(24 * 3600.0)
        assert len(jobs) > 100
        assert exact(jobs) == exact(two_pass_generate(classes, seed, 24 * 3600.0))

    def test_one_transfer_job_per_generated_job(self, monkeypatch):
        built = 0
        validate = TransferJob.__post_init__

        def counting(job):
            nonlocal built
            built += 1
            validate(job)

        monkeypatch.setattr(TransferJob, "__post_init__", counting)
        jobs = WorkloadGenerator(classes=FLEET_MIX, seed=1).generate(3600.0)
        # The two-pass build made 2 per job.
        assert built == len(jobs) > 0


class TestBindOracle:
    @given(catalog=catalogs, seed=st.integers(0, 2**32 - 2),
           horizon_s=st.floats(60.0, 3600.0))
    def test_equals_the_scalar_draws(self, catalog, seed, horizon_s):
        scenario = default_scenario(seed=seed, horizon_s=horizon_s,
                                    catalog=catalog)
        expected = list(scalar_bind(scenario, WorkloadGenerator(
            classes=scenario.classes, seed=seed).generate(horizon_s)))
        assert [fields(fjob) for fjob in _bind_jobs(scenario)] == expected

    def test_unknown_kinds_take_the_default_target(self):
        scenario = default_scenario(seed=4)
        jobs = [TransferJob(index, float(index), 3 * TB, kind)
                for index, kind in enumerate(["batch", "mystery"] * 50)]
        assert [fields(fjob) for fjob in _bind_jobs(scenario, jobs=jobs)] == list(
            scalar_bind(scenario, jobs)
        )

    def test_spans_several_raw_chunks(self):
        # Long enough that the draws cross raw-word refills.
        scenario = default_scenario(seed=9, catalog=DatasetCatalog(
            n_datasets=1_000_003, hot_count=7))
        jobs = [TransferJob(index, float(index), TB, "batch")
                for index in range(3 * _RAW_CHUNK)]
        assert [fields(fjob) for fjob in _bind_jobs(scenario, jobs=jobs)] == list(
            scalar_bind(scenario, jobs)
        )

    def test_binding_stays_lazy(self):
        pulled = 0

        def stream():
            nonlocal pulled
            for index in itertools.count():
                pulled += 1
                yield TransferJob(index, float(index), TB, "interactive")

        bound = _bind_jobs(default_scenario(), jobs=stream())
        first = next(bound)
        assert (first.job_id, pulled) == (0, 1)
        next(bound)
        assert pulled == 2

    def test_no_generator_method_call_per_bound_job(self, monkeypatch):
        scenario = default_scenario(seed=3, horizon_s=3600.0)
        jobs = WorkloadGenerator(classes=scenario.classes,
                                 seed=scenario.seed).generate(scenario.horizon_s)
        calls: Counter[str] = Counter()
        real_default_rng = np.random.default_rng

        class CountingBitGenerator:
            def __init__(self, bit_generator):
                self._bit_generator = bit_generator

            def random_raw(self, size):
                calls["random_raw"] += 1
                return self._bit_generator.random_raw(size)

        class CountingGenerator:
            def __init__(self, seed):
                self._generator = real_default_rng(seed)
                self.bit_generator = CountingBitGenerator(
                    self._generator.bit_generator)

            def __getattr__(self, name):
                calls[name] += 1
                return getattr(self._generator, name)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        bound = list(_bind_jobs(scenario, jobs=jobs))
        assert len(bound) == len(jobs) > 0
        # Hot and cold both non-empty: a word per job for the hot/cold
        # split and half a word per dataset index, all in the first chunk.
        assert 1.5 * len(jobs) < _RAW_CHUNK
        assert calls == {"random_raw": 1}


class TestRawDrawEmulator:
    """``_dataset_draws`` against ``Generator.integers(n)`` where Lemire
    rejection is frequent: at ``n = 2**31 + 1`` about half the 32-bit
    draws are rejected and redrawn."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1,
                           2**32]) | st.integers(2**31 - 64, 2**31 + 64),
    )
    def test_integers_near_two_to_the_31(self, seed, n):
        rng = np.random.default_rng(seed)
        expected = [int(rng.integers(n)) for _ in range(200)]
        draws = _dataset_draws(seed, range(n), (), 0.5)
        assert list(itertools.islice(draws, 200)) == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hot=st.integers(1, 2**32),
        n_cold=st.integers(1, 2**32),
        hot_fraction=st.floats(0.0, 1.0),
    )
    def test_interleaved_with_random(self, seed, n_hot, n_cold, hot_fraction):
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(100):
            if float(rng.random()) < hot_fraction:
                expected.append(("hot", int(rng.integers(n_hot))))
            else:
                expected.append(("cold", int(rng.integers(n_cold))))
        draws = _dataset_draws(seed, _Labelled("hot", n_hot),
                               _Labelled("cold", n_cold), hot_fraction)
        assert list(itertools.islice(draws, 100)) == expected

    def test_a_one_name_list_draws_nothing(self):
        # ``integers(1)`` reads no word, so the draws after it see the
        # same stream as numpy's.
        rng = np.random.default_rng(5)
        expected = []
        for _ in range(200):
            if float(rng.random()) < 0.5:
                expected.append("only")
            else:
                expected.append(int(rng.integers(7)))
        draws = _dataset_draws(5, ("only",), range(7), 0.5)
        assert list(itertools.islice(draws, 200)) == expected
        assert "only" in expected and 0 in expected

    def test_rejects_lists_past_the_32_bit_path(self):
        with pytest.raises(ConfigurationError, match="2\\*\\*32"):
            next(_dataset_draws(0, range(2**32 + 1), (), 0.5))


class _Labelled:
    """A virtual name list ``[(label, 0), (label, 1), ...]`` of length n."""

    def __init__(self, label, n):
        self.label, self.n = label, n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        return (self.label, index)

    def __bool__(self):
        return self.n > 0
