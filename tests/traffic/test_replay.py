"""Tests for chunked open-loop replay into the fleet."""

import gc
import io
import sys
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.fleet.controlplane import ControlPlane, _FleetJob, run_fleet
from repro.fleet import shard as shard_module
from repro.fleet.shard import ShardPlan
from repro.fleet.sla import JobRecord, _StreamStats
from repro.fleet.topology import FleetTopology
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.traffic.bench import (
    DEFAULT_REPLAY_CONFIG,
    bench_scenario,
    in_system_bound,
)
from repro.traffic import replay as replay_module
from repro.traffic.codec import (
    BinaryTraceWriter,
    read_binary_header,
    read_binary_records,
)
from repro.traffic.replay import (
    JobBinder,
    ReplayConfig,
    bound_jobs,
    check_compatible,
    replay_fleet,
    replay_fleet_sharded,
)
from repro.traffic.schema import TraceHeader, TraceRecord
from repro.traffic.synth import default_spec, synthesise, trace_header

SPEC = default_spec(seed=1, horizon_s=1800.0, rate_scale=0.3)

#: Frames Python 3.12 no longer creates (PEP 709).
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def record_at(arrival, size=1e12):
    return TraceRecord(
        arrival_s=arrival,
        tenant="search",
        dataset="ds-000",
        size_bytes=size,
        kind="interactive",
        deadline_s=arrival + 60.0,
    )


class TestReplayConfig:
    def test_rejects_chunks_under_one_record(self):
        with pytest.raises(ConfigurationError):
            ReplayConfig(chunk_records=0)


def encoded(records, header=None):
    """``records`` as a binary trace reader (the chunked row path)."""
    stream = io.BytesIO()
    writer = BinaryTraceWriter(stream, header or trace_header(SPEC))
    for record in records:
        writer.write(record)
    stream.seek(0)
    return read_binary_records(stream, read_binary_header(stream))


class TestJobBinder:
    @pytest.mark.parametrize("source", ["records", "rows"])
    def test_binds_every_record_in_order(self, source):
        records = [record_at(float(index)) for index in range(1000)]
        stream = iter(records) if source == "records" else encoded(records)
        binder = JobBinder(stream, dict(SPEC.targets),
                           SPEC.catalog.dataset_bytes, chunk_records=64)
        jobs = list(binder.jobs())
        assert [job.job_id for job in jobs] == list(range(1000))
        assert [job.arrival_s for job in jobs] == [
            record.arrival_s for record in records
        ]
        assert binder.n_records == 1000
        # 1000 = 15 * 64 + 40: the largest chunk held is a full one.
        assert binder.peak_pending == 64

    @pytest.mark.parametrize("source", ["records", "rows"])
    def test_decodes_at_most_one_chunk_ahead(self, source):
        records = [record_at(index * 10.0) for index in range(200)]
        chunk = 8
        consumed = []

        def counting():
            for record in records:
                consumed.append(record.arrival_s)
                yield record

        if source == "records":
            stream = counting()
        else:
            stream = encoded(records)
            reader_chunks = stream.chunks

            def counting_chunks(n_records):
                for rows in reader_chunks(n_records):
                    consumed.extend(rows["arrival_s"].tolist())
                    yield rows

            stream.chunks = counting_chunks
        binder = JobBinder(stream, dict(SPEC.targets),
                           SPEC.catalog.dataset_bytes, chunk_records=chunk)
        for emitted, _job in enumerate(binder.jobs(), start=1):
            assert len(consumed) <= emitted - 1 + chunk
        assert binder.n_records == len(records)


class TestBoundJobs:
    def test_records_bind_without_random_draws(self):
        jobs = list(bound_jobs(
            [record_at(5.0, size=9e15)],
            targets=dict(SPEC.targets),
            cart_bytes=SPEC.catalog.dataset_bytes,
        ))
        (job,) = jobs
        assert job.dataset == "ds-000"
        assert job.tenant == "search"
        assert job.deadline_at == 65.0
        assert job.read_bytes == SPEC.catalog.dataset_bytes  # clipped
        assert job.job_id == 0


class TestReplayFleet:
    def test_trace_streams_through_run_fleet(self):
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        result = replay_fleet(scenario, synthesise(SPEC))
        assert result.n_records == result.fleet.n_jobs > 100
        assert result.peak_pending <= result.config.chunk_records
        assert result.peak_in_system <= in_system_bound(scenario)
        tenants = {sla.kind for sla in result.tenant_sla.classes}
        assert tenants == {"search", "analytics", "backup"}

    def test_replay_is_deterministic(self):
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        first = replay_fleet(scenario, synthesise(SPEC))
        second = replay_fleet(scenario, synthesise(SPEC))
        assert first.fleet == second.fleet
        assert first.peak_pending == second.peak_pending

    def test_codec_stream_equals_live_stream(self):
        """Replaying the encoded trace == replaying the synthesis."""
        header = trace_header(SPEC)
        encoded = io.BytesIO()
        writer = BinaryTraceWriter(encoded, header)
        for record in synthesise(SPEC):
            writer.write(record)
        encoded.seek(0)
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        from_codec = replay_fleet(
            scenario,
            read_binary_records(encoded, read_binary_header(encoded)),
            header=header,
        )
        live = replay_fleet(scenario, synthesise(SPEC))
        assert from_codec.fleet == live.fleet

    def test_lookahead_bounds_are_tight_under_tiny_config(self):
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        config = ReplayConfig(chunk_records=8)
        result = replay_fleet(scenario, synthesise(SPEC), config=config)
        assert result.peak_pending == 8
        assert result.n_records == result.fleet.n_jobs

    def test_incompatible_trace_fails_before_replay(self):
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        header = TraceHeader(
            tenants=("search",), datasets=("not-served",),
            kinds=("interactive",),
        )
        with pytest.raises(ConfigurationError):
            check_compatible(header, scenario)
        with pytest.raises(ConfigurationError):
            replay_fleet(scenario, iter(()), header=header)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_binary_trace_checks_its_own_header(self, sharded, monkeypatch):
        # The catalog lacks "ghost", which the trace names only late: a
        # replay given no ``header=`` must refuse it from the reader's
        # header before building a fleet, not fail at that record.
        built = []
        monkeypatch.setattr(replay_module, "build_plane",
                            lambda *args, **kwargs: built.append(args))
        monkeypatch.setattr(shard_module, "_run_bound_sharded",
                            lambda *args, **kwargs: built.append(args))
        base = trace_header(SPEC)
        header = TraceHeader(tenants=base.tenants,
                             datasets=base.datasets + ("ghost",),
                             kinds=base.kinds)
        records = [record_at(float(index)) for index in range(50)]
        records.append(record_at(50.0)._replace(dataset="ghost"))
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        reader = encoded(records, header)
        with pytest.raises(ConfigurationError, match="not in the scenario"):
            if sharded:
                replay_fleet_sharded(ShardPlan(scenario=scenario, n_pods=2),
                                     reader, engine="serial")
            else:
                replay_fleet(scenario, reader)
        assert built == []

    def test_tenant_sla_requires_tenants(self):
        scenario = bench_scenario(SPEC, SPEC.horizon_s)
        result = replay_fleet(scenario, synthesise(SPEC))
        # Tenanted replay surfaces the report...
        assert result.tenant_sla.overall.n_jobs == result.n_records
        # ...while the untenanted synthetic path leaves it unset.
        synthetic = run_fleet(bench_scenario(SPEC, 600.0))
        assert synthetic.tenant_sla is None


class TestRecordPathProxy:
    """Machine-portable per-record cost of a shedding replay.

    Counts, not seconds: a shed record builds no ``JobRecord``, fetches
    no registry counter by name once each name has been used, and an
    arrival with nothing else due before it costs no engine event.
    """

    SPEC = default_spec(seed=0, horizon_s=900.0, rate_scale=0.12)

    def records(self):
        records = list(synthesise(self.SPEC))
        assert 2000 < len(records) < 5000
        return records

    def test_shed_records_build_no_job_records_and_fetch_no_counters(
        self, monkeypatch
    ):
        job_records = 0
        counter_calls: dict[str, int] = {}
        real_init, real_counter = JobRecord.__init__, MetricsRegistry.counter

        def counting_init(self, *args, **kwargs):
            nonlocal job_records
            job_records += 1
            real_init(self, *args, **kwargs)

        def counting_counter(self, name):
            counter_calls[name] = counter_calls.get(name, 0) + 1
            return real_counter(self, name)

        monkeypatch.setattr(JobRecord, "__init__", counting_init)
        monkeypatch.setattr(MetricsRegistry, "counter", counting_counter)
        records = self.records()
        scenario = bench_scenario(self.SPEC, self.SPEC.horizon_s)
        assert not scenario.retain_records
        result = replay_fleet(scenario, iter(records),
                              config=DEFAULT_REPLAY_CONFIG)

        assert result.fleet.n_jobs == len(records)
        assert result.fleet.shed > len(records) // 2
        assert job_records == 0
        # The control plane and SLA tracker fetch each of their counters
        # once; the rail simulators' per-launch counters scale with
        # launches, i.e. with served jobs, never with shed ones.
        fleet_calls = {
            name: calls for name, calls in counter_calls.items()
            if ".fleet." in name
        }
        assert "count.fleet.admission_rejections" in fleet_calls
        assert fleet_calls == dict.fromkeys(fleet_calls, 1)

    def test_intake_costs_at_most_one_event_per_record(self):
        # No workers: every event the run schedules is an intake event
        # (queues fill, then every further record sheds in ``submit``).
        records = self.records()
        scenario = bench_scenario(self.SPEC, self.SPEC.horizon_s)
        env = Environment()
        topology = FleetTopology(env, scenario.spec, scenario.catalog)
        plane = ControlPlane(env, topology, scenario)
        jobs = JobBinder(
            iter(records), dict(scenario.targets),
            scenario.catalog.dataset_bytes, DEFAULT_REPLAY_CONFIG.chunk_records,
        ).jobs()
        before = env._eid
        plane._start_intake(jobs)
        env.run()
        assert plane._submitted == len(records)
        # The intake starts when called, outside ``run``, so the first
        # arrival still ahead of the clock is reached by a timeout.  It
        # is the only one: with the queue otherwise empty, every later
        # arrival is reached by ``advance_to``.
        assert env._eid - before == 1

    #: Python-level ``call`` events in ``repro.*`` frames for one warm
    #: replay of :meth:`records` (3,252 records, 283 served) from a
    #: plain record iterator: 14.66 per record.  It was 44,706 (13.75
    #: per record) while ``submit``'s shed shortcut bumped the counters
    #: inline: the accounting now lives in ``_shed_unrecorded``, shared
    #: with the intake's bulk shed, one frame per shortcut shed (2,980),
    #: plus one for the replay's source-header check.
    #: It was 51,196 (15.74
    #: per record) while a lookahead cursor (one ``__next__`` per
    #: record) and a ``bound_jobs`` generator (one resume per record)
    #: sat between the records and the intake.  It was 55,617 (17.10 per
    #: record) while the dhlsim
    #: commands and lane workers pushed a zero-delay kick-off wherever a
    #: generator process would, each with its callback frame, and every
    #: untraced rail built its own off tracer.  It was 62,525 (19.23 per
    #: record) while ``percentiles``
    #: re-sorted the samples for each point (3,420 generator-expression
    #: frames) and the dhlsim commands opened and ended ``NULL_SPAN``\ s
    #: with tracing off (4,024 tracer calls; latching the tracer is one
    #: call per command, 536).  Before due arrivals skipped the event queue and a shed
    #: job only bumped counters it cost 86,447 (26.58 per record); before
    #: the record path was made tuple-cheap and one-touch, 114,834 (35.31
    #: per record); with generator lane workers, 63,401 (19.50 per
    #: record), nine of them to close the four idle workers when the run
    #: returned.  Stopping the callback-chain workers is one
    #: ``stop_workers`` call.
    #: Comprehension frames are left out, since Python 3.12 inlines them.
    CALLS = 47_687

    #: The same replay from an encoded binary trace through
    #: :func:`read_binary_records`: 12.63 per record.  The reader's
    #: validated row chunks reach the intake as columns, so no
    #: ``TraceRecord`` is built, and a run of rows that only sheds is
    #: shed in one step with no job bound and no ``submit`` (one
    #: ``_shed_unrecorded`` per (kind, tenant) group in the run); the
    #: reader's own header is checked against the catalog.  It was
    #: 44,722 (13.75 per record) while every row was bound column-wise
    #: and submitted.  It was 57,701
    #: (17.74 per record) while each record was decoded by a generator,
    #: validated in ``TraceRecord.__new__`` and passed through the
    #: lookahead cursor and ``bound_jobs``.
    BINARY_CALLS = 41_059

    def profiled_calls(self, source):
        """``repro.*`` calls of one warm replay of ``source()``'s records."""
        scenario = bench_scenario(self.SPEC, self.SPEC.horizon_s)

        def replay(records):
            return replay_fleet(scenario, records,
                                config=DEFAULT_REPLAY_CONFIG)

        replay(source())  # warm: first-use imports and caches are not per record
        records = source()
        calls = 0

        def profile(frame, event, _arg):
            nonlocal calls
            if (
                event == "call"
                and frame.f_globals.get("__name__", "").startswith("repro.")
                and frame.f_code.co_name not in COMPREHENSIONS
            ):
                calls += 1

        # A collection mid-run would finalise the warm-up run's leftover
        # objects inside the profile; refcounting alone frees the
        # profiled run's objects in a fixed order.
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            result = replay(records)
        finally:
            sys.setprofile(None)
            gc.enable()
        return result, calls

    def test_python_calls_per_record_are_pinned(self):
        records = self.records()
        result, calls = self.profiled_calls(lambda: iter(records))
        assert result.fleet.n_jobs == len(records)
        assert calls == self.CALLS, (
            f"{calls / len(records):.2f} calls per record, pinned "
            f"{self.CALLS / len(records):.2f}"
        )

    def binary_reader(self, records):
        """A factory of fresh binary trace readers over ``records``."""
        trace = io.BytesIO()
        writer = BinaryTraceWriter(trace, trace_header(self.SPEC))
        for record in records:
            writer.write(record)
        trace.seek(0)
        header = read_binary_header(trace)
        body = trace.tell()

        def reader():
            stream = io.BytesIO(trace.getvalue())
            stream.seek(body)
            return read_binary_records(stream, header)

        return reader

    def test_binary_trace_calls_per_record_are_pinned(self):
        records = self.records()
        result, calls = self.profiled_calls(self.binary_reader(records))
        assert result.fleet == replay_fleet(
            bench_scenario(self.SPEC, self.SPEC.horizon_s), iter(records),
            config=DEFAULT_REPLAY_CONFIG,
        ).fleet
        assert calls == self.BINARY_CALLS, (
            f"{calls / len(records):.2f} calls per record, pinned "
            f"{self.BINARY_CALLS / len(records):.2f}"
        )

    #: ``_FleetJob``\ s the binary replay of :meth:`records` builds: one
    #: per row the intake submits, 643 of the 3,252.  Every row was
    #: bound to a job while row chunks reached the intake as jobs.
    BINARY_JOBS = 643

    def test_binary_replay_binds_only_the_rows_it_submits(self, monkeypatch):
        built = 0
        submitted = 0
        real_init, real_submit = _FleetJob.__init__, ControlPlane.submit

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            real_init(self, *args, **kwargs)

        def counting_submit(self, fjob):
            nonlocal submitted
            submitted += 1
            real_submit(self, fjob)

        monkeypatch.setattr(_FleetJob, "__init__", counting_init)
        monkeypatch.setattr(ControlPlane, "submit", counting_submit)
        records = self.records()
        result = replay_fleet(
            bench_scenario(self.SPEC, self.SPEC.horizon_s),
            self.binary_reader(records)(), config=DEFAULT_REPLAY_CONFIG,
        )
        assert result.fleet.n_jobs == len(records)
        assert built == submitted == self.BINARY_JOBS

    def test_stream_stats_observe_only_completed_jobs(self, monkeypatch):
        observed: list[float | None] = []
        real_observe = _StreamStats.observe

        def counting_observe(self, latency_s, met_deadline, read_bytes):
            observed.append(latency_s)
            real_observe(self, latency_s, met_deadline, read_bytes)

        monkeypatch.setattr(_StreamStats, "observe", counting_observe)
        records = self.records()
        assert all(record.tenant for record in records)
        result = replay_fleet(
            bench_scenario(self.SPEC, self.SPEC.horizon_s), iter(records),
            config=DEFAULT_REPLAY_CONFIG,
        )
        completed = result.fleet.served + result.fleet.failovers
        assert completed == result.fleet.sla.overall.n_completed > 0
        # Once per key of the job's group: overall, kind and tenant.
        assert len(observed) == 3 * completed
        assert None not in observed

    def test_dataset_homes_resolve_once_each(self, monkeypatch):
        lookups: Counter[str] = Counter()
        real_home = FleetTopology.home

        def counting_home(self, dataset):
            lookups[dataset] += 1
            return real_home(self, dataset)

        monkeypatch.setattr(FleetTopology, "home", counting_home)
        records = self.records()
        replay_fleet(bench_scenario(self.SPEC, self.SPEC.horizon_s),
                     iter(records), config=DEFAULT_REPLAY_CONFIG)
        assert set(lookups) == {record.dataset for record in records}
        assert max(lookups.values()) == 1
