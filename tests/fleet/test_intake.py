"""Callback intake and the control plane's per-record bookkeeping.

``ControlPlane._start_intake`` feeds jobs to ``submit`` from a chain of
plain engine callbacks, moving the clock with ``Environment.advance_to``
where it can.  The differential tests drive it next to the generator
process it replaced (kept here, as the oracle, and nowhere in ``src``),
under every way of running the clock, and demand bit-identical reports
and resolution sequences.
The registry pin checks that memoised counter handles leave metric
names, creation order and values exactly as per-record lookups left
them.
"""

import io
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.bench import chaos_scenario
from repro.chaos.runner import install_campaign
from repro.fleet import shard
from repro.fleet.controlplane import (
    AdmissionControl,
    ControlPlane,
    _bind_jobs,
    _FleetJob,
    _JobColumns,
    _LaneWorker,
    build_plane,
    default_scenario,
)
from repro.fleet.sla import DEFAULT_TARGET
from repro.fleet.topology import DatasetCatalog, FleetSpec, FleetTopology
from repro.obs import Tracer
from repro.sim import Environment
from repro.traffic.codec import (
    BinaryTraceWriter,
    read_binary_header,
    read_binary_records,
)
from repro.traffic.replay import JobBinder
from repro.traffic.schema import TraceHeader, TraceRecord
from repro.units import TB

KINDS = ("interactive", "batch", "archive")


def generator_intake(plane, fjobs):
    """The oracle: the generator process intake used to be."""
    env = plane.env
    for fjob in fjobs:
        if fjob.arrival_s > env.now:
            yield env.timeout(fjob.arrival_s - env.now)
        plane.submit(fjob)
    plane._intake_closed = True
    plane._maybe_done()


class NoJumpEnvironment(Environment):
    """An engine whose ``advance_to`` always refuses: every arrival then
    takes the timeout it took before the jump existed."""

    def advance_to(self, when):
        return False


def drive(scenario, fjobs, oracle, hook=True, clock="event", deadlines=(),
          stops=None, env=None, tracer=None, planes=None, submits=None):
    """Run ``fjobs`` through a fresh plane; (report, resolution order).

    ``clock`` is how the clock is run: ``"event"`` (or ``"traced"``)
    runs until the plane is done, ``"until"`` first resumes
    ``run(until=...)`` through each of ``deadlines`` in turn, appending
    the clock and the submitted and resolved counts to ``stops`` after
    each, and ``"step"`` calls ``step()`` alone.  ``tracer`` traces the
    plane; the plane is appended to ``planes``.  Each ``submit`` call
    appends the job id, the clock and the events scheduled so far to
    ``submits``.
    """
    env = env if env is not None else Environment()
    topology = FleetTopology(env, scenario.spec, scenario.catalog)
    plane = ControlPlane(env, topology, scenario, tracer=tracer)
    if planes is not None:
        planes.append(plane)
    if submits is not None:
        submit = plane.submit

        def recording(fjob):
            submits.append((fjob.job_id, env.now, env._eid))
            submit(fjob)

        plane.submit = recording
    resolved = []
    if hook:
        plane.outcome_hook = lambda record: resolved.append((env.now, record))
    plane.start_workers()
    if oracle:
        env.process(generator_intake(plane, iter(fjobs)))
    else:
        plane._start_intake(fjobs)
    if clock == "until":
        for deadline in sorted(deadlines):
            env.run(until=deadline)
            stops.append((env.now, plane._submitted, plane._resolved))
    elif clock == "step":
        while not plane._done.processed:
            env.step()
    env.run(until=plane._done)
    if scenario.retain_records and hook:
        assert [record for _, record in resolved] == plane.sla.records
    return plane._build_report(), resolved


def small_scenario(retain, policy, failover_links):
    return replace(
        default_scenario(
            policy=policy,
            cache="lru",
            spec=FleetSpec(n_tracks=1, racks_per_track=2,
                           stations_per_rack=1, cart_pool=2),
            catalog=DatasetCatalog(n_datasets=4, dataset_bytes=8 * TB),
            admission=AdmissionControl(max_queue_depth=2,
                                       failover_links=failover_links),
        ),
        retain_records=retain,
    )


def make_jobs(scenario, timed):
    """Bind ``(arrival, draw)`` pairs, in order, into fleet jobs."""
    targets = dict(scenario.targets)
    names = scenario.catalog.names
    jobs = []
    for job_id, (arrival, (kind, dataset, fraction, tenant)) in enumerate(timed):
        target = targets.get(KINDS[kind], DEFAULT_TARGET)
        size = fraction * scenario.catalog.dataset_bytes
        jobs.append(_FleetJob(
            job_id=job_id,
            arrival_s=arrival,
            size_bytes=size,
            kind=KINDS[kind],
            dataset=names[dataset],
            read_bytes=size,
            deadline_at=arrival + target.deadline_s,
            priority=target.priority,
            tenant=tenant,
        ))
    return jobs


#: Arrival instants, sorted per example.  The small fixed set makes equal
#: timestamps (and arrivals at exactly the start time, 0.0) common; 0.7
#: then 2.9 is a pair where ``now + (arrival - now) != arrival``, which
#: independent tenths and floats also hit about once in fifty pairs.
arrivals = st.one_of(
    st.sampled_from([0.0, 0.7, 2.9, 3.6]),
    st.integers(0, 30_000).map(lambda tenths: tenths / 10),
    st.floats(0.0, 3000.0),
)
#: Arrivals packed into the first minute: lanes stay busy, so most jobs
#: queue or shed without scheduling an event, and the intake then
#: reaches the next arrival by ``advance_to`` — across a deadline, if
#: a jump were allowed to cross one.
bursts = st.one_of(
    st.sampled_from([0.0, 0.7, 2.9, 3.6]),
    st.integers(0, 600).map(lambda tenths: tenths / 10),
)
draws = st.tuples(
    st.integers(0, len(KINDS) - 1),
    st.integers(0, 3),
    st.sampled_from([0.05, 0.4, 1.0]),
    st.sampled_from(["", "search"]),
)


#: How long before a completion a lead job arrives.  A read takes far
#: longer, so the lead job usually arrives with that completion at the
#: queue head, and the echo job behind it ties with the head.
LEAD_S = 0.01


def with_echoes(scenario, steps, echoes, lead=False):
    """Bind ``steps`` plus echo jobs that arrive at exactly the instants
    a pilot run's jobs completed, so arrivals tie with completions.
    With ``lead``, each echo follows a lead job with the same draw,
    ``LEAD_S`` earlier."""
    timed = sorted(steps, key=lambda pair: pair[0])
    _report, pilot = drive(scenario, make_jobs(scenario, timed), oracle=True)
    completions = sorted(
        record.completed_s for _, record in pilot
        if record.completed_s is not None
    )
    for completed, draw in zip(completions, echoes):
        timed.append((completed, draw))
        if lead:
            timed.append((completed - LEAD_S, draw))
    return make_jobs(scenario, sorted(timed, key=lambda pair: pair[0]))


class TestDifferentialIntake:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.tuples(arrivals, draws), min_size=1, max_size=14),
        echoes=st.lists(draws, max_size=6),
        retain=st.booleans(),
        policy=st.sampled_from(["fcfs", "edf"]),
        failover_links=st.integers(0, 1),
    )
    def test_callback_intake_matches_generator_oracle(
        self, steps, echoes, retain, policy, failover_links
    ):
        scenario = small_scenario(retain, policy, failover_links)
        jobs = with_echoes(scenario, steps, echoes)
        expected, expected_seq = drive(scenario, jobs, oracle=True)
        actual, actual_seq = drive(scenario, jobs, oracle=False)
        assert actual_seq == expected_seq
        assert actual.records == expected.records
        digest = shard.signature_digest(expected)
        assert shard.signature_digest(actual) == digest
        # Without an outcome hook a streaming plane builds no records at
        # all; the report must not notice.
        lazy, _ = drive(scenario, jobs, oracle=False, hook=False)
        assert shard.signature_digest(lazy) == digest

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.one_of(arrivals, bursts), draws),
                       min_size=1, max_size=14),
        echoes=st.lists(draws, max_size=6),
        retain=st.booleans(),
        hook=st.booleans(),
        policy=st.sampled_from(["fcfs", "edf"]),
        failover_links=st.integers(0, 1),
        clock=st.sampled_from(["until", "step", "traced"]),
        between=st.lists(st.integers(0, 18), max_size=4),
        on_arrival=st.lists(st.integers(0, 19), max_size=4),
    )
    def test_every_clock_mode_matches_the_oracle(
        self, steps, echoes, retain, hook, policy, failover_links, clock,
        between, on_arrival,
    ):
        # ``advance_to`` jumps only inside a run, never past its
        # deadline and never with a tracer attached; each way of
        # driving the clock must leave the report, the resolution order
        # and (for deadlines) what had arrived by each deadline exactly
        # as the generator oracle left them.
        scenario = small_scenario(retain, policy, failover_links)
        jobs = with_echoes(scenario, steps, echoes)
        # Deadlines fall midway between two arrivals and exactly on one.
        times = [fjob.arrival_s for fjob in jobs]
        deadlines = [
            (times[index] + times[index + 1]) / 2
            for index in between if index + 1 < len(times)
        ] + [times[index] for index in on_arrival if index < len(times)]
        expected_stops, actual_stops = [], []
        expected, expected_seq = drive(
            scenario, jobs, oracle=True, hook=hook, clock=clock,
            deadlines=deadlines, stops=expected_stops,
        )
        env = Environment(tracer=Tracer()) if clock == "traced" else None
        actual, actual_seq = drive(
            scenario, jobs, oracle=False, hook=hook, clock=clock,
            deadlines=deadlines, stops=actual_stops, env=env,
        )
        assert actual_stops == expected_stops
        assert actual_seq == expected_seq
        assert actual.records == expected.records
        assert shard.signature_digest(actual) == shard.signature_digest(expected)
        if clock == "traced":
            # A traced run schedules exactly what a run that never
            # jumps schedules, so its engine counters are unchanged.
            untraced = NoJumpEnvironment()
            drive(scenario, jobs, oracle=False, hook=hook, env=untraced)
            assert env._eid == untraced._eid
            assert env.tracer.engine_counters["events_fired"] > 0

    def test_empty_stream_closes_intake_at_the_start_event(self):
        scenario = small_scenario(True, "fcfs", 1)
        report, resolved = drive(scenario, [], oracle=False)
        assert report.n_jobs == 0 and resolved == []


#: Trace tenants: the draws name the first two, late jobs the third.
TENANTS = ("search", "backup", "late")

trace_draws = st.tuples(
    st.integers(0, len(KINDS) - 1),
    st.integers(0, 3),
    st.sampled_from([0.05, 0.4, 1.0]),
    st.sampled_from(TENANTS[:2]),
)
#: Draws for the pinned examples: ``ds-000`` and ``ds-001`` live on
#: the two different lanes of :func:`small_scenario`.
SEARCH = (0, 0, 0.4, "search")
OTHER_LANE = (0, 1, 0.4, "search")


def encode(scenario, jobs):
    """``jobs`` as a fresh-reader factory over their binary trace."""
    header = TraceHeader(tenants=TENANTS, datasets=scenario.catalog.names,
                         kinds=KINDS)
    stream = io.BytesIO()
    writer = BinaryTraceWriter(stream, header)
    for fjob in jobs:
        writer.write(TraceRecord(fjob.arrival_s, fjob.tenant, fjob.dataset,
                                 fjob.size_bytes, fjob.kind, fjob.deadline_at))
    data = stream.getvalue()

    def reader():
        stream = io.BytesIO(data)
        return read_binary_records(stream, read_binary_header(stream))

    return reader


@contextmanager
def counting_binds(bound):
    """While active, append the job id of every column row bound to
    ``bound``."""
    real = _JobColumns.bind

    def counted(self, k):
        fjob = real(self, k)
        bound.append(fjob.job_id)
        return fjob

    _JobColumns.bind = counted
    try:
        yield
    finally:
        _JobColumns.bind = real


class TestBulkShed:
    """The intake's bulk shed of column chunks against the per-row path.

    A binary trace reaches the plane three ways: as column chunks
    (``JobBinder.intake``), as the same rows bound to jobs
    (``JobBinder.jobs``) through the per-row intake, and as those jobs
    through the generator oracle.  All three must leave the same
    report, registry, live-job peak and final clock.
    """

    REFUSALS = ("tracer", "retain", "failover", "hook")

    def run(self, scenario, items, oracle, refusal, deadlines, submits):
        """Everything a run must leave identical, and the events it
        scheduled; its ``submit`` calls go to ``submits``."""
        stops, planes = [], []
        # A traced plane traces its engine too, as ``build_plane`` does.
        tracer = Tracer() if refusal == "tracer" else None
        report, resolved = drive(
            scenario, items, oracle=oracle, hook=refusal == "hook",
            clock="until" if refusal == "until" else "event",
            deadlines=deadlines, stops=stops,
            env=Environment(tracer=tracer), tracer=tracer, planes=planes,
            submits=submits,
        )
        (plane,) = planes
        registry = [
            (name, metric.snapshot())
            for name, metric in plane.registry._metrics.items()
        ]
        return (
            shard.render_signature(shard.report_signature(report)),
            registry, report.peak_in_system, plane.env.now,
            report.records, resolved, stops,
        ), plane.env._eid

    @settings(max_examples=80, deadline=None)
    @given(
        # Bursts overflow the lanes, so most rows shed, in runs.
        steps=st.lists(st.tuples(st.one_of(bursts, arrivals), trace_draws),
                       min_size=1, max_size=40),
        echoes=st.lists(trace_draws, max_size=8),
        late=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2),
                                st.integers(0, 3)), max_size=6),
        chunk=st.sampled_from([1, 7, 256]),
        policy=st.sampled_from(["fcfs", "edf"]),
        refusal=st.sampled_from((None, "until") + REFUSALS),
        between=st.lists(st.integers(0, 40), max_size=3),
    )
    # The clock reaches 2.9 from 0.7 inexactly while one lane sheds; a
    # job for the idle lane at 2.9 then starts at whatever the clock is.
    @example(
        steps=[(0.0, SEARCH)] * 5 + [(0.7, SEARCH)] * 2
        + [(2.9, SEARCH), (2.9, OTHER_LANE)],
        echoes=[], late=[], chunk=256, policy="fcfs", refusal=None,
        between=[],
    )
    # A row arriving as its full lane's first job completes ties the
    # queue head when the lead row is submitted: the per-row step
    # reaches it by a timeout after that event, so it is no part of
    # the lead row's shed run.
    @example(
        steps=[(0.0, SEARCH)] * 5, echoes=[SEARCH], late=[], chunk=7,
        policy="fcfs", refusal=None, between=[],
    )
    def test_column_intake_matches_per_row_and_oracle(
        self, steps, echoes, late, chunk, policy, refusal, between,
    ):
        scenario = small_scenario(refusal == "retain", policy,
                                  int(refusal == "failover"))
        jobs = with_echoes(scenario, steps, echoes, lead=True)
        # A (kind, tenant) group whose first job comes after every
        # other arrival, when the queues are likely full.
        last = jobs[-1].arrival_s
        jobs += make_jobs(scenario, [
            (last + tenths / 10, (kind, dataset, 0.4, TENANTS[2]))
            for tenths, kind, dataset in sorted(late)
        ])
        jobs = [replace(fjob, job_id=index) for index, fjob in enumerate(jobs)]
        reader = encode(scenario, jobs)
        # Deadlines fall inside the chunks, between and on arrivals.
        times = [fjob.arrival_s for fjob in jobs]
        deadlines = [
            (times[index] + times[index + 1]) / 2
            for index in between if index + 1 < len(times)
        ] + [times[index] for index in between if index < len(times)]

        def binder():
            return JobBinder(reader(), dict(scenario.targets),
                             scenario.catalog.dataset_bytes, chunk)

        per_row_binder = binder()
        bound_jobs = list(per_row_binder.jobs())
        expected, _ = self.run(scenario, bound_jobs, True, refusal,
                               deadlines, [])
        per_row_submits, column_submits = [], []
        per_row, per_row_events = self.run(
            scenario, bound_jobs, False, refusal, deadlines, per_row_submits,
        )
        column_binder, bound = binder(), []
        with counting_binds(bound):
            columns, column_events = self.run(
                scenario, column_binder.intake(), False, refusal, deadlines,
                column_submits,
            )
        assert per_row == expected
        assert columns == expected
        assert column_binder.n_records == per_row_binder.n_records == len(jobs)
        # A shed run moves the clock where the per-row steps would and
        # skips nothing they would have scheduled: the rows it leaves
        # are submitted at the same clock after the same events.
        assert column_submits == [
            entry for entry in per_row_submits if entry[0] in set(bound)
        ]
        assert column_events == per_row_events
        if refusal in self.REFUSALS:
            # A plane the bulk step refuses binds and submits every row.
            assert bound == list(range(len(jobs)))

    def test_a_burst_sheds_in_bulk_and_binds_only_what_it_submits(self):
        scenario = small_scenario(False, "fcfs", 0)
        jobs = make_jobs(scenario, [
            (index / 100, (index % 3, index % 4, 1.0, TENANTS[index % 2]))
            for index in range(200)
        ])
        reader = encode(scenario, jobs)
        planes, bound = [], []
        per_row, _ = drive(scenario, jobs, oracle=False, hook=False,
                           planes=planes)
        items = JobBinder(reader(), dict(scenario.targets),
                          scenario.catalog.dataset_bytes, 64).intake()
        with counting_binds(bound):
            columns, _ = drive(scenario, items, oracle=False, hook=False,
                               planes=planes)
        assert shard.signature_digest(columns) == shard.signature_digest(per_row)
        assert columns.shed == per_row.shed > 150
        assert len(bound) < 200 - 150
        assert planes[1]._submitted == 200
        assert planes[1].env._eid == planes[0].env._eid


class TestRegistryPin:
    """Registry state after a run that sheds, diverts and fails over."""

    def test_memoised_counters_leave_the_registry_unchanged(self):
        scenario = replace(
            chaos_scenario("hardened", seed=0, horizon_s=1800.0),
            admission=AdmissionControl(max_queue_depth=3, failover_links=1),
        )
        env = Environment()
        topology = FleetTopology(env, scenario.spec, scenario.catalog)
        plane = ControlPlane(env, topology, scenario)
        plane.attach_campaign(
            install_campaign(env, topology.systems, scenario.chaos)
        )
        report = plane.run(_bind_jobs(scenario))

        assert (report.n_jobs, report.served, report.shed, report.failovers,
                report.failed, report.diverted) == (117, 83, 1, 33, 0, 32)
        assert list(plane.registry._metrics) == [
            "count.fleet.served",
            "fleet.latency_s.interactive",
            "fleet.latency_s.batch",
            "fleet.latency_s.archive",
            "count.fleet.diverted",
            "energy_j.fleet.network_failover",
            "count.fleet.failover",
            "count.fleet.deadline_missed",
            "count.fleet.shed",
            "count.fleet.admission_rejections",
            "count.fleet.cache_node_losses",
        ]
        values = {
            name: entry["value"] if entry["type"] == "counter" else entry["count"]
            for name, entry in plane.registry.snapshot().items()
        }
        assert values == {
            "count.fleet.admission_rejections": 2.0,
            "count.fleet.cache_node_losses": 1.0,
            "count.fleet.deadline_missed": 30.0,
            "count.fleet.diverted": 32.0,
            "count.fleet.failover": 33.0,
            "count.fleet.served": 83.0,
            "count.fleet.shed": 1.0,
            "energy_j.fleet.network_failover": 746920.6725915433,
            "fleet.latency_s.archive": 6,
            "fleet.latency_s.batch": 21,
            "fleet.latency_s.interactive": 89,
        }


class TestLaneWorkersClose:
    """A finished plane closes its lane workers: it leaves no lane waiter
    and no worker step queued."""

    @pytest.fixture
    def started(self, monkeypatch):
        planes = []
        real_start = ControlPlane.start_workers

        def spy(plane):
            real_start(plane)
            planes.append(plane)

        monkeypatch.setattr(ControlPlane, "start_workers", spy)
        return planes

    @staticmethod
    def assert_stopped(plane):
        assert not any(lane.queue.waiters for lane in plane.lanes.values())
        queued = [
            callback
            for _when, _key, event in plane.env._queue
            for callback in event.callbacks or ()
            if isinstance(getattr(callback, "__self__", None), _LaneWorker)
        ]
        assert queued == []

    def test_run_closes_every_lane_worker(self, started):
        scenario = chaos_scenario("hardened", seed=0, horizon_s=900.0)
        plane = build_plane(scenario)
        plane.run(_bind_jobs(scenario))
        assert started == [plane]
        self.assert_stopped(plane)

    def test_shard_pods_close_their_lane_workers(self, started):
        plan = shard.ShardPlan(
            scenario=default_scenario(seed=0, horizon_s=900.0), n_pods=2
        )
        shard.run_sharded(plan, engine="serial")
        assert len(started) == 2
        for plane in started:
            self.assert_stopped(plane)
