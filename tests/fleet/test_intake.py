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

from dataclasses import replace
from inspect import GEN_CLOSED, getgeneratorstate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.bench import chaos_scenario
from repro.chaos.runner import install_campaign
from repro.fleet import shard
from repro.fleet.controlplane import (
    AdmissionControl,
    ControlPlane,
    _bind_jobs,
    _FleetJob,
    build_plane,
    default_scenario,
)
from repro.fleet.sla import DEFAULT_TARGET
from repro.fleet.topology import DatasetCatalog, FleetSpec, FleetTopology
from repro.obs import Tracer
from repro.sim import Environment
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
          stops=None, env=None):
    """Run ``fjobs`` through a fresh plane; (report, resolution order).

    ``clock`` is how the clock is run: ``"event"`` (or ``"traced"``)
    runs until the plane is done, ``"until"`` first resumes
    ``run(until=...)`` through each of ``deadlines`` in turn, appending
    the clock and the submitted and resolved counts to ``stops`` after
    each, and ``"step"`` calls ``step()`` alone.
    """
    env = env if env is not None else Environment()
    topology = FleetTopology(env, scenario.spec, scenario.catalog)
    plane = ControlPlane(env, topology, scenario)
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


def with_echoes(scenario, steps, echoes):
    """Bind ``steps`` plus echo jobs that arrive at exactly the instants
    a pilot run's jobs completed, so arrivals tie with completions."""
    timed = sorted(steps, key=lambda pair: pair[0])
    _report, pilot = drive(scenario, make_jobs(scenario, timed), oracle=True)
    completions = sorted(
        record.completed_s for _, record in pilot
        if record.completed_s is not None
    )
    timed += zip(completions, echoes)
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
    """A finished plane leaves no lane worker suspended for the GC to close."""

    @pytest.fixture
    def started(self, monkeypatch):
        workers = []
        real_start = ControlPlane.start_workers

        def spy(plane):
            real_start(plane)
            workers.extend(plane._workers)

        monkeypatch.setattr(ControlPlane, "start_workers", spy)
        return workers

    def test_run_closes_every_lane_worker(self, started):
        scenario = chaos_scenario("hardened", seed=0, horizon_s=900.0)
        plane = build_plane(scenario)
        plane.run(_bind_jobs(scenario))
        assert len(started) == sum(lane.stations for lane in plane.lanes.values())
        assert {getgeneratorstate(worker) for worker in started} == {GEN_CLOSED}

    def test_shard_pods_close_their_lane_workers(self, started):
        plan = shard.ShardPlan(
            scenario=default_scenario(seed=0, horizon_s=900.0), n_pods=2
        )
        shard.run_sharded(plan, engine="serial")
        assert started
        assert {getgeneratorstate(worker) for worker in started} == {GEN_CLOSED}
