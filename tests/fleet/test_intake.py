"""Callback intake and the control plane's per-record bookkeeping.

``ControlPlane._start_intake`` feeds jobs to ``submit`` from a chain of
plain engine callbacks.  The differential test drives it next to the
generator process it replaced (kept here, as the oracle, and nowhere in
``src``) and demands bit-identical reports and resolution sequences.
The registry pin checks that memoised counter handles leave metric
names, creation order and values exactly as per-record lookups left
them.
"""

from dataclasses import replace

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
    default_scenario,
)
from repro.fleet.sla import DEFAULT_TARGET
from repro.fleet.topology import DatasetCatalog, FleetSpec, FleetTopology
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


def drive(scenario, fjobs, oracle, hook=True):
    """Run ``fjobs`` through a fresh plane; (report, resolution order)."""
    env = Environment()
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
draws = st.tuples(
    st.integers(0, len(KINDS) - 1),
    st.integers(0, 3),
    st.sampled_from([0.05, 0.4, 1.0]),
    st.sampled_from(["", "search"]),
)


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
        timed = sorted(steps, key=lambda pair: pair[0])
        # Echo jobs arrive at exactly the instants a pilot run's jobs
        # completed, so arrival events tie with service completions.
        _report, pilot = drive(scenario, make_jobs(scenario, timed),
                               oracle=True)
        completions = sorted(
            record.completed_s for _, record in pilot
            if record.completed_s is not None
        )
        timed += zip(completions, echoes)
        jobs = make_jobs(scenario, sorted(timed, key=lambda pair: pair[0]))

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
        report = plane.run(_bind_jobs(scenario, topology))

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
