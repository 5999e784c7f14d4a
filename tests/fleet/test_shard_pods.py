"""Independent pod tasks against the epoch-barrier loop they replaced.

``run_sharded`` routes the bound job stream once, spools each pod's
inputs and runs every pod alone.  Before that, the parent stepped all
pods through global W-wide epochs and exchanged forwarded jobs and
outcome notes at each barrier.  That serial loop is kept here, as the
oracle, and nowhere in ``src``; the differential test demands the same
fleet signature, merged metrics (remote-outcome totals included),
forward count and per-pod rows from both.

One difference is by design.  The barrier loop kept stepping a drained
pod until no outcome note was in flight anywhere, so a chaos event
landing on that pod after it drained was observed or not depending on
the *other* pods.  A pod task stops when it drains, as ``run_fleet``
does.  With chaos on, the fields such an event can move are therefore
only bounded by the oracle's, not equal to them.
"""

import tempfile
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaigns import (
    CHAOS_SHUTTLE_POLICY,
    CampaignEvent,
    TRACK_OUTAGE,
    default_campaign,
)
from repro.chaos.runner import install_campaign
from repro.fleet import shard
from repro.fleet.controlplane import (
    AdmissionControl,
    ControlPlane,
    _bind_jobs,
    default_scenario,
)
from repro.fleet.health import DegradationPolicy
from repro.fleet.shardbench import bench_plan
from repro.fleet.topology import FleetSpec, FleetTopology
from repro.sim import Environment
from repro.workloads.generator import WorkloadGenerator

_JOB_RANK = 0
_NOTE_RANK = 1

#: Signature fields a chaos event after a pod drains can still move.
POST_DRAIN_FIELDS = ("chaos_entries", "breaker_trips", "lane_health")


class BarrierPod:
    """One pod of the oracle, fed and stepped by the parent per epoch.

    A cross-pod message is ``(deliver_s, rank, job_id, dest_pod,
    payload)``: rank 0 forwards a job, rank 1 carries an outcome note
    back to the job's ingress pod.
    """

    def __init__(self, plan, pod_index):
        self.plan = plan
        self.pod_index = pod_index
        self.owners = plan.dataset_owners()
        scenario = plan.pod_scenario(pod_index)
        self.env = Environment()
        topology = FleetTopology(self.env, scenario.spec, scenario.catalog,
                                 homes=plan.pod_homes(pod_index))
        self.plane = ControlPlane(self.env, topology, scenario)
        if scenario.chaos is not None:
            self.plane.attach_campaign(
                install_campaign(self.env, topology.systems, scenario.chaos)
            )
        self.plane.start_workers()
        self.outbox = []
        self.plane.outcome_hook = self._on_outcome

    def _on_outcome(self, record):
        ingress = record.job_id % self.plan.n_pods
        if ingress != self.pod_index:
            self.outbox.append((self.env.now + self.plan.window_s, _NOTE_RANK,
                                record.job_id, ingress, str(record.outcome)))

    def deliver(self, messages, arrivals):
        for deliver_s, rank, _job_id, _dest, payload in messages:
            if rank == _JOB_RANK:
                self.plane.inject(payload, deliver_s)
            else:
                self.plane.registry.counter(
                    shard.REMOTE_OUTCOME_PREFIX + payload
                ).inc()
        for fjob in arrivals:
            owner = self.owners[fjob.dataset]
            if owner == self.pod_index:
                self.plane.inject(fjob, fjob.arrival_s)
            else:
                self.plane.registry.counter(shard.FORWARDED_COUNTER).inc()
                self.outbox.append((fjob.arrival_s + self.plan.window_s,
                                    _JOB_RANK, fjob.job_id, owner, fjob))

    def run_epoch(self, epoch_end):
        self.env.run(until=epoch_end)
        out, self.outbox = self.outbox, []
        return out

    def finish(self, epochs):
        self.plane.close_intake()
        self.env.run(until=self.plane._done)
        state = shard._PodState(
            pod_index=self.pod_index,
            track_offset=self.plan.track_ranges[self.pod_index][0],
            report=self.plane._build_report(),
            sla_state=self.plane.sla.export_state(),
            metrics=self.plane.registry.snapshot(),
            windows=epochs,
        )
        return state, self.outbox


def barrier_run(plan, jobs=None, fjobs=None):
    """The oracle: the serial epoch-barrier loop; a comparable summary.

    ``fjobs`` is an already-bound stream (a trace replay's), run as is.
    """
    scenario = plan.scenario
    if plan.n_pods == 1:
        env = Environment()
        topology = FleetTopology(env, scenario.spec, scenario.catalog)
        plane = ControlPlane(env, topology, scenario)
        if scenario.chaos is not None:
            plane.attach_campaign(
                install_campaign(env, topology.systems, scenario.chaos)
            )
        if fjobs is None:
            fjobs = _bind_jobs(scenario, jobs=jobs)
        fleet = plane.run(fjobs)
        rows = (shard._pod_row(0, scenario.spec.n_tracks,
                               scenario.spec.cart_pool, fleet),)
        return summary(fleet, plane.registry.snapshot(), 0, {}, rows)
    if fjobs is None:
        fjobs = _bind_jobs(scenario, jobs=jobs)
    stream = iter(fjobs)
    upcoming = next(stream, None)
    pods = [BarrierPod(plan, pod) for pod in range(plan.n_pods)]
    pending = []
    epochs = 0
    while upcoming is not None or pending:
        epoch_end = (epochs + 1) * plan.window_s
        arrivals = []
        while upcoming is not None and upcoming.arrival_s <= epoch_end:
            arrivals.append(upcoming)
            upcoming = next(stream, None)
        deliverable = sorted(m for m in pending if m[0] <= epoch_end)
        pending = [m for m in pending if m[0] > epoch_end]
        for pod in pods:
            pod.deliver(
                [m for m in deliverable if m[3] == pod.pod_index],
                [f for f in arrivals if f.job_id % plan.n_pods == pod.pod_index],
            )
            pending.extend(pod.run_epoch(epoch_end))
        epochs += 1
    finished = [pod.finish(epochs) for pod in pods]
    states = [state for state, _ in finished]
    fleet, metrics = shard._merge_states(plan, states)
    # Notes still in flight when the pods drained count all the same.
    for _, leftover in finished:
        for *_, outcome in leftover:
            name = shard.REMOTE_OUTCOME_PREFIX + outcome
            entry = metrics.setdefault(name, {"type": "counter", "value": 0.0})
            entry["value"] += 1.0
    metrics = {name: metrics[name] for name in sorted(metrics)}
    remote = {
        name[len(shard.REMOTE_OUTCOME_PREFIX):]: int(entry["value"])
        for name, entry in metrics.items()
        if name.startswith(shard.REMOTE_OUTCOME_PREFIX)
    }
    forwarded = int(metrics.get(shard.FORWARDED_COUNTER, {"value": 0})["value"])
    rows = tuple(
        shard._pod_row(state.pod_index, plan.track_ranges[state.pod_index][1],
                       plan.cart_shares[state.pod_index], state.report)
        for state in states
    )
    return summary(fleet, metrics, forwarded, remote, rows)


def summary(fleet, metrics, forwarded, remote_outcomes, pod_rows):
    return {
        "digest": shard.signature_digest(fleet),
        "signature": shard.report_signature(fleet),
        "metrics": metrics,
        "forwarded": forwarded,
        "remote_outcomes": remote_outcomes,
        "pod_rows": pod_rows,
    }


def pod_task_run(plan, jobs=None, fjobs=None):
    if fjobs is None:
        report = shard.run_sharded(plan, engine="serial", jobs=jobs)
    else:
        report = shard._run_bound_sharded(plan, fjobs, engine="serial")
    assert report.forwarded == sum(report.remote_outcomes.values())
    return summary(report.fleet, report.metrics, report.forwarded,
                   report.remote_outcomes, report.pod_rows)


def tied_jobs(scenario, step_s):
    """The scenario's stream with arrivals snapped to multiples of
    ``step_s``: equal arrival times, arrivals on window ends and
    forwarded jobs landing at the same instant as a pod's own arrivals
    are what exercise the injection order."""
    jobs = WorkloadGenerator(classes=scenario.classes,
                             seed=scenario.seed).generate(scenario.horizon_s)
    return [
        replace(job, arrival_s=round(job.arrival_s / step_s) * step_s)
        for job in jobs
    ]


def storm_scenario(seed, horizon_s, late_outage_s):
    """The pod-storm campaign plus one outage on the fleet's last track."""
    base = default_campaign(seed=seed)
    campaign = replace(base, events=base.events + (
        CampaignEvent(TRACK_OUTAGE, at_s=late_outage_s, duration_s=300.0,
                      track=3),
    ))
    return default_scenario(
        seed=seed,
        horizon_s=horizon_s,
        spec=FleetSpec(n_tracks=4, cart_pool=12,
                       shuttle_policy=CHAOS_SHUTTLE_POLICY),
        chaos=campaign,
        degradation=DegradationPolicy(),
    )


class TestPodTasksMatchTheBarrierLoop:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 50),
        n_pods=st.integers(1, 4),
        window_s=st.floats(1.0, 120.0, allow_nan=False),
        chaos=st.booleans(),
        retain=st.booleans(),
        late_outage_s=st.floats(0.0, 900.0, allow_nan=False),
        tied=st.booleans(),
        shed=st.booleans(),
    )
    def test_same_fleet_metrics_and_rows(self, seed, n_pods, window_s, chaos,
                                         retain, late_outage_s, tied, shed):
        horizon_s = 600.0
        if chaos:
            scenario = storm_scenario(seed, horizon_s, late_outage_s)
        else:
            scenario = default_scenario(
                seed=seed, horizon_s=horizon_s,
                spec=FleetSpec(n_tracks=4, cart_pool=12),
            )
        if shed:
            # A one-deep queue that sheds: which of two jobs submitted
            # at the same instant survives depends on injection order.
            scenario = replace(scenario, admission=AdmissionControl(
                max_queue_depth=1, failover_links=0))
        plan = shard.ShardPlan(
            scenario=replace(scenario, retain_records=retain),
            n_pods=n_pods,
            interpod_latency_s=window_s,
        )
        jobs = tied_jobs(plan.scenario, window_s / 2) if tied else None
        new, oracle = pod_task_run(plan, jobs), barrier_run(plan, jobs)
        if not chaos:
            assert new == oracle
            return
        new_sig, oracle_sig = new.pop("signature"), oracle.pop("signature")
        del new["digest"], oracle["digest"]
        assert new == oracle
        for name in POST_DRAIN_FIELDS:
            new_value, oracle_value = new_sig.pop(name), oracle_sig.pop(name)
            if name == "chaos_entries":
                assert Counter(map(tuple, new_value)) <= Counter(
                    map(tuple, oracle_value)
                )
            elif name == "breaker_trips":
                assert new_value <= oracle_value
            else:
                assert [row["lane"] for row in new_value] == [
                    row["lane"] for row in oracle_value
                ]
        assert new_sig == oracle_sig

    def test_a_drained_pod_stops_observing_chaos(self):
        """The one by-design difference: a late repair on a drained pod."""
        plan = shard.ShardPlan(
            scenario=replace(storm_scenario(4, 600.0, 0.0),
                             retain_records=False),
            n_pods=3,
            interpod_latency_s=1.0,
        )
        report = shard.run_sharded(plan, engine="serial")
        last_pod = report.pod_rows[-1]
        assert last_pod["makespan_s"] < 300.0  # drained before the repair
        repair = [300.0, "track_outage", "t3", "repaired"]
        entries = [list(entry) for entry in report.fleet.chaos_entries]
        assert [0.0, "track_outage", "t3", "tube down"] in entries
        assert repair not in entries
        assert repair in barrier_run(plan)["signature"]["chaos_entries"]

    def test_sharded_trace_replay(self):
        from repro.traffic import default_spec, synthesise
        from repro.traffic.bench import bench_scenario
        from repro.traffic.replay import bound_jobs

        spec = default_spec(seed=0, horizon_s=900.0, rate_scale=0.05)
        scenario = bench_scenario(spec, horizon_s=900.0)
        assert not scenario.retain_records
        plan = shard.ShardPlan(scenario=scenario, n_pods=2,
                               interpod_latency_s=7.5)

        def jobs():
            return bound_jobs(synthesise(spec), dict(scenario.targets),
                              scenario.catalog.dataset_bytes)

        new = pod_task_run(plan, fjobs=jobs())
        assert new["forwarded"] > 0
        assert new == barrier_run(plan, fjobs=jobs())


class TestPodIndependence:
    """A pod run alone equals the same pod inside the ensemble."""

    @staticmethod
    def pod_view(state):
        return {
            "records": state.sla_state.records,
            "metrics": state.metrics,  # remote-outcome counters included
            "digest": shard.signature_digest(state.report),
            "windows": state.windows,
        }

    def test_each_pod_alone_matches_its_ensemble_share(self, monkeypatch):
        plan = bench_plan(horizon_s=600.0, n_pods=3)
        ensemble_states = []
        run_pod = shard._run_pod

        def recording_run_pod(plan, pod_index, spool):
            state = run_pod(plan, pod_index, spool)
            ensemble_states.append(state)
            return state

        monkeypatch.setattr(shard, "_run_pod", recording_run_pod)
        report = shard.run_sharded(plan, engine="serial")
        assert [state.pod_index for state in ensemble_states] == [0, 1, 2]

        scenario = plan.scenario
        fjobs = _bind_jobs(scenario)
        with tempfile.TemporaryDirectory() as directory:
            spools, n_jobs = shard._spool(plan, fjobs, directory)
            alone = {
                pod: run_pod(plan, pod, spools[pod])
                for pod in reversed(range(plan.n_pods))
            }
        assert n_jobs == report.fleet.n_jobs
        assert report.forwarded > 0
        for state in ensemble_states:
            assert self.pod_view(alone[state.pod_index]) == self.pod_view(state)
        remote = Counter()
        for state in alone.values():
            for name, entry in state.metrics.items():
                if name.startswith(shard.REMOTE_OUTCOME_PREFIX):
                    outcome = name[len(shard.REMOTE_OUTCOME_PREFIX):]
                    remote[outcome] += int(entry["value"])
        assert remote == report.remote_outcomes
