"""Stateful fuzzing of the DHL API, fleet control plane and shard runner.

Each machine here is usable three ways:

* directly — ``do_*`` methods drive one operation to completion on the
  DES clock and ``check()`` asserts the invariants;
* through :func:`random_walk` — a seeded, deterministic driver that
  issues a pinned number of random rules (CI's >= 500-rule gate replays
  bit-identically);
* through hypothesis — each rule declares its argument strategies
  once, with :func:`fuzz_rule`, and :func:`state_machine` derives the
  :class:`~hypothesis.stateful.RuleBasedStateMachine` from them, so
  shrinking finds minimal failing operation sequences.

Every fleet machine (here and in :mod:`repro.testing.traffic`) ends
with :func:`drain_and_audit`.

:class:`ShardCosimMachine` fuzzes the sharded co-simulator itself:
rules reshard the fleet (pod count, boundary latency, chaos on/off)
between short campaigns and every run re-checks the co-simulation
contract — no job lost or duplicated across shard boundaries, the
forwarded/outcome-note counters balanced, and previously seen
configurations reproduced byte for byte.

Invariants checked after **every** rule:

* virtual time is monotone;
* no leaked resources: the scheduler's own audit
  (:meth:`~repro.dhlsim.scheduler.DhlSystem.leaked_resources`) and the
  trace-derived audit (:func:`~repro.obs.probe.trace_leaked_resources`)
  both read zero on the quiescent system, and they agree;
* cart conservation: every cart is in the library, docked, or in a
  recovery bay — chaos never makes hardware vanish;
* byte conservation: a Read returns exactly
  ``min(requested, shard size)`` bytes;
* span nesting: the trace's span tree never interleaves illegally;
* breaker legality: every circuit-breaker transition is on the legal
  edge set and timestamps never run backwards.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ..chaos.campaigns import (
    BROWNOUT,
    CART_BATCH_FAILURE,
    CHAOS_SHUTTLE_POLICY,
    CampaignEvent,
    ChaosCampaign,
    TRACK_OUTAGE,
    default_campaign,
)
from ..chaos.runner import CampaignRunner, install_campaign
from ..dhlsim.api import DhlApi
from ..dhlsim.reliability import ChaosSpec
from ..dhlsim.scheduler import DhlSystem
from ..errors import ReproError, SchedulingError
from ..fleet.controlplane import (
    ControlPlane,
    FleetScenario,
    _FleetJob,
    build_plane,
    default_scenario,
)
from ..fleet.health import BREAKER_STATES, DegradationPolicy, illegal_transitions
from ..fleet.shard import (
    ShardPlan,
    ShardReport,
    render_signature,
    report_signature,
    run_sharded,
)
from ..fleet.sla import DEFAULT_TARGET, JobRecord, Outcome
from ..fleet.topology import FleetSpec
from ..obs import TraceLevel, Tracer
from ..obs.probe import trace_leaked_resources
from ..obs.tracer import span_nesting_violations
from ..sim import Environment
from ..storage.datasets import synthetic_dataset
from ..units import TB


# -- the shared fuzz contract -------------------------------------------------

_STRATEGIES = "_fuzz_strategies"

_LEGAL_OUTCOMES = frozenset(Outcome)


def fuzz_rule(**strategies: st.SearchStrategy):
    """Declare a ``do_*`` method a hypothesis rule drawing ``strategies``.

    The keywords name the method's parameters; :func:`state_machine`
    turns every marked method into one rule of the derived wrapper.
    """

    def mark(method):
        setattr(method, _STRATEGIES, strategies)
        return method

    return mark


def state_machine(machine_cls: type) -> type[RuleBasedStateMachine]:
    """Derive the hypothesis wrapper of a fuzz machine class.

    Each example drives ``machine_cls(seed=0)``: every
    :func:`fuzz_rule` method becomes a rule of the same name,
    ``check()`` the invariant and ``finish()`` the teardown.  The
    wrapper holds the machine rather than subclassing it: hypothesis
    sets an instance attribute ``rules``, which would clobber the
    machine's rule counter.
    """

    class Wrapper(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.machine = machine_cls(seed=0)

        @invariant()
        def check(self):
            self.machine.check()

        def teardown(self):
            self.machine.finish()

    def forward(name: str):
        def call(self, **kwargs):
            getattr(self.machine, name)(**kwargs)

        call.__name__ = name
        return call

    for name, method in vars(machine_cls).items():
        if hasattr(method, _STRATEGIES):
            strategies = getattr(method, _STRATEGIES)
            setattr(Wrapper, name, rule(**strategies)(forward(name)))
    Wrapper.__name__ = machine_cls.__name__.replace("Machine", "StateMachine")
    Wrapper.__qualname__ = Wrapper.__name__
    Wrapper.__module__ = machine_cls.__module__
    return Wrapper


def assert_monotone(now: float, last_now: float) -> float:
    """Assert virtual time never ran backwards; return ``now``."""
    assert now >= last_now, (
        f"virtual time ran backwards: {now} < {last_now}"
    )
    return now


def assert_legal_outcomes(records: Iterable[JobRecord]) -> None:
    """Every resolved record carries one of the four outcomes."""
    for record in records:
        assert record.outcome in _LEGAL_OUTCOMES, (
            f"unknown outcome {record.outcome!r}"
        )


def drain_and_audit(plane: ControlPlane, submitted: int,
                    check: Callable[[], None]) -> None:
    """Drain a hand-driven fleet, then audit its end-of-run contract.

    Runs the clock in 300 s steps (``check()`` after each, 400 steps at
    most) until all ``submitted`` jobs resolved, stops the campaign and
    lets in-flight evictions land for an hour.  Then every submitted
    job resolved exactly once, the outcome counts sum to the resolved
    count, each held cart-pool token is a (resident or fetching) cache
    entry, and every rail's leak audit reads zero — docked cache
    residents hold their dock slots, which the audit nets out.
    """
    env = plane.env
    steps = 0
    while plane._resolved < submitted:
        env.run(until=env.now + 300.0)
        check()
        steps += 1
        assert steps < 400, (
            f"fleet failed to drain: {plane._resolved} of {submitted} "
            f"jobs resolved after {steps} steps"
        )
    if plane._campaign is not None:
        plane._campaign.stop()
    env.run(until=env.now + 3600.0)
    check()
    seen = [record.job_id for record in plane.sla.records]
    assert len(seen) == len(set(seen)) == submitted, (
        f"every submitted job must resolve exactly once: {len(seen)} "
        f"records, {len(set(seen))} distinct ids, {submitted} submitted"
    )
    outcomes = sum(plane._counts.values())
    assert outcomes == plane._resolved, (
        f"outcome counts sum to {outcomes}, not the {plane._resolved} "
        "resolved jobs"
    )
    resident = sum(
        len(lane.cache.entries)
        for lane in plane.lanes.values()
        if lane.cache is not None
    )
    held = plane.topology.cart_pool.count
    assert held == resident, (
        f"cart-pool tokens held ({held}) != cache residency ({resident})"
    )
    for system in plane.topology.systems:
        audit = system.leaked_resources()
        assert all(count == 0 for count in audit.values()), (
            f"fleet leak audit: {audit}"
        )


def audit_shard_report(report: ShardReport) -> None:
    """A sharded run resolved each job once, and all its job counts agree."""
    fleet, n_jobs = report.fleet, report.fleet.n_jobs
    ids = sorted(record.job_id for record in fleet.records)
    assert not fleet.scenario.retain_records or ids == list(range(n_jobs)), (
        f"{len(ids)} records, {len(set(ids))} distinct ids for {n_jobs} jobs"
    )
    outcomes = fleet.served + fleet.shed + fleet.failovers + fleet.failed
    tally = (sum(report.pod_jobs), outcomes, fleet.sla.overall.n_jobs)
    assert tally == (n_jobs,) * 3, f"pod rows, outcomes, SLA: {tally} != {n_jobs}"
    remote = sum(report.remote_outcomes.values())
    assert report.forwarded == remote, f"{report.forwarded} forwards, {remote} outcomes"
    assert report.plan.n_pods > 1 or report.forwarded == report.epochs == 0


def chaos_fleet_scenario(seed: int, **overrides) -> FleetScenario:
    """An edf+lru fleet under the default campaign, degradation on."""
    overrides.setdefault("spec", FleetSpec(shuttle_policy=CHAOS_SHUTTLE_POLICY))
    return default_scenario(policy="edf", cache="lru", seed=seed,
                            chaos=default_campaign(seed=seed),
                            degradation=DegradationPolicy(), **overrides)


def api_fuzz_campaign(seed: int = 0) -> ChaosCampaign:
    """The default single-track campaign the API fuzzer runs under."""
    return ChaosCampaign(
        name="api-fuzz",
        events=(
            CampaignEvent(TRACK_OUTAGE, at_s=300.0, duration_s=60.0, track=0),
            CampaignEvent(BROWNOUT, at_s=700.0, duration_s=120.0, intensity=2.0),
            CampaignEvent(CART_BATCH_FAILURE, at_s=1100.0, track=0,
                          intensity=0.003),
        ),
        background=ChaosSpec(
            track_mttf_s=900.0,
            track_mttr_s=45.0,
            stall_prob=0.05,
            stall_time_s=3.0,
            stall_abort_prob=0.1,
            drive_failure_prob=0.0005,
            seed=seed + 7,
        ),
        crews=1,
        seed=seed,
    )


class DhlApiMachine:
    """Open/Close/Read/Write fuzzing against one chaos-ridden system.

    Every ``do_*`` call drives its operation to completion (the DES
    runs until the op's process fires), so the system is quiescent at
    every ``check()`` — which is what makes the leak audits exact.
    Operations are allowed to *fail* under chaos (that is the point);
    they are never allowed to corrupt accounting.
    """

    def __init__(self, seed: int = 0,
                 campaign: ChaosCampaign | None = None,
                 n_datasets: int = 3):
        self.env = Environment()
        self.tracer = Tracer(level=TraceLevel.FULL)
        # The patient policy matters: fail-fast NO_RETRY surfaces raw
        # TrackFaultErrors that _persistent_close cannot wait out.
        self.system = DhlSystem(self.env, n_racks=1, stations_per_rack=2,
                                shuttle_policy=CHAOS_SHUTTLE_POLICY,
                                tracer=self.tracer)
        self.api = DhlApi(self.system)
        self.datasets = [f"fuzz-{index}" for index in range(n_datasets)]
        for name in self.datasets:
            self.system.load_dataset(synthetic_dataset(2 * TB, name=name))
        self.total_carts = len(self.system.library.carts)
        self.campaign = campaign if campaign is not None else api_fuzz_campaign(seed)
        self.runner: CampaignRunner = install_campaign(
            self.env, [self.system], self.campaign
        )
        self.endpoint_id = next(iter(self.system.racks))
        self.docked: dict[str, object] = {}
        self.failures = 0
        self.rules = 0
        self.bytes_read = 0.0
        self._last_now = self.env.now

    # -- op helpers --------------------------------------------------------------

    def _complete(self, event):
        """Run the DES until ``event`` fires; a chaos failure is legal."""
        try:
            return True, self.env.run(until=event)
        except ReproError:
            self.failures += 1
            return False, None

    # -- rules -------------------------------------------------------------------

    @fuzz_rule(index=st.integers(min_value=0, max_value=7))
    def do_open(self, index: int) -> None:
        self.rules += 1
        dataset = self.datasets[index % len(self.datasets)]
        if dataset in self.docked:
            return  # already at the rack; Open would double-dispatch
        if len(self.docked) >= self.system.stations_per_rack:
            # Every dock slot is held by a dataset we keep docked; a
            # further Open would block on the slot until a Close this
            # single-threaded machine will never issue concurrently.
            return
        ok, station = self._complete(
            self.api.open(dataset, 0, self.endpoint_id)
        )
        if ok:
            self.docked[dataset] = station

    @fuzz_rule(index=st.integers(min_value=0, max_value=7),
               fraction=st.floats(min_value=0.0, max_value=1.0))
    def do_read(self, index: int, fraction: float) -> None:
        self.rules += 1
        if not self.docked:
            return
        dataset = sorted(self.docked)[index % len(self.docked)]
        station = self.docked[dataset]
        shard = station.cart.shards[(dataset, 0)]
        requested = max(1.0, fraction * 2.0 * shard.size_bytes)
        ok, done = self._complete(
            self.api.read(self.endpoint_id, dataset, 0, n_bytes=requested)
        )
        if ok:
            expected = min(requested, shard.size_bytes)
            assert done == expected, (
                f"byte conservation: read returned {done}, "
                f"expected {expected}"
            )
            self.bytes_read += done

    @fuzz_rule(index=st.integers(min_value=0, max_value=7),
               fraction=st.floats(min_value=0.0, max_value=1.0))
    def do_write(self, index: int, fraction: float) -> None:
        self.rules += 1
        if not self.docked:
            return
        dataset = sorted(self.docked)[index % len(self.docked)]
        station = self.docked[dataset]
        try:
            event = self.api.write(station, max(1.0, fraction * TB))
        except SchedulingError:  # Write validates the dock synchronously
            self.failures += 1
            return
        self._complete(event)

    @fuzz_rule(index=st.integers(min_value=0, max_value=7))
    def do_close(self, index: int) -> None:
        self.rules += 1
        if not self.docked:
            return
        dataset = sorted(self.docked)[index % len(self.docked)]
        station = self.docked.pop(dataset)
        # Persistent form: a cart mid-outage parks at the rack and
        # re-attempts, so a Close always ends with the cart home.
        ok, _ = self._complete(
            self.env.process(
                self.api._persistent_close(station.cart, self.endpoint_id)
            )
        )
        assert ok, "persistent close must always land"

    @fuzz_rule(dt=st.floats(min_value=0.1, max_value=120.0))
    def do_advance(self, dt: float) -> None:
        self.rules += 1
        self.env.run(until=self.env.now + max(0.1, dt))

    def step(self, rng: np.random.Generator) -> None:
        """One random rule — the deterministic-walk driver's unit."""
        choice = int(rng.integers(0, 5))
        index = int(rng.integers(0, 8))
        fraction = float(rng.random())
        if choice == 0:
            self.do_open(index)
        elif choice == 1:
            self.do_read(index, fraction)
        elif choice == 2:
            self.do_write(index, fraction)
        elif choice == 3:
            self.do_close(index)
        else:
            self.do_advance(fraction * 120.0)

    # -- invariants --------------------------------------------------------------

    def check(self) -> None:
        self._last_now = assert_monotone(self.env.now, self._last_now)
        violations = span_nesting_violations(self.tracer.spans)
        assert not violations, f"span nesting violations: {violations[:3]}"
        audit = self.system.leaked_resources()
        assert all(count == 0 for count in audit.values()), (
            f"scheduler leak audit: {audit}"
        )
        traced = trace_leaked_resources(self.tracer, self.system)
        assert traced == audit, (
            f"trace audit {traced} disagrees with scheduler audit {audit}"
        )
        in_library = len(self.system.library.carts)
        docked = sum(
            len(rack.docked_carts) for rack in self.system.racks.values()
        )
        stranded = sum(
            len(rack.stranded) for rack in self.system.racks.values()
        )
        assert in_library + docked + stranded == self.total_carts, (
            f"cart conservation: {in_library} in library + {docked} docked "
            f"+ {stranded} stranded != {self.total_carts}"
        )

    def finish(self) -> None:
        """Drain: close everything, stop the campaign, final check."""
        for dataset in sorted(self.docked):
            self.do_close(0)
        self.runner.stop()
        self.env.run(until=self.env.now + 1.0)
        self.check()


class PlaneMachine:
    """A working plane on ``scenario`` (default: the seed's chaos fleet)."""

    def __init__(self, seed: int = 0, scenario: FleetScenario | None = None):
        if scenario is None:
            scenario = chaos_fleet_scenario(seed)
        self.scenario = scenario
        self.plane = build_plane(self.scenario)
        self.plane.start_workers()
        self.env = self.plane.env
        self.topology = self.plane.topology
        self.targets = dict(self.scenario.targets)
        self.rules = 0
        self._last_now = self.env.now


class FleetDispatchMachine(PlaneMachine):
    """Fleet dispatch fuzzing: random jobs through the real admission,
    queueing, breaker and failover paths, under an active campaign."""

    KINDS = ("interactive", "batch", "archive")

    def __init__(self, seed: int = 0, scenario: FleetScenario | None = None):
        super().__init__(seed, scenario)
        self.datasets = list(self.topology.homes)
        self.submitted = 0

    # -- rules -------------------------------------------------------------------

    @fuzz_rule(kind_index=st.integers(min_value=0, max_value=2),
               dataset_index=st.integers(min_value=0, max_value=11),
               size_fraction=st.floats(min_value=0.0, max_value=1.0))
    def do_dispatch(self, kind_index: int, dataset_index: int,
                    size_fraction: float) -> None:
        self.rules += 1
        kind = self.KINDS[kind_index % len(self.KINDS)]
        dataset = self.datasets[dataset_index % len(self.datasets)]
        home = self.topology.home(dataset)
        target = self.targets.get(kind, DEFAULT_TARGET)
        size = max(1.0, size_fraction * 8 * TB)
        self.plane.submit(
            _FleetJob(
                job_id=self.submitted,
                arrival_s=self.env.now,
                size_bytes=size,
                kind=kind,
                dataset=dataset,
                read_bytes=min(size, home.size_bytes),
                deadline_at=self.env.now + target.deadline_s,
                priority=target.priority,
            )
        )
        self.submitted += 1

    @fuzz_rule(dt=st.floats(min_value=0.1, max_value=90.0))
    def do_advance(self, dt: float) -> None:
        self.rules += 1
        self.env.run(until=self.env.now + max(0.1, dt))

    def step(self, rng: np.random.Generator) -> None:
        if rng.random() < 0.6:
            self.do_dispatch(
                int(rng.integers(0, 3)),
                int(rng.integers(0, len(self.datasets))),
                float(rng.random()),
            )
        else:
            self.do_advance(float(rng.random()) * 90.0)

    # -- invariants --------------------------------------------------------------

    def check(self) -> None:
        self._last_now = assert_monotone(self.env.now, self._last_now)
        for monitor in self.plane.monitors.values():
            bad = illegal_transitions(monitor.breaker.transitions)
            assert not bad, f"illegal breaker transitions on {monitor.name}: {bad}"
            assert monitor.breaker.state in BREAKER_STATES
            assert (
                0
                <= monitor.breaker.probes_in_flight
                <= monitor.policy.half_open_probes
            ), (
                f"probe accounting on {monitor.name}: "
                f"{monitor.breaker.probes_in_flight} probes in flight"
            )
        outcomes = self.plane.sla.records
        assert len(outcomes) <= self.submitted, (
            f"{len(outcomes)} outcomes for {self.submitted} submitted jobs"
        )
        assert_legal_outcomes(outcomes)

    def finish(self) -> None:
        """Drain every submitted job, then audit conservation end-to-end."""
        drain_and_audit(self.plane, self.submitted, self.check)


class ShardCosimMachine:
    """Resharding fuzz: mutate the shard plan between short campaigns.

    Rules either *reshard* the fleet (change the pod count or the
    inter-pod latency), toggle the chaos campaign, reseed the workload,
    or *run* the current plan through the serial engine.  After
    every run:

    * :func:`audit_shard_report` holds — every bound job resolved
      exactly once, every forwarded job's outcome counted once, and a
      one-pod plan forwards nothing;
    * the resolved-job total matches every other sharding of the same
      workload — pods change the model's boundary latencies, never the
      offered load;
    * re-running a previously seen configuration reproduces the merged
      fleet report byte for byte.
    """

    N_TRACKS = 4

    def __init__(self, seed: int = 0, horizon_s: float = 450.0):
        self.seed = seed
        self.horizon_s = horizon_s
        self.n_pods = 2
        self.interpod_latency_s = 5.0
        self.with_chaos = False
        self.rules = 0
        self.runs = 0
        self.chaos_runs = 0
        self.forwarded_total = 0
        self._signatures: dict[tuple, str] = {}
        self._workload_jobs: dict[tuple, int] = {}

    def _scenario(self) -> FleetScenario:
        spec = FleetSpec(n_tracks=self.N_TRACKS, cart_pool=3 * self.N_TRACKS)
        if self.with_chaos:
            spec = replace(spec, shuttle_policy=CHAOS_SHUTTLE_POLICY)
            return chaos_fleet_scenario(self.seed, horizon_s=self.horizon_s,
                                        spec=spec)
        return default_scenario(policy="edf", cache="lru", seed=self.seed,
                                horizon_s=self.horizon_s, spec=spec)

    # -- rules -------------------------------------------------------------------

    @fuzz_rule(n_pods=st.integers(min_value=1, max_value=4),
               latency_s=st.floats(min_value=1.0, max_value=90.0))
    def do_reshard(self, n_pods: int, latency_s: float) -> None:
        self.rules += 1
        self.n_pods = 1 + (n_pods - 1) % self.N_TRACKS
        self.interpod_latency_s = min(120.0, max(1.0, latency_s))

    @fuzz_rule()
    def do_toggle_chaos(self) -> None:
        self.rules += 1
        self.with_chaos = not self.with_chaos

    @fuzz_rule(seed=st.integers(min_value=0, max_value=2))
    def do_reseed(self, seed: int) -> None:
        self.rules += 1
        self.seed = seed % 3

    @fuzz_rule()
    def do_run(self) -> None:
        self.rules += 1
        plan = ShardPlan(
            scenario=self._scenario(),
            n_pods=self.n_pods,
            interpod_latency_s=self.interpod_latency_s,
        )
        report = run_sharded(plan, engine="serial")
        fleet = report.fleet
        audit_shard_report(report)
        workload = (self.seed, self.horizon_s, self.with_chaos)
        expected = self._workload_jobs.setdefault(workload, fleet.n_jobs)
        assert expected == fleet.n_jobs, (
            f"sharding into {plan.n_pods} pods changed the offered load: "
            f"{fleet.n_jobs} jobs resolved, other cuts saw {expected}"
        )
        config = (*workload, self.n_pods, self.interpod_latency_s)
        signature = render_signature(report_signature(fleet))
        assert self._signatures.setdefault(config, signature) == signature, (
            f"re-running configuration {config} was not byte-identical"
        )
        self.forwarded_total += report.forwarded
        self.runs += 1
        if self.with_chaos:
            self.chaos_runs += 1

    def step(self, rng: np.random.Generator) -> None:
        choice = int(rng.integers(0, 8))
        if choice <= 2:
            self.do_reshard(
                int(rng.integers(1, self.N_TRACKS + 1)),
                float(rng.random()) * 90.0,
            )
        elif choice == 3:
            self.do_toggle_chaos()
        elif choice == 4:
            self.do_reseed(int(rng.integers(0, 3)))
        else:
            self.do_run()

    # -- invariants --------------------------------------------------------------

    def check(self) -> None:
        assert 1 <= self.n_pods <= self.N_TRACKS
        assert self.interpod_latency_s > 0
        assert all(count > 0 for count in self._workload_jobs.values()), (
            "a sharded run resolved zero jobs"
        )

    def finish(self) -> None:
        """Run the current cut once more, then its monolithic twin."""
        self.do_run()
        sharded_pods = self.n_pods
        self.n_pods = 1
        self.do_run()
        self.n_pods = sharded_pods
        self.check()


def random_walk(machine, n_rules: int = 500, seed: int = 0):
    """Drive ``machine`` through ``n_rules`` seeded random rules.

    Deterministic: the same (machine config, n_rules, seed) triple
    replays the identical rule sequence and virtual-time trajectory.
    Invariants are checked after every rule; ``finish()`` runs the
    drain-and-audit teardown.  Returns the machine for inspection.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_rules):
        machine.step(rng)
        machine.check()
    machine.finish()
    return machine


DhlApiStateMachine = state_machine(DhlApiMachine)
ShardCosimStateMachine = state_machine(ShardCosimMachine)
FleetStateMachine = state_machine(FleetDispatchMachine)
