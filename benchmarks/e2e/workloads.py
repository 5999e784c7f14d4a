"""The four end-to-end workloads, built from a seed and verified per run.

Each builder is the workload's *setup*: it imports the layers it drives,
synthesises its inputs and counts the jobs they offer.  The returned
:class:`Workload` runs one *iteration* per call: the simulator call a user
would make, on those inputs.  Every iteration's :class:`Outputs` carry the
conservation check and a digest of everything the simulator reported, so
the driver can check correctness on any seed, and against pinned digests
on the seeds in ``pins.json``.

The simulator is a black box here.  Entry points are called through their
module (``controlplane.run_fleet``, not a bare ``run_fleet``) so that the
traced mode can wrap them from outside.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

HORIZON_S = 3600.0
#: The shard-bench workload runs its pods on this many worker processes,
#: one per core of the 2-core machine the benchmark was sized for.
SHARD_WORKERS = 2
#: The replay trace is the traffic-bench day scaled to this many records.
REPLAY_RECORDS = 100_000
#: Capacity-plan candidate grid: 3 track counts x 3 cart pools x
#: 2 policies x 2 cache options, every pool at least the track count.
CAPACITY_CACHE_OPTIONS = ("none", "lru")
CAPACITY_CANDIDATES = 36
#: The SLA the surrogate gate plans against: 150 s p99, 5 % misses.
CAPACITY_MAX_P99_S = 150.0
CAPACITY_MAX_MISS_RATE = 0.05


@dataclass(frozen=True)
class Outputs:
    """What one iteration produced, reduced to what the driver checks."""

    digest: str
    conserved: bool
    p99_s: float
    launch_energy_j: float
    served: int | None = None
    shed: int | None = None


@dataclass(frozen=True)
class Workload:
    """A built workload: its offered job count and its iteration."""

    name: str
    seed: int
    offered_jobs: int
    iterate: Callable[[], Outputs]


def _generated_jobs(scenario) -> int:
    """Jobs the scenario's seeded generator offers within its horizon."""
    from repro.workloads.generator import WorkloadGenerator

    generator = WorkloadGenerator(classes=scenario.classes, seed=scenario.seed)
    return len(generator.generate(scenario.horizon_s))


def _fleet_outputs(report, offered: int, conserved: bool = True) -> Outputs:
    from repro.fleet import shard

    resolved = report.served + report.shed + report.failovers + report.failed
    return Outputs(
        digest=shard.signature_digest(report),
        conserved=conserved and resolved == report.n_jobs == offered,
        p99_s=report.p99_s,
        launch_energy_j=report.launch_energy_j,
        served=report.served,
        shed=report.shed,
    )


def fleet_saturated(seed: int) -> Workload:
    """``run_fleet`` on the shard-bench topology, unsharded."""
    from repro.fleet import controlplane, shardbench

    scenario = shardbench.bench_scenario(seed=seed, horizon_s=HORIZON_S)
    offered = _generated_jobs(scenario)
    return Workload(
        "fleet-saturated", seed, offered,
        lambda: _fleet_outputs(controlplane.run_fleet(scenario), offered),
    )


def replay_overload(seed: int) -> Workload:
    """Decode a binary trace and replay it into a fleet that sheds."""
    from repro.traffic import bench, codec, replay, synth

    base = synth.default_spec(seed=seed, horizon_s=HORIZON_S, rate_scale=1.0)
    spec = synth.default_spec(
        seed=seed, horizon_s=HORIZON_S,
        rate_scale=REPLAY_RECORDS / synth.expected_records(base),
    )
    encoded = io.BytesIO()
    writer = codec.BinaryTraceWriter(encoded, synth.trace_header(spec))
    for record in synth.synthesise(spec):
        writer.write(record)
    trace = encoded.getvalue()
    offered = writer.count
    scenario = bench.bench_scenario(spec, HORIZON_S)

    def iterate() -> Outputs:
        stream = io.BytesIO(trace)
        header = codec.read_binary_header(stream)
        result = replay.replay_fleet(
            scenario,
            codec.read_binary_records(stream, header),
            config=bench.DEFAULT_REPLAY_CONFIG,
            header=header,
        )
        return _fleet_outputs(
            result.fleet, offered, conserved=result.n_records == offered
        )

    return Workload("replay-overload", seed, offered, iterate)


def shard_process(seed: int) -> Workload:
    """The fleet-saturated fleet through the process shard executor."""
    from repro.fleet import shard, shardbench

    plan = shardbench.bench_plan(seed=seed, horizon_s=HORIZON_S)
    offered = _generated_jobs(plan.scenario)

    def iterate() -> Outputs:
        report = shard.run_sharded(plan, engine="process", workers=SHARD_WORKERS)
        return _fleet_outputs(
            report.fleet, offered,
            conserved=report.forwarded == sum(report.remote_outcomes.values()),
        )

    return Workload("shard-process", seed, offered, iterate)


def plan_digest(plan) -> str:
    """SHA-256 of the plan's evaluations and choice, canonically rendered."""
    payload = {
        "evaluations": [dataclasses.asdict(e) for e in plan.evaluations],
        "best": dataclasses.asdict(plan.best) if plan.best is not None else None,
    }
    rendered = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def capacity_plan(seed: int) -> Workload:
    """Exhaustive serial capacity plan over the surrogate gate grid."""
    from repro.fleet import capacity, controlplane

    base = controlplane.default_scenario(seed=seed, horizon_s=HORIZON_S)
    requirement = capacity.SlaRequirement(
        max_p99_s=CAPACITY_MAX_P99_S, max_miss_rate=CAPACITY_MAX_MISS_RATE
    )
    # Candidates vary tracks, carts, policy and cache, never the traffic,
    # so each one is offered the base scenario's job stream.
    offered = CAPACITY_CANDIDATES * _generated_jobs(base)

    def iterate() -> Outputs:
        plan = capacity.plan_capacity(
            requirement, base, cache_options=CAPACITY_CACHE_OPTIONS,
            engine="serial",
        )
        best = plan.best
        return Outputs(
            digest=plan_digest(plan),
            conserved=len(plan.evaluations) == CAPACITY_CANDIDATES,
            p99_s=best.p99_s if best is not None else float("inf"),
            launch_energy_j=best.launch_energy_j if best is not None else 0.0,
        )

    return Workload("capacity-plan", seed, offered, iterate)


#: Every workload by name.  shard-process is not listed in BENCHMARK.json:
#: on a shared 2-core host its jobs_per_s swung by 11-34 % between runs
#: (worker spawn and 144 IPC barriers per iteration), wider than any bound
#: a regression gate may use.  Run it by name.
WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "fleet-saturated": fleet_saturated,
    "replay-overload": replay_overload,
    "shard-process": shard_process,
    "capacity-plan": capacity_plan,
}


def build(name: str, seed: int) -> Workload:
    """Set up the named workload for ``seed``."""
    return WORKLOADS[name](seed)
