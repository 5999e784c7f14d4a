"""Capacity planning: the minimal fleet that meets an SLA.

Given a workload scenario and an SLA requirement, sweep candidate
deployments — number of tracks, cart-pool size, scheduling policy —
and return the cheapest candidate whose simulated run satisfies the
requirement.  Every candidate gets an evaluation, and every evaluation
is the DES's own answer, not a model's; but no fleet is simulated
twice.  Candidates that differ only in cart pool form a *ladder*,
climbed from its smallest pool.  A run whose pool granted every
cart-token request at once (:attr:`ControlPlane.pool_waits` is 0) is
the run of every larger pool in its ladder, so those candidates take
its evaluation with only ``cart_pool`` replaced.  That is exact: the
pool is a plain :class:`~repro.sim.resources.Resource`, which grants,
pushes and numbers events the same way at any capacity it never
fills, and the only other reader of the pool, the cache's eviction
balancer, reads its queue length, which stays 0.  A run that queued
sends the climb on to the next pool.

Ladders are evaluated through :func:`repro.core.chunks.map_chunks`, so
a plan can fan out across a process pool; virtual-time determinism
guarantees the serial and parallel engines return the *same* plan,
which the test suite pins.
The parallelism here is *across* candidate fleets (each one a small
independent run); to put every core on a single large fleet instead,
shard that run with :func:`repro.fleet.shard.run_sharded` — see
``docs/scaling.md`` for when each axis applies.

"Cheapest" is lexicographic in capital cost: fewest tracks first (a
tube is civil engineering), then fewest carts (each cart is a full SSD
array), then policy order as given.  The planner reports every
evaluated candidate so the feasibility frontier is inspectable, not
just the winner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from ..core.chunks import map_chunks
from ..errors import ConfigurationError
from ..units import assert_positive
from .cache import CacheConfig
from .controlplane import (
    FleetReport,
    FleetScenario,
    POLICIES,
    _bind_jobs,
    _FleetJob,
    build_plane,
)


@dataclass(frozen=True)
class SlaRequirement:
    """What the fleet must deliver to be feasible."""

    max_p99_s: float
    max_miss_rate: float = 0.05

    def __post_init__(self) -> None:
        assert_positive("max_p99_s", self.max_p99_s)
        if not 0.0 <= self.max_miss_rate <= 1.0:
            raise ConfigurationError(
                f"max_miss_rate must be within [0, 1], got {self.max_miss_rate}"
            )


@dataclass(frozen=True)
class CandidateEvaluation:
    """One swept deployment and its measured service."""

    n_tracks: int
    cart_pool: int
    policy: str
    cache_policy: str
    p99_s: float
    deadline_miss_rate: float
    launches: int
    launch_energy_j: float
    feasible: bool


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of a capacity sweep."""

    requirement: SlaRequirement
    evaluations: tuple[CandidateEvaluation, ...]
    best: CandidateEvaluation | None
    """The minimal feasible deployment, or None if nothing qualified."""
    simulated: int
    """Fleets actually simulated; the other evaluations were reused
    from a smaller pool of their ladder that never queued."""

    @property
    def feasible(self) -> tuple[CandidateEvaluation, ...]:
        return tuple(e for e in self.evaluations if e.feasible)


def _evaluate(scenario: FleetScenario, requirement: SlaRequirement,
              report: FleetReport) -> CandidateEvaluation:
    feasible = (
        report.p99_s <= requirement.max_p99_s
        and report.deadline_miss_rate <= requirement.max_miss_rate
    )
    return CandidateEvaluation(
        n_tracks=scenario.spec.n_tracks,
        cart_pool=scenario.spec.cart_pool,
        policy=scenario.policy,
        cache_policy=scenario.cache_label,
        p99_s=report.p99_s,
        deadline_miss_rate=report.deadline_miss_rate,
        launches=report.launches,
        launch_energy_j=report.launch_energy_j,
        feasible=feasible,
    )


def _climb(
    ladder: tuple[FleetScenario, ...],
    requirement: SlaRequirement,
    jobs: tuple[_FleetJob, ...],
) -> tuple[tuple[CandidateEvaluation, ...], int]:
    """Evaluate one ladder, pools ascending, and count the fleets run.

    Each pool is simulated until one run never queues for a cart; the
    pools above it reuse that run's evaluation.
    """
    evaluations: list[CandidateEvaluation] = []
    for rung, scenario in enumerate(ladder, start=1):
        plane = build_plane(scenario)
        evaluation = _evaluate(scenario, requirement, plane.run(jobs))
        evaluations.append(evaluation)
        if plane.pool_waits == 0:
            evaluations.extend(
                replace(evaluation, cart_pool=larger.spec.cart_pool)
                for larger in ladder[rung:]
            )
            return tuple(evaluations), rung
    return tuple(evaluations), len(ladder)


def _ladder_chunk(
    chunk: tuple[tuple[FleetScenario, ...], ...],
    requirement: SlaRequirement,
    jobs: tuple[_FleetJob, ...],
) -> tuple[tuple[tuple[CandidateEvaluation, ...], int], ...]:
    """``map_chunks`` worker: climb a slice of the grid's ladders."""
    return tuple(_climb(ladder, requirement, jobs) for ladder in chunk)


def _ladders(scenarios: tuple[FleetScenario, ...]) -> tuple[tuple[int, ...], ...]:
    """Grid indices grouped into ladders: candidates that differ only in
    cart pool, pools ascending (the grid's own order)."""
    ladders: dict[tuple[int, str, str], list[int]] = {}
    for index, scenario in enumerate(scenarios):
        key = (scenario.spec.n_tracks, scenario.policy, scenario.cache_label)
        ladders.setdefault(key, []).append(index)
    return tuple(tuple(indices) for indices in ladders.values())


def _cache_for_label(base: FleetScenario, label: str) -> CacheConfig | None:
    """The cache config a candidate-grid label denotes."""
    if label == "none":
        return None
    if label == base.cache_label:
        return base.cache  # preserve base sizing, not just the policy
    return CacheConfig(policy=label)


def candidate_scenarios(
    base: FleetScenario,
    n_tracks_options: tuple[int, ...] = (1, 2, 3),
    cart_pool_options: tuple[int, ...] = (4, 6, 8),
    policies: tuple[str, ...] = ("fcfs", "edf"),
    cache_options: tuple[str, ...] | None = None,
) -> tuple[FleetScenario, ...]:
    """The candidate grid in increasing-cost order.

    ``cache_options`` optionally adds a rack-cache axis: a tuple of
    cache-policy labels (``"none"`` for no cache, else an eviction
    policy name).  ``None`` — the default — keeps the base scenario's
    cache on every candidate, which is the pre-existing behaviour.
    """
    if not n_tracks_options or not cart_pool_options or not policies:
        raise ConfigurationError("the candidate grid must not be empty")
    if cache_options is not None and not cache_options:
        raise ConfigurationError("cache_options must be None or non-empty")
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
    scenarios = []
    for n_tracks in sorted(set(n_tracks_options)):
        for cart_pool in sorted(set(cart_pool_options)):
            if cart_pool < n_tracks:
                continue  # FleetSpec requires a cart per rail
            for policy in policies:
                for cache_label in cache_options or (None,):
                    candidate = replace(
                        base,
                        spec=replace(base.spec, n_tracks=n_tracks,
                                     cart_pool=cart_pool),
                        policy=policy,
                    )
                    if cache_label is not None:
                        candidate = replace(
                            candidate,
                            cache=_cache_for_label(base, cache_label),
                        )
                    scenarios.append(candidate)
    if not scenarios:
        raise ConfigurationError(
            "no viable candidates: every cart_pool option is smaller than "
            "its track count"
        )
    return tuple(scenarios)


def plan_capacity(
    requirement: SlaRequirement,
    base: FleetScenario,
    n_tracks_options: tuple[int, ...] = (1, 2, 3),
    cart_pool_options: tuple[int, ...] = (4, 6, 8),
    policies: tuple[str, ...] = ("fcfs", "edf"),
    cache_options: tuple[str, ...] | None = None,
    engine: str = "serial",
    workers: int | None = None,
) -> CapacityPlan:
    """Evaluate the whole candidate grid and pick the minimal feasible fleet.

    ``evaluations`` is the full feasibility frontier capacity studies
    plot, in grid order; ``best`` is the first feasible candidate in
    increasing-cost order.  Each evaluation equals
    ``run_fleet(candidate)``: the binding reads only the seed, traffic
    classes, horizon, catalog and SLA targets, which no candidate
    changes, and a candidate whose pool is larger than one that never
    queued takes that run's evaluation (the module docstring says why
    this is exact).  ``simulated`` counts the fleets that ran.
    """
    scenarios = candidate_scenarios(base, n_tracks_options,
                                    cart_pool_options, policies,
                                    cache_options)
    ladders = _ladders(scenarios)
    # No run mutates a bound job, so the candidates share one tuple.
    jobs = tuple(_bind_jobs(base))
    chunk_fn = functools.partial(_ladder_chunk, requirement=requirement,
                                 jobs=jobs)
    climbs = map_chunks(
        chunk_fn,
        (tuple(scenarios[index] for index in ladder) for ladder in ladders),
        engine=engine, workers=workers,
    )
    evaluations: list[CandidateEvaluation | None] = [None] * len(scenarios)
    for ladder, (rungs, _) in zip(ladders, climbs):
        for index, evaluation in zip(ladder, rungs):
            evaluations[index] = evaluation
    best = next((e for e in evaluations if e.feasible), None)
    return CapacityPlan(
        requirement=requirement,
        evaluations=tuple(evaluations),
        best=best,
        simulated=sum(simulated for _, simulated in climbs),
    )
