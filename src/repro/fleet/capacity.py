"""Capacity planning: the minimal fleet that meets an SLA.

Given a workload scenario and an SLA requirement, sweep candidate
deployments — number of tracks, cart-pool size, scheduling policy —
and return the cheapest candidate whose simulated run satisfies the
requirement.  The sweep is exhaustive: every candidate is simulated, so
the plan is the DES's own answer, not a model's.  Candidates are
evaluated through :func:`repro.core.chunks.map_chunks`, so a plan can
fan out across a process pool; virtual-time determinism guarantees
the serial and parallel engines return the *same* plan, which the test
suite pins.
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
from .controlplane import FleetScenario, POLICIES, run_fleet


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

    @property
    def feasible(self) -> tuple[CandidateEvaluation, ...]:
        return tuple(e for e in self.evaluations if e.feasible)


def _evaluate(scenario: FleetScenario,
              requirement: SlaRequirement) -> CandidateEvaluation:
    report = run_fleet(scenario)
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


def _candidate_chunk(
    chunk: tuple[FleetScenario, ...],
    requirement: SlaRequirement,
) -> tuple[CandidateEvaluation, ...]:
    """``map_chunks`` worker: evaluate a slice of the candidate grid."""
    return tuple(_evaluate(scenario, requirement) for scenario in chunk)


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
    """Sweep the whole candidate grid and pick the minimal feasible fleet.

    Every candidate is simulated, so ``evaluations`` is the full
    feasibility frontier capacity studies plot; ``best`` is the first
    feasible candidate in increasing-cost order.
    """
    scenarios = candidate_scenarios(base, n_tracks_options,
                                    cart_pool_options, policies,
                                    cache_options)
    chunk_fn = functools.partial(_candidate_chunk, requirement=requirement)
    evaluations = map_chunks(chunk_fn, scenarios, engine=engine, workers=workers)
    best = next((e for e in evaluations if e.feasible), None)
    return CapacityPlan(
        requirement=requirement,
        evaluations=evaluations,
        best=best,
    )
