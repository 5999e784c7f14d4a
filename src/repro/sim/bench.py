"""Engine benchmarking: the ``repro bench --mode engine`` artefact.

The PR that introduced this module rewrote the hot paths of
:mod:`repro.sim.engine`; :mod:`repro.sim.reference` keeps the seed
engine frozen.  This bench runs the same workloads on both, reports
events/sec each, and pins the speedup as a committed invariant in
``BENCH_engine.json`` — the same machine-portable regression-gate
pattern as ``BENCH_sweep.json``.  Speedups are ratios of two runs on
the *same* machine, so the gate transfers across hardware even though
absolute events/sec do not.  The two engines are timed in alternating
rounds, so a burst of host load hits both sides of a ratio alike.

The gated number is the ``microbench`` workload — the mixed primitive
loop (two already-processed-event resumes plus one timeout per
iteration) that exercises exactly the paths the optimisation targeted —
which must stay at or above :data:`GATE_FLOOR` (2x).  Per-workload
floors carry margin below their measured speedups so run-to-run jitter
does not flag false regressions.

One further section, ``scenario``, is informational: events/sec of a
full dhlsim bulk campaign on the optimised engine (the reference engine
cannot drive dhlsim, whose components type-check against the real
classes).  The bench times the engine only; the Monte-Carlo harness's
serial/process identity is checked by ``repro replicate --engine both``.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..errors import ConfigurationError
from . import engine as _engine
from . import reference as _reference
from . import resources as _resources

SCHEMA = "repro-bench-engine/1"

DEFAULT_REPEATS: int = 5
"""Timing repeats per (workload, engine); the best run is reported."""

GATE_WORKLOAD = "microbench"
GATE_FLOOR: float = 2.0
"""The PR's headline invariant: >=2x events/sec on the microbenchmark."""

#: Minimum accepted optimised/reference speedup per workload.  Measured
#: speedups on the recording machine sit comfortably above these; the
#: floors leave ~15-25% headroom for cross-machine and run-to-run noise.
SPEEDUP_FLOORS: dict[str, float] = {
    "microbench": GATE_FLOOR,
    "resume": 2.2,
    "ticker": 1.6,
    "contention": 1.3,
    "chain": 1.3,
    "store": 1.3,
    "cancel": 1.1,
}


@dataclass(frozen=True)
class _EngineKit:
    """One engine implementation: the classes a workload needs."""

    name: str
    Environment: type
    Resource: type
    Store: type


OPTIMISED = _EngineKit(
    "optimised", _engine.Environment, _resources.Resource, _resources.Store
)
REFERENCE = _EngineKit(
    "reference", _reference.Environment, _reference.Resource, _reference.Store
)


# -- workloads ---------------------------------------------------------------
#
# Each workload builds a fresh environment from the kit, runs it to
# completion, and returns the environment's schedule counter — the
# number of events that went through the queue.  The optimised and
# reference engines schedule event-for-event identically (the parity
# tests assert this), so the counter is a fair events/sec numerator for
# both.


def _wl_microbench(kit: _EngineKit, n: int) -> int:
    """The gated mixed loop: 2 processed-event resumes + 1 timeout."""
    env = kit.Environment()
    ready = env.event()
    ready.succeed("token")

    def proc():
        for _ in range(n):
            yield ready
            yield ready
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    return env._eid


def _wl_resume(kit: _EngineKit, n: int) -> int:
    """Nothing but already-processed yields: the shim path, isolated."""
    env = kit.Environment()
    ready = env.event()
    ready.succeed(None)

    def proc():
        for _ in range(n):
            yield ready

    finished = env.process(proc())
    env.run(until=finished)
    return env._eid


def _wl_ticker(kit: _EngineKit, n: int) -> int:
    """Two interleaved timeout loops: the heap scheduling path."""
    env = kit.Environment()

    def ticker(step: float):
        for _ in range(n):
            yield env.timeout(step)

    env.process(ticker(1.0))
    env.process(ticker(1.5))
    env.run()
    return env._eid


def _wl_chain(kit: _EngineKit, n: int) -> int:
    """Spawn/wait/return chains: process lifecycle churn."""
    env = kit.Environment()

    def leaf(depth: int):
        yield env.timeout(1.0)
        return depth

    def chain():
        total = 0
        for depth in range(n):
            total += yield env.process(leaf(depth))
        return total

    finished = env.process(chain())
    env.run(until=finished)
    return env._eid


def _wl_contention(kit: _EngineKit, n: int) -> int:
    """Many workers on a capacity-2 resource: the tube pattern."""
    env = kit.Environment()
    resource = kit.Resource(env, capacity=2)

    def worker():
        with resource.request() as claim:
            yield claim
            yield env.timeout(1.0)

    for _ in range(n):
        env.process(worker())
    env.run()
    return env._eid


def _wl_store(kit: _EngineKit, n: int) -> int:
    """Producer/consumer hand-off through a Store: the delivery pattern."""
    env = kit.Environment()
    store = kit.Store(env)

    def producer():
        for item in range(n):
            yield store.put(item)
            yield env.timeout(0.001)

    def consumer():
        for _ in range(n):
            yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    return env._eid


def _wl_cancel(kit: _EngineKit, n: int) -> int:
    """Race winners cancelling losers: the lazy-delete/compaction path."""
    env = kit.Environment()

    def racer():
        for _ in range(n):
            losers = [env.timeout(10.0) for _ in range(10)]
            yield env.timeout(0.001)
            for loser in losers:
                loser.cancel()

    finished = env.process(racer())
    env.run(until=finished)
    return env._eid


#: name -> (workload fn, iteration count at scale=1.0), gate first.
WORKLOADS: dict[str, tuple[Callable[[_EngineKit, int], int], int]] = {
    "microbench": (_wl_microbench, 20_000),
    "resume": (_wl_resume, 30_000),
    "ticker": (_wl_ticker, 10_000),
    "chain": (_wl_chain, 3_000),
    "contention": (_wl_contention, 2_000),
    "store": (_wl_store, 4_000),
    "cancel": (_wl_cancel, 1_500),
}


# -- timing ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadResult:
    """Best-of-N timings of one workload on both engines."""

    name: str
    iterations: int
    events: int
    optimised_s: float
    reference_s: float
    events_identical: bool

    @property
    def optimised_events_per_sec(self) -> float:
        return self.events / self.optimised_s

    @property
    def reference_events_per_sec(self) -> float:
        return self.events / self.reference_s

    @property
    def speedup(self) -> float:
        return self.reference_s / self.optimised_s


@dataclass(frozen=True)
class EngineBenchReport:
    """Outcome of one engine bench: per-workload timings plus the scenario."""

    repeats: int
    scale: float
    results: tuple[WorkloadResult, ...]
    scenario: Mapping[str, object]

    def result(self, name: str) -> WorkloadResult:
        for entry in self.results:
            if entry.name == name:
                return entry
        raise ConfigurationError(f"workload {name!r} was not benched")

    @property
    def gate_speedup(self) -> float:
        return self.result(GATE_WORKLOAD).speedup

    @property
    def gate_passed(self) -> bool:
        return self.gate_speedup >= GATE_FLOOR

    @property
    def all_events_identical(self) -> bool:
        return all(entry.events_identical for entry in self.results)


def _best_of(
    fns: Sequence[Callable[[], int]], repeats: int
) -> list[tuple[int, float]]:
    """(result, best wall-clock) of each function over ``repeats`` rounds.

    Every round runs each function once, in order, so timings that are
    compared with each other see the same host load; gc is paused.
    """
    best = [math.inf] * len(fns)
    values = [0] * len(fns)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for index, fn in enumerate(fns):
                started = time.perf_counter()
                values[index] = fn()
                best[index] = min(best[index], time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return list(zip(values, best))


def _time_scenario(repeats: int) -> dict[str, object]:
    """Informational: events/sec of a dhlsim bulk campaign (optimised)."""
    # Lazy import: dhlsim pulls the whole operational simulator in.
    from ..dhlsim import DhlApi, DhlSystem
    from ..storage import synthetic_dataset
    from ..units import TB

    def run() -> int:
        env = _engine.Environment()
        system = DhlSystem(env, stations_per_rack=2)
        dataset = synthetic_dataset(6 * 256 * TB, name="bench")
        system.load_dataset(dataset)
        api = DhlApi(system)
        env.run(until=api.bulk_transfer(dataset))
        return env._eid

    [(events, best_s)] = _best_of([run], repeats)
    return {
        "name": "dhlsim-bulk-6-carts",
        "events": events,
        "best_s": round(best_s, 6),
        "events_per_sec": round(events / best_s, 1),
    }


def run_engine_bench(
    repeats: int = DEFAULT_REPEATS,
    scale: float = 1.0,
    include_scenario: bool = True,
) -> EngineBenchReport:
    """Time every workload on both engines; best run of each counts.

    ``scale`` multiplies every workload's iteration count (tests use a
    small fraction); the committed baseline uses 1.0.
    """
    if repeats <= 0:
        raise ConfigurationError("repeats must be >= 1")
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    results: list[WorkloadResult] = []
    for name, (fn, base_n) in WORKLOADS.items():
        n = max(1, int(base_n * scale))
        (opt_events, opt_s), (ref_events, ref_s) = _best_of(
            [lambda: fn(OPTIMISED, n), lambda: fn(REFERENCE, n)], repeats
        )
        results.append(WorkloadResult(
            name=name,
            iterations=n,
            events=opt_events,
            optimised_s=opt_s,
            reference_s=ref_s,
            events_identical=opt_events == ref_events,
        ))
    scenario = _time_scenario(repeats) if include_scenario else {"skipped": "disabled"}
    return EngineBenchReport(
        repeats=repeats,
        scale=scale,
        results=tuple(results),
        scenario=scenario,
    )


# -- reporting ---------------------------------------------------------------


def report_payload(report: EngineBenchReport) -> dict[str, object]:
    """The JSON-serialisable form of a bench report (``BENCH_engine.json``)."""
    return {
        "schema": SCHEMA,
        "repeats": report.repeats,
        "scale": report.scale,
        "gate": {
            "workload": GATE_WORKLOAD,
            "floor": GATE_FLOOR,
            "speedup": round(report.gate_speedup, 3),
            "passed": report.gate_passed,
        },
        "events_identical": report.all_events_identical,
        "workloads": {
            entry.name: {
                "iterations": entry.iterations,
                "events": entry.events,
                "optimised_s": round(entry.optimised_s, 6),
                "reference_s": round(entry.reference_s, 6),
                "optimised_events_per_sec": round(entry.optimised_events_per_sec, 1),
                "reference_events_per_sec": round(entry.reference_events_per_sec, 1),
                "speedup": round(entry.speedup, 3),
                "floor": SPEEDUP_FLOORS[entry.name],
            }
            for entry in report.results
        },
        "scenario": dict(report.scenario),
    }


def compare_to_baseline(
    payload: Mapping[str, object],
    baseline: Mapping[str, object],
    ratio_floor: float = 0.6,
) -> list[str]:
    """Regression messages from comparing a fresh bench to a baseline.

    Absolute events/sec are machine-dependent; speedups are same-machine
    ratios, so both sides are held to the committed floors directly.
    The fresh per-workload speedups must additionally stay above
    ``ratio_floor`` of the baseline's — a collapse of relative
    performance flags a regression even where a floor still passes.
    """
    problems: list[str] = []
    for side, report in (("fresh", payload), ("baseline", baseline)):
        gate = dict(report.get("gate", {}))
        if not gate.get("passed", False):
            problems.append(
                f"{side} gate failed: {GATE_WORKLOAD} speedup "
                f"{gate.get('speedup')}x is below the {GATE_FLOOR:.1f}x floor"
            )
        if not report.get("events_identical", False):
            problems.append(
                f"{side} engines no longer schedule identical event counts"
            )
    fresh_workloads = dict(payload.get("workloads", {}))
    base_workloads = dict(baseline.get("workloads", {}))
    for name, base_entry in base_workloads.items():
        floor = float(dict(base_entry).get("floor", 0.0))
        base_speedup = float(dict(base_entry).get("speedup", 0.0))
        if base_speedup < floor:
            problems.append(
                f"baseline {name} speedup {base_speedup:.2f}x is below its "
                f"{floor:.1f}x floor"
            )
        fresh_entry = fresh_workloads.get(name)
        if fresh_entry is None:
            problems.append(f"workload {name!r} missing from fresh run")
            continue
        fresh_speedup = float(dict(fresh_entry).get("speedup", 0.0))
        if fresh_speedup < floor:
            problems.append(
                f"{name} speedup {fresh_speedup:.2f}x is below its "
                f"{floor:.1f}x floor"
            )
        if base_speedup and fresh_speedup < base_speedup * ratio_floor:
            problems.append(
                f"{name} speedup {fresh_speedup:.2f}x regressed below "
                f"{ratio_floor:.0%} of the baseline's {base_speedup:.2f}x"
            )
    return problems


def bench_table(report: EngineBenchReport) -> tuple[list[str], list[list[object]]]:
    """Headers and rows for the CLI rendering of an engine bench."""
    headers = [
        "Workload", "Events", "Optimised ev/s", "Reference ev/s",
        "Speedup", "Floor",
    ]
    rows: list[list[object]] = []
    for entry in report.results:
        rows.append([
            entry.name + (" (gate)" if entry.name == GATE_WORKLOAD else ""),
            entry.events,
            f"{entry.optimised_events_per_sec:,.0f}",
            f"{entry.reference_events_per_sec:,.0f}",
            f"{entry.speedup:.2f}x",
            f"{SPEEDUP_FLOORS[entry.name]:.1f}x",
        ])
    return headers, rows
