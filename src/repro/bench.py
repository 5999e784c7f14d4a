"""The bench registry: how a named bench is run, rendered, written and gated.

Six benches write committed ``BENCH_<name>.json`` baselines.  Four of
them (``fleet``, ``chaos``, ``traffic``, ``shard``) are
seeded virtual-time simulations, so one comparator,
:func:`compare`, gates them all: every baseline leaf must reappear in
the fresh payload, numbers within ``rel_tol`` and everything else
exactly.  The two wall-clock benches (``sweep``, ``engine``) keep their
own floor/ratio comparators, because timings cannot be held to
``rel_tol``.

:func:`run` is the one path the CLI drives every bench through.  With
``--check`` it reads the baseline and never writes it: the fresh
payload is written only to an explicit ``--bench-out``, and one that
resolves to the checked file is refused.

Each entry imports its bench module lazily, so importing this module
pulls in no simulator code, and bench modules never import it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from typing import Callable, Mapping

Payload = Mapping[str, object]

#: Keys the comparator never walks: host context, machine-dependent
#: skip records, and the shard digests (whose serial/process agreement
#: the ``serial_process_identical`` invariant already gates).
#: ``invariants`` are checked for truth on each side instead.
EXEMPT_KEYS = frozenset({"environment", "skipped", "identity", "invariants"})


def environment_info() -> dict[str, object]:
    """The hardware/software context a baseline was measured under."""
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write(payload: Payload, path: str) -> str:
    """Write a bench payload as canonical JSON and return the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load(path: str) -> dict[str, object]:
    """Read a bench baseline."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(payload: Payload, baseline: Payload,
            rel_tol: float = 1e-6) -> list[str]:
    """Regression messages from gating a fresh payload on a baseline.

    Walks the baseline's keys: numbers must match within ``rel_tol``
    (relative and absolute), mappings are walked recursively, anything
    else must be equal.  A baseline key missing from the fresh payload
    is flagged.  Keys in :data:`EXEMPT_KEYS` or ending in
    ``_informational`` are skipped; the ``invariants`` must all hold on
    each side.
    """
    problems = [
        f"invariant failed in {side}: {name}"
        for side, doc in (("fresh run", payload), ("baseline", baseline))
        for name, ok in dict(doc.get("invariants", {})).items()
        if not ok
    ]
    _walk("", payload, baseline, rel_tol, problems)
    return problems


def _walk(prefix: str, fresh: Payload, base: Payload, rel_tol: float,
          problems: list[str]) -> None:
    for key, base_value in base.items():
        if key in EXEMPT_KEYS or key.endswith("_informational"):
            continue
        path = prefix + key
        if key not in fresh:
            problems.append(f"{path}: missing from fresh run")
            continue
        fresh_value = fresh[key]
        if isinstance(base_value, Mapping) and isinstance(fresh_value, Mapping):
            _walk(path + ".", fresh_value, base_value, rel_tol, problems)
        elif _is_number(base_value) and _is_number(fresh_value):
            if not math.isclose(fresh_value, base_value, rel_tol=rel_tol,
                                abs_tol=rel_tol):
                problems.append(
                    f"{path}: {fresh_value} drifted from baseline {base_value}"
                )
        elif fresh_value != base_value:
            problems.append(
                f"{path}: {fresh_value!r} != baseline {base_value!r}"
            )


def _failed_invariants(payload: Payload) -> list[str]:
    return [
        f"invariant violated: {name}"
        for name, ok in dict(payload.get("invariants", {})).items()
        if not ok
    ]


@dataclass(frozen=True)
class Bench:
    """One registered bench.

    ``run`` runs the bench from CLI arguments, prints its tables and
    returns the payload; ``failures`` names what makes a fresh run fail
    on its own; ``gate`` compares it with a baseline.
    """

    label: str
    run: Callable[[argparse.Namespace], dict[str, object]]
    failures: Callable[[Payload], list[str]] = _failed_invariants
    gate: Callable[[Payload, Payload], list[str]] = compare


def run(name: str, args: argparse.Namespace) -> int:
    """Run, render, write and gate bench ``name``; returns the exit status."""
    bench = BENCHES[name]
    out = args.bench_out or (None if args.check else f"BENCH_{name}.json")
    if out and args.check and (
        os.path.realpath(out) == os.path.realpath(args.check)
    ):
        print(f"error: --bench-out {out} is the --check baseline; a gate "
              "never overwrites what it checks", file=sys.stderr)
        return 2
    payload = {**bench.run(args), "environment": environment_info()}
    if out:
        print(f"\nwrote {bench.label} to {write(payload, out)}")
    failures = bench.failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if not args.check:
        return 0
    problems = bench.gate(payload, load(args.check))
    for problem in problems:
        print(f"REGRESSION: {problem}")
    if problems:
        return 1
    print(f"no regression against {args.check}")
    return 0


# -- entries: each imports its bench lazily and renders its own tables --------


def _table(table: tuple[list[str], list[list[object]]], title: str) -> None:
    from .analysis.formatting import render_table

    print(render_table(*table, title=title))


def _sweep(args: argparse.Namespace) -> dict[str, object]:
    from .analysis import perf

    report = perf.run_bench(
        n_points=args.points or perf.DEFAULT_POINTS,
        repeats=args.repeats or perf.DEFAULT_REPEATS,
    )
    _table(perf.bench_table(report),
           f"Sweep-engine bench ({report.n_points} points)")
    return perf.report_payload(report)


def _sweep_gate(payload: Payload, baseline: Payload) -> list[str]:
    from .analysis import perf

    return perf.compare_to_baseline(payload, baseline)


def _engine(args: argparse.Namespace) -> dict[str, object]:
    from .sim import bench as engine_bench

    report = engine_bench.run_engine_bench(
        repeats=args.repeats or engine_bench.DEFAULT_REPEATS,
        scale=args.scale,
    )
    _table(engine_bench.bench_table(report),
           "DES engine bench (optimised vs reference)")
    scenario = dict(report.scenario)
    if "events_per_sec" in scenario:
        print(f"\ndhlsim scenario {scenario['name']}: "
              f"{scenario['events_per_sec']:,.0f} events/s "
              f"({scenario['events']} events, informational)")
    return engine_bench.report_payload(report)


def _engine_gate(payload: Payload, baseline: Payload) -> list[str]:
    from .sim import bench as engine_bench

    return engine_bench.compare_to_baseline(payload, baseline)


def _fleet(args: argparse.Namespace) -> dict[str, object]:
    from .analysis.fleetview import fleet_policy_table, fleet_sla_table
    from .fleet import bench as fleet_bench

    bench = fleet_bench.run_fleet_bench(seed=args.seed, horizon_s=args.horizon)
    _table(fleet_policy_table(bench),
           f"Fleet policy comparison (seed {bench.seed}, "
           f"{bench.horizon_s:.0f} s horizon)")
    print()
    _table(fleet_sla_table(bench.report("edf+lru")), "Per-class SLA (edf+lru)")
    return fleet_bench.report_payload(bench)


def _chaos(args: argparse.Namespace) -> dict[str, object]:
    from .analysis.fleetview import chaos_mode_table, lane_health_table
    from .chaos import bench as chaos_bench

    bench = chaos_bench.run_chaos_bench(seed=args.seed, horizon_s=args.horizon)
    campaign = chaos_bench.default_campaign(seed=args.seed)
    _table(campaign.table(),
           f"Chaos campaign '{campaign.name}' (seed {args.seed})")
    print()
    _table(chaos_mode_table(bench),
           f"Graceful degradation (seed {bench.seed}, "
           f"{bench.horizon_s:.0f} s horizon)")
    print()
    _table(lane_health_table(bench.report("hardened")),
           "Lane health after the storm (hardened)")
    return chaos_bench.report_payload(bench)


def _traffic(args: argparse.Namespace) -> dict[str, object]:
    from .analysis.fleetview import traffic_synthesis_table, traffic_tenant_table
    from .traffic import bench as traffic_bench

    bench = traffic_bench.run_traffic_bench(
        seed=args.seed,
        horizon_s=args.horizon,
        requests=args.requests or traffic_bench.DEFAULT_REQUESTS,
    )
    result = bench.result
    _table(traffic_synthesis_table(bench),
           f"Synthesised demand (seed {bench.seed}, "
           f"{bench.horizon_s:.0f} s horizon, "
           f"{bench.trace_bytes / 1e6:.1f} MB binary trace)")
    print()
    _table(traffic_tenant_table(result), "Per-tenant SLA (replay)")
    print(f"\nsynthesis: {bench.n_records} records in "
          f"{bench.synth_wall_s:.2f} s "
          f"({bench.n_records / max(bench.synth_wall_s, 1e-9):,.0f} events/s)")
    print(f"replay: {result.n_records} records in {result.wall_s:.2f} s "
          f"({result.n_records / max(result.wall_s, 1e-9):,.0f} events/s), "
          f"peak {result.fleet.peak_in_system} live jobs "
          f"(bound {bench.in_system_bound}), {result.peak_pending} decoded "
          f"ahead (cap {result.config.max_pending})")
    return traffic_bench.report_payload(bench)


def _shard(args: argparse.Namespace) -> dict[str, object]:
    from .analysis.fleetview import shard_pod_table, shard_timing_table
    from .fleet import shardbench

    bench = shardbench.run_shard_bench(
        seed=args.seed, horizon_s=args.horizon, workers=args.workers
    )
    payload = shardbench.report_payload(bench)
    _table(shard_pod_table(bench.serial),
           f"Shard bench ({bench.plan.n_pods} pods over "
           f"{bench.plan.scenario.spec.n_tracks} tracks, "
           f"W={bench.plan.window_s:g} s, {bench.serial.epochs} input "
           "windows)")
    print()
    _table(shard_timing_table(payload), "Engine timings (informational)")
    print(f"\nserial sha256 {bench.serial_digest[:16]}.., process "
          f"sha256 {bench.process_digest[:16]}.., identical: {bench.identical}")
    for name, reason in dict(payload["skipped"]).items():
        print(f"{name} invariant skipped: {reason}")
    return payload


def _sweep_failures(payload: Payload) -> list[str]:
    if payload["identical_results"]:
        return []
    return ["batch sweep disagrees with the scalar reports"]


def _engine_failures(payload: Payload) -> list[str]:
    gate = dict(payload["gate"])
    if gate["passed"]:
        return []
    return [f"{gate['workload']} speedup {gate['speedup']:.2f}x is below "
            f"the {gate['floor']:.1f}x gate"]


#: Every named bench; ``run`` writes ``BENCH_<name>.json`` by default.
BENCHES: dict[str, Bench] = {
    "sweep": Bench("perf baseline", _sweep, _sweep_failures, _sweep_gate),
    "engine": Bench("engine perf baseline", _engine, _engine_failures,
                    _engine_gate),
    "fleet": Bench("fleet KPI baseline", _fleet),
    "chaos": Bench("chaos KPI baseline", _chaos),
    "traffic": Bench("traffic KPI baseline", _traffic),
    "shard": Bench("shard baseline", _shard),
}
