"""Command-line interface: print any reproduced table or figure.

Usage::

    python -m repro table6
    python -m repro fig6
    python -m repro all
    dhl-repro table7a          # via the console script
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Sequence

from .bench import BENCHES, run as run_bench

#: name -> (title, generator).  Every generator lives in :mod:`repro.analysis`
#: except ``sensitivity``'s; each is imported only when its table is printed.
_TABLES: dict[str, tuple[str, str]] = {
    "intro": ("Section I/II-C motivating numbers", "analysis:intro_example"),
    "table1": ("Table I: large emerging datasets", "analysis:table1"),
    "table2": ("Table II: storage solutions", "analysis:table2"),
    "table3": ("Table III: networking power", "analysis:table3"),
    "fig2": ("Figure 2: 29 PB route energies", "analysis:fig2_table"),
    "table4": ("Table IV: large ML models", "analysis:table4"),
    "table5": ("Table V: DHL parameters", "analysis:table5"),
    "table6": ("Table VI: design-space exploration", "analysis:table6"),
    "table7a": ("Table VII(a): iso-power comparison", "analysis:table7a"),
    "table7b": ("Table VII(b): iso-time comparison", "analysis:table7b"),
    "table8a": ("Table VIII(a): rail cost", "analysis:table8a"),
    "table8b": ("Table VIII(b): LIM cost", "analysis:table8b"),
    "table8c": ("Table VIII(c): total cost", "analysis:table8c"),
    "breakeven": ("Section V-E: minimum specifications", "analysis:breakeven_summary"),
    "sneakernet": ("Extension: friction-limited baselines", "analysis:sneakernet_table"),
    "hybrid": ("Extension: hybrid routing policies", "analysis:hybrid_policy_table"),
    "engineering": ("Extension: Section VI feasibility checks", "analysis:engineering_table"),
    "multistop": ("Extension: multi-stop contention vs speed", "analysis:multistop_table"),
    "reliability": ("Extension: fault tolerance vs availability model",
                    "analysis:reliability_table"),
    "reuse": ("Extension: dataset-reuse economics", "analysis:reuse_table"),
    "sensitivity": ("Extension: parameter elasticities",
                    "core.sensitivity:sensitivity_table"),
}


def _generator(name: str) -> Callable[[], tuple[list[str], list[list[object]]]]:
    """The table generator registered under ``name``."""
    module, _, attribute = _TABLES[name][1].partition(":")
    return getattr(importlib.import_module(f".{module}", __package__), attribute)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhl-repro",
        description=(
            "Reproduce tables and figures from 'The Case For Data Centre "
            "Hyperloops' (ISCA 2024)."
        ),
    )
    choices = list(_TABLES) + ["fig6", "validate", "export", "trace", "bench",
                               "fleet", "chaos", "replicate", "traffic",
                               "all"]
    parser.add_argument(
        "artefact",
        choices=choices,
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--scenario",
        default="bulk-faults",
        help="trace: named scenario to run (bulk, bulk-faults, bulk-failover)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="trace: dataset shards (one cart each) in the campaign "
             "(default 4); fleet: run the scenario sharded into N pods "
             "via the multi-process co-simulator",
    )
    parser.add_argument(
        "--interpod-latency",
        type=float,
        default=5.0,
        help="fleet --shards: forwarding latency between pods in simulated "
             "seconds (also the width of each pod's input windows)",
    )
    parser.add_argument(
        "--shard-engine",
        choices=("serial", "process"),
        default="process",
        help="fleet --shards: run the pods in-process or on a process "
             "pool (results are byte-identical either way)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="trace: seed for the scenario's fault cocktail and retries",
    )
    parser.add_argument(
        "--trace-out",
        default="trace.json",
        help="trace: output path for the Perfetto/Chrome trace JSON",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        help="trace: also write a structured JSONL event log here",
    )
    parser.add_argument(
        "--max-tracks",
        type=int,
        default=4,
        help="fig6: DHL tracks per curve (larger is slower)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="validate: skip the minute-long ML-simulation checks",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="export: output directory for CSV/JSON artefacts",
    )
    parser.add_argument(
        "--mode",
        choices=tuple(BENCHES),
        default="sweep",
        help="bench: which registered bench to run ('sweep' times the "
             "batch design-point sweep against the scalar loop, 'engine' "
             "the DES core against the "
             "frozen reference, 'shard' the sharded co-simulation; the "
             "others are the artefacts of the same name)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=None,
        help="bench: minimum number of design points in the sweep grid",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="bench engine mode: workload iteration-count multiplier",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="bench: timing repeats per timed path (best run is reported)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool workers for bench --mode shard, fleet "
             "--capacity and --shards, and replicate (the sweep and engine "
             "benches run in-process)",
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        help="bench and bench artefacts: output path for the payload JSON "
             "(default BENCH_<name>.json; with --check nothing is written "
             "unless this is given, and never to the checked file)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="bench and bench artefacts: gate the fresh run against a "
             "committed baseline (read only) and exit 1 on regression",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="export: include the slow Table VII and Fig. 6 artefacts",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=3600.0,
        help="fleet: workload horizon in simulated seconds",
    )
    parser.add_argument(
        "--capacity",
        action="store_true",
        help="fleet: also run the capacity planner over the candidate grid",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=8,
        help="replicate: number of consecutive seeds, starting at --seed",
    )
    parser.add_argument(
        "--engine",
        choices=("serial", "process", "both"),
        default="both",
        help="replicate: evaluation engine; 'both' also verifies the "
             "serial and process reports are byte-identical",
    )
    parser.add_argument(
        "--policy",
        default="edf",
        help="replicate: fleet scheduling policy (fcfs, sjf, edf)",
    )
    parser.add_argument(
        "--cache",
        default="lru",
        help="replicate: rack cache policy (lru, lfu, size, none)",
    )
    parser.add_argument(
        "--replicate-out",
        default="REPLICATE_fleet.json",
        help="replicate: output path for the deterministic report JSON",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="traffic: approximate request count the synthesised trace "
             "targets over the horizon",
    )
    return parser


def _capacity_plan(args: argparse.Namespace) -> int:
    """``repro fleet --capacity``: the planner over the candidate grid."""
    from .analysis.fleetview import capacity_table
    from .analysis.formatting import render_table
    from .fleet.capacity import SlaRequirement, plan_capacity
    from .fleet.controlplane import default_scenario

    plan = plan_capacity(
        SlaRequirement(max_p99_s=300.0, max_miss_rate=0.05),
        default_scenario(policy="fcfs", cache="lru", seed=args.seed,
                         horizon_s=min(args.horizon, 1800.0)),
        engine="process" if args.workers else "serial",
        workers=args.workers,
    )
    print()
    print(render_table(*capacity_table(plan), title="Capacity plan"))
    print(f"simulated {plan.simulated} of {len(plan.evaluations)} candidates")
    if plan.best is None:
        print("FAIL: no candidate met the SLA requirement")
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: render the requested artefact(s) to stdout."""
    args = build_parser().parse_args(argv)
    from .analysis.formatting import render_table

    if args.artefact == "fig6":
        from .analysis.figures import figure6_ascii
        from .mlsim.analysis import figure6_series

        print(figure6_ascii(figure6_series(max_tracks=args.max_tracks)))
        return 0
    if args.artefact == "export":
        from .analysis.export import export_tables

        written = export_tables(
            args.out, include_slow=args.full, include_fig6=args.full
        )
        for path in written:
            print(path)
        print(f"wrote {len(written)} artefacts to {args.out}/")
        return 0
    if args.artefact == "validate":
        from .analysis.validation import run_validation

        suite = run_validation(include_simulation=not args.fast)
        headers = ["Section", "Check", "Paper", "Measured", "Dev", "Status"]
        print(render_table(headers, suite.rows(),
                           title="Paper-vs-measured validation"))
        if suite.all_passed:
            print(f"\nAll {len(suite.checks)} checks passed.")
            return 0
        print(f"\n{len(suite.failures)} of {len(suite.checks)} checks FAILED.")
        return 1
    if args.artefact == "trace":
        import json

        # Lazy: scenarios import the whole simulator stack.
        from .obs.export import event_log, to_chrome_trace, validate_chrome_trace
        from .obs.scenarios import run_scenario

        result = run_scenario(
            args.scenario,
            shards=args.shards if args.shards is not None else 4,
            seed=args.seed,
        )
        payload = to_chrome_trace(result.tracer)
        validate_chrome_trace(payload)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print(f"scenario {result.name}: {result.report.shards_moved} shards, "
              f"makespan {result.makespan_s:.1f} s, "
              f"{result.report.launches} launches")
        print(f"wrote {len(payload['traceEvents'])} trace events to "
              f"{args.trace_out} (load in https://ui.perfetto.dev)")
        if args.events_out:
            events = event_log(result.tracer)
            with open(args.events_out, "w", encoding="utf-8") as handle:
                for entry in events:
                    handle.write(json.dumps(entry))
                    handle.write("\n")
            print(f"wrote {len(events)} log records to {args.events_out}")
        snapshot = result.system.metrics.snapshot()
        for name in sorted(snapshot):
            if name.startswith("count."):
                print(f"  {name} = {snapshot[name]['value']:g}")
        return 0
    if args.artefact == "fleet" and args.shards:
        # Lazy: a sharded run builds one control plane per pod.
        from .analysis.fleetview import fleet_sla_table, shard_pod_table
        from .fleet.controlplane import default_scenario
        from .fleet.shard import ShardPlan, run_sharded, signature_digest

        plan = ShardPlan(
            scenario=default_scenario(seed=args.seed, horizon_s=args.horizon),
            n_pods=args.shards,
            interpod_latency_s=args.interpod_latency,
        )
        report = run_sharded(
            plan, engine=args.shard_engine, workers=args.workers
        )
        headers, rows = shard_pod_table(report)
        print(render_table(
            headers, rows,
            title=f"Sharded fleet ({plan.n_pods} pods, "
                  f"W={plan.window_s:g} s, engine {report.engine} x "
                  f"{report.workers} workers)",
        ))
        print()
        headers, rows = fleet_sla_table(report.fleet)
        print(render_table(headers, rows, title="Merged per-class SLA"))
        print(f"\n{report.epochs} input windows (most in any pod), "
              f"{report.forwarded} cross-pod forwards, "
              f"{sum(report.remote_outcomes.values())} remote outcomes, "
              f"signature {signature_digest(report.fleet)[:16]}.., "
              f"{report.wall_s:.2f} s wall")
        return 0
    if args.artefact == "bench" or args.artefact in BENCHES:
        name = args.mode if args.artefact == "bench" else args.artefact
        status = run_bench(name, args)
        if status == 0 and name == "fleet" and args.capacity:
            status = _capacity_plan(args)
        return status
    if args.artefact == "replicate":
        # Lazy: replication drives the full fleet simulator per seed.
        from .fleet.controlplane import default_scenario
        from .fleet.montecarlo import montecarlo_payload, replicate_fleet
        from .sim.replicate import render_payload, replicate_table

        cache = None if args.cache == "none" else args.cache
        scenario = default_scenario(policy=args.policy, cache=cache,
                                    seed=args.seed, horizon_s=args.horizon)
        seeds = range(args.seed, args.seed + args.replications)
        engines = (("serial", "process") if args.engine == "both"
                   else (args.engine,))
        rendered: dict[str, str] = {}
        result = None
        for engine in engines:
            result = replicate_fleet(scenario, seeds=seeds, engine=engine,
                                     workers=args.workers)
            rendered[engine] = render_payload(
                montecarlo_payload(scenario, result)
            )
            print(f"{engine}: {len(result.seeds)} replications in "
                  f"{result.wall_s:.2f} s wall")
        headers, rows = replicate_table(result)
        print()
        print(render_table(
            headers, rows,
            title=f"Fleet Monte-Carlo ({args.policy}+{scenario.cache_label}, "
                  f"seeds {seeds.start}..{seeds.stop - 1}, "
                  f"{scenario.horizon_s:.0f} s horizon)",
        ))
        if len(rendered) == 2 and rendered["serial"] != rendered["process"]:
            print("FAIL: serial and process reports are not byte-identical")
            return 1
        if len(rendered) == 2:
            print("\nserial and process reports are byte-identical")
        with open(args.replicate_out, "w", encoding="utf-8") as handle:
            handle.write(rendered[engines[0]])
        print(f"wrote replication report to {args.replicate_out}")
        return 0
    if args.artefact == "all":
        for name, (title, _) in _TABLES.items():
            print(render_table(*_generator(name)(), title=f"[{name}] {title}"))
            print()
        return 0
    print(render_table(*_generator(args.artefact)(), title=_TABLES[args.artefact][0]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
