"""Table generators for the extension studies beyond the paper's tables.

These cover the claims the paper makes in prose (Sections II-C, II-D3,
VI, VII-B) without giving a table: friction-limited baselines, the
engineering feasibility checks, multi-stop contention, and recurring
training-reuse savings.
"""

from __future__ import annotations

from ..baselines.sneakernet import (
    HUMAN_PORTER,
    SNOWMOBILE_TRUCK,
    plan_sneakernet,
)
from ..core.engineering import (
    assess_cart_thermals,
    assess_safety,
    connector_wear,
)
from ..core.model import plan_campaign
from ..core.params import DhlParams
from ..dhlsim.multistop import speed_contention_sweep
from ..mlsim.epochs import reuse_study
from ..network.routes import ROUTE_B
from ..storage.devices import SABRENT_ROCKET_4_PLUS_8TB
from ..units import DAY, GB, HOUR, PB, TB, format_energy, format_time
from ..workloads import (
    AllDhlPolicy,
    AllNetworkPolicy,
    BreakEvenPolicy,
    WorkloadGenerator,
    compare_policies,
)

Rows = tuple[list[str], list[list[object]]]


def sneakernet_table(dataset_bytes: float = 29 * PB,
                     distance_m: float = 500.0) -> Rows:
    """Embodied-movement shoot-out: DHL vs porter vs truck (Sec. VII-B)."""
    headers = ["Mover", "Time", "Energy", "Efficiency (GB/J)", "Labour ($)"]
    dhl = plan_campaign(DhlParams())
    rows: list[list[object]] = [[
        "DHL (default)",
        format_time(dhl.time_s),
        format_energy(dhl.energy_j),
        dhl.dataset.size_bytes / dhl.energy_j / GB,
        "$0",
    ]]
    for carrier in (HUMAN_PORTER, SNOWMOBILE_TRUCK):
        plan = plan_sneakernet(
            dataset_bytes, distance_m, carrier, SABRENT_ROCKET_4_PLUS_8TB
        )
        rows.append([
            carrier.name,
            format_time(plan.time_s),
            format_energy(plan.energy_j),
            plan.efficiency_bytes_per_j / GB,
            f"${plan.labour_cost_usd:,.0f}",
        ])
    return headers, rows


def engineering_table(transfers_per_day: float = 10.0) -> Rows:
    """Section VI feasibility checks at the default design point."""
    params = DhlParams()
    thermal = assess_cart_thermals(params)
    usb = connector_wear(params, transfers_per_day)
    m2 = connector_wear(params, transfers_per_day, connector="m.2")
    safety = assess_safety(params)
    headers = ["Check", "Value", "Verdict"]
    rows: list[list[object]] = [
        [
            "Cart heat (32 SSDs under load)",
            f"{thermal.total_power_w:.0f} W, junction {thermal.junction_c:.0f} C",
            "no throttling" if not thermal.throttles else "THROTTLES",
        ],
        [
            f"USB-C connector at {transfers_per_day:g} transfers/day",
            f"{usb.lifetime_years:.1f} years",
            "ok" if usb.lifetime_days > 365 else "replace early",
        ],
        [
            f"M.2 connector at {transfers_per_day:g} transfers/day",
            f"{m2.lifetime_days:.0f} days",
            "unsuitable (paper agrees)",
        ],
        [
            "Runaway-cart kinetic energy",
            f"{safety.kinetic_energy_j / 1e3:.1f} kJ",
            f"sandbag margin {safety.sandbag_margin:.1f}x",
        ],
    ]
    return headers, rows


def multistop_table(read_tb: float = 1.0) -> Rows:
    """Contention vs top speed on a 3-rack multi-stop DHL (Sec. VI)."""
    sweep = speed_contention_sweep(
        n_requests=10, seed=3, mean_interarrival_s=2.0, read_bytes=read_tb * TB
    )
    headers = ["Top speed (m/s)", "Mean latency (s)", "p95 (s)", "Makespan (s)"]
    rows: list[list[object]] = [
        [f"{speed:g}", report.mean_latency_s, report.p95_latency_s,
         report.makespan_s]
        for speed, report in sorted(sweep.items())
    ]
    return headers, rows


def hybrid_policy_table(horizon_hours: float = 6.0, seed: int = 42) -> Rows:
    """Section III-E as a table: hybrid routing vs the pure strategies."""
    jobs = WorkloadGenerator(seed=seed).generate(horizon_hours * HOUR)
    reports = compare_policies(
        jobs, [AllNetworkPolicy(), AllDhlPolicy(), BreakEvenPolicy()]
    )
    headers = ["Policy", "Energy", "Makespan", "Mean latency", "DHL byte share"]
    rows: list[list[object]] = []
    for name in ("all-network", "all-dhl", "break-even"):
        report = reports[name]
        rows.append([
            name,
            format_energy(report.total_energy_j),
            format_time(report.makespan_s),
            format_time(report.mean_latency_s),
            f"{report.dhl_share:.0%}",
        ])
    return headers, rows


def reliability_table(shards: int = 100, seed: int = 11) -> Rows:
    """Fault-tolerance study: chaos campaigns vs the availability model.

    Each row runs one seeded bulk-transfer campaign under a fault
    cocktail (``repro.dhlsim.reliability``) and compares the
    DES-measured slowdown against the closed-form
    :class:`~repro.core.availability.AvailabilityModel` prediction.
    """
    from ..dhlsim import (
        ChaosSpec,
        DhlApi,
        DhlSystem,
        ShuttlePolicy,
        install_chaos,
    )
    from ..sim import Environment
    from ..storage.datasets import synthetic_dataset

    params = DhlParams()
    policy = ShuttlePolicy(
        max_attempts=20, base_backoff_s=0.5, backoff_factor=2.0,
        max_backoff_s=4.0, jitter_frac=0.25,
    )

    def campaign(spec: ChaosSpec | None):
        env = Environment()
        system = DhlSystem(env, params=params, parity_drives=4,
                           shuttle_policy=policy)
        dataset = synthetic_dataset(shards * 200 * TB, name="reliability")
        system.load_dataset(dataset)
        handles = install_chaos(system, spec) if spec is not None else None
        api = DhlApi(system)
        report = env.run(until=api.bulk_transfer(dataset, read_payload=False))
        return system, report, handles

    baseline_system, baseline, _ = campaign(None)
    per_shuttle = (
        params.undock_time
        + baseline_system.tracks[0].travel_time(0, 1)
        + params.dock_time
    )
    scenarios = [
        ("Stalls only", ChaosSpec(
            stall_prob=0.05, stall_time_s=5.0, seed=seed,
            distribution="fixed",
        )),
        ("Track outages", ChaosSpec(
            track_mttf_s=400.0, track_mttr_s=60.0, seed=seed,
            distribution="fixed",
        )),
        ("Full chaos", ChaosSpec(
            track_mttf_s=400.0, track_mttr_s=60.0,
            stall_prob=0.05, stall_time_s=5.0, stall_abort_prob=0.2,
            drive_failure_prob=0.0005, seed=seed, distribution="fixed",
        )),
    ]
    headers = [
        "Scenario", "Availability", "Slowdown (model)", "Slowdown (DES)",
        "Retries", "Downtime", "Leaked claims",
    ]
    rows: list[list[object]] = [[
        "Fault-free", "100%", "1.00x", "1.00x", 0, format_time(0.0), 0,
    ]]
    for label, spec in scenarios:
        system, report, handles = campaign(spec)
        model = handles.availability_model(per_shuttle)
        measured = baseline.effective_bandwidth / report.effective_bandwidth
        downtime = system.metrics.value("duration_s.track_downtime")
        rows.append([
            label,
            f"{model.availability:.1%}",
            f"{model.slowdown:.2f}x",
            f"{measured:.2f}x",
            int(system.metrics.value("count.shuttle_retries")),
            format_time(downtime),
            sum(abs(v) for v in system.leaked_resources().values()),
        ])
    return headers, rows


def reuse_table(iterations_per_model: int = 1000,
                models_trained: int = 20) -> Rows:
    """Recurring-savings economics of dataset reuse (Sec. II-D3)."""
    study = reuse_study(
        ROUTE_B,
        iterations_per_model=iterations_per_model,
        models_trained=models_trained,
    )
    headers = ["Quantity", "Value"]
    rows: list[list[object]] = [
        ["Iterations per model", iterations_per_model],
        ["Models trained", models_trained],
        [
            "DHL comm energy per model",
            format_energy(study.dhl.total_comm_energy_j),
        ],
        [
            "Route-B comm energy per model (iso-power)",
            format_energy(study.network.total_comm_energy_j),
        ],
        ["DHL capital (materials)", f"${study.dhl_capital_usd:,.0f}"],
        ["Models to amortise capital", f"{study.models_to_amortise:.1f}"],
        ["Total saving over the fleet", f"${study.total_saving_usd:,.0f}"],
        [
            "Network time per model",
            f"{study.network.total_time_s / DAY:.1f} days "
            f"vs DHL {study.dhl.total_time_s / DAY:.1f} days",
        ],
    ]
    return headers, rows
