"""Bench for the fault-tolerance extension: chaos campaigns vs theory.

Sweeps track failure rates over seeded chaos campaigns and asserts the
DES-measured slowdown tracks the closed-form availability model
(``repro.core.availability``), the reliability analogue of how
``repro.core.model`` anchors the fault-free simulator.
"""

from conftest import assert_close, record_comparison
from repro.core.params import DhlParams
from repro.dhlsim import (
    ChaosSpec,
    DhlApi,
    DhlSystem,
    ShuttlePolicy,
    install_chaos,
)
from repro.sim import Environment
from repro.storage.datasets import synthetic_dataset
from repro.units import TB

POLICY = ShuttlePolicy(
    max_attempts=20, base_backoff_s=0.5, backoff_factor=2.0,
    max_backoff_s=4.0, jitter_frac=0.25,
)


def run_campaign(spec, shards=120):
    env = Environment()
    system = DhlSystem(env, params=DhlParams(), parity_drives=4,
                       shuttle_policy=POLICY)
    dataset = synthetic_dataset(shards * 200 * TB, name="bench-chaos")
    system.load_dataset(dataset)
    handles = install_chaos(system, spec) if spec is not None else None
    api = DhlApi(system)
    report = env.run(until=api.bulk_transfer(dataset, read_payload=False))
    return system, report, handles


def test_availability_sweep_matches_model(benchmark):
    """Harsher failure rates: measured slowdown follows A = MTTF/(MTTF+MTTR)."""

    def sweep():
        results = {}
        baseline_system, baseline, _ = run_campaign(None)
        params = DhlParams()
        per_shuttle = (
            params.undock_time
            + baseline_system.tracks[0].travel_time(0, 1)
            + params.dock_time
        )
        for mttf in (1200.0, 600.0, 400.0):
            spec = ChaosSpec(
                track_mttf_s=mttf, track_mttr_s=60.0,
                stall_prob=0.05, stall_time_s=5.0, stall_abort_prob=0.2,
                seed=11, distribution="fixed",
            )
            system, report, handles = run_campaign(spec)
            model = handles.availability_model(per_shuttle)
            results[mttf] = {
                "availability": model.availability,
                "predicted_slowdown": model.slowdown,
                "measured_slowdown": (
                    baseline.effective_bandwidth / report.effective_bandwidth
                ),
                "leaks": sum(
                    abs(v) for v in system.leaked_resources().values()
                ),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for mttf, row in results.items():
        record_comparison(
            benchmark, f"slowdown_mttf_{mttf:.0f}",
            row["predicted_slowdown"], row["measured_slowdown"],
        )
        assert_close(
            row["measured_slowdown"], row["predicted_slowdown"], 0.10,
            f"slowdown at MTTF {mttf:.0f}s",
        )
        assert row["leaks"] == 0
    # Monotone: shorter MTTF, bigger slowdown.
    slowdowns = [results[m]["measured_slowdown"] for m in (1200.0, 600.0, 400.0)]
    assert slowdowns == sorted(slowdowns)


def test_retry_overhead_is_bounded(benchmark):
    """Backoff waste: retries must not dominate the outage cost itself."""

    def campaign():
        spec = ChaosSpec(
            track_mttf_s=400.0, track_mttr_s=60.0, seed=7,
            distribution="fixed",
        )
        return run_campaign(spec)

    system, report, handles = benchmark.pedantic(campaign, rounds=1, iterations=1)
    downtime = system.metrics.value("duration_s.track_downtime")
    # The campaign stretches by roughly the downtime it overlapped, not
    # by a large multiple of it (retries are cheap; launches are not).
    _, baseline, _ = run_campaign(None)
    stretch = report.elapsed_s - baseline.elapsed_s
    record_comparison(benchmark, "stretch_vs_downtime", 1.0, stretch / downtime)
    assert 0.25 <= stretch / downtime <= 2.0
    assert system.metrics.value("count.shuttle_retries") > 0
