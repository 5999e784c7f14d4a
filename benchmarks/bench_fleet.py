"""Benchmarks of the fleet control plane.

Times the headline policy/cache combos over the seeded one-hour
scenario and asserts that the capacity planner returns the same
minimal fleet under the serial and process sweep engines.  The
headline invariants (cache-enabled EDF beats cache-less FCFS on p99
and launch energy) are gated by ``repro fleet --check
BENCH_fleet.json``.
"""

import pytest

from repro.fleet.capacity import SlaRequirement, plan_capacity
from repro.fleet.controlplane import default_scenario, run_fleet

HORIZON_S = 3600.0


def _run(policy, cache):
    return run_fleet(
        default_scenario(policy=policy, cache=cache, seed=0,
                         horizon_s=HORIZON_S)
    )


@pytest.mark.parametrize(
    "policy,cache",
    [("fcfs", None), ("fcfs", "lru"), ("edf", None), ("edf", "lru")],
)
def test_fleet_combo_throughput(benchmark, policy, cache):
    """Simulation wall time per (policy, cache) combo."""
    report = benchmark(_run, policy, cache)
    assert report.n_jobs > 0
    assert report.failed == 0


@pytest.mark.slow
def test_capacity_planner_engine_parity(benchmark):
    """Serial and process sweeps agree on the minimal feasible fleet."""
    requirement = SlaRequirement(max_p99_s=300.0, max_miss_rate=0.05)
    base = default_scenario(policy="fcfs", cache="lru", seed=0,
                            horizon_s=1800.0)
    serial = benchmark(plan_capacity, requirement, base, engine="serial")
    process = plan_capacity(requirement, base, engine="process", workers=2)
    assert serial == process
    assert serial.best is not None
    benchmark.extra_info["plan"] = {
        "n_tracks": serial.best.n_tracks,
        "cart_pool": serial.best.cart_pool,
        "policy": serial.best.policy,
    }
