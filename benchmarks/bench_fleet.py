"""Benchmarks of the fleet control plane.

Times the headline policy/cache combos over the seeded one-hour
scenario.  The headline invariants (cache-enabled EDF beats cache-less
FCFS on p99 and launch energy) are gated by ``repro fleet --check
BENCH_fleet.json``; the capacity planner's serial/process agreement is
pinned by ``tests/fleet/test_capacity.py``.
"""

import pytest

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
