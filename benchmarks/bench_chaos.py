"""Benchmarks of the chaos campaign machinery and the degradation gate.

Times each chaos bench mode and the 500-rule stateful fuzz walk.  The
graceful-degradation invariants (hardened p99 within the pinned bound
of fault-free, naive beyond it) are gated by ``repro chaos --check
BENCH_chaos.json``; wall time lands in ``extra_info`` as context only.
"""

import pytest

from repro.chaos.bench import chaos_scenario
from repro.fleet.controlplane import run_fleet
from repro.testing import DhlApiMachine, random_walk

HORIZON_S = 3600.0


@pytest.mark.parametrize("mode", ["fault_free", "naive", "hardened"])
def test_chaos_mode_throughput(benchmark, mode):
    """Simulation wall time per chaos bench mode."""
    report = benchmark(
        lambda: run_fleet(chaos_scenario(mode, seed=0, horizon_s=HORIZON_S))
    )
    assert report.n_jobs > 0


def test_api_fuzz_walk_throughput(benchmark):
    """Rules per second of the 500-rule deterministic API fuzz walk."""
    machine = benchmark.pedantic(
        lambda: random_walk(DhlApiMachine(seed=0), n_rules=500, seed=0),
        rounds=1,
        iterations=1,
    )
    assert machine.rules >= 500
    benchmark.extra_info["failures_under_chaos"] = machine.failures
    benchmark.extra_info["outages_applied"] = machine.runner.log.outages_applied
