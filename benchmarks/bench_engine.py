"""Engine fast-path benches: the gated workload and a dhlsim scenario.

The committed ``BENCH_engine.json`` pins the DES-core optimisation as an
invariant: >=2x events/sec over the frozen reference engine on the
mixed microbenchmark.  These benches re-measure the gated workload and
the dhlsim shuttle scenario under pytest-benchmark; the committed
baseline itself is gated by ``repro bench --mode engine --check``.
"""

from repro.sim.bench import (
    GATE_FLOOR,
    GATE_WORKLOAD,
    OPTIMISED,
    REFERENCE,
    WORKLOADS,
    _best_of,
)


def test_microbench_gate(benchmark):
    """The gated workload: optimised engine timed, speedup recorded."""
    fn, n = WORKLOADS[GATE_WORKLOAD]

    benchmark(lambda: fn(OPTIMISED, n))
    # The gate ratio is timed explicitly (best of 3 interleaved rounds,
    # gc paused) so it also holds under --benchmark-disable runs.
    (events, optimised_s), (reference_events, reference_s) = _best_of(
        [lambda: fn(OPTIMISED, n), lambda: fn(REFERENCE, n)], 3
    )

    assert events == reference_events, "engines disagree on event counts"
    speedup = reference_s / optimised_s
    benchmark.extra_info["events_per_sec"] = round(events / optimised_s, 1)
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 3)
    assert speedup >= GATE_FLOOR, (
        f"{GATE_WORKLOAD} speedup {speedup:.2f}x fell below the "
        f"{GATE_FLOOR:.1f}x gate"
    )


def test_dhlsim_shuttle_scenario(benchmark):
    """Events/sec of a full dhlsim bulk campaign on the optimised engine."""
    from repro.dhlsim import DhlApi, DhlSystem
    from repro.sim import Environment
    from repro.storage import synthetic_dataset
    from repro.units import TB

    def run():
        env = Environment()
        system = DhlSystem(env, stations_per_rack=2)
        dataset = synthetic_dataset(6 * 256 * TB, name="bench")
        system.load_dataset(dataset)
        api = DhlApi(system)
        env.run(until=api.bulk_transfer(dataset))
        return env._eid

    events = benchmark(run)
    assert events == 212  # the pinned bulk-campaign schedule
    if benchmark.stats is not None:
        benchmark.extra_info["events_per_sec"] = round(
            events / benchmark.stats.stats.min, 1
        )
