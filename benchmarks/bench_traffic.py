"""Benchmarks of the trace-driven demand layer.

Times synthesis, both codecs and open-loop replay on the bench-sized
day slice, and asserts the layer's structural invariants: codec
round-trip identity, the chunk cap on records bound ahead, and the
admission bound on simultaneously-live jobs.  Throughput (events/s)
lands in ``extra_info``; the full bench pipeline is gated by ``repro
traffic --check BENCH_traffic.json``.
"""

import io

import pytest

from repro.traffic.bench import (
    DEFAULT_REQUESTS,
    bench_scenario,
    in_system_bound,
)
from repro.traffic.codec import (
    BinaryTraceWriter,
    JsonlTraceWriter,
    read_binary_header,
    read_binary_records,
)
from repro.traffic.replay import ReplayConfig, replay_fleet
from repro.traffic.synth import default_spec, expected_records, synthesise, trace_header

HORIZON_S = 3600.0


def _bench_spec(requests=DEFAULT_REQUESTS):
    base = default_spec(seed=0, horizon_s=HORIZON_S, rate_scale=1.0)
    scale = requests / expected_records(base)
    return default_spec(seed=0, horizon_s=HORIZON_S, rate_scale=scale)


def test_synthesis_throughput(benchmark):
    """Records synthesised per second of wall time."""
    spec = _bench_spec()
    records = benchmark(lambda: sum(1 for _ in synthesise(spec)))
    benchmark.extra_info["n_records"] = records
    assert records > 0


@pytest.mark.parametrize("fmt", ["bin", "jsonl"])
def test_codec_encode_throughput(benchmark, fmt):
    """Encode throughput of each codec over the bench trace."""
    spec = _bench_spec()
    header = trace_header(spec)
    trace = list(synthesise(spec))

    def encode():
        if fmt == "bin":
            writer = BinaryTraceWriter(io.BytesIO(), header)
        else:
            writer = JsonlTraceWriter(io.StringIO(), header)
        for record in trace:
            writer.write(record)
        return writer.count

    count = benchmark(encode)
    benchmark.extra_info["n_records"] = count
    assert count == len(trace)


def test_replay_throughput(benchmark):
    """Open-loop replay throughput into the shedding fleet."""
    spec = _bench_spec()
    header = trace_header(spec)
    encoded = io.BytesIO()
    writer = BinaryTraceWriter(encoded, header)
    for record in synthesise(spec):
        writer.write(record)
    scenario = bench_scenario(spec, HORIZON_S)

    def replay():
        encoded.seek(0)
        decoded = read_binary_header(encoded)
        return replay_fleet(
            scenario,
            read_binary_records(encoded, decoded),
            config=ReplayConfig(),
            header=decoded,
        )

    result = benchmark(replay)
    benchmark.extra_info["events_per_s"] = round(
        result.n_records / max(result.wall_s, 1e-9)
    )
    assert result.peak_pending <= result.config.chunk_records
    assert result.peak_in_system <= in_system_bound(scenario)
