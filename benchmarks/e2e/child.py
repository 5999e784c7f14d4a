"""One fresh benchmark process: a cold, warm or traced run of one workload.

``run.py`` starts this script once per measurement, so every run pays its
own interpreter start, imports and input synthesis, and prints one JSON
object on its last line of output.  The set-up clock starts at the first
statement below, before anything imports ``repro``.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

import workloads  # noqa: E402

#: Steps of the calibration loop: about 0.08 s on the 2-core build host.
CALIBRATION_STEPS = 1_000_000


def calibration_s() -> float:
    """Seconds this host now takes for a fixed pure-Python arithmetic loop.

    The loop is benchmark code, the same on every commit, so its time
    measures only how fast the host runs Python at the moment.  The driver
    uses it to scale timings to a reference host speed.  Of the kernels
    tried on a contended 2-core host, this interpreter-bound loop with a
    tiny working set followed the simulator's slowdowns most closely; an
    event-loop kernel with thousands of live generators over-reacted to
    cache contention.
    """
    started = time.perf_counter()
    total = 0
    for step in range(CALIBRATION_STEPS):
        total += step * step % 7
    return time.perf_counter() - started


def _peak_rss_mib() -> float:
    """Largest resident set of this process and of its waited-for children."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def run_cold(name: str, seed: int) -> dict:
    """Set up, run and verify one iteration: what one user invocation costs."""
    workload = workloads.build(name, seed)
    setup_s = time.perf_counter() - T0
    outputs = workload.iterate()
    # The driver checks the digest; the cold clock covers rendering it.
    cold_s = time.perf_counter() - T0
    return {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "offered_jobs": workload.offered_jobs,
        "outputs": [asdict(outputs)],
        "calibration_s": calibration_s(),
    }


def run_warm(name: str, seed: int, iterations: int) -> dict:
    """Set up once, then time ``iterations`` iterations."""
    workload = workloads.build(name, seed)
    times: list[float] = []
    outputs: list[dict] = []
    for _ in range(iterations):
        gc.collect()
        started = time.perf_counter()
        result = workload.iterate()
        times.append(time.perf_counter() - started)
        outputs.append(asdict(result))
    return {
        "offered_jobs": workload.offered_jobs,
        "iteration_s": times,
        "outputs": outputs,
        "peak_rss_mb": _peak_rss_mib(),
        "calibration_s": calibration_s(),
    }


def run_traced(name: str, seed: int, untraced_s: float,
               trace_out: str | None = None) -> dict:
    """Set up and run one iteration with every layer wrapped in spans."""
    import spans

    recorder = spans.SpanRecorder()
    with spans.traced(recorder) as missing:
        with recorder.span("bench.setup"):
            workload = workloads.build(name, seed)
        gc.collect()
        started = time.perf_counter()
        with recorder.span("bench.iteration"):
            outputs = workload.iterate()
        traced_s = time.perf_counter() - started
    metrics = spans.layer_metrics(
        recorder, workload.offered_jobs, traced_s, untraced_s, missing
    )
    if trace_out:
        spans.write_chrome_trace(recorder, trace_out, {
            "workload": name, "seed": seed, "missing": missing,
            "per_layer": metrics,
        })
    return {
        "offered_jobs": workload.offered_jobs,
        "outputs": [asdict(outputs)],
        "traced_s": traced_s,
        "per_layer": metrics,
        "missing": missing,
    }


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("cold", "warm", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--untraced-s", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.role == "cold":
        result = run_cold(args.workload, args.seed)
    elif args.role == "warm":
        result = run_warm(args.workload, args.seed, args.iterations)
    else:
        result = run_traced(args.workload, args.seed, args.untraced_s,
                            args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
