"""Tracer overhead benchmarks: off, metrics-only, and full spans.

The observability acceptance bar is that *disabled* tracing costs less
than 5% — instrumented call sites pay one attribute check and a shared
null-span object, nothing more.  These benches measure one operational
campaign (a 6-cart pipelined bulk transfer, 12 launches) at each
:class:`~repro.obs.TraceLevel` so the cost of turning capture on is
also visible, plus a raw engine loop with and without an attached
tracer.
"""

from repro.obs import TraceLevel, Tracer
from repro.sim import Environment


def _campaign(tracer=None):
    from repro.dhlsim import DhlApi, DhlSystem
    from repro.storage import synthetic_dataset
    from repro.units import TB

    env = Environment()
    if tracer is not None:
        env.set_tracer(tracer)
    system = DhlSystem(env, stations_per_rack=2, tracer=tracer)
    dataset = synthetic_dataset(6 * 256 * TB, name="bench")
    system.load_dataset(dataset)
    api = DhlApi(system)
    report = env.run(until=api.bulk_transfer(dataset))
    return report.launches


def test_campaign_tracing_off(benchmark):
    """Baseline: instrumented code paths with a disabled tracer."""
    assert benchmark(lambda: _campaign(Tracer(level=TraceLevel.OFF))) == 12


def test_campaign_metrics_only(benchmark):
    """Instants and counter samples captured, spans suppressed."""
    assert benchmark(lambda: _campaign(Tracer(level=TraceLevel.METRICS))) == 12


def test_campaign_full_spans(benchmark):
    """Everything captured: spans, instants, counters, probes."""
    assert benchmark(lambda: _campaign(Tracer(level=TraceLevel.FULL))) == 12


def _engine_loop(env):
    def ticker():
        for _ in range(2000):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    return env.now


def test_engine_untraced(benchmark):
    """Raw engine loop with no tracer attached (the `is None` fast path)."""
    assert benchmark(lambda: _engine_loop(Environment())) == 2000.0


def test_engine_traced_counters(benchmark):
    """Engine loop with an attached tracer counting spawn/resume/fire."""

    def run():
        tracer = Tracer(level=TraceLevel.OFF)
        env = Environment(tracer=tracer)
        result = _engine_loop(env)
        assert tracer.engine_counters["events_fired"] >= 2000
        return result

    assert benchmark(run) == 2000.0
