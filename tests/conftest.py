"""Suite-wide pytest/hypothesis configuration.

Two hypothesis profiles keep the stateful fuzzers honest without
blowing up CI wall time:

``ci`` (default)
    derandomized and bounded — every run replays the same example
    schedule, so a red fuzz job is reproducible from the log alone;
``long``
    the nightly soak: more examples and longer rule sequences, opted
    into with ``HYPOTHESIS_PROFILE=long`` (the ``long_fuzz``-marked
    tests additionally gate on ``REPRO_LONG_FUZZ=1``).
"""

import importlib
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "long",
    max_examples=200,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


# -- committed-shape bench runs, shared by per-bench and registry tests ----


def _committed_bench(name: str, module: str):
    """A session fixture running ``run_<name>_bench()`` once at the shape
    of its committed ``BENCH_<name>.json``; the per-bench tests and
    ``tests/test_bench_registry.py`` share that one run."""

    @pytest.fixture(scope="session", name=f"{name}_bench")
    def fixture():
        return getattr(importlib.import_module(module), f"run_{name}_bench")()

    return fixture


fleet_bench = _committed_bench("fleet", "repro.fleet.bench")
chaos_bench = _committed_bench("chaos", "repro.chaos.bench")
traffic_bench = _committed_bench("traffic", "repro.traffic.bench")
shard_bench = _committed_bench("shard", "repro.fleet.shardbench")
