"""Seeded Monte-Carlo replication: many runs, one confidence interval.

Every simulation in this repo is deterministic given its seed, so a
single run answers "what happens under seed 0" — not "what happens".
This module turns any picklable ``seed -> {metric: value}`` function
into a replicated estimate: it fans the seed list across the
order-preserving :func:`repro.core.chunks.map_chunks` dispatcher
(serial in-process or a ``ProcessPoolExecutor``), then merges the
per-seed outputs into per-metric mean / sample standard deviation /
95% confidence interval / tail percentiles (the percentile rule is
:mod:`repro.core.percentiles`, the repo's single definition).

Determinism is the design constraint: ``map_chunks`` concatenates
chunk results in submission order, the merge is pure arithmetic over
those ordered outputs, and :func:`result_payload` deliberately excludes
everything engine- or machine-dependent (engine name, worker count,
wall time).  The same seed list therefore serialises to byte-identical
reports whichever engine ran it — the invariant
``tests/sim/test_replicate.py`` and the CLI's ``--engine both`` mode
assert.

:mod:`repro.fleet.montecarlo` instantiates this for fleet scenarios.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..core.percentiles import percentiles
from ..core.chunks import map_chunks
from ..errors import ConfigurationError

SCHEMA = "repro-replicate/1"

ENGINES: tuple[str, ...] = ("serial", "process")
"""Engine names accepted by :func:`replicate` (see ``map_chunks``)."""

Z_95 = 1.96
"""Normal z-score for the two-sided 95% confidence interval."""

#: Decimal places every payload float is rounded to.
_PAYLOAD_DIGITS = 6


def _run_chunk(run_one: Callable[[int], Mapping[str, float]],
               chunk: tuple[int, ...]) -> tuple[Mapping[str, float], ...]:
    """Process-pool worker: evaluate one chunk of seeds in order."""
    return tuple(run_one(seed) for seed in chunk)


@dataclass(frozen=True)
class MetricStats:
    """Replication statistics of one metric across all seeds."""

    name: str
    n: int
    mean: float
    std: float
    ci95: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float


def summarise(name: str, samples: Iterable[float]) -> MetricStats:
    """Merge one metric's per-seed samples into a :class:`MetricStats`.

    ``std`` is the sample standard deviation (``ddof=1``; 0.0 for a
    single replication) and ``ci95`` the normal-approximation half-width
    ``1.96 * std / sqrt(n)`` — the error bar a replicated table quotes.
    """
    values = [float(value) for value in samples]
    if not values:
        raise ConfigurationError(f"metric {name!r} has no samples")
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        variance = math.fsum((value - mean) ** 2 for value in values) / (n - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    tails = percentiles(values, (50.0, 95.0, 99.0))
    return MetricStats(
        name=name,
        n=n,
        mean=mean,
        std=std,
        ci95=Z_95 * std / math.sqrt(n),
        p50=tails[50.0],
        p95=tails[95.0],
        p99=tails[99.0],
        minimum=min(values),
        maximum=max(values),
    )


@dataclass(frozen=True)
class ReplicationResult:
    """All per-seed outputs of one replication plus their merged stats."""

    seeds: tuple[int, ...]
    engine: str
    per_seed: tuple[Mapping[str, float], ...]
    stats: tuple[MetricStats, ...]
    wall_s: float

    def stat(self, name: str) -> MetricStats:
        for entry in self.stats:
            if entry.name == name:
                return entry
        raise ConfigurationError(f"metric {name!r} was not replicated")


def replicate(
    run_one: Callable[[int], Mapping[str, float]],
    seeds: Iterable[int],
    engine: str = "serial",
    workers: int | None = None,
) -> ReplicationResult:
    """Run ``run_one`` under every seed and merge the outputs.

    ``run_one`` must be deterministic per seed, return the same metric
    keys for every seed, and — for the ``"process"`` engine — be
    picklable (a module-level function, or ``functools.partial`` over
    one with picklable arguments).
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    seed_list = tuple(int(seed) for seed in seeds)
    if not seed_list:
        raise ConfigurationError("at least one seed is required")
    if len(set(seed_list)) != len(seed_list):
        raise ConfigurationError("replication seeds must be unique")
    started = time.perf_counter()
    outputs = map_chunks(
        functools.partial(_run_chunk, run_one),
        seed_list,
        engine=engine,
        workers=workers,
    )
    wall_s = time.perf_counter() - started
    expected = set(outputs[0])
    if not expected:
        raise ConfigurationError("run_one returned no metrics")
    for seed, output in zip(seed_list, outputs):
        if set(output) != expected:
            raise ConfigurationError(
                f"seed {seed} produced metrics {sorted(output)} but seed "
                f"{seed_list[0]} produced {sorted(expected)}"
            )
    stats = tuple(
        summarise(name, [output[name] for output in outputs])
        for name in sorted(expected)
    )
    return ReplicationResult(
        seeds=seed_list,
        engine=engine,
        per_seed=tuple(dict(output) for output in outputs),
        stats=stats,
        wall_s=wall_s,
    )


# -- deterministic reporting -------------------------------------------------


def result_payload(result: ReplicationResult) -> dict[str, object]:
    """The JSON-serialisable form of a replication.

    Engine name, worker count and wall time are deliberately absent:
    the payload is a function of the seed list alone, so serial and
    process runs of the same seeds serialise byte-identically.
    """
    digits = _PAYLOAD_DIGITS
    return {
        "schema": SCHEMA,
        "n_replications": len(result.seeds),
        "seeds": list(result.seeds),
        "metrics": {
            entry.name: {
                "mean": round(entry.mean, digits),
                "std": round(entry.std, digits),
                "ci95": round(entry.ci95, digits),
                "p50": round(entry.p50, digits),
                "p95": round(entry.p95, digits),
                "p99": round(entry.p99, digits),
                "min": round(entry.minimum, digits),
                "max": round(entry.maximum, digits),
            }
            for entry in result.stats
        },
        "per_seed": [
            {"seed": seed,
             **{name: round(float(value), digits)
                for name, value in sorted(output.items())}}
            for seed, output in zip(result.seeds, result.per_seed)
        ],
    }


def render_payload(payload: Mapping[str, object]) -> str:
    """The canonical byte form of a payload (sorted keys, 2-space indent)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(payload: Mapping[str, object], path: str) -> str:
    """Write a replication payload in canonical form and return the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_payload(payload))
    return path


def replicate_table(result: ReplicationResult) -> tuple[list[str], list[list[object]]]:
    """Headers and rows for the CLI rendering of a replication."""
    headers = ["Metric", "Mean", "±CI95", "Std", "p50", "p95", "Min", "Max"]
    rows: list[list[object]] = []
    for entry in result.stats:
        rows.append([
            entry.name,
            f"{entry.mean:.3f}",
            f"{entry.ci95:.3f}",
            f"{entry.std:.3f}",
            f"{entry.p50:.3f}",
            f"{entry.p95:.3f}",
            f"{entry.minimum:.3f}",
            f"{entry.maximum:.3f}",
        ])
    return headers, rows
