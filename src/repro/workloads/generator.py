"""Synthetic bulk-transfer workload generation.

The paper motivates DHLs with a mix of transfer classes: PB-scale ML
dataset shipments, multi-PB backups, and ordinary transfers that should
stay on the network.  This module generates seeded, reproducible
streams of such requests so the routing-policy and service studies have
realistic offered load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError
from ..units import GB, PB, TB, assert_positive


@dataclass(frozen=True)
class TransferJob:
    """One bulk-transfer request."""

    job_id: int
    arrival_s: float
    size_bytes: float
    kind: str

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigurationError("arrival must be >= 0")
        assert_positive("size_bytes", self.size_bytes)


@dataclass(frozen=True)
class TrafficClass:
    """A class of transfers: arrival rate plus a lognormal size model.

    ``median_bytes`` and ``sigma`` parameterise the lognormal; sigma of
    0.5-1.0 gives the heavy-but-not-absurd tails measured for data
    centre bulk traffic.
    """

    name: str
    rate_per_hour: float
    median_bytes: float
    sigma: float = 0.7

    def __post_init__(self) -> None:
        assert_positive("rate_per_hour", self.rate_per_hour)
        assert_positive("median_bytes", self.median_bytes)
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")


#: A plausible mixed day at a data centre, scaled from the paper's
#: motivating applications (Table I rates, Section II-D).
DEFAULT_MIX = (
    TrafficClass("small-sync", rate_per_hour=40.0, median_bytes=20 * GB),
    TrafficClass("dataset-shard", rate_per_hour=6.0, median_bytes=30 * TB),
    TrafficClass("ml-dataset", rate_per_hour=0.5, median_bytes=2 * PB),
    TrafficClass("bulk-backup", rate_per_hour=0.25, median_bytes=5 * PB),
)


@dataclass
class WorkloadGenerator:
    """Seeded Poisson-superposition generator over traffic classes."""

    classes: tuple[TrafficClass, ...] = DEFAULT_MIX
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError("at least one traffic class is required")
        self._rng = np.random.default_rng(self.seed)

    def generate(self, horizon_s: float) -> list[TransferJob]:
        """All jobs arriving within ``horizon_s``, sorted by arrival."""
        assert_positive("horizon_s", horizon_s)
        # One ``(arrival, size, kind)`` row per job, as Python floats
        # straight from ``tolist()``; a stable sort by arrival keeps the
        # class order for ties, and each job is built once, numbered.
        rows: list[tuple[float, float, str]] = []
        for traffic_class in self.classes:
            rate_per_s = traffic_class.rate_per_hour / 3600.0
            expected = rate_per_s * horizon_s
            count = int(self._rng.poisson(expected))
            arrivals = np.sort(self._rng.uniform(0.0, horizon_s, size=count))
            sizes = self._rng.lognormal(
                mean=np.log(traffic_class.median_bytes),
                sigma=traffic_class.sigma,
                size=count,
            )
            rows.extend(zip(arrivals.tolist(), sizes.tolist(),
                            repeat(traffic_class.name)))
        rows.sort(key=itemgetter(0))
        return [
            TransferJob(index, arrival_s, size_bytes, kind)
            for index, (arrival_s, size_bytes, kind) in enumerate(rows)
        ]

    def stream(self, horizon_s: float) -> Iterator[TransferJob]:
        return iter(self.generate(horizon_s))


def stream_fingerprint(
    seed: int,
    horizon_s: float,
    classes: tuple[TrafficClass, ...] = DEFAULT_MIX,
) -> bytes:
    """A byte-exact encoding of the seeded job stream.

    Every job's fields are packed with their exact float bit patterns,
    so two streams compare equal iff they are identical to the last bit.
    This is the determinism contract the fleet capacity planner relies
    on when process-pool workers re-generate offered load from a seed:
    the stream a worker sees must be *the* stream, not a statistically
    similar one.  Module-level and argument-only, so it is picklable
    into :func:`repro.core.chunks.map_chunks` workers.
    """
    generator = WorkloadGenerator(classes=classes, seed=seed)
    parts: list[bytes] = []
    for job in generator.generate(horizon_s):
        kind = job.kind.encode("utf-8")
        parts.append(
            struct.pack("<qddq", job.job_id, job.arrival_s, job.size_bytes, len(kind))
        )
        parts.append(kind)
    return b"".join(parts)


def _fingerprint_chunk(chunk: tuple[tuple[int, float], ...]) -> tuple[bytes, ...]:
    """``map_chunks`` worker: fingerprint each ``(seed, horizon_s)`` item."""
    return tuple(stream_fingerprint(seed, horizon_s) for seed, horizon_s in chunk)


def total_offered_bytes(jobs: list[TransferJob]) -> float:
    """Aggregate size of a job list."""
    return sum(job.size_bytes for job in jobs)


def jobs_by_kind(jobs: list[TransferJob]) -> dict[str, list[TransferJob]]:
    """Group a job list by traffic class."""
    grouped: dict[str, list[TransferJob]] = {}
    for job in jobs:
        grouped.setdefault(job.kind, []).append(job)
    return grouped
