"""The metrics registry: counters, gauges, histograms, time-weighted values.

One registry per simulated system gathers every scalar the run produces,
keyed by dotted metric names (``count.launches``, ``energy_j.launch``,
``occupancy.tube:track-0``).  The primitives:

* :class:`Counter` — a monotonically increasing total.
* :class:`Gauge` — a level that moves both ways; tracks its peak.
* :class:`Histogram` — sample distribution over fixed bucket bounds.
* :class:`TimeWeightedValue` — a piecewise-constant signal integrated
  against the *virtual* clock.

Snapshots export to a plain dict or CSV so benches and the CLI can
persist a run's metrics next to its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import ConfigurationError, SimulationError

DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, float("inf"),
)
"""Default histogram bucket upper bounds (seconds-flavoured)."""


@dataclass
class Counter:
    """A monotonically increasing total (events, joules, seconds)."""

    name: str
    value: float = 0.0

    def inc(self, by: float = 1.0) -> None:
        """Increase the counter; counters are monotonic by contract."""
        if by < 0:
            raise SimulationError(f"counter {self.name!r} cannot decrease (by={by})")
        self.value += by

    def snapshot(self) -> dict[str, float]:
        """The counter's exportable state."""
        return {"value": self.value}


@dataclass
class Gauge:
    """An instantaneous level that can move both ways; remembers its peak."""

    name: str
    value: float = 0.0
    peak: float = field(init=False)

    def __post_init__(self) -> None:
        self.peak = self.value

    def set(self, value: float) -> None:
        """Set the gauge, tracking the high-water mark."""
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by a signed delta."""
        self.set(self.value + delta)

    def snapshot(self) -> dict[str, float]:
        """The gauge's exportable state (value and peak)."""
        return {"value": self.value, "peak": self.peak}


@dataclass
class Histogram:
    """Sample distribution over fixed upper-bound buckets.

    ``bounds`` are inclusive upper edges and must be strictly
    increasing; a final ``+inf`` bucket is appended when missing so no
    observation is ever dropped.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(init=False)
    n: int = field(init=False, default=0)
    total: float = field(init=False, default=0.0)
    min_value: float = field(init=False, default=float("inf"))
    max_value: float = field(init=False, default=float("-inf"))

    def __post_init__(self) -> None:
        bounds = tuple(self.bounds)
        if not bounds:
            raise ConfigurationError(f"histogram {self.name!r} needs >= 1 bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {self.name!r} bounds must be strictly increasing"
            )
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.bounds = bounds
        self.counts = [0] * len(bounds)

    def observe(self, value: float) -> None:
        """Record one observation into the running stats and buckets."""
        self.n += 1
        self.total += value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return

    @property
    def mean(self) -> float:
        """Mean of all observations; raises if none were recorded."""
        if self.n == 0:
            raise SimulationError(f"histogram {self.name!r} has no observations")
        return self.total / self.n

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper bound of the bucket the
        ``q``-fraction observation falls in (exact min/max at the ends)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.n == 0:
            raise SimulationError(f"histogram {self.name!r} has no observations")
        if q == 0.0:
            return self.min_value
        if q == 1.0:
            return self.max_value
        target = q * self.n
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            if running >= target:
                return min(self.bounds[index], self.max_value)
        return self.max_value

    def snapshot(self) -> dict[str, Any]:
        """The histogram's exportable state (count/sum/extrema/buckets)."""
        return {
            "count": self.n,
            "sum": self.total,
            "min": self.min_value if self.n else None,
            "max": self.max_value if self.n else None,
            "mean": self.mean if self.n else None,
            "buckets": {bound: count for bound, count
                        in zip(self.bounds, self.counts)},
        }


@dataclass
class TimeWeightedValue:
    """A piecewise-constant signal integrated over simulated time.

    ``env`` is any clock with a ``now`` attribute — normally the DES
    :class:`~repro.sim.engine.Environment`.
    """

    env: Any
    value: float = 0.0
    name: str = ""
    _last_change_s: float = field(init=False)
    _integral: float = field(default=0.0, init=False)
    _start_s: float = field(init=False)
    _peak: float = field(init=False)

    def __post_init__(self) -> None:
        self._last_change_s = self.env.now
        self._start_s = self.env.now
        self._peak = self.value

    def set(self, new_value: float) -> None:
        """Record a level change at the current simulation time."""
        self._accumulate()
        self.value = new_value
        self._peak = max(self._peak, new_value)

    def add(self, delta: float) -> None:
        """Adjust the value by a signed delta at the current clock time."""
        self.set(self.value + delta)

    def _accumulate(self) -> None:
        now = self.env.now
        if now < self._last_change_s:
            raise SimulationError("simulation clock went backwards")
        self._integral += self.value * (now - self._last_change_s)
        self._last_change_s = now

    def time_average(self) -> float:
        """Mean level from creation until now."""
        self._accumulate()
        elapsed = self.env.now - self._start_s
        if elapsed <= 0:
            raise SimulationError("no simulated time has elapsed")
        return self._integral / elapsed

    @property
    def peak(self) -> float:
        """Highest value the monitored level has reached."""
        return self._peak

    def snapshot(self) -> dict[str, float | None]:
        """The time-weighted value's exportable state."""
        elapsed = self.env.now - self._start_s
        return {
            "value": self.value,
            "peak": self._peak,
            "time_average": self.time_average() if elapsed > 0 else None,
        }


@dataclass
class UtilisationMonitor:
    """Tracks a Resource's busy fraction by wrapping request/release.

    ``resource`` is any :class:`~repro.sim.resources.Resource`-shaped
    object (``env``, ``count``, ``capacity``, ``request``/``_release``).
    """

    resource: Any
    _level: TimeWeightedValue = field(init=False)

    def __post_init__(self) -> None:
        self._level = TimeWeightedValue(self.resource.env, value=self.resource.count)
        original_request = self.resource.request
        original_release = self.resource._release
        monitor = self

        def tracked_request(*args, **kwargs):
            """Wrapped ``request`` that samples the level on grant."""
            request = original_request(*args, **kwargs)

            def on_grant(_event):
                """Sample the level once the pending claim is granted."""
                monitor._level.set(monitor.resource.count)

            if request.triggered:
                monitor._level.set(monitor.resource.count)
            else:
                request.callbacks.append(on_grant)
            return request

        def tracked_release(request) -> None:
            """Wrapped ``release`` that samples the level afterwards."""
            original_release(request)
            monitor._level.set(monitor.resource.count)

        self.resource.request = tracked_request  # type: ignore[method-assign]
        self.resource._release = tracked_release  # type: ignore[method-assign]

    def utilisation(self) -> float:
        """Time-averaged occupancy as a fraction of capacity."""
        return self._level.time_average() / self.resource.capacity

    @property
    def peak_in_use(self) -> float:
        """Most slots ever simultaneously claimed."""
        return self._level.peak


class MetricsRegistry:
    """One namespace of metrics for a simulated system.

    Metrics are created on first access (``counter(name)`` etc.) and a
    name is permanently bound to its first type — asking for the same
    name as a different kind raises, which catches typo'd categories at
    the call site instead of silently forking the series.
    """

    def __init__(self, clock: Any = None):
        self._clock = clock
        self._metrics: dict[str, Any] = {}

    def attach_clock(self, clock: Any) -> None:
        """Attach the virtual clock time-weighted metrics sample against."""
        self._clock = clock

    def _get(self, name: str, kind: type, factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the named monotonic counter."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def time_weighted(self, name: str, initial: float = 0.0) -> TimeWeightedValue:
        """Get or create the named time-weighted value (needs a clock)."""
        if self._clock is None:
            raise SimulationError(
                f"registry has no clock; cannot create time-weighted {name!r}"
            )
        return self._get(
            name, TimeWeightedValue,
            lambda: TimeWeightedValue(self._clock, value=initial, name=name),
        )

    # -- queries / export ----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self, prefix: str = "") -> list[str]:
        """Registered metric names, optionally filtered by dotted prefix."""
        return sorted(name for name in self._metrics if name.startswith(prefix))

    def counters_with_prefix(self, prefix: str) -> dict[str, float]:
        """Counter values keyed by the name remainder after ``prefix``."""
        return {
            name[len(prefix):]: metric.value
            for name, metric in self._metrics.items()
            if isinstance(metric, Counter) and name.startswith(prefix)
        }

    def value(self, name: str, default: float = 0.0) -> float:
        """The scalar value of a counter/gauge, or ``default`` if absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        return metric.value

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every metric's state as ``{name: {type, ...fields}}``."""
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {"type": type(metric).__name__.lower()}
            entry.update(metric.snapshot())
            out[name] = entry
        return out

    def to_csv_rows(self) -> list[tuple[str, str, str, str]]:
        """Flat ``(metric, type, field, value)`` rows for CSV export."""
        rows: list[tuple[str, str, str, str]] = []
        for name, entry in self.snapshot().items():
            kind = entry.pop("type")
            for key, value in entry.items():
                if isinstance(value, dict):
                    for bound, count in value.items():
                        rows.append((name, kind, f"{key}<={bound:g}", str(count)))
                else:
                    rows.append((name, kind, key, "" if value is None else str(value)))
        return rows

    def to_csv(self) -> str:
        """All metrics as one flat CSV document."""
        lines = ["metric,type,field,value"]
        for row in self.to_csv_rows():
            lines.append(",".join(str(cell) for cell in row))
        return "\n".join(lines) + "\n"


def merge_snapshots(snapshots: Iterable[dict[str, dict[str, Any]]]) -> dict[str, dict[str, Any]]:
    """Union several snapshots; later entries win on name collisions."""
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        merged.update(snapshot)
    return merged


def _merge_entry_additive(name: str, into: dict[str, Any],
                          entry: dict[str, Any]) -> None:
    kind = entry.get("type")
    if into.get("type") != kind:
        raise ConfigurationError(
            f"metric {name!r} has mixed types across snapshots "
            f"({into.get('type')!r} vs {kind!r})"
        )
    if kind == "counter":
        into["value"] += entry["value"]
    elif kind == "gauge":
        # Summing both fields makes the merged gauge an upper bound on
        # the fleet-wide level: per-pod peaks need not coincide in time.
        into["value"] += entry["value"]
        into["peak"] += entry["peak"]
    elif kind == "histogram":
        if tuple(into["buckets"]) != tuple(entry["buckets"]):
            raise ConfigurationError(
                f"histogram {name!r} has mismatched bucket bounds "
                "across snapshots"
            )
        into["count"] += entry["count"]
        into["sum"] += entry["sum"]
        for bound, count in entry["buckets"].items():
            into["buckets"][bound] += count
        for field_name, pick in (("min", min), ("max", max)):
            ours, theirs = into[field_name], entry[field_name]
            if ours is None:
                into[field_name] = theirs
            elif theirs is not None:
                into[field_name] = pick(ours, theirs)
        into["mean"] = into["sum"] / into["count"] if into["count"] else None
    else:
        raise ConfigurationError(
            f"metric {name!r}: cannot additively merge type {kind!r} "
            "(only counter/gauge/histogram snapshots are summable)"
        )


def merge_snapshots_additive(
    snapshots: Iterable[dict[str, dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Sum several registry snapshots into one fleet-wide snapshot.

    The sharded fleet runner exports one snapshot per pod and folds
    them here: counters add exactly; gauges sum ``value`` and ``peak``
    (an upper bound, since per-pod peaks need not be simultaneous);
    histograms add bucket counts, totals and counts pointwise and merge
    extrema.  A name bound to different metric types — or histograms
    with different bucket bounds — raises
    :class:`~repro.errors.ConfigurationError` rather than silently
    forking the series.  Non-summable kinds (time-weighted values)
    raise for the same reason.  Input snapshots are not mutated.
    """
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            if name not in merged:
                copied = dict(entry)
                if isinstance(copied.get("buckets"), dict):
                    copied["buckets"] = dict(copied["buckets"])
                merged[name] = copied
            else:
                _merge_entry_additive(name, merged[name], entry)
    return {name: merged[name] for name in sorted(merged)}
