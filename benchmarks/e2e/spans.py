"""Host-time spans recorded around the simulator's layer entry points.

The benchmark never edits the simulator.  A traced run replaces the
attributes listed in :data:`TARGETS` with timing wrappers, records one
span per call, and restores every original attribute when it ends.  A
target that no longer exists is reported as missing and skipped.

Each span has a name, a start, an end and the index of its parent span.
A span's *self* time is its duration minus the time its child spans
cover.  The per-name aggregates cover every call; the raw spans, kept for
the Chrome trace, are capped at :data:`RAW_SPAN_CAP`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

RAW_SPAN_CAP = 100_000


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Spans kept in memory, on one thread, strictly nested.

    ``clock`` is injectable so tests can script the time of every event.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cap: int = RAW_SPAN_CAP):
        self.clock = clock
        self.cap = cap
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.dropped = 0
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[Any]] = []

    def open(self, name: str) -> list[Any]:
        """Start a span; returns the frame :meth:`close` takes."""
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < self.cap:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [name, self.clock(), 0.0, index, parent]
        self._stack.append(frame)
        return frame

    def close(self, frame: list[Any], raised: bool = False) -> None:
        """End the innermost span, which must be ``frame``."""
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, index, parent = frame
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.raised += raised
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.open(name)
        try:
            yield
        except BaseException:
            self.close(frame, raised=True)
            raise
        self.close(frame)

    def chrome_trace(self, metadata: dict[str, Any]) -> dict[str, Any]:
        """Chrome trace-event JSON of the raw spans, aggregates attached."""
        closed = [span for span in self.spans if span is not None]
        origin = min((start for _n, start, _e, _p in closed), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"index": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(closed)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **metadata,
                "dropped_spans": self.dropped,
                "aggregates": {
                    name: vars(stats) for name, stats in sorted(self.stats.items())
                },
                "counts": dict(sorted(self.counts.items())),
            },
        }


def timed_iter(recorder: SpanRecorder, name: str,
               iterable: Iterable[Any]) -> Iterator[Any]:
    """Yield from ``iterable``, one span per item it produces."""
    iterator = iter(iterable)
    while True:
        frame = recorder.open(name)
        try:
            item = next(iterator)
        except StopIteration:
            recorder.close(frame, raised=True)
            return
        except BaseException:
            recorder.close(frame, raised=True)
            raise
        recorder.close(frame)
        yield item


Before = Callable[[SpanRecorder, tuple], Any]
After = Callable[[SpanRecorder, tuple, Any, Any], None]


def _call_wrapper(recorder: SpanRecorder, name: str, fn: Callable,
                  before: Before | None, after: After | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(recorder, args) if before is not None else None
        frame = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(frame, raised=True)
            raise
        recorder.close(frame)
        if after is not None:
            after(recorder, args, result, token)
        return result

    return wrapper


def _iter_wrapper(recorder: SpanRecorder, name: str, fn: Callable,
                  before: Before | None, after: After | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return timed_iter(recorder, name, fn(*args, **kwargs))

    return wrapper


# -- probes: counts taken at the same boundaries as the spans ---------------

def _scanned(recorder, args):
    # ControlHooks.pick_dispatch(self, lane, pending)
    recorder.add("fleet.controlplane.dispatch.scanned", len(args[2]))


def _events_before(recorder, args):
    return args[0]._eid


def _events_after(recorder, args, result, eid_before):
    # Environment._eid counts every event scheduled, the numerator the
    # engine microbenchmark uses for events per second.
    recorder.add("sim.events", args[0]._eid - eid_before)


def _plane_after(recorder, args, report, token):
    recorder.peak("fleet.controlplane.peak_in_system", report.peak_in_system)
    recorder.add("dhlsim.launches", report.launches)


def _replay_after(recorder, args, result, token):
    recorder.peak("traffic.cursor.peak_pending", result.peak_pending)


def _shard_after(recorder, args, report, token):
    recorder.add("fleet.shard.epochs", report.epochs)
    recorder.add("fleet.shard.forwarded", report.forwarded)


CALL = _call_wrapper
ITER = _iter_wrapper

#: (module, attribute path, span name, wrapper kind, before, after).
#: Iterator wrappers time each ``next`` on the returned iterator.
TARGETS: tuple[tuple[str, str, str, Callable, Before | None, After | None], ...] = (
    ("repro.sim.engine", "Environment.run", "sim.run", CALL,
     _events_before, _events_after),
    ("repro.dhlsim.api", "DhlApi.open", "dhlsim.api.open", CALL, None, None),
    ("repro.dhlsim.api", "DhlApi.close", "dhlsim.api.close", CALL, None, None),
    ("repro.dhlsim.api", "DhlApi.read", "dhlsim.api.read", CALL, None, None),
    ("repro.fleet.topology", "FleetTopology.__init__", "fleet.topology.build",
     CALL, None, None),
    ("repro.fleet.controlplane", "ControlPlane.__init__",
     "fleet.controlplane.init", CALL, None, None),
    ("repro.fleet.controlplane", "ControlPlane.run", "fleet.controlplane.run",
     CALL, None, _plane_after),
    ("repro.fleet.controlplane", "ControlPlane.submit",
     "fleet.controlplane.submit", CALL, None, None),
    ("repro.fleet.controlplane", "ControlHooks.pick_dispatch",
     "fleet.controlplane.dispatch", CALL, _scanned, None),
    ("repro.fleet.controlplane", "ControlHooks.pick_overflow",
     "fleet.controlplane.overflow", CALL, None, None),
    ("repro.fleet.controlplane", "ControlHooks.pick_eviction",
     "fleet.controlplane.eviction", CALL, None, None),
    ("repro.fleet.cache", "RackCache.lookup", "fleet.cache.lookup", CALL, None, None),
    ("repro.fleet.cache", "RackCache.evict", "fleet.cache.evict", CALL, None, None),
    ("repro.fleet.cache", "RackCache.record_hit", "fleet.cache.hit", CALL, None, None),
    ("repro.fleet.cache", "RackCache.record_miss", "fleet.cache.miss", CALL, None, None),
    ("repro.fleet.sla", "SlaTracker.observe", "fleet.sla.observe", CALL, None, None),
    ("repro.fleet.sla", "SlaTracker.report", "fleet.sla.report", CALL, None, None),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.registry.counter",
     CALL, None, None),
    ("repro.traffic.synth", "synthesise", "traffic.synth", ITER, None, None),
    ("repro.traffic.codec", "BinaryTraceWriter.write", "traffic.encode",
     CALL, None, None),
    ("repro.traffic.codec", "read_binary_records", "traffic.decode",
     ITER, None, None),
    ("repro.traffic.replay", "LookaheadCursor.__next__", "traffic.cursor",
     CALL, None, None),
    ("repro.traffic.replay", "bound_jobs", "traffic.bind", ITER, None, None),
    ("repro.traffic.replay", "replay_fleet", "traffic.replay", CALL,
     None, _replay_after),
    ("repro.fleet.shard", "run_sharded", "fleet.shard.run", CALL,
     None, _shard_after),
    ("multiprocessing.process", "BaseProcess.start", "fleet.shard.spawn",
     CALL, None, None),
    ("multiprocessing.connection", "Connection.send", "fleet.shard.ipc.send",
     CALL, None, None),
    ("multiprocessing.connection", "Connection.recv", "fleet.shard.ipc.recv",
     CALL, None, None),
)

_ABSENT = object()


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, current value) of ``module:path``."""
    owner: Any = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def install(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every resolvable target; returns (undo records, missing names).

    An undo record remembers whether the attribute lived on the owner
    itself or was inherited, so removal restores exactly what was there.
    """
    installed: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    for module, path, name, kind, before, after in targets:
        try:
            owner, attribute, current = _resolve(module, path)
        except (ImportError, AttributeError):
            missing.append(f"{module}:{path}")
            continue
        own = vars(owner).get(attribute, _ABSENT)
        installed.append((owner, attribute, own))
        setattr(owner, attribute, kind(recorder, name, current, before, after))
    return installed, missing


def remove(installed) -> None:
    """Undo :func:`install`, newest wrapper first."""
    for owner, attribute, own in reversed(installed):
        if own is _ABSENT:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, own)


@contextlib.contextmanager
def traced(recorder: SpanRecorder, targets=TARGETS) -> Iterator[list[str]]:
    """Wrap the targets for the duration of the block; yields missing names."""
    installed, missing = install(recorder, targets)
    try:
        yield missing
    finally:
        remove(installed)


# -- per-layer metrics -------------------------------------------------------

#: (name, unit, better, which end-to-end metric on which workload it moves).
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("fleet.controlplane.dispatch.calls", "count", "lower",
     "jobs_per_s on fleet-saturated, shard-process"),
    ("fleet.controlplane.dispatch.scanned", "count", "lower",
     "jobs_per_s on fleet-saturated, shard-process"),
    ("fleet.controlplane.dispatch.self_s", "s", "lower",
     "jobs_per_s on fleet-saturated, shard-process"),
    ("fleet.controlplane.submit.calls", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("fleet.controlplane.submit.self_s", "s", "lower",
     "jobs_per_s on replay-overload"),
    ("fleet.controlplane.overflow.calls", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("fleet.controlplane.eviction.calls", "count", "lower",
     "jobs_per_s on fleet-saturated"),
    ("fleet.controlplane.run.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("fleet.controlplane.run.self_s", "s", "lower",
     "jobs_per_s on every in-process workload"),
    ("fleet.controlplane.init.self_s", "s", "lower",
     "jobs_per_s on capacity-plan"),
    ("fleet.controlplane.peak_in_system", "count", "lower",
     "peak_rss_mb on replay-overload"),
    ("fleet.topology.build.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("fleet.topology.build.self_s", "s", "lower",
     "jobs_per_s on capacity-plan"),
    ("fleet.cache.lookup.calls", "count", "lower",
     "jobs_per_s on fleet-saturated"),
    ("fleet.cache.evict.calls", "count", "lower",
     "jobs_per_s on fleet-saturated"),
    ("fleet.cache.hit_ratio", "fraction", "higher",
     "jobs_per_s on fleet-saturated"),
    ("fleet.sla.observe.calls", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("fleet.sla.observe.self_s", "s", "lower",
     "jobs_per_s on replay-overload"),
    ("fleet.sla.report.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("fleet.sla.report.self_s", "s", "lower",
     "jobs_per_s on capacity-plan"),
    ("obs.registry.counter.calls", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("obs.registry.counter.self_s", "s", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.decode.records", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.decode.self_s", "s", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.cursor.records", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.cursor.self_s", "s", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.cursor.peak_pending", "count", "lower",
     "peak_rss_mb on replay-overload"),
    ("traffic.bind.records", "count", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.bind.self_s", "s", "lower",
     "jobs_per_s on replay-overload"),
    ("traffic.synth.self_s", "s", "lower",
     "setup_s on replay-overload"),
    ("traffic.encode.self_s", "s", "lower",
     "setup_s on replay-overload"),
    ("dhlsim.api.open.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("dhlsim.api.close.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("dhlsim.api.read.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("dhlsim.launches_per_job", "launches/job", "lower",
     "jobs_per_s on capacity-plan"),
    ("sim.run.calls", "count", "lower",
     "jobs_per_s on capacity-plan"),
    ("sim.run.self_s", "s", "lower",
     "jobs_per_s on capacity-plan, fleet-saturated"),
    ("sim.events", "count", "lower",
     "jobs_per_s on capacity-plan, fleet-saturated"),
    ("sim.events_per_job", "events/job", "lower",
     "jobs_per_s on capacity-plan, fleet-saturated"),
    ("fleet.shard.spawn_s", "s", "lower",
     "cold_s and jobs_per_s on shard-process"),
    ("fleet.shard.ipc.recv_wait_s", "s", "lower",
     "jobs_per_s on shard-process"),
    ("fleet.shard.ipc.send_s", "s", "lower",
     "jobs_per_s on shard-process"),
    ("fleet.shard.ipc.messages", "count", "lower",
     "jobs_per_s on shard-process"),
    ("fleet.shard.epochs", "count", "lower",
     "jobs_per_s on shard-process"),
    ("fleet.shard.forwarded", "count", "lower",
     "jobs_per_s on shard-process"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced over untraced iteration time"),
    ("trace.missing_targets", "count", "lower",
     "none: wrap targets absent from the program"),
)


def layer_metrics(recorder: SpanRecorder, offered_jobs: int, traced_s: float,
                  untraced_s: float, missing: list[str]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced iteration.

    ``<span>.calls``, ``<span>.records`` (calls that produced a value) and
    ``<span>.self_s`` read the span aggregates; the rest are listed here.
    Spans that never ran read 0.
    """
    stats = recorder.stats
    counts = recorder.counts

    def total(name: str) -> float:
        return stats[name].total_s if name in stats else 0.0

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    hits, misses = calls("fleet.cache.hit"), calls("fleet.cache.miss")
    special = {
        "fleet.controlplane.dispatch.scanned":
            counts.get("fleet.controlplane.dispatch.scanned", 0),
        "fleet.controlplane.peak_in_system":
            counts.get("fleet.controlplane.peak_in_system", 0),
        "fleet.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "traffic.cursor.peak_pending": counts.get("traffic.cursor.peak_pending", 0),
        "dhlsim.launches_per_job": counts.get("dhlsim.launches", 0) / offered_jobs,
        "sim.events": counts.get("sim.events", 0),
        "sim.events_per_job": counts.get("sim.events", 0) / offered_jobs,
        "fleet.shard.spawn_s": total("fleet.shard.spawn"),
        "fleet.shard.ipc.recv_wait_s": total("fleet.shard.ipc.recv"),
        "fleet.shard.ipc.send_s": total("fleet.shard.ipc.send"),
        "fleet.shard.ipc.messages":
            calls("fleet.shard.ipc.recv") + calls("fleet.shard.ipc.send"),
        "fleet.shard.epochs": counts.get("fleet.shard.epochs", 0),
        "fleet.shard.forwarded": counts.get("fleet.shard.forwarded", 0),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.missing_targets": len(missing),
    }
    values: dict[str, float] = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        span, field = name.rsplit(".", 1)
        aggregate = stats.get(span, SpanStats())
        if field == "calls":
            values[name] = aggregate.calls
        elif field == "records":
            values[name] = aggregate.calls - aggregate.raised
        elif field == "self_s":
            values[name] = aggregate.self_s
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values


def write_chrome_trace(recorder: SpanRecorder, path: str,
                       metadata: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.chrome_trace(metadata), handle)
