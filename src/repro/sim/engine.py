"""A compact discrete-event simulation engine (simpy-like).

The paper's operational questions — cart scheduling, dock contention,
pipelined ingestion — need process-oriented discrete-event simulation.
simpy is not available in this offline environment, so this module
implements the same core abstractions:

* :class:`Environment` — the event loop with virtual time.
* :class:`Event` — a one-shot occurrence processes can wait on.
* :class:`Timeout` — an event that fires after a delay.
* :class:`Process` — a generator-based coroutine; ``yield event``
  suspends until the event fires, and events propagate values and
  exceptions exactly like simpy.
* :class:`AllOf` / :class:`AnyOf` — condition events.

Determinism: simultaneous events fire in scheduling order (FIFO within a
timestamp), which the property tests rely on.

Fast-path design (see ``docs/performance.md`` for measurements, and
:mod:`repro.sim.reference` for the frozen pre-optimisation engine the
parity tests and ``BENCH_engine.json`` gate compare against):

* Every event class declares ``__slots__`` — faster attribute access and
  roughly half the allocation cost of dict-backed instances.
* Queue entries are 3-tuples ``(time, key, event)`` where
  ``key = priority * 2**52 + eid`` folds the priority band and the FIFO
  sequence number into one integer, preserving the exact
  ``(time, priority, eid)`` order of the reference engine with one fewer
  tuple slot to build and compare.
* A process that yields an already-processed event is resumed through a
  per-process reusable ``_Resume`` shim instead of a freshly allocated
  intermediate :class:`Event` — same queue entry, same ``eid``
  accounting, zero allocation.  (If the shim is still queued — an
  interrupt raced a pending resume — the allocating path is used, which
  is exactly the reference behaviour.)
* The ``run()`` loops inline the fire path instead of calling
  :meth:`Environment.step`, and latch the tracer check once per run, so
  an untraced event pays for no tracer attribute load.
* Cancellation purging is amortised: a ``_cancelled_pending`` counter
  (maintained by :meth:`Event.cancel`) gates the head purge, and when
  cancelled entries dominate the queue it is compacted in place with one
  ``heapify`` instead of N pops.
* A callback that would schedule a timeout and do nothing else until it
  fires can call :meth:`Environment.advance_to` instead: when the
  timeout would be the very next event the run loop pops, the clock
  moves there at once and no queue entry is made.  Equal-time ties,
  ``step()``, a ``run(until=<float>)`` deadline it would cross and an
  attached tracer all refuse the jump, so the caller schedules the
  timeout as before and event order, ``eid`` accounting and tracer
  counts are exactly the reference engine's.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from inspect import GEN_CREATED, getgeneratorstate
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable

from ..errors import SimulationError

PENDING = object()
"""Sentinel for an event value that has not been decided yet."""

_PRIORITY_BAND = 1 << 52
"""Multiplier folding (priority, eid) into one sort key.

``eid`` is a per-environment schedule counter, so ``2**52`` schedules
per run would be needed to overflow a band — far beyond any simulation
this repo runs (and Python ints would stay exact regardless).
"""

_COMPACT_MIN = 64
"""Cancelled-entry count below which the queue is never compacted."""

_INF = float("inf")


class Event:
    """A one-shot event that processes may wait on.

    An event is *triggered* once, either with :meth:`succeed` (a value)
    or :meth:`fail` (an exception).  Callbacks attached before or after
    triggering run when the environment processes the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool | None = None
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid = env._eid + 1
        heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid = env._eid + 1
        heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def cancel(self) -> None:
        """Discard a scheduled event: the queue drops it without advancing
        time or running its callbacks.  A no-op once the event has been
        processed, so the loser of a resolved race can always be
        cancelled unconditionally.  Processes still waiting on a
        cancelled event never resume — cancel only events whose waiters
        have already been satisfied some other way.
        """
        if self.callbacks is None or self._cancelled:
            return
        self._cancelled = True
        env = self.env
        pending = env._cancelled_pending = env._cancelled_pending + 1
        if pending > _COMPACT_MIN and pending * 2 > len(env._queue):
            env._compact()

    def __repr__(self) -> str:
        state = "triggered" if self._value is not PENDING else "pending"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, _PRIORITY_BAND + env._eid, self))

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _Resume(object):
    """A reusable queue entry that wakes one process.

    Stands in for the throwaway intermediate :class:`Event` the
    reference engine allocates whenever a process yields an
    already-processed event (and for the kick-off event of every new
    process).  It is queued at most once at a time — ``callbacks`` is
    the preallocated one-element list while queued and ``None`` once
    fired, exactly the protocol the fire path of :meth:`Environment.run`
    expects — so a single instance per process serves every immediate
    resume that process ever performs.
    """

    __slots__ = ("callbacks", "_value", "_ok", "_defused", "_cancelled", "_list")

    def __init__(self, callback: Callable[[Any], None]):
        self._list = [callback]
        self.callbacks: list[Callable[[Any], None]] | None = None
        self._value: Any = None
        self._ok = True
        self._defused = False
        self._cancelled = False


class Process(Event):
    """A running process: drives a generator, firing when it returns.

    The process itself is an event: other processes can ``yield proc`` to
    wait for completion and receive its return value.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "_resume_cb", "_shim")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]):
        if type(generator) is not GeneratorType and not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._cancelled = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target: Event | None = None
        # One bound method for the whole process lifetime: every
        # callbacks.append/remove uses the same object, so list.remove
        # matches on identity instead of building fresh bound methods.
        resume = self._resume_cb = self._resume
        shim = self._shim = _Resume(resume)
        # Kick off the process at the current time.
        shim.callbacks = shim._list
        eid = env._eid = env._eid + 1
        heappush(env._queue, (env._now, _PRIORITY_BAND + eid, shim))

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def started(self) -> bool:
        """Whether the generator has had its first resume.

        Interrupting a process that never started throws into a fresh
        generator, which (by Python generator semantics) raises at the
        function header — *before* any ``try`` in the body — so the
        Interrupt is unhandleable and crashes the run.  Callers tearing
        down fleets of processes check this and leave unstarted ones to
        a cooperative flag instead.
        """
        if self._value is not PENDING:
            return True
        if type(self._generator) is not GeneratorType:
            return True  # delegating objects manage their own lifecycle
        return getgeneratorstate(self._generator) != GEN_CREATED

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        env = self.env
        interrupt_event = Event(env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume_cb)
        # Priority band 0: interrupts pre-empt same-timestamp events.
        eid = env._eid = env._eid + 1
        heappush(env._queue, (env._now, eid, interrupt_event))

    def _resume(self, trigger: Event) -> None:
        if self._value is not PENDING:
            return  # e.g. an interrupt landing after the process finished
        # Detach from the event that woke us.  When the trigger IS the
        # target (the common wake-up) its callback list was already
        # cleared by the fire path, so only foreign triggers (interrupts)
        # need the removal scan.
        target = self._target
        if target is not None:
            self._target = None
            if target is not trigger:
                callbacks = target.callbacks
                if callbacks is not None:
                    try:
                        callbacks.remove(self._resume_cb)
                    except ValueError:
                        pass
        env = self.env
        if env._tracer is not None:
            env._tracer._engine_resume()
        try:
            if trigger._ok:
                next_event = self._send(trigger._value)
            else:
                trigger._defused = True
                next_event = self._throw(trigger._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))
            return
        except BaseException as error:
            self._ok = False
            self._value = error
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))
            return
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded {next_event!r}; processes must yield Events"
            )
        if next_event.env is not env:
            raise SimulationError("cannot wait on an event from another environment")
        if next_event.callbacks is None:
            # Already fired: resume at the same timestamp via the shim.
            shim = self._shim
            if shim.callbacks is None:
                shim._ok = next_event._ok
                shim._value = next_event._value
                shim._defused = False
                if not next_event._ok:
                    next_event._defused = True
                shim.callbacks = shim._list
                eid = env._eid = env._eid + 1
                heappush(env._queue, (env._now, _PRIORITY_BAND + eid, shim))
            else:
                # The shim is still queued (an interrupt pre-empted a
                # pending resume): allocate, as the reference engine does.
                resume = Event(env)
                resume._ok = next_event._ok
                resume._value = next_event._value
                if not next_event._ok:
                    next_event._defused = True
                resume.callbacks.append(self._resume_cb)
                eid = env._eid = env._eid + 1
                heappush(env._queue, (env._now, _PRIORITY_BAND + eid, resume))
        else:
            self._target = next_event
            next_event.callbacks.append(self._resume_cb)


class Condition(Event):
    """Base for AllOf/AnyOf: fires when enough child events have fired."""

    __slots__ = ("_events", "_need_all", "_remaining", "_values", "_count_cb")

    def __init__(self, env: "Environment", events: Iterable[Event], need_all: bool):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._cancelled = False
        self._events = events = list(events)
        self._need_all = need_all
        self._remaining = len(events)
        # Child values accumulate here as children are counted — O(1)
        # per child instead of rescanning self._events on completion.
        self._values: dict[Event, Any] = {}
        for event in events:
            if event.env is not env:
                raise SimulationError("condition mixes events from different environments")
        if not events:
            self._ok = True
            self._value = self._values
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))
            return
        count = self._count_cb = self._count
        for event in events:
            if event.callbacks is None:
                count(event)
            else:
                event.callbacks.append(count)

    def _count(self, event: Event) -> None:
        if not event._ok:
            # Defuse even after the condition resolved: a loser of an
            # AnyOf race that fails later is the condition's to absorb,
            # not a crash (simpy semantics).
            event._defused = True
        if self._value is not PENDING:
            return
        if not event._ok:
            self._ok = False
            self._value = event._value
            env = self.env
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))
            return
        self._values[event] = event._value
        self._remaining -= 1
        if not self._need_all or self._remaining == 0:
            self._ok = True
            self._value = self._values
            env = self.env
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, self))


class AllOf(Condition):
    """Fires when every child event has fired; value maps event -> value."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need_all=True)


class AnyOf(Condition):
    """Fires when the first child event fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need_all=False)


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_eid", "_cancelled_pending", "_tracer", "_horizon")

    def __init__(self, initial_time: float = 0.0, tracer: Any = None):
        self._now = initial_time
        self._queue: list[tuple[float, int, Any]] = []
        self._eid = 0
        self._cancelled_pending = 0
        # The latest time the current ``run()`` may still reach; -inf
        # while no run is in progress, so :meth:`advance_to` refuses.
        self._horizon = -_INF
        self._tracer: Any = None
        if tracer is not None:
            self.set_tracer(tracer)

    @property
    def now(self) -> float:
        return self._now

    @property
    def tracer(self) -> Any:
        return self._tracer

    def set_tracer(self, tracer: Any) -> None:
        """Attach a :class:`repro.obs.Tracer`: binds its clock to this
        environment and turns on the engine's spawn/resume/fire/cancel
        accounting.  Detach by passing ``None``."""
        self._tracer = tracer
        if tracer is not None:
            tracer.attach_clock(self)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        eid = self._eid = self._eid + 1
        heappush(self._queue,
                 (self._now + delay, priority * _PRIORITY_BAND + eid, event))

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule an already-decided event at an absolute time."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        eid = self._eid = self._eid + 1
        heappush(self._queue, (when, _PRIORITY_BAND + eid, event))

    # -- factories -----------------------------------------------------------
    #
    # The factories construct via __new__ and fill slots directly rather
    # than calling the class constructors: one Python frame per object
    # instead of two (three for Process).  The class __init__s stay the
    # source of truth for direct construction; keep both in sync.

    def event(self) -> Event:
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = PENDING
        event._ok = None
        event._defused = False
        event._cancelled = False
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        timeout._cancelled = False
        timeout.delay = delay
        eid = self._eid = self._eid + 1
        heappush(self._queue, (self._now + delay, _PRIORITY_BAND + eid, timeout))
        return timeout

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        if type(generator) is not GeneratorType and not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        proc = Process.__new__(Process)
        proc.env = self
        proc.callbacks = []
        proc._value = PENDING
        proc._ok = None
        proc._defused = False
        proc._cancelled = False
        proc._generator = generator
        proc._send = generator.send
        proc._throw = generator.throw
        proc._target = None
        resume = proc._resume_cb = proc._resume
        shim = proc._shim = _Resume.__new__(_Resume)
        shim._list = callbacks = [resume]
        shim._value = None
        shim._ok = True
        shim._defused = False
        shim._cancelled = False
        shim.callbacks = callbacks
        eid = self._eid = self._eid + 1
        heappush(self._queue, (self._now, _PRIORITY_BAND + eid, shim))
        if self._tracer is not None:
            self._tracer._engine_spawn()
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------------

    def _purge_cancelled(self) -> None:
        """Drop cancelled events from the head of the queue (lazy delete)."""
        queue = self._queue
        tracer = self._tracer
        while queue and queue[0][2]._cancelled:
            heappop(queue)
            self._cancelled_pending -= 1
            if tracer is not None:
                tracer._engine_cancel()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries (amortised purge).

        Triggered by :meth:`Event.cancel` once cancelled entries
        outnumber live ones (and exceed ``_COMPACT_MIN``): one list
        comprehension plus one ``heapify`` replaces N heap pops.  The
        queue list is mutated in place because the run loops hold local
        aliases to it.
        """
        queue = self._queue
        alive = [entry for entry in queue if not entry[2]._cancelled]
        dropped = len(queue) - len(alive)
        if dropped:
            queue[:] = alive
            heapify(queue)
            tracer = self._tracer
            if tracer is not None:
                for _ in range(dropped):
                    tracer._engine_cancel()
        self._cancelled_pending = 0

    def step(self) -> None:
        """Process the next event in the queue."""
        if self._cancelled_pending:
            self._purge_cancelled()
        queue = self._queue
        if not queue:
            raise SimulationError("no more events to process")
        when, _key, event = heappop(queue)
        if when < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = when
        if self._tracer is not None:
            self._tracer._engine_fire(event)
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"unhandled event failure: {value!r}")

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Returns the event's value when ``until`` is an event.

        Each loop below purges cancelled queue heads at most once per
        iteration (gated on the ``_cancelled_pending`` counter) and
        inlines the fire path instead of going through :meth:`step`, so
        the common case pays for neither a purge scan nor a tracer
        attribute load per event.  The tracer decision is latched when
        ``run`` is entered: attach tracers before running, not from
        inside a callback.  The deadline (``+inf`` without one) is kept
        for :meth:`advance_to` until ``run`` returns or raises.
        """
        deadline = _INF
        if until is not None and not isinstance(until, Event):
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"deadline {deadline} is in the past (now={self._now})")
        self._horizon = deadline
        try:
            queue = self._queue
            now = self._now
            traced = self._tracer is not None
            if isinstance(until, Event):
                stop = until
                while stop.callbacks is not None:
                    if self._cancelled_pending:
                        self._purge_cancelled()
                    if not queue:
                        raise SimulationError(
                            "event queue is empty but the awaited event never fired"
                        )
                    when, _key, event = heappop(queue)
                    if when > now:
                        now = self._now = when
                    if traced:
                        self._tracer._engine_fire(event)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                    if not event._ok and not event._defused:
                        value = event._value
                        if isinstance(value, BaseException):
                            raise value
                        raise SimulationError(f"unhandled event failure: {value!r}")
                if stop._ok:
                    return stop._value
                raise stop._value
            if until is not None:
                while True:
                    if self._cancelled_pending:
                        self._purge_cancelled()
                    if not queue or queue[0][0] > deadline:
                        break
                    when, _key, event = heappop(queue)
                    if when > now:
                        now = self._now = when
                    if traced:
                        self._tracer._engine_fire(event)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                    if not event._ok and not event._defused:
                        value = event._value
                        if isinstance(value, BaseException):
                            raise value
                        raise SimulationError(f"unhandled event failure: {value!r}")
                self._now = deadline
                return None
            while True:
                if self._cancelled_pending:
                    self._purge_cancelled()
                if not queue:
                    break
                when, _key, event = heappop(queue)
                if when > now:
                    now = self._now = when
                if traced:
                    self._tracer._engine_fire(event)
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                if not event._ok and not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(f"unhandled event failure: {value!r}")
            return None
        finally:
            self._horizon = -_INF

    def advance_to(self, when: float) -> bool:
        """Move the clock to ``when`` now, if nothing could tell the difference.

        For a callback that would otherwise schedule
        ``timeout(when - now)`` and resume its work when it fires.  The
        jump is taken, and True returned, only when that timeout would
        be the next event the running loop pops: ``when`` is strictly
        earlier than the queue head (an equal-time entry was scheduled
        first and must fire first), a :meth:`run` is in progress and
        ``when`` is within its ``until=<float>`` deadline, and no
        tracer is attached (its engine counters count the timeout).
        Otherwise nothing changes and False tells the caller to
        schedule the timeout itself.  A cancelled queue head only makes
        the check conservative.
        """
        if when < self._now:
            raise SimulationError(f"cannot advance into the past ({when} < {self._now})")
        queue = self._queue
        if (
            when <= self._horizon
            and (not queue or when < queue[0][0])
            and self._tracer is None
        ):
            self._now = when
            return True
        return False

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        if self._cancelled_pending:
            self._purge_cancelled()
        queue = self._queue
        return queue[0][0] if queue else float("inf")
