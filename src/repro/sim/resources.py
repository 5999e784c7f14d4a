"""Shared-resource primitives for the discrete-event engine.

Mirrors the two simpy resources the DHL simulators use:

* :class:`Resource` — capacity-limited, FIFO request queue, used for
  track occupancy and dock slots.
* :class:`Store` — a FIFO buffer of Python objects (carts, messages).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any

from ..errors import SimulationError
from .engine import PENDING, _PRIORITY_BAND, Environment, Event


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Usable as a context manager so ``with resource.request() as req:``
    releases automatically.
    """

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        # Flat init (no super() chain): requests are allocated on every
        # resource claim, squarely on the engine's hot path.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._cancelled = False
        self.resource = resource
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.resource._release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class Resource:
    """A counted resource with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim one unit; the returned event fires once granted.

        Construction and the immediate-grant succeed are inlined (no
        constructor or ``succeed`` frame): requests are the engine's
        hottest allocation after timeouts.
        """
        env = self.env
        request = Request.__new__(Request)
        request.env = env
        request.callbacks = []
        request._defused = False
        request._cancelled = False
        request.resource = self
        request._released = False
        if len(self.users) < self.capacity:
            self.users.append(request)
            request._ok = True
            request._value = request
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, request))
        else:
            request._ok = None
            request._value = PENDING
            self.queue.append(request)
        return request

    def _release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
        else:
            # Cancelled before being granted.
            try:
                self.queue.remove(request)
            except ValueError:
                raise SimulationError("release of a request this resource never saw") from None
            return
        env = self.env
        while self.queue and len(self.users) < self.capacity:
            waiter = self.queue.popleft()
            self.users.append(waiter)
            # Inline succeed(waiter): queued waiters are never triggered.
            waiter._ok = True
            waiter._value = waiter
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, waiter))


class Store:
    """A FIFO buffer of items with blocking put/get.

    ``capacity`` bounds the number of buffered items (put blocks when
    full); the default is unbounded.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Deposit ``item``; fires immediately unless the store is full.

        The event construction and immediate succeed are inlined, as in
        :meth:`Resource.request`.
        """
        env = self.env
        event = Event.__new__(Event)
        event.env = env
        event.callbacks = []
        event._defused = False
        event._cancelled = False
        if len(self.items) < self.capacity:
            self.items.append(item)
            event._ok = True
            event._value = None
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, event))
            self._serve_getters()
        else:
            event._ok = None
            event._value = PENDING
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Take the oldest item; fires when one is available."""
        env = self.env
        event = Event.__new__(Event)
        event.env = env
        event.callbacks = []
        event._defused = False
        event._cancelled = False
        if self.items:
            event._ok = True
            event._value = self.items.popleft()
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, event))
            self._serve_putters()
        else:
            event._ok = None
            event._value = PENDING
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        env = self.env
        while self._getters and self.items:
            getter = self._getters.popleft()
            # Inline succeed: queued getters are never triggered.
            getter._ok = True
            getter._value = self.items.popleft()
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, getter))

    def _serve_putters(self) -> None:
        env = self.env
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter._ok = True
            putter._value = None
            eid = env._eid = env._eid + 1
            heappush(env._queue, (env._now, _PRIORITY_BAND + eid, putter))
            self._serve_getters()

    def __len__(self) -> int:
        return len(self.items)
