"""Rack-side cart-residency cache.

A docked cart *is* a cache entry: while dataset *d*'s cart sits in a
rack's docking station, every further job for *d* reads it at PCIe
speed with no launch, no tube occupancy and no launch energy.  The
paper's energy argument (motors only accelerate; coasting is nearly
free) makes the launch the entire marginal cost of a miss — so keeping
hot carts docked converts tube round-trips into cache hits.

This module is deliberately **passive bookkeeping**: it decides what is
resident, what is being fetched and what to evict next, but never
touches the simulators.  The control plane owns the DHL APIs and drives
fetches and evictions; keeping the cache side-effect-free makes its
policies unit-testable without a simulation.

Entry lifecycle::

    (absent) --begin_fetch--> FETCHING --finish_fetch--> RESIDENT
                                  |                          |
                              fail_fetch                evict (readers == 0)
                                  v                          v
                               (absent)                  (absent)

Concurrent jobs for a FETCHING dataset coalesce: they wait on the
entry's ``ready`` event instead of launching a second cart.  RESIDENT
entries carry a reader refcount so eviction never detaches a cart
mid-read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..sim import Environment, Event

EVICTION_POLICIES = ("lru", "lfu", "ttl")

FETCHING = "fetching"
RESIDENT = "resident"


@dataclass(frozen=True)
class CacheConfig:
    """Eviction behaviour of the rack-side cart cache."""

    policy: str = "lru"
    ttl_s: float = 600.0
    """For the ``ttl`` policy: residency older than this is evicted
    first (expired entries in LRU order), falling back to plain LRU
    while nothing has expired."""

    def __post_init__(self) -> None:
        if self.policy not in EVICTION_POLICIES:
            raise ConfigurationError(
                f"cache policy must be one of {EVICTION_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.ttl_s <= 0:
            raise ConfigurationError(f"ttl_s must be positive, got {self.ttl_s}")


@dataclass
class CacheEntry:
    """One dataset's residency at one rack."""

    dataset: str
    state: str
    ready: Event
    created_s: float
    last_access_s: float
    accesses: int = 0
    readers: int = 0
    # Set by the control plane at finish_fetch: the docking station the
    # cart occupies plus the pool-token and dataset-lock requests whose
    # release returns the cart's resources to the fleet on eviction.
    station: object = None
    token: object = None
    lock: object = None

    @property
    def idle(self) -> bool:
        return self.state == RESIDENT and self.readers == 0


class RackCache:
    """Cart-residency tracking for one (track, rack) lane."""

    def __init__(self, env: Environment, config: CacheConfig):
        self.env = env
        self.config = config
        self.entries: dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.failed_fetches = 0
        self.rehomed = 0

    # -- queries -----------------------------------------------------------------

    def lookup(self, dataset: str) -> Optional[CacheEntry]:
        return self.entries.get(dataset)

    @property
    def residency(self) -> int:
        """Entries occupying (or about to occupy) a docking station."""
        return len(self.entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- state transitions (driven by the control plane) -------------------------

    def record_hit(self, entry: CacheEntry) -> None:
        self.hits += 1
        entry.accesses += 1
        entry.last_access_s = self.env.now

    def record_miss(self) -> None:
        self.misses += 1

    def begin_fetch(self, dataset: str) -> CacheEntry:
        if dataset in self.entries:
            raise ConfigurationError(f"{dataset!r} is already tracked")
        entry = CacheEntry(
            dataset=dataset,
            state=FETCHING,
            ready=Event(self.env),
            created_s=self.env.now,
            last_access_s=self.env.now,
            accesses=1,
        )
        self.entries[dataset] = entry
        return entry

    def finish_fetch(self, entry: CacheEntry, station, token, lock) -> None:
        entry.state = RESIDENT
        entry.station = station
        entry.token = token
        entry.lock = lock
        entry.last_access_s = self.env.now
        if not entry.ready.triggered:
            entry.ready.succeed(None)

    def fail_fetch(self, entry: CacheEntry) -> None:
        """The launch failed; drop the entry and wake coalesced waiters.

        Waiters re-run their lookup, see a miss, and retry (bounded by
        the control plane).  ``ready`` is succeeded, not failed, so the
        failure surfaces as a retry decision rather than an exception
        teleported into unrelated jobs.
        """
        self.failed_fetches += 1
        del self.entries[entry.dataset]
        if not entry.ready.triggered:
            entry.ready.succeed(None)

    def acquire(self, entry: CacheEntry) -> None:
        entry.readers += 1

    def release(self, entry: CacheEntry) -> None:
        if entry.readers <= 0:
            raise ConfigurationError(f"release of unread entry {entry.dataset!r}")
        entry.readers -= 1

    def evict(self, entry: CacheEntry) -> None:
        """Remove a (necessarily idle) entry from tracking."""
        if not entry.idle:
            raise ConfigurationError(
                f"cannot evict {entry.dataset!r}: state={entry.state} "
                f"readers={entry.readers}"
            )
        self.evictions += 1
        del self.entries[entry.dataset]

    def rehome(self) -> list[CacheEntry]:
        """Idle residents to migrate off this lane after a cache-node loss.

        When the rack-side residency tracker dies, every idle docked
        cart must shuttle home so its pool token and dataset lock return
        to the fleet — otherwise the dead node silently leaks pool
        capacity.  Returns the victims (counted as ``rehomed``); the
        control plane drives the actual evictions, keeping this module
        side-effect-free.  Busy entries (readers in flight) and
        FETCHING entries stay: their owning workers already hold the
        resources and will release them through the normal lifecycle.
        """
        victims = [entry for entry in self.entries.values() if entry.idle]
        self.rehomed += len(victims)
        return victims

    # -- victim selection --------------------------------------------------------

    def evictable(self) -> Optional[CacheEntry]:
        """The idle entry this lane would evict next, or None if all are busy.

        ``lru`` picks the least recently read, ``lfu`` the least read
        (ties by recency), and ``ttl`` the oldest expired residency,
        falling back to LRU while nothing has expired.  Ties break by
        dataset name, so the choice is deterministic.
        """
        idle = [entry for entry in self.entries.values() if entry.idle]
        if not idle:
            return None
        policy = self.config.policy
        if policy == "lfu":
            return min(idle, key=lambda e: (e.accesses, e.last_access_s, e.dataset))
        if policy == "ttl":
            now = self.env.now
            ttl_s = self.config.ttl_s
            expired = [e for e in idle if now - e.created_s >= ttl_s]
            if expired:
                return min(expired, key=lambda e: (e.created_s, e.dataset))
        return min(idle, key=lambda e: (e.last_access_s, e.dataset))
