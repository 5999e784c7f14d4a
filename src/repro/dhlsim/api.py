"""The DHL software API (paper Section III-D).

The paper specifies four commands, administered over the ordinary
network:

1. **Open** — the rack requests an SSD cart from the library; if present
   it is shuttled over and docked.
2. **Close** — the rack disconnects a cart; it shuttles back home.
3. **Read** — read data from a docked cart at local PCIe bandwidth.
4. **Write** — write data to a cart at a specific docking station.

On top of those, :meth:`DhlApi.bulk_transfer` orchestrates a whole
dataset move with pipelining: while one cart's data is being read, the
next is already in flight — the optimisation Section V-B sketches.
:meth:`DhlApi.bulk_writeback` runs the backup direction (Section II-D2)
through the same pipeline: per shard, Open under graceful degradation
(defer and retry, or fail over to the optical network), the payload
step (Read, or Write onto a claimed empty cart), a Close that waits out
outages, and delivery into one collector.  A direction supplies only
how its cart is opened, what a failover ships, and its payload step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import DegradedServiceError, SchedulingError
from ..sim import Environment, Event, Store
from ..storage.datasets import Dataset
from ..storage.library import plan_placement
from .cart import Cart
from .docking import DockingStation
from .metrics import COUNT_PREFIX, ENERGY_PREFIX
from .scheduler import DhlSystem


@dataclass(frozen=True)
class TransferReport:
    """Outcome of a bulk transfer orchestrated through the API."""

    dataset: Dataset
    shards_moved: int
    bytes_delivered: float
    start_s: float
    end_s: float
    launches: int
    launch_energy_j: float

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def effective_bandwidth(self) -> float:
        if self.elapsed_s <= 0:
            raise SchedulingError("transfer completed in zero time")
        return self.bytes_delivered / self.elapsed_s


@dataclass
class DhlApi:
    """The four-command API bound to one simulated DHL system."""

    system: DhlSystem
    env: Environment = field(init=False)

    def __post_init__(self) -> None:
        self.env = self.system.env

    # -- the four commands ----------------------------------------------------

    def open(self, dataset: str, shard_index: int, endpoint_id: int) -> Event:
        """Fetch the cart holding a shard and dock it at ``endpoint_id``.

        The returned event fires with the docking station, or fails at
        once when no library cart holds the shard.
        """
        system = self.system
        try:
            cart = system.library.cart_holding(dataset, shard_index)
        except Exception as error:
            return self.env.event().fail(error)
        return system.dispatch_to_rack(cart.cart_id, endpoint_id)

    def close(self, cart: Cart, endpoint_id: int) -> Event:
        """Disconnect a cart and shuttle it back to the library."""
        return self.system.return_to_library(cart, endpoint_id)

    def read(self, endpoint_id: int, dataset: str, shard_index: int,
             n_bytes: float | None = None) -> Event:
        """Read shard bytes from the docked cart holding it.

        The returned event fires with the number of bytes read, or fails
        at once when no docked cart holds the shard or its array failed.
        """
        try:
            station = self.system.station_for_shard(endpoint_id, dataset, shard_index)
            cart = station.cart
            assert cart is not None
            cart.check_integrity()  # surfaces in-flight SSD failures at access time
            shard = cart.shards[(dataset, shard_index)]
        except Exception as error:
            return self.env.event().fail(error)
        amount = shard.size_bytes if n_bytes is None else min(n_bytes, shard.size_bytes)
        return station.read(amount)

    def write(self, station: DockingStation, n_bytes: float) -> Event:
        """Write bytes to the cart at a specific docking station.

        The returned event fires with the number of bytes written.
        """
        if station.cart is None:
            raise SchedulingError(
                f"write to empty dock {station.station_id}@{station.endpoint_id}"
            )
        return station.write(n_bytes)

    # -- orchestration -----------------------------------------------------------

    def bulk_transfer(self, dataset: Dataset, endpoint_id: int = 1,
                      read_payload: bool = True) -> Event:
        """Process: move a staged dataset to a rack, shard by shard.

        Pipelined: up to ``stations_per_rack`` carts are in flight or
        being read concurrently.  Each shard is Opened, optionally Read
        in full, then Closed.  Returns a :class:`TransferReport`.
        """
        name = dataset.name
        library = self.system.library

        def staged_shards() -> list[int]:
            indices = sorted(
                index for cart in library.carts.values()
                for (held, index) in cart.shards if held == name
            )
            if not indices:
                raise SchedulingError(
                    f"dataset {name!r} is not staged in the library; "
                    "call DhlSystem.load_dataset first"
                )
            return indices

        def failover_bytes(index: int) -> float:
            # The shard's cart stays in the library; only its bytes move.
            return library.cart_holding(name, index).shards[(name, index)].size_bytes

        read = ("read", lambda station, index, n_bytes:
                self.read(endpoint_id, name, index))
        return self.env.process(self._bulk(
            "bulk_transfer", dataset, endpoint_id, staged_shards,
            lambda index: self.open(name, index, endpoint_id),
            failover_bytes, read if read_payload else None,
        ))

    def bulk_writeback(self, dataset: Dataset, endpoint_id: int = 1) -> Event:
        """Process: stream rack-resident data *into* the library.

        The backup direction (Section II-D2): empty carts shuttle to the
        rack, the rack Writes shard-sized chunks onto them at PCIe speed,
        and loaded carts Close back into cold storage.  Pipelined across
        the endpoint's docking stations like :meth:`bulk_transfer`.
        Returns a :class:`TransferReport`.
        """
        system, name = self.system, dataset.name
        claimed: dict[int, Cart] = {}

        def claim_empty_carts() -> list[int]:
            plan = plan_placement(dataset, system.make_array())
            empty_carts = sum(
                1 for cart in system.library.carts.values() if not cart.shards
            )
            if empty_carts < plan.n_carts:
                raise SchedulingError(
                    f"writeback of {name!r} needs {plan.n_carts} empty "
                    f"carts but the library holds {empty_carts}; stage more "
                    "with DhlSystem.add_empty_carts"
                )
            for shard in plan:
                cart = claimed[shard.index] = system.library.idle_cart()
                cart.load_shard(shard)  # reserve content before dispatch
            return list(claimed)

        def failover_bytes(index: int) -> float:
            # The cart was recovered into the library with the shard
            # still reserved on it; undo that and ship the bytes instead.
            return claimed[index].unload_shard(name, index).size_bytes

        write = ("write", lambda station, index, n_bytes: self.write(station, n_bytes))
        return self.env.process(self._bulk(
            "bulk_writeback", dataset, endpoint_id, claim_empty_carts,
            lambda index: system.dispatch_to_rack(claimed[index].cart_id, endpoint_id),
            failover_bytes, write,
        ))

    def _bulk(self, command: str, dataset: Dataset, endpoint_id: int,
              shards: Callable[[], list[int]],
              open_cart: Callable[[int], Event],
              failover_bytes: Callable[[int], float],
              payload: tuple[str, Callable[[DockingStation, int, float], Event]] | None):
        """Process: the one shard pipeline behind both bulk moves.

        ``shards()`` names the shard indices (raising if the move cannot
        start).  One worker per shard then Opens its cart through
        ``open_cart(index)``, runs the ``payload`` step (a span name and
        ``step(station, index, n_bytes)``; ``None`` moves no data), Closes
        the cart and delivers the shard's bytes.  A degraded Open with a
        failover policy ships ``failover_bytes(index)`` over the optical
        network instead; without one the shard waits for the repair crew
        and tries again.
        """
        system = self.system
        tracer = system.tracer
        indices = shards()
        start = self.env.now
        start_launches = system.total_launches
        start_energy = system.total_launch_energy
        delivered = Store(self.env)

        def shard_worker(index: int):
            shard_track = f"shard-{index}"
            while True:
                open_span = tracer.span("open", track=shard_track, shard=index)
                try:
                    station = yield open_cart(index)
                    open_span.end()
                    break
                except DegradedServiceError:
                    open_span.end(failed=True)
                    # Graceful degradation: the DHL gave up on this
                    # shard (outage past the policy threshold or retries
                    # exhausted).  With a failover policy the bytes
                    # re-route over the optical network, charging its
                    # time and route energy; without one the shard waits
                    # for the repair crew and tries again.
                    if system.failover is not None:
                        with tracer.span("failover", track=shard_track, shard=index):
                            n_sent = yield self.env.process(
                                self._failover_transfer(failover_bytes(index))
                            )
                        yield delivered.put(n_sent)
                        return
                    tracer.instant("open.deferred", track=shard_track, shard=index)
                    system._count(COUNT_PREFIX + "open_deferrals")
                    yield self.env.timeout(
                        max(system.shuttle_policy.max_backoff_s, 1.0)
                    )
            cart = station.cart
            n_bytes = cart.shards[(dataset.name, index)].size_bytes
            if payload is not None:
                step_name, step = payload
                with tracer.span(step_name, track=shard_track, shard=index):
                    n_bytes = yield step(station, index, n_bytes)
            with tracer.span("close", track=shard_track, shard=index):
                yield self.env.process(self._persistent_close(cart, endpoint_id))
            yield delivered.put(n_bytes)

        with tracer.span(command, track="api", dataset=dataset.name,
                         shards=len(indices)):
            for index in indices:
                self.env.process(shard_worker(index))

            total_bytes = 0.0
            for _ in indices:
                total_bytes += yield delivered.get()

        return TransferReport(
            dataset=dataset,
            shards_moved=len(indices),
            bytes_delivered=total_bytes,
            start_s=start,
            end_s=self.env.now,
            launches=system.total_launches - start_launches,
            launch_energy_j=system.total_launch_energy - start_energy,
        )

    def _persistent_close(self, cart: Cart, endpoint_id: int):
        """Process: Close a cart, waiting out track outages.

        Unlike Open — whose payload can fail over to the optical network
        — a Close moves the physical cart, which has exactly one way
        home.  When the retry policy gives up (outage past threshold or
        attempts exhausted) the cart stays parked at the rack and we try
        again after a beat, so campaigns drain cleanly once the track is
        repaired instead of stranding hardware.
        """
        while True:
            try:
                result = yield self.close(cart, endpoint_id)
                return result
            except DegradedServiceError:
                self.system.tracer.instant(
                    "return.deferred",
                    track=f"cart-{cart.cart_id}",
                    cart=cart.cart_id,
                )
                self.system._count(COUNT_PREFIX + "return_deferrals")
                yield self.env.timeout(
                    max(self.system.shuttle_policy.max_backoff_s, 1.0)
                )

    def _failover_transfer(self, n_bytes: float):
        """Process: push one shard's bytes over the optical network.

        Used when the DHL degrades: the shard's cart stays in the
        library and the bytes go over ``system.failover.link``, with the
        transfer time simulated and the route energy recorded under the
        ``network_failover`` category.
        """
        system = self.system
        policy = system.failover
        # Optical-link occupancy: how many failover streams share the
        # fallback path at once (a gauge sampled into the trace).
        active = system.metrics.gauge("occupancy.optical_failover")
        active.add(1)
        system.tracer.counter("occupancy.optical_failover", active.value)
        try:
            yield self.env.timeout(policy.transfer_time(n_bytes))
        finally:
            active.add(-1)
            system.tracer.counter("occupancy.optical_failover", active.value)
        system._count(COUNT_PREFIX + "failovers")
        system._count(ENERGY_PREFIX + "network_failover", policy.transfer_energy(n_bytes))
        return n_bytes
