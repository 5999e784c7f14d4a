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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DegradedServiceError, SchedulingError
from ..sim import Environment, Event, Store
from ..storage.datasets import Dataset
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

        The returned event fires with the docking station.
        """
        system = self.system
        done = self.env.event()

        def start(_event: Event) -> None:
            try:
                cart = system.library.cart_holding(dataset, shard_index)
            except Exception as error:
                done.fail(error)
                return
            _settle(done, system.dispatch_to_rack(cart.cart_id, endpoint_id))

        self.env.timeout(0.0).callbacks.append(start)
        return done

    def close(self, cart: Cart, endpoint_id: int) -> Event:
        """Disconnect a cart and shuttle it back to the library."""
        return self.system.return_to_library(cart, endpoint_id)

    def read(self, endpoint_id: int, dataset: str, shard_index: int,
             n_bytes: float | None = None) -> Event:
        """Read shard bytes from the docked cart holding it.

        The returned event fires with the number of bytes read.
        """
        system = self.system
        done = self.env.event()

        def start(_event: Event) -> None:
            try:
                station = system.station_for_shard(endpoint_id, dataset, shard_index)
                cart = station.cart
                assert cart is not None
                cart.check_integrity()  # surfaces in-flight SSD failures at access time
                shard = cart.shards[(dataset, shard_index)]
            except Exception as error:
                done.fail(error)
                return
            amount = (
                shard.size_bytes if n_bytes is None else min(n_bytes, shard.size_bytes)
            )
            _settle(done, station.read(amount))

        self.env.timeout(0.0).callbacks.append(start)
        return done

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
        return self.env.process(self._bulk_transfer(dataset, endpoint_id, read_payload))

    def _bulk_transfer(self, dataset: Dataset, endpoint_id: int, read_payload: bool):
        system = self.system
        tracer = system.tracer
        shard_keys = sorted(
            (shard_index for name, shard_index in self._library_shards(dataset.name)),
        )
        if not shard_keys:
            raise SchedulingError(
                f"dataset {dataset.name!r} is not staged in the library; "
                "call DhlSystem.load_dataset first"
            )
        start = self.env.now
        start_launches = system.total_launches
        start_energy = system.total_launch_energy
        delivered = Store(self.env)

        def shard_worker(shard_index: int):
            shard_track = f"shard-{shard_index}"
            while True:
                open_span = tracer.span("open", track=shard_track, shard=shard_index)
                try:
                    station = yield self.open(dataset.name, shard_index, endpoint_id)
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
                        with tracer.span("failover", track=shard_track,
                                         shard=shard_index):
                            n_sent = yield self.env.process(
                                self._failover_transfer(dataset.name, shard_index)
                            )
                        yield delivered.put(n_sent)
                        return
                    tracer.instant("open.deferred", track=shard_track,
                                   shard=shard_index)
                    system._count(COUNT_PREFIX + "open_deferrals")
                    yield self.env.timeout(
                        max(system.shuttle_policy.max_backoff_s, 1.0)
                    )
            cart = station.cart
            if read_payload:
                with tracer.span("read", track=shard_track, shard=shard_index):
                    n_read = yield self.read(endpoint_id, dataset.name, shard_index)
            else:
                n_read = cart.shards[(dataset.name, shard_index)].size_bytes
            with tracer.span("close", track=shard_track, shard=shard_index):
                yield self.env.process(self._persistent_close(cart, endpoint_id))
            yield delivered.put(n_read)

        with tracer.span("bulk_transfer", track="api", dataset=dataset.name,
                         shards=len(shard_keys)):
            for shard_index in shard_keys:
                self.env.process(shard_worker(shard_index))

            total_bytes = 0.0
            for _ in shard_keys:
                total_bytes += yield delivered.get()

        return TransferReport(
            dataset=dataset,
            shards_moved=len(shard_keys),
            bytes_delivered=total_bytes,
            start_s=start,
            end_s=self.env.now,
            launches=system.total_launches - start_launches,
            launch_energy_j=system.total_launch_energy - start_energy,
        )

    def bulk_writeback(self, dataset: Dataset, endpoint_id: int = 1) -> Event:
        """Process: stream rack-resident data *into* the library.

        The backup direction (Section II-D2): empty carts shuttle to the
        rack, the rack Writes shard-sized chunks onto them at PCIe speed,
        and loaded carts Close back into cold storage.  Pipelined across
        the endpoint's docking stations like :meth:`bulk_transfer`.
        Returns a :class:`TransferReport`.
        """
        return self.env.process(self._bulk_writeback(dataset, endpoint_id))

    def _bulk_writeback(self, dataset: Dataset, endpoint_id: int):
        from ..storage.library import Shard, plan_placement

        system = self.system
        tracer = system.tracer
        plan = plan_placement(dataset, system.make_array())
        empty_carts = sum(
            1 for cart in system.library.carts.values() if not cart.shards
        )
        if empty_carts < plan.n_carts:
            raise SchedulingError(
                f"writeback of {dataset.name!r} needs {plan.n_carts} empty "
                f"carts but the library holds {empty_carts}; stage more "
                "with DhlSystem.add_empty_carts"
            )
        start = self.env.now
        start_launches = system.total_launches
        start_energy = system.total_launch_energy
        delivered = Store(self.env)

        def shard_worker(shard: Shard):
            shard_track = f"shard-{shard.index}"
            # Claim an empty cart and bring it to the rack.
            cart = system.library.idle_cart()
            cart.load_shard(shard)  # reserve content before dispatch
            while True:
                open_span = tracer.span("open", track=shard_track,
                                        shard=shard.index)
                try:
                    station = yield system.dispatch_to_rack(cart.cart_id, endpoint_id)
                    open_span.end()
                    break
                except DegradedServiceError:
                    open_span.end(failed=True)
                    if system.failover is not None:
                        # The cart was recovered into the library with
                        # the shard still reserved on it; undo that and
                        # ship the bytes over the optical network.
                        cart.unload_shard(shard.dataset, shard.index)
                        with tracer.span("failover", track=shard_track,
                                         shard=shard.index):
                            yield self.env.timeout(
                                system.failover.transfer_time(shard.size_bytes)
                            )
                        system._count(COUNT_PREFIX + "failovers")
                        system._count(
                            ENERGY_PREFIX + "network_failover",
                            system.failover.transfer_energy(shard.size_bytes),
                        )
                        yield delivered.put(shard.size_bytes)
                        return
                    tracer.instant("open.deferred", track=shard_track,
                                   shard=shard.index)
                    system._count(COUNT_PREFIX + "open_deferrals")
                    yield self.env.timeout(
                        max(system.shuttle_policy.max_backoff_s, 1.0)
                    )
            with tracer.span("write", track=shard_track, shard=shard.index):
                yield self.write(station, shard.size_bytes)
            with tracer.span("close", track=shard_track, shard=shard.index):
                yield self.env.process(
                    self._persistent_close(station.cart, endpoint_id)
                )
            yield delivered.put(shard.size_bytes)

        with tracer.span("bulk_writeback", track="api", dataset=dataset.name,
                         shards=plan.n_carts):
            for shard in plan:
                self.env.process(shard_worker(shard))

            total_bytes = 0.0
            for _ in plan.shards:
                total_bytes += yield delivered.get()

        return TransferReport(
            dataset=dataset,
            shards_moved=plan.n_carts,
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

    def _failover_transfer(self, dataset: str, shard_index: int):
        """Process: push one library-resident shard over the optical network.

        Used when the DHL degrades: the shard's cart stays in the
        library and the bytes go over ``system.failover.link``, with the
        transfer time simulated and the route energy recorded under the
        ``network_failover`` category.
        """
        policy = self.system.failover
        if policy is None:
            raise SchedulingError("no failover policy configured on this system")
        cart = self.system.library.cart_holding(dataset, shard_index)
        size = cart.shards[(dataset, shard_index)].size_bytes
        # Optical-link occupancy: how many failover streams share the
        # fallback path at once (a gauge sampled into the trace).
        active = self.system.metrics.gauge("occupancy.optical_failover")
        active.add(1)
        self.system.tracer.counter("occupancy.optical_failover", active.value)
        try:
            yield self.env.timeout(policy.transfer_time(size))
        finally:
            active.add(-1)
            self.system.tracer.counter("occupancy.optical_failover", active.value)
        self.system._count(COUNT_PREFIX + "failovers")
        self.system._count(
            ENERGY_PREFIX + "network_failover", policy.transfer_energy(size)
        )
        return size

    def _library_shards(self, dataset: str):
        for cart in self.system.library.carts.values():
            for (name, index) in cart.shards:
                if name == dataset:
                    yield (name, index)


def _settle(done: Event, step: Event) -> None:
    """Settle ``done`` with ``step``'s outcome once ``step`` fires.

    The hand-off is one more queue entry, as when a process returns the
    value of the child process it waited on.
    """

    def forward(event: Event) -> None:
        if event._ok:
            done.succeed(event._value)
        else:
            event._defused = True
            done.fail(event._value)

    step.callbacks.append(forward)
