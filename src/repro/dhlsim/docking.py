"""Docking stations: where carts couple to compute racks over PCIe.

Each rack endpoint owns several docking stations (Section III-B5): a cart
is lifted off the track into a station, its SSDs' PCIe connectors mate,
and the rack's nodes then read/write at local bandwidth.  Multiple
stations per endpoint enable pipelining — while one cart is being read,
the next can be shuttled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchedulingError
from ..sim import Environment, Event, Resource
from ..storage.ssd_array import PCIE6_X64, PcieLink
from .cart import Cart, CartState


@dataclass
class DockingStation:
    """A single dock slot: holds at most one cart, connected over PCIe."""

    env: Environment
    station_id: int
    endpoint_id: int
    link: PcieLink = PCIE6_X64
    cart: Cart | None = None
    slot_claim: object | None = None
    """The rack slot grant held while a dispatched cart occupies this dock."""
    out_of_service: bool = False
    """Set by dock fault injectors; an OOS station accepts no carts."""
    busy: Resource = field(init=False)
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    def __post_init__(self) -> None:
        # One I/O stream at a time per dock; the PCIe link is the bottleneck.
        self.busy = Resource(self.env, capacity=1)

    @property
    def occupied(self) -> bool:
        return self.cart is not None

    def attach(self, cart: Cart) -> None:
        if self.cart is not None:
            raise SchedulingError(
                f"dock {self.station_id}@{self.endpoint_id} already holds "
                f"cart {self.cart.cart_id}"
            )
        cart.transition(CartState.DOCKED)
        cart.location = self.endpoint_id
        self.cart = cart

    def detach(self) -> Cart:
        if self.cart is None:
            raise SchedulingError(
                f"dock {self.station_id}@{self.endpoint_id} is empty"
            )
        cart = self.cart
        self.cart = None
        cart.transition(CartState.READY)
        return cart

    # -- I/O ------------------------------------------------------------------
    #
    # Each transfer is a chain of plain-event callbacks that pushes the
    # queue entries a generator process would: a kick-off, the busy
    # grant, the transfer timeout and the completion (see
    # ``repro.dhlsim.scheduler``).

    def read(self, n_bytes: float) -> Event:
        """Read ``n_bytes`` from the docked cart at PCIe/SSD speed.

        The returned event fires with ``n_bytes`` once the transfer ends.
        """
        return self._transfer(n_bytes, writing=False)

    def write(self, n_bytes: float) -> Event:
        """Write ``n_bytes`` to the docked cart at PCIe/SSD speed.

        The returned event fires with ``n_bytes`` once the transfer ends.
        """
        return self._transfer(n_bytes, writing=True)

    def _transfer(self, n_bytes: float, writing: bool) -> Event:
        env = self.env
        done = env.event()
        operation = "write" if writing else "read"

        def start(_event: Event) -> None:
            try:
                cart = self._require_cart(operation)
                if n_bytes < 0:
                    raise SchedulingError(f"{operation} size must be >= 0, got {n_bytes}")
                if writing and n_bytes > cart.array.usable_capacity_bytes:
                    raise SchedulingError(
                        f"write of {n_bytes:.3g} B exceeds cart capacity "
                        f"{cart.array.usable_capacity_bytes:.3g} B"
                    )
            except Exception as error:
                done.fail(error)
                return
            claim = self.busy.request()

            def granted(_event: Event) -> None:
                array = cart.array
                try:
                    if writing:
                        bandwidth = array.effective_write_bw(self.link)
                    elif cart.failed_drives:
                        bandwidth = min(
                            array.surviving(cart.failed_drives).read_bw,
                            self.link.bandwidth,
                        )
                    else:
                        bandwidth = array.effective_read_bw(self.link)
                    transfer = env.timeout(n_bytes / bandwidth)
                except Exception as error:
                    claim.release()
                    done.fail(error)
                    return
                transfer.callbacks.append(finished)

            def finished(_event: Event) -> None:
                if writing:
                    self.bytes_written += n_bytes
                else:
                    self.bytes_read += n_bytes
                claim.release()
                done.succeed(n_bytes)

            claim.callbacks.append(granted)

        env.timeout(0.0).callbacks.append(start)
        return done

    def _require_cart(self, operation: str) -> Cart:
        if self.cart is None:
            raise SchedulingError(
                f"cannot {operation}: dock {self.station_id}@{self.endpoint_id} is empty"
            )
        return self.cart


@dataclass
class RackEndpoint:
    """A rack endpoint with several docking stations and a free-slot pool."""

    env: Environment
    endpoint_id: int
    n_stations: int = 2
    stations: list[DockingStation] = field(init=False)
    slots: Resource = field(init=False)
    stranded: list[Cart] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_stations <= 0:
            raise SchedulingError(f"need >= 1 docking station, got {self.n_stations}")
        self.stations = [
            DockingStation(self.env, station_id=index, endpoint_id=self.endpoint_id)
            for index in range(self.n_stations)
        ]
        self.slots = Resource(self.env, capacity=self.n_stations)
        self.stranded = []

    def free_station(self) -> DockingStation:
        """An unoccupied, in-service station; callers must hold a slot grant."""
        for station in self.stations:
            if not station.occupied and not station.out_of_service:
                return station
        raise SchedulingError(
            f"endpoint {self.endpoint_id}: slot accounting out of sync "
            "(grant held but no free station)"
        )

    def strand(self, cart: Cart) -> None:
        """Park a cart in the recovery bay when no dock slot is free.

        A returning cart whose shuttle failed after its slot was handed
        to the next dispatch waits here for an operator (or a later
        recovery process) instead of being silently lost.
        """
        if cart in self.stranded:
            raise SchedulingError(
                f"cart {cart.cart_id} is already stranded at endpoint "
                f"{self.endpoint_id}"
            )
        self.stranded.append(cart)

    def station_holding(self, cart: Cart) -> DockingStation:
        for station in self.stations:
            if station.cart is cart:
                return station
        raise SchedulingError(
            f"cart {cart.cart_id} is not docked at endpoint {self.endpoint_id}"
        )

    def find_docked(self, dataset: str, index: int) -> DockingStation:
        """The station whose cart holds a given shard."""
        for station in self.stations:
            if station.cart is not None and station.cart.holds(dataset, index):
                return station
        raise SchedulingError(
            f"no docked cart at endpoint {self.endpoint_id} holds "
            f"shard ({dataset!r}, {index})"
        )

    @property
    def docked_carts(self) -> list[Cart]:
        return [station.cart for station in self.stations if station.cart is not None]
