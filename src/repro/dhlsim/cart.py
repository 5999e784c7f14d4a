"""Cart state machine for the operational DHL simulator.

A cart is the magnetically levitated vehicle carrying an SSD array
(Section III-B1).  The simulator tracks each cart's lifecycle through an
explicit state machine so scheduling bugs surface as
:class:`~repro.errors.CartStateError` instead of silent corruption.

States and legal transitions::

    STORED    --undock-->  READY
    READY     --launch-->  IN_TRANSIT
    IN_TRANSIT --arrive--> ARRIVED
    ARRIVED   --dock-->    DOCKED
    DOCKED    --undock-->  READY           (heading back out)
    ARRIVED/READY --store--> STORED        (into a library slot)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import CartStateError, StorageError
from ..obs.tracer import TraceLevel, Tracer
from ..storage.library import Shard
from ..storage.ssd_array import SsdArray


class CartState:
    """Enumeration of cart lifecycle states."""

    STORED = "stored"
    READY = "ready"
    IN_TRANSIT = "in-transit"
    ARRIVED = "arrived"
    DOCKED = "docked"

    ALL = (STORED, READY, IN_TRANSIT, ARRIVED, DOCKED)


_TRANSITIONS: dict[str, tuple[str, ...]] = {
    CartState.STORED: (CartState.READY,),
    # READY -> DOCKED covers re-docking a cart whose return shuttle was
    # aborted by a track fault: it parks back in the station it left.
    CartState.READY: (CartState.IN_TRANSIT, CartState.STORED, CartState.DOCKED),
    CartState.IN_TRANSIT: (CartState.ARRIVED,),
    CartState.ARRIVED: (CartState.DOCKED, CartState.STORED, CartState.READY),
    CartState.DOCKED: (CartState.READY,),
}

_cart_ids = itertools.count()


@dataclass
class Cart:
    """One DHL cart: an SSD array plus location/state bookkeeping.

    ``location`` is the endpoint id the cart currently occupies (or is
    docked at); during transit it is the *destination* endpoint.
    ``shards`` maps (dataset, index) to the stored :class:`Shard`.
    """

    array: SsdArray
    location: int = 0
    cart_id: int = field(default_factory=lambda: next(_cart_ids))
    state: str = CartState.STORED
    shards: dict[tuple[str, int], Shard] = field(default_factory=dict)
    failed_drives: int = 0
    trips_completed: int = 0
    tracer: Tracer | None = field(default=None, repr=False, compare=False)
    """Where transitions land as ``cart.state`` instants (carts a
    :class:`~repro.dhlsim.scheduler.DhlSystem` makes carry its tracer)."""

    def __post_init__(self) -> None:
        if self.state not in CartState.ALL:
            raise CartStateError(f"unknown cart state {self.state!r}")

    # -- state machine -------------------------------------------------------

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, validating against the transition table.

        The level is checked per call, so a tracer raised after the cart
        exists (a timeline recorder) still sees every later transition.
        """
        if new_state not in CartState.ALL:
            raise CartStateError(f"unknown cart state {new_state!r}")
        allowed = _TRANSITIONS[self.state]
        if new_state not in allowed:
            raise CartStateError(
                f"cart {self.cart_id}: illegal transition "
                f"{self.state} -> {new_state} (allowed: {allowed})"
            )
        self.state = new_state
        tracer = self.tracer
        if tracer is not None and tracer.level >= TraceLevel.METRICS:
            tracer.instant("cart.state", track=f"cart-{self.cart_id}",
                           cart=self.cart_id, state=new_state)

    @property
    def in_motion(self) -> bool:
        return self.state == CartState.IN_TRANSIT

    @property
    def accessible(self) -> bool:
        """Data is only reachable while docked (Section III-D caveat)."""
        return self.state == CartState.DOCKED

    # -- payload -------------------------------------------------------------

    @property
    def stored_bytes(self) -> float:
        return sum(shard.size_bytes for shard in self.shards.values())

    @property
    def free_bytes(self) -> float:
        return self.array.usable_capacity_bytes - self.stored_bytes

    def load_shard(self, shard: Shard) -> None:
        """Place a shard's data on the cart (content bookkeeping only)."""
        key = (shard.dataset, shard.index)
        if key in self.shards:
            raise StorageError(f"cart {self.cart_id} already holds shard {key}")
        if shard.size_bytes > self.free_bytes + 1e-6:
            raise StorageError(
                f"cart {self.cart_id}: shard of {shard.size_bytes:.3g} B does not fit "
                f"in {self.free_bytes:.3g} B free"
            )
        self.shards[key] = shard

    def unload_shard(self, dataset: str, index: int) -> Shard:
        """Remove and return a shard from the cart."""
        try:
            return self.shards.pop((dataset, index))
        except KeyError:
            raise StorageError(
                f"cart {self.cart_id} does not hold shard ({dataset!r}, {index})"
            ) from None

    def holds(self, dataset: str, index: int) -> bool:
        return (dataset, index) in self.shards

    def abort_transit(self, origin: int) -> None:
        """Recover from a failed shuttle attempt: back to READY at ``origin``.

        A breach, stall extraction or deadline interrupt can strike while
        the cart is IN_TRANSIT (location already points at the
        destination) or ARRIVED (not yet docked).  Recovery parks the
        cart READY at the endpoint it launched from so the retry layer
        can relaunch or re-store it.
        """
        if self.state == CartState.IN_TRANSIT:
            self.transition(CartState.ARRIVED)
        if self.state == CartState.ARRIVED:
            self.transition(CartState.READY)
        if self.state != CartState.READY:
            raise CartStateError(
                f"cart {self.cart_id}: cannot abort transit from state {self.state}"
            )
        self.location = origin

    # -- faults ---------------------------------------------------------------

    def fail_drive(self, count: int = 1) -> None:
        """Record in-flight drive failures; recoverability checked at dock."""
        if count <= 0:
            raise StorageError(f"failure count must be positive, got {count}")
        self.failed_drives += count

    def check_integrity(self) -> None:
        """Raise :class:`DataIntegrityError` when failures exceed parity."""
        self.array.surviving(self.failed_drives)

    def repair(self) -> float:
        """Repair failed drives at the library; returns rebuild seconds."""
        degraded = self.array.surviving(self.failed_drives)
        rebuild = degraded.rebuild_time()
        self.failed_drives = 0
        return rebuild

    def __repr__(self) -> str:
        return (
            f"<Cart {self.cart_id} {self.state} at endpoint {self.location} "
            f"holding {len(self.shards)} shards>"
        )
