"""Cart timelines: render what the operational simulator did.

The timeline is a *view over the trace*: :class:`DhlSystem` emits a
``cart.state`` instant into its tracer on every cart transition, and
:class:`TimelineRecorder` re-derives per-cart state intervals from that
log — there is no parallel record-keeping.  Attaching a recorder simply
makes sure the system's tracer is capturing instants.  The ASCII Gantt
renderer then makes pipelining visible: overlapping transit and
dock-read bars are the Section V-B optimisation at work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, SimulationError
from ..obs.tracer import TraceLevel, Tracer
from .cart import CartState
from .scheduler import UNTRACED, DhlSystem

CART_STATE_EVENT = "cart.state"
"""Trace instant name carrying cart transitions (args: cart, state)."""


@dataclass(frozen=True)
class TimelineEvent:
    """One cart state transition."""

    time_s: float
    cart_id: int
    state: str


@dataclass(frozen=True)
class Span:
    """A rendered interval of one cart's life in one state."""

    cart_id: int
    state: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def timeline_events(tracer: Tracer) -> list[TimelineEvent]:
    """Cart transitions extracted from a tracer's instant log."""
    events = []
    for instant in tracer.instants:
        if instant.name != CART_STATE_EVENT:
            continue
        args = dict(instant.args)
        events.append(
            TimelineEvent(
                time_s=instant.time_s,
                cart_id=args["cart"],
                state=args["state"],
            )
        )
    return events


@dataclass
class TimelineRecorder:
    """A cart-timeline view over one system's trace.

    Attaching ensures the system's tracer captures instants: a system's
    own tracer is raised to ``METRICS`` level, and an untraced system
    (sharing :data:`~repro.dhlsim.scheduler.UNTRACED`) gets a tracer of
    its own, which its carts at rest — in the library, docked or in a
    recovery bay — take on too.  Attach it before carts move.
    Everything else is derived on demand from the trace log.
    """

    system: DhlSystem
    tracer: Tracer = field(init=False)

    def __post_init__(self) -> None:
        system = self.system
        if system.tracer is UNTRACED:
            system.tracer = Tracer(system.env, level=TraceLevel.METRICS)
            carts = list(system.library.carts.values())
            for rack in system.racks.values():
                carts += rack.docked_carts + rack.stranded
            for cart in carts:
                cart.tracer = system.tracer
        else:
            system.tracer.enable(TraceLevel.METRICS)
        self.tracer = system.tracer

    @property
    def events(self) -> list[TimelineEvent]:
        """Every recorded cart transition, in time order."""
        return timeline_events(self.tracer)

    def spans(self) -> list[Span]:
        """Consecutive event pairs per cart, as closed intervals."""
        events = self.events
        if not events:
            raise SimulationError("no events recorded; run a transfer first")
        by_cart: dict[int, list[TimelineEvent]] = {}
        for event in events:
            by_cart.setdefault(event.cart_id, []).append(event)
        end_time = self.system.env.now
        spans = []
        for cart_id, cart_events in by_cart.items():
            for current, following in zip(cart_events, cart_events[1:]):
                spans.append(
                    Span(
                        cart_id=cart_id,
                        state=current.state,
                        start_s=current.time_s,
                        end_s=following.time_s,
                    )
                )
            last = cart_events[-1]
            if end_time > last.time_s:
                spans.append(
                    Span(
                        cart_id=cart_id,
                        state=last.state,
                        start_s=last.time_s,
                        end_s=end_time,
                    )
                )
        return sorted(spans, key=lambda span: (span.cart_id, span.start_s))

    def concurrency(self, state: str) -> int:
        """Peak number of carts simultaneously in ``state`` — the direct
        measure of pipelining (docked concurrency > 1 means overlapped
        reads)."""
        if state not in CartState.ALL:
            raise ConfigurationError(f"unknown cart state {state!r}")
        boundaries = []
        for span in self.spans():
            if span.state == state and span.duration_s > 0:
                boundaries.append((span.start_s, 1))
                boundaries.append((span.end_s, -1))
        peak = current = 0
        for _, delta in sorted(boundaries, key=lambda item: (item[0], item[1])):
            current += delta
            peak = max(peak, current)
        return peak


_STATE_GLYPHS = {
    CartState.STORED: ".",
    CartState.READY: "r",
    CartState.IN_TRANSIT: ">",
    CartState.ARRIVED: "a",
    CartState.DOCKED: "#",
}


def render_gantt(recorder: TimelineRecorder, width: int = 72) -> str:
    """ASCII Gantt chart: one row per cart, glyphs by state.

    Legend: '.' stored, 'r' ready, '>' in transit, 'a' arrived,
    '#' docked (data accessible).
    """
    if width < 10:
        raise ConfigurationError(f"width must be >= 10, got {width}")
    spans = recorder.spans()
    end_time = max(span.end_s for span in spans)
    if end_time <= 0:
        raise SimulationError("timeline has no duration")
    cart_ids = sorted({span.cart_id for span in spans})
    scale = width / end_time

    lines = [
        f"cart timeline, 0..{end_time:.1f} s "
        "('.' stored, 'r' ready, '>' transit, 'a' arrived, '#' docked)"
    ]
    for cart_id in cart_ids:
        row = [" "] * width
        for span in spans:
            if span.cart_id != cart_id:
                continue
            start = min(width - 1, int(span.start_s * scale))
            end = min(width, max(start + 1, int(span.end_s * scale)))
            glyph = _STATE_GLYPHS[span.state]
            for cell in range(start, end):
                row[cell] = glyph
        lines.append(f"cart {cart_id:>4d} |{''.join(row)}|")
    return "\n".join(lines)
