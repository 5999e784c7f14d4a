"""Tests for the cart timeline recorder and Gantt renderer."""

import pytest

from repro.dhlsim.api import DhlApi
from repro.dhlsim.scheduler import DhlSystem
from repro.dhlsim.timeline import TimelineRecorder, render_gantt
from repro.errors import ConfigurationError, SimulationError
from repro.sim import Environment
from repro.storage.datasets import synthetic_dataset
from repro.units import TB


def run_transfer(shards=3, stations=2, attach_after_load=False):
    env = Environment()
    system = DhlSystem(env, stations_per_rack=stations)
    if not attach_after_load:
        recorder = TimelineRecorder(system)
    dataset = synthetic_dataset(shards * 256 * TB, name="tl")
    system.load_dataset(dataset)
    if attach_after_load:
        recorder = TimelineRecorder(system)
    api = DhlApi(system)
    env.run(until=api.bulk_transfer(dataset))
    return recorder


class TestRecorder:
    def test_recorder_attached_after_the_carts_exist_sees_every_move(self):
        # Carts check their tracer's level on each transition, so
        # raising it after the carts were made still records the run.
        early = run_transfer(shards=3).events
        late = run_transfer(shards=3, attach_after_load=True).events
        assert len(late) == 3 * 8  # out and home: 4 transitions each way
        assert [(e.time_s, e.state) for e in late] == [
            (e.time_s, e.state) for e in early
        ]

    def test_events_recorded_for_every_cart(self):
        recorder = run_transfer(shards=3)
        cart_ids = {event.cart_id for event in recorder.events}
        assert len(cart_ids) == 3

    def test_event_times_non_decreasing(self):
        recorder = run_transfer()
        times = [event.time_s for event in recorder.events]
        assert times == sorted(times)

    def test_spans_partition_each_cart_life(self):
        recorder = run_transfer(shards=2)
        spans = recorder.spans()
        by_cart = {}
        for span in spans:
            by_cart.setdefault(span.cart_id, []).append(span)
        for cart_spans in by_cart.values():
            for earlier, later in zip(cart_spans, cart_spans[1:]):
                assert later.start_s == pytest.approx(earlier.end_s)

    def test_every_cart_ends_stored(self):
        recorder = run_transfer(shards=2)
        last_by_cart = {}
        for event in recorder.events:
            last_by_cart[event.cart_id] = event
        assert all(event.state == "stored" for event in last_by_cart.values())

    def test_no_events_rejected(self):
        env = Environment()
        recorder = TimelineRecorder(DhlSystem(env))
        with pytest.raises(SimulationError):
            recorder.spans()


class TestConcurrency:
    def test_pipelining_visible_as_docked_concurrency(self):
        recorder = run_transfer(shards=4, stations=2)
        assert recorder.concurrency("docked") == 2

    def test_single_station_serialises(self):
        recorder = run_transfer(shards=3, stations=1)
        assert recorder.concurrency("docked") == 1

    def test_single_tube_means_one_in_transit(self):
        recorder = run_transfer(shards=4, stations=2)
        assert recorder.concurrency("in-transit") == 1

    def test_unknown_state_rejected(self):
        recorder = run_transfer()
        with pytest.raises(ConfigurationError):
            recorder.concurrency("teleporting")


class TestGantt:
    def test_renders_one_row_per_cart(self):
        recorder = run_transfer(shards=3)
        art = render_gantt(recorder, width=40)
        rows = [
            line for line in art.splitlines()
            if line.startswith("cart ") and line.endswith("|")
        ]
        assert len(rows) == 3

    def test_docked_glyph_present(self):
        recorder = run_transfer(shards=2)
        assert "#" in render_gantt(recorder)

    def test_width_validated(self):
        recorder = run_transfer(shards=1)
        with pytest.raises(ConfigurationError):
            render_gantt(recorder, width=5)
