"""Tests for Resource and Store."""

import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, Resource, Store


class TestResource:
    def test_capacity_one_serialises(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def worker(name):
            with resource.request() as claim:
                yield claim
                log.append((env.now, name, "start"))
                yield env.timeout(10)
            log.append((env.now, name, "end"))

        env.process(worker("a"))
        env.process(worker("b"))
        env.run()
        assert log == [
            (0.0, "a", "start"),
            (10.0, "a", "end"),
            (10.0, "b", "start"),
            (20.0, "b", "end"),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        finish = []

        def worker():
            with resource.request() as claim:
                yield claim
                yield env.timeout(10)
            finish.append(env.now)

        for _ in range(2):
            env.process(worker())
        env.run()
        assert finish == [10.0, 10.0]

    def test_fifo_grant_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        grants = []

        def worker(name, arrival):
            yield env.timeout(arrival)
            with resource.request() as claim:
                yield claim
                grants.append(name)
                yield env.timeout(100)

        for index, name in enumerate("abcd"):
            env.process(worker(name, index * 0.1))
        env.run(until=1000)
        assert grants == ["a", "b", "c", "d"]

    def test_count_tracks_users(self):
        env = Environment()
        resource = Resource(env, capacity=3)
        requests = [resource.request() for _ in range(5)]
        env.run()
        assert resource.count == 3
        requests[0].release()
        assert resource.count == 3  # a queued request was promoted

    def test_cancel_queued_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.request()
        queued = resource.request()
        queued.release()  # cancel before grant
        first.release()
        assert resource.count == 0
        assert not resource.queue

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestGrantCycles:
    def test_holder_sees_its_request_while_held(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        seen = []

        def holder():
            request = resource.request()
            seen.append((yield request) is request)
            yield env.timeout(1.0)
            request.release()

        def waiter():
            request = resource.request()
            seen.append((yield request) is request)
            request.release()

        env.process(holder())
        env.process(waiter())
        env.run()
        assert seen == [True, True]

    def test_a_released_grant_is_not_a_reference_cycle(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def claimant():
            with resource.request() as request:
                yield request
                yield env.timeout(1.0)

        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                env.process(claimant())
            env.run()
            del env, resource
            gc.collect()
            leaked = [obj for obj in gc.garbage if type(obj).__name__ == "Request"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []


class TestStore:
    def test_put_get_fifo(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        def producer():
            for item in "xyz":
                yield store.put(item)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == ["x", "y", "z"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        times = []

        def consumer():
            yield store.get()
            times.append(env.now)

        def producer():
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert times == [5.0]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            yield store.put("b")  # blocks until the consumer drains one
            times.append(env.now)

        def consumer():
            yield env.timeout(7)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert times == [7.0]

    def test_len(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(SimulationError):
            Store(Environment(), capacity=0)

    @given(items=st.lists(st.integers(), min_size=1, max_size=50))
    def test_fifo_property(self, items):
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            for item in items:
                yield store.put(item)
                yield env.timeout(0)

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items


class TestInterruptDuringClaim:
    def test_interrupt_while_holding_releases_via_context_manager(self):
        # A process interrupted while *holding* a Resource must release
        # the claim through the context manager so waiters proceed.
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def holder():
            with resource.request() as claim:
                yield claim
                order.append("acquired")
                try:
                    yield env.timeout(100)
                except Interrupt:
                    order.append("interrupted")
                    return

        def waiter():
            with resource.request() as claim:
                yield claim
                order.append(("waiter-in", env.now))

        victim = env.process(holder())
        env.process(waiter())

        def interrupter():
            yield env.timeout(10)
            victim.interrupt("maintenance")

        env.process(interrupter())
        env.run()
        assert order == ["acquired", "interrupted", ("waiter-in", 10)]
        assert resource.count == 0

    def test_interrupt_while_queued_abandons_the_claim(self):
        # Interrupted while still *waiting*: the pending request must be
        # cancelled so the resource never counts a ghost claim.
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.request()

        def queued():
            with resource.request() as claim:
                try:
                    yield claim
                except Interrupt:
                    return "abandoned"

        victim = env.process(queued())

        def interrupter():
            yield env.timeout(1)
            victim.interrupt()

        env.process(interrupter())
        env.run()
        assert victim.value == "abandoned"
        first.release()
        assert resource.count == 0
