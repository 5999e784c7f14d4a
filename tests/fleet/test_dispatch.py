"""Heap dispatch in the fleet lane queues.

``_LaneQueue`` keeps one heap of ``(key, seq, job)`` under the
scenario's fixed dispatch order.  The differential test drives it next
to the min-scan queue it replaced (kept here, as the oracle, and nowhere
in ``src``); the proxy test counts dispatch-key evaluations on the
saturated shard-bench fleet, a machine-portable stand-in for dispatch
cost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import controlplane, shard, shardbench
from repro.fleet.controlplane import POLICIES, _FleetJob, _LaneQueue, _policy_key
from repro.sim import Environment

#: ``shard.signature_digest`` of the seed-0 shard-bench fleet report,
#: unsharded, over 3600 s (the e2e benchmark's fleet-saturated pin).
SEED0_DIGEST = "e3fe7834922c91527399f6c309cf2edf30bf04b0e5ab8b5b868eec5cf87f0983"
SEED0_JOBS = 9275


class MinScanQueue:
    """The oracle: ``min()`` over arrival-ordered pending jobs."""

    def __init__(self):
        self.pending: list[_FleetJob] = []

    def push(self, fjob):
        self.pending.append(fjob)

    def get(self, order):
        best = min(self.pending, key=_policy_key(order))
        self.pending.remove(best)
        return best


def take(queue):
    """Take the next job off a non-empty queue, parking no waiter."""
    fjob = queue.get(lambda _event: None)
    assert fjob is not None and not queue.waiters, "get() waited on a non-empty queue"
    return fjob


# Tiny value domains so duplicate job ids and fully equal keys are common.
jobs = st.builds(
    lambda job_id, arrival, size, deadline, priority: _FleetJob(
        job_id=job_id, arrival_s=arrival, size_bytes=size, kind="interactive",
        dataset="ds-000",
        read_bytes=size,
        deadline_at=deadline,
        priority=priority,
    ),
    st.integers(0, 3),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.sampled_from([1.0, 2.0]),
    st.sampled_from([10.0, 20.0]),
    st.integers(0, 1),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("push"), jobs),
        st.tuples(st.just("get"), st.none()),
    ),
    max_size=60,
)


class TestDifferentialOracle:
    @settings(max_examples=300)
    @given(order=st.sampled_from(POLICIES), steps=steps)
    def test_heap_pops_what_min_scan_pops(self, order, steps):
        queue = _LaneQueue(Environment(), _policy_key(order))
        oracle = MinScanQueue()
        for op, arg in steps:
            if op == "push":
                queue.push(arg)
                oracle.push(arg)
            elif oracle.pending:
                assert take(queue) is oracle.get(order)
            assert queue.depth == len(oracle.pending)
        while oracle.pending:
            assert take(queue) is oracle.get(order)
        assert queue.depth == 0

    def test_equal_keys_pop_in_push_order(self):
        twins = [
            _FleetJob(job_id=7, arrival_s=1.0, size_bytes=1.0,
                      kind="interactive", dataset="ds-000", read_bytes=1.0,
                      deadline_at=10.0, priority=0)
            for _ in range(3)
        ]
        for order in POLICIES:
            queue = _LaneQueue(Environment(), _policy_key(order))
            for twin in twins:
                queue.push(twin)
            popped = [take(queue) for _ in twins]
            assert list(map(id, popped)) == list(map(id, twins))


class TestDispatchProxy:
    def test_each_job_is_keyed_once_on_the_saturated_fleet(self, monkeypatch):
        """Key evaluations = jobs pushed, with no heap rebuilds.

        The plane builds its one dispatch key at construction and every
        push keys its job on the way into the heap, so nothing is ever
        re-keyed: 9,275 evaluations, where the min-scan made 565,636.
        """
        evaluations = 0
        keys_built = 0
        pushes = 0
        real_key, real_push = controlplane._policy_key, _LaneQueue.push

        def counting_key(order):
            nonlocal keys_built
            keys_built += 1
            key = real_key(order)

            def counted(fjob):
                nonlocal evaluations
                evaluations += 1
                return key(fjob)

            return counted

        def counting_push(self, fjob):
            nonlocal pushes
            pushes += 1
            real_push(self, fjob)

        monkeypatch.setattr(controlplane, "_policy_key", counting_key)
        monkeypatch.setattr(_LaneQueue, "push", counting_push)
        scenario = shardbench.bench_scenario(seed=0, horizon_s=3600.0)
        report = controlplane.run_fleet(scenario)

        assert report.n_jobs == report.served == SEED0_JOBS
        assert keys_built == 1
        assert evaluations == pushes == SEED0_JOBS
        assert shard.signature_digest(report) == SEED0_DIGEST
