"""The optimised engine against the frozen seed engine, event for event.

:mod:`repro.sim.engine` was rewritten for throughput;
:mod:`repro.sim.reference` keeps the pre-optimisation engine verbatim.
The optimisation contract is *observational equivalence*: identical
resume order (FIFO within a timestamp), identical virtual end time and
identical schedule counts on any process graph.  A hypothesis-driven
interpreter runs randomised programs — timeouts with colliding
timestamps, already-processed yields, spawn chains, conditions,
resource contention, store hand-offs and cancellation races — on both
engines and compares their execution logs entry for entry.

The dhlsim goldens below were recorded on the seed engine before the
rewrite; the optimised engine must keep reproducing them bit for bit
(the reference engine cannot run dhlsim itself, whose components
type-check against the real classes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import bench as engine_bench
from repro.sim.bench import OPTIMISED, REFERENCE

# Discrete delays make timestamp collisions common, which is exactly
# where FIFO-within-timestamp determinism can break.
_delays = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])

_leaf_op = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.just(("ready",)),
    st.tuples(st.just("allof"), st.lists(_delays, min_size=1, max_size=3)),
    st.tuples(st.just("anyof"), st.lists(_delays, min_size=1, max_size=3)),
    st.tuples(st.just("resource"), _delays),
    st.tuples(st.just("putget"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("cancel"), _delays,
              st.lists(_delays, min_size=0, max_size=3)),
)

_op = st.one_of(
    _leaf_op,
    st.tuples(st.just("spawn"), st.lists(_leaf_op, min_size=0, max_size=3)),
)

_programs = st.lists(
    st.lists(_op, min_size=0, max_size=6), min_size=1, max_size=5
)


def run_program(kit, program):
    """Interpret one randomised program; return (log, end time, eid)."""
    env = kit.Environment()
    resource = kit.Resource(env, capacity=2)
    store = kit.Store(env)
    ready = env.event()
    ready.succeed("token")
    log = []

    def proc(pid, ops):
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "timeout":
                yield env.timeout(op[1])
            elif kind == "ready":
                # Once processed this exercises the immediate-resume
                # path (the shim in the optimised engine, a fresh
                # intermediate Event in the reference).
                yield ready
            elif kind == "spawn":
                yield env.process(proc(f"{pid}.{index}", op[1]))
            elif kind == "allof":
                yield env.all_of([env.timeout(d) for d in op[1]])
            elif kind == "anyof":
                yield env.any_of([env.timeout(d) for d in op[1]])
            elif kind == "resource":
                with resource.request() as claim:
                    yield claim
                    log.append((env.now, pid, index, "granted"))
                    yield env.timeout(op[1])
            elif kind == "putget":
                yield store.put(op[1])
                value = yield store.get()
                log.append((env.now, pid, index, "got", value))
            elif kind == "cancel":
                winner = env.timeout(op[1])
                losers = [env.timeout(op[1] + 1.0 + extra) for extra in op[2]]
                yield winner
                for loser in losers:
                    loser.cancel()
            log.append((env.now, pid, index, kind))
        log.append((env.now, pid, "end"))

    for pid, ops in enumerate(program):
        env.process(proc(str(pid), ops))
    env.run()
    return log, env.now, env._eid


class TestRandomisedParity:
    @settings(max_examples=60, deadline=None)
    @given(program=_programs)
    def test_execution_logs_match(self, program):
        opt_log, opt_now, opt_eid = run_program(OPTIMISED, program)
        ref_log, ref_now, ref_eid = run_program(REFERENCE, program)
        assert opt_log == ref_log
        assert opt_now == ref_now
        assert opt_eid == ref_eid

    def test_bench_workloads_schedule_identical_event_counts(self):
        # Every bench workload doubles as a parity check: both engines
        # must push the same number of queue entries.
        for name, (fn, _n) in engine_bench.WORKLOADS.items():
            n = 200
            assert fn(OPTIMISED, n) == fn(REFERENCE, n), name


class TestDhlsimGoldens:
    """Seed-engine goldens the optimised engine must keep reproducing."""

    def test_bulk_campaign_schedule_and_metrics(self):
        from repro.obs.scenarios import run_scenario

        result = run_scenario("bulk", shards=4, seed=0)
        assert result.system.env._eid == 142
        assert result.report.elapsed_s == pytest.approx(
            2305.1211267605627, rel=0, abs=0
        )
        assert result.report.launches == 8
        # Final MetricsRegistry contents, pinned from the seed engine.
        snapshot = result.system.metrics.snapshot()
        counts = {name: values["value"] for name, values in snapshot.items()
                  if name.startswith("count.")}
        assert counts == {
            "count.dispatches": 4.0,
            "count.launches": 8.0,
            "count.returns": 4.0,
        }
        # The DHL commands run as callback chains: spawns and resumes
        # fell from 45/137 when they were nested processes, while every
        # queue entry (``_eid``, ``events_fired``) stayed put.
        assert dict(result.tracer.engine_counters) == {
            "processes_spawned": 9,
            "process_resumes": 33,
            "events_fired": 142,
            "events_cancelled": 0,
        }

    def test_bulk_campaign_wider_shard_count(self):
        from repro.obs.scenarios import run_scenario

        result = run_scenario("bulk", shards=6, seed=0)
        assert result.system.env._eid == 212
        assert result.report.elapsed_s == pytest.approx(
            3449.081690140844, rel=0, abs=0
        )

    def test_faulty_campaign_golden(self):
        from repro.obs.scenarios import run_scenario

        result = run_scenario("bulk-faults", shards=4, seed=0)
        assert result.makespan_s == pytest.approx(
            2629.327093617476, rel=0, abs=0
        )
        assert dict(result.tracer.engine_counters) == {
            "processes_spawned": 10,
            "process_resumes": 47,
            "events_fired": 223,
            "events_cancelled": 0,
        }
