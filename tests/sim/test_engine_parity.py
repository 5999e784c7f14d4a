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

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
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


# Arrival instants: a small fixed set makes ties with each other and
# with the background's discrete delays common; free floats hit pairs
# where ``now + (arrival - now) != arrival``.
_instants = st.one_of(
    st.sampled_from([0.0, 0.5, 0.7, 1.0, 2.9, 3.0]),
    st.floats(0.0, 6.0),
)
_arrivals = st.lists(
    st.tuples(_instants, st.one_of(st.none(), _delays)), max_size=12
)
_background = st.lists(
    st.lists(st.tuples(st.sampled_from(["timeout", "cancel"]), _delays),
             max_size=4),
    max_size=3,
)


def run_arrival_chain(kit, arrivals, background, clock, deadlines, jump):
    """Take sorted ``arrivals`` in from a callback chain; (log, now, eid).

    The chain is the control plane's intake pattern: each callback takes
    in every due arrival, then waits for the next with a timeout
    ``arrival - now`` after now — or, with ``jump``, first asks
    ``advance_to`` to move the clock there with no queue entry.  An
    arrival carrying a delay spawns a process that sleeps that long;
    background processes sleep through their own delays, and a
    ``cancel`` step leaves a cancelled timeout queued behind its winner.
    ``clock`` is how the clock is run before a final ``run()``: not at
    all (``"run"``), through each of ``deadlines`` (``"until"``), until
    the chain has taken in its last arrival (``"event"``) or by
    ``step()`` alone (``"step"``).
    """
    env = kit.Environment()
    log = []
    jobs = iter(enumerate(sorted(arrivals, key=lambda job: job[0])))
    closed = env.event()

    def work(index, delay):
        yield env.timeout(delay)
        log.append((env.now, "done", index))

    def arrive(job):
        index, (_at, delay) = job
        log.append((env.now, "arrive", index))
        if delay is not None:
            env.process(work(index, delay))

    def intake(event):
        if event.value is not None:
            arrive(event.value)
        for job in jobs:
            now = env.now
            if job[1][0] > now:
                delay = job[1][0] - now
                if not (jump and env.advance_to(now + delay)):
                    env.timeout(delay, job).callbacks.append(intake)
                    return
            arrive(job)
        log.append((env.now, "closed"))
        closed.succeed()

    def sleeper(pid, steps):
        for index, (kind, delay) in enumerate(steps):
            winner = env.timeout(delay)
            loser = env.timeout(delay + 1.0) if kind == "cancel" else None
            yield winner
            if loser is not None:
                loser.cancel()
            log.append((env.now, "sleep", pid, index))

    for pid, steps in enumerate(background):
        env.process(sleeper(pid, steps))
    env.timeout(0.0).callbacks.append(intake)
    if clock == "until":
        for deadline in sorted(deadlines):
            env.run(until=deadline)
            log.append((env.now, "deadline"))
    elif clock == "event":
        env.run(until=closed)
        log.append((env.now, "stopped"))
    elif clock == "step":
        while env.peek() != float("inf"):
            env.step()
    env.run()
    return log, env.now, env._eid


class TestAdvanceToParity:
    @settings(max_examples=80, deadline=None)
    @given(
        arrivals=_arrivals,
        background=_background,
        clock=st.sampled_from(["run", "until", "event", "step"]),
        extra=st.lists(st.floats(0.0, 7.0), max_size=3),
        on_arrival=st.lists(st.integers(0, 11), max_size=3),
    )
    def test_jumps_fire_like_a_timeout_chain(
        self, arrivals, background, clock, extra, on_arrival
    ):
        # Deadlines fall between arrivals and exactly on some of them.
        deadlines = extra + [
            arrivals[index][0] for index in on_arrival if index < len(arrivals)
        ]
        jumped = run_arrival_chain(OPTIMISED, arrivals, background, clock,
                                   deadlines, jump=True)
        reference = run_arrival_chain(REFERENCE, arrivals, background,
                                      clock, deadlines, jump=False)
        assert jumped[:2] == reference[:2]
        assert jumped[2] <= reference[2]

    @settings(max_examples=150, deadline=None)
    @given(
        queued=st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.0, 4.0),
                        max_size=4),
        cancel=st.booleans(),
        until=st.none() | st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.0, 4.0),
        whens=st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.0, 5.0),
                       min_size=1, max_size=6),
        traced=st.booleans(),
    )
    def test_bounds_say_exactly_when_a_jump_is_taken(
        self, queued, cancel, until, whens, traced
    ):
        # ``ControlPlane._shed_rows`` plans whole runs of jumps from
        # ``advance_bounds``; it is exact only while the bounds state
        # ``advance_to``'s rule, inside and outside a run.
        from repro.obs import Tracer

        env = OPTIMISED.Environment(tracer=Tracer() if traced else None)
        events = [env.timeout(delay) for delay in queued]
        if cancel and events:
            # A cancelled queue head stays in the queue until popped.
            min(events, key=lambda event: event.delay).cancel()

        def check():
            jumps = []
            for when in whens:
                now = env.now
                if when < now:
                    with pytest.raises(SimulationError, match="past"):
                        env.advance_to(when)
                    continue
                head, deadline = env.advance_bounds()
                jumped = env.advance_to(when)
                assert jumped == (when < head and when <= deadline)
                assert env.now == (when if jumped else now)
                jumps.append(jumped)
            return jumps

        assert not any(check())  # outside a run
        env.timeout(0.5).callbacks.append(lambda _event: check())
        env.run(until=until)
        assert not any(check())  # the run has returned

    def test_refused_outside_a_run_on_ties_and_past_the_deadline(self):
        env = OPTIMISED.Environment()
        assert env.advance_bounds() == (math.inf, -math.inf)
        assert not env.advance_to(1.0)  # no run in progress
        env.timeout(2.0)
        answers = []

        def probe(_event):
            # ``advance_bounds`` states the rule the answers follow.
            answers.append(env.advance_bounds())
            answers.append(env.advance_to(2.0))   # ties the queue head
            answers.append(env.advance_to(1.5))   # past run(until=1.25)
            answers.append(env.advance_to(1.25))  # exactly on it
            answers.append(env.now)

        env.timeout(1.0).callbacks.append(probe)
        env.run(until=1.25)
        assert answers == [(2.0, 1.25), False, False, True, 1.25]
        assert not env.advance_to(1.5)  # the run has returned
        assert env.advance_bounds() == (2.0, -math.inf)
        with pytest.raises(SimulationError, match="past"):
            env.advance_to(1.0)

    def test_refused_with_a_tracer_attached(self):
        from repro.obs import Tracer

        env = OPTIMISED.Environment(tracer=Tracer())
        answers = []

        def probe(_event):
            answers.append(env.advance_bounds())
            answers.append(env.advance_to(1.0))

        env.timeout(0.0).callbacks.append(probe)
        env.run()
        assert answers == [(math.inf, -math.inf), False] and env.now == 0.0


class TestDhlsimGoldens:
    """Seed-engine goldens the optimised engine must keep reproducing."""

    def test_bulk_campaign_schedule_and_metrics(self):
        from repro.obs.scenarios import run_scenario

        result = run_scenario("bulk", shards=4, seed=0)
        assert result.system.env._eid == 98
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
        # fell from 45/137 when they were nested processes.  Queue
        # entries (``_eid``, ``events_fired``) fell from 142 once the
        # chains stopped pushing a kick-off wherever a process would.
        assert dict(result.tracer.engine_counters) == {
            "processes_spawned": 9,
            "process_resumes": 33,
            "events_fired": 98,
            "events_cancelled": 0,
        }

    def test_bulk_campaign_wider_shard_count(self):
        from repro.obs.scenarios import run_scenario

        result = run_scenario("bulk", shards=6, seed=0)
        assert result.system.env._eid == 146  # 212 with kick-offs
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
            "events_fired": 164,  # 223 with kick-offs
            "events_cancelled": 0,
        }
