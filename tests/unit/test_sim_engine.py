"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(5)
        seen.append(sim.now)
        yield sim.timeout(7)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [5, 12]


def test_zero_timeout_runs_same_cycle():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(0)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        order.append((sim.now, name))

    sim.process(worker(sim, "slow", 10))
    sim.process(worker(sim, "fast", 3))
    sim.run()
    assert order == [(3, "fast"), (10, "slow")]


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    gate = sim.event("gate")
    got = []

    def waiter(sim):
        value = yield gate
        got.append((sim.now, value))

    def firer(sim):
        yield sim.timeout(4)
        gate.succeed("payload")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert got == [(4, "payload")]


def test_event_cannot_fire_twice():
    sim = Simulator()
    gate = sim.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_join_running_process_returns_value():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(6)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert results == [(6, 42)]


def test_join_already_finished_process_does_not_hang():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1)
        return "done"

    child_proc = sim.process(child(sim))

    def parent(sim):
        yield sim.timeout(10)  # child finished long ago
        value = yield child_proc
        results.append(value)

    sim.process(parent(sim))
    sim.run_until_processes_done()
    assert results == ["done"]


def test_run_until_bounds_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)

    sim.process(proc(sim))
    assert sim.run(until=40) == 40
    assert sim.now == 40


def test_deadlock_detection():
    sim = Simulator()
    gate = sim.event("never")

    def proc(sim):
        yield gate

    sim.process(proc(sim), name="stuck")
    with pytest.raises(SimulationError, match="stuck"):
        sim.run_until_processes_done()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done_at = []

    def child(sim, delay):
        yield sim.timeout(delay)
        return delay

    def parent(sim):
        procs = [sim.process(child(sim, d)) for d in (3, 9, 5)]
        values = yield sim.all_of(procs)
        done_at.append((sim.now, values))

    sim.process(parent(sim))
    sim.run()
    assert done_at == [(9, [3, 9, 5])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    fired = []

    def parent(sim):
        values = yield sim.all_of([])
        fired.append((sim.now, values))

    sim.process(parent(sim))
    sim.run()
    assert fired == [(0, [])]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 17

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


class TestHotLoopFastPaths:
    """The micro-optimized run loop must keep every semantic guarantee."""

    def test_finished_processes_are_pruned(self):
        sim = Simulator()

        def worker(sim):
            yield sim.timeout(3)

        sim.process(worker(sim))
        sim.process(worker(sim))
        sim.run_until_processes_done()
        assert sim._processes == []

    def test_pruning_allows_fresh_rounds(self):
        sim = Simulator()
        log = []

        def worker(sim, tag):
            yield sim.timeout(1)
            log.append((tag, sim.now))

        sim.process(worker(sim, "a"))
        sim.run_until_processes_done()
        sim.process(worker(sim, "b"))
        sim.run_until_processes_done()
        assert log == [("a", 1), ("b", 2)]

    def test_deadlock_detection_survives_optimization(self):
        sim = Simulator()

        def stuck(sim):
            yield sim.event("never")

        sim.process(stuck(sim), name="stuck-proc")
        with pytest.raises(SimulationError, match="stuck-proc"):
            sim.run_until_processes_done(limit=100)

    def test_bounded_run_leaves_future_events_queued(self):
        sim = Simulator()
        log = []

        def worker(sim):
            yield sim.timeout(10)
            log.append(sim.now)

        sim.process(worker(sim))
        assert sim.run(until=5) == 5
        assert log == []
        sim.run()
        assert log == [10]

    def test_multi_waiter_event_resumes_all(self):
        sim = Simulator()
        woken = []

        def waiter(sim, ev, tag):
            yield ev
            woken.append(tag)

        ev = sim.event()
        for tag in ("x", "y", "z"):
            sim.process(waiter(sim, ev, tag))

        def firer(sim, ev):
            yield sim.timeout(2)
            ev.succeed()

        sim.process(firer(sim, ev))
        sim.run()
        assert woken == ["x", "y", "z"]

    def test_timeout_carries_delay_without_formatted_name(self):
        sim = Simulator()
        timeout = sim.timeout(7)
        assert timeout.delay == 7
        assert timeout.triggered

    def test_timeout_initializes_every_event_slot(self):
        """Timeout.__init__ inlines Event.__init__ for speed; if a field
        is ever added to Event, this forces the inline copy to follow."""
        from repro.sim.engine import Event
        sim = Simulator()
        timeout = sim.timeout(1)
        for slot in Event.__slots__:
            getattr(timeout, slot)  # AttributeError = drifted inline


class TestClockSemantics:
    """run() vs run_until_processes_done() treat their bound differently:
    ``until`` is a target the clock reaches even on early drain (SimPy
    semantics); ``limit`` is only a safety horizon and must never
    inflate the clock past the last dispatched event."""

    def test_run_advances_clock_to_until_when_queue_drains_early(self):
        # Regression: the queue empties at cycle 3, but run(until=50)
        # must still leave the clock at 50, not 3.
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(3)

        sim.process(proc(sim))
        assert sim.run(until=50) == 50
        assert sim.now == 50

    def test_run_on_empty_queue_advances_to_until(self):
        sim = Simulator()
        assert sim.run(until=25) == 25
        assert sim.now == 25

    def test_run_without_until_stops_at_last_event(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(7)

        sim.process(proc(sim))
        assert sim.run() == 7
        assert sim.now == 7

    def test_clock_resumes_from_until_after_early_drain(self):
        # Events scheduled after an early-drained bounded run must fire
        # relative to the advanced clock.
        sim = Simulator()
        log = []

        def first(sim):
            yield sim.timeout(2)

        sim.process(first(sim))
        sim.run(until=10)

        def second(sim):
            yield sim.timeout(5)
            log.append(sim.now)

        sim.process(second(sim))
        sim.run()
        assert log == [15]

    def test_run_until_processes_done_keeps_clock_at_last_event(self):
        # The limit is a runaway guard, not a target: a workload that
        # finishes at cycle 42 must report now == 42, not the horizon.
        # Inflating the clock here would change every makespan-derived
        # metric in the serving benches.
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(42)

        sim.process(proc(sim))
        sim.run_until_processes_done(limit=1_000_000)
        assert sim.now == 42


class TestAllOfInternals:
    """all_of uses a counted-down state cell (no dict captures)."""

    def test_results_preserve_argument_order_not_finish_order(self):
        sim = Simulator()
        seen = []

        def child(sim, delay):
            yield sim.timeout(delay)
            return delay

        def parent(sim):
            procs = [sim.process(child(sim, d)) for d in (8, 1, 4)]
            values = yield sim.all_of(procs)
            seen.append(values)

        sim.process(parent(sim))
        sim.run()
        assert seen == [[8, 1, 4]]

    def test_mixed_already_triggered_and_pending_events(self):
        sim = Simulator()
        seen = []
        pre = sim.event("pre")
        pre.succeed("early")

        def firer(sim, ev):
            yield sim.timeout(3)
            ev.succeed("late")

        def parent(sim, pre, post):
            values = yield sim.all_of([pre, post])
            seen.append((sim.now, values))

        post = sim.event("post")
        sim.process(firer(sim, post))
        sim.process(parent(sim, pre, post))
        sim.run()
        assert seen == [(3, ["early", "late"])]

    def test_same_cycle_completions_fire_gate_once(self):
        sim = Simulator()
        seen = []

        def child(sim):
            yield sim.timeout(5)
            return "v"

        def parent(sim):
            procs = [sim.process(child(sim)) for _ in range(6)]
            values = yield sim.all_of(procs)
            seen.append((sim.now, values))

        sim.process(parent(sim))
        sim.run()
        assert seen == [(5, ["v"] * 6)]


class TestSlotHygiene:
    """Hot-path objects must stay dict-free: a stray attribute (or a
    subclass missing __slots__) silently reintroduces a per-instance
    __dict__ and the allocation cost the engine rewrite removed."""

    def _assert_dictless(self, obj):
        assert not hasattr(obj, "__dict__"), (
            f"{type(obj).__name__} grew a __dict__ — check __slots__ on "
            "the class and every base")
        # Slotted classes raise AttributeError; frozen+slots dataclasses
        # raise TypeError from their regenerated __setattr__. Either way
        # a stray attribute must not silently stick.
        with pytest.raises((AttributeError, TypeError)):
            obj.stray_attribute = 1

    def test_engine_objects_have_no_dict(self):
        from repro.sim.engine import _AllOfState, _AllOfWaiter
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1)

        self._assert_dictless(sim.event("e"))
        self._assert_dictless(sim.timeout(2))
        self._assert_dictless(sim.process(proc(sim)))
        state = _AllOfState(sim.event("gate"), 2)
        self._assert_dictless(state)
        self._assert_dictless(_AllOfWaiter(state, 0))
        sim.run()

    def test_serving_objects_have_no_dict(self):
        from repro.serving.metrics import SessionRecord
        from repro.serving.fleet import ActiveFleetSession, PendingSession
        from repro.serving.slo import session_slo
        from repro.serving.workload import TenantSession

        session = TenantSession(
            session_id=0, tenant="t0", arrival_cycle=0, rows=2, cols=2,
            memory_bytes=1 << 20, model="bert", inferences=4)
        self._assert_dictless(PendingSession(session=session))
        self._assert_dictless(ActiveFleetSession(
            session=session, chip_index=0, vmid=1, admit_cycle=5,
            strategy="exact", mapping_distance=0.0, mapping_connected=True,
            slo=session_slo(session), rows=2, cols=2,
            service_total=100, expected_depart=105))
        self._assert_dictless(SessionRecord(
            session_id=0, tenant="t0", model="bert", cores=4,
            arrival_cycle=0, admit_cycle=5, depart_cycle=105,
            strategy="exact", mapping_distance=0.0,
            mapping_connected=True))
