"""Precomputed admission keys on :class:`PendingSession` and the
indexed :class:`PendingQueue`.

Each queued entry derives its SLO class and its sort keys once at
construction, and the queue keeps its entries ordered by them:
:class:`PriorityPolicy` walks the priority index and the elastic-relief
pick walks one arrival-ordered run per SLO class. The references here
are the O(n) picks over a plain arrival-ordered list that those walks
replaced. Entries also compare by identity, so removing one of two
field-equal entries drops exactly the object asked for.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import MB
from repro.arch.topology import MeshShape
from repro.core.vnpu import VNpuSpec
from repro.serving import (
    FleetScheduler,
    PendingQueue,
    PendingSession,
    PriorityPolicy,
    TenantSession,
)
from repro.serving.slo import (
    SLOClass,
    effective_priority,
    register_slo,
    session_slo,
    unregister_slo,
)

SLO_NAMES = ("", "gold", "silver", "best_effort")


def make_session(session_id, arrival, priority, slo, cores):
    return TenantSession(
        session_id=session_id, tenant=f"t{session_id}",
        arrival_cycle=arrival, rows=1, cols=cores,
        memory_bytes=cores * 8 * MB, model="alexnet", inferences=4,
        priority=priority, slo=slo)


@st.composite
def pending_lists(draw):
    size = draw(st.integers(0, 24))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=size,
                        max_size=size, unique=True))
    entries = []
    for session_id in ids:
        session = make_session(
            session_id,
            arrival=draw(st.integers(0, 50)),
            # -1 and 5 sit outside the 0..2 ladder: effective_priority
            # keeps legacy values raw, session_slo clamps them.
            priority=draw(st.integers(-1, 5)),
            slo=draw(st.sampled_from(SLO_NAMES)),
            cores=draw(st.integers(1, 4)))
        entries.append(PendingSession(
            session, blocked=draw(st.booleans()),
            relief_exhausted=draw(st.booleans())))
    return entries


def reference_priority_select(pending, free_cores):
    """PriorityPolicy.select with the inline key it used to build."""
    top = min((e for e in pending if not e.blocked),
              key=lambda e: (-effective_priority(e.session),
                             e.session.arrival_cycle,
                             e.session.session_id),
              default=None)
    if top is not None and top.session.core_count <= free_cores:
        return top
    return None


def reference_relief_pick(pending, most_free, now):
    """The elastic-relief candidate as the full sort used to pick it."""
    candidates = sorted(
        (e for e in pending
         if not e.relief_exhausted
         and (e.blocked or e.session.core_count > most_free)
         and session_slo(e.session).relief_due(
             now - e.session.arrival_cycle)),
        key=lambda e: (-session_slo(e.session).tier,
                       e.session.arrival_cycle, e.session.session_id),
    )
    return candidates[0] if candidates else None


@settings(max_examples=200, deadline=None)
@given(pending=pending_lists(), free_cores=st.integers(0, 6))
def test_priority_select_matches_inline_key(pending, free_cores):
    assert (PriorityPolicy().select(PendingQueue(pending), free_cores)
            is reference_priority_select(pending, free_cores))


@settings(max_examples=100, deadline=None)
@given(pending=pending_lists(), now=st.integers(0, 100_000_000),
       busy_cores=st.integers(0, 4))
def test_relief_pick_matches_sorted_head(pending, now, busy_cores):
    fleet = FleetScheduler.homogeneous(1, cores=16, policy="priority",
                                       elastic="shrink_then_preempt")
    if busy_cores:
        fleet.chips[0].hypervisor.create_vnpu(
            VNpuSpec("busy", MeshShape(1, busy_cores), busy_cores * 8 * MB))
    fleet._pending = PendingQueue(pending)
    fleet.sim.now = now
    most_free = fleet.chips[0].free_cores()
    assert (fleet._relief_entry(most_free)
            is reference_relief_pick(pending, most_free, now))


@pytest.mark.parametrize("priority,slo", [(-1, ""), (5, ""), (0, "gold"),
                                          (2, "best_effort")])
def test_derived_fields(priority, slo):
    session = make_session(3, 7, priority, slo, 2)
    entry = PendingSession(session)
    assert entry.slo is session_slo(session)
    assert entry.priority_key == (-effective_priority(session), 7, 3)


def twins():
    session = make_session(0, 0, 1, "", 2)
    first, second = PendingSession(session), PendingSession(session)
    return first, second


def test_field_equal_entries_are_distinct():
    first, second = twins()
    assert first != second
    queue = [first, second]
    queue.remove(second)
    assert queue == [first] and queue[0] is first
    assert second not in queue


def test_withdraw_drops_the_identical_object():
    fleet = FleetScheduler.homogeneous(1, cores=16)
    fleet.begin_stream()
    first, second = twins()
    fleet._pending = PendingQueue([first, second])
    assert fleet.withdraw(0) is first
    assert len(fleet._pending) == 1 and fleet._pending[0] is second


def test_placement_removes_the_identical_object():
    fleet = FleetScheduler.homogeneous(1, cores=16)
    fleet.begin_stream()
    first, second = twins()
    fleet._pending = PendingQueue([first, second])
    assert fleet._place(second)
    assert len(fleet._pending) == 1 and fleet._pending[0] is first


def test_snapshot_round_trip_recomputes_derived_fields():
    fleet = FleetScheduler.homogeneous(1, cores=16, policy="priority")
    fleet.begin_stream()
    fleet.chips[0].hypervisor.create_vnpu(      # fills the chip
        VNpuSpec("busy", MeshShape(4, 4), 16 * MB))
    fleet.enqueue(make_session(1, 0, 5, "", 2))
    fleet.enqueue(make_session(2, 0, 0, "gold", 2))
    restored = FleetScheduler.restore(fleet.snapshot(), policy="priority")
    original = fleet.pending_sessions
    again = restored.pending_sessions
    assert len(original) == 2
    assert [e.session for e in again] == [e.session for e in original]
    assert [e.priority_key for e in again] == [e.priority_key
                                               for e in original]
    assert [e.slo for e in again] == [e.slo for e in original]


# -- the indexed queue against the O(n) references ----------------------------

#: Shares tier 1 with silver under a tighter delay target, so one tier
#: holds two classes whose relief falls due at different waits.
SILVER_FAST = SLOClass("silver_fast_test", tier=1,
                       queue_delay_target_cycles=10_000_000)
QUEUE_SLOS = SLO_NAMES + (SILVER_FAST.name,)
FLAGS = ("block", "exhaust_relief", "exhaust_defrag")


@pytest.fixture(scope="module")
def silver_fast():
    register_slo(SILVER_FAST)
    yield SILVER_FAST
    unregister_slo(SILVER_FAST.name)


def arrival_order_insert(model, entry):
    """The plain-list requeue the queue's bisect insert replaced."""
    index = len(model)
    for i, queued in enumerate(model):
        if queued.arrival_key > entry.arrival_key:
            index = i
            break
    model.insert(index, entry)


operations = st.lists(st.one_of(
    # A new arrival: never older than anything queued.
    st.tuples(st.just("append"), st.integers(0, 3_000_000),
              st.integers(-1, 5), st.sampled_from(QUEUE_SLOS),
              st.integers(1, 4), st.booleans()),
    # A preempted or re-dealt session: any arrival so far.
    st.tuples(st.just("insert"), st.integers(0, 60_000_000),
              st.integers(-1, 5), st.sampled_from(QUEUE_SLOS),
              st.integers(1, 4), st.integers(0, 3)),
    st.tuples(st.just("twin"), st.integers(0, 63)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("flag"), st.integers(0, 63), st.sampled_from(FLAGS)),
    st.tuples(st.just("unblock")),
    st.tuples(st.just("reset_budgets")),
    st.tuples(st.just("round_trip")),
), max_size=40)


def flags(entry):
    return (entry.blocked, entry.relief_exhausted, entry.defrag_exhausted)


def assert_queue_matches(fleet, model, now):
    queue = fleet._pending
    assert len(queue) == len(model)
    assert all(a is b for a, b in zip(queue, model))
    flagged = [e for e in model if any(flags(e))]
    assert sorted(map(id, queue._flagged)) == sorted(map(id, flagged))
    for entry in model:
        assert entry in queue
        first = next(e for e in model
                     if e.session.session_id == entry.session.session_id)
        assert queue.find(entry.session.session_id) is first
    for free_cores in (0, 2, 4, 16):
        assert (PriorityPolicy().select(queue, free_cores)
                is reference_priority_select(model, free_cores))
    fleet.sim.now = now
    for most_free in (0, 2, 4):
        assert (fleet._relief_entry(most_free)
                is reference_relief_pick(model, most_free, now))


@settings(max_examples=150, deadline=None)
@given(ops=operations, waits=st.lists(st.integers(0, 60_000_000),
                                      min_size=1, max_size=3))
def test_queue_matches_references_across_operations(silver_fast, ops, waits):
    fleet = FleetScheduler.homogeneous(1, cores=16, policy="priority",
                                       elastic="shrink_then_preempt")
    model: list[PendingSession] = []
    newest = 0
    next_id = 0
    for op in ops:
        kind = op[0]
        if kind == "append":
            _, gap, priority, slo, cores, blocked = op
            newest += gap
            entry = PendingSession(
                make_session(next_id, newest, priority, slo, cores),
                blocked=blocked)
            next_id += 1
            fleet._pending.add(entry)
            model.append(entry)
        elif kind == "insert":
            _, arrival, priority, slo, cores, preemptions = op
            session = make_session(next_id, arrival % (newest + 1), priority,
                                   slo, cores)
            next_id += 1
            entry = fleet._pending.requeue(session, preemptions)
            arrival_order_insert(model, entry)
        elif not model and kind in ("twin", "remove", "flag"):
            continue
        elif kind == "twin":
            twin = fleet._pending.requeue(model[op[1] % len(model)].session,
                                          preemptions=1)
            arrival_order_insert(model, twin)
        elif kind == "remove":
            entry = model.pop(op[1] % len(model))
            fleet._pending.remove(entry)
        elif kind == "flag":
            getattr(fleet._pending, op[2])(model[op[1] % len(model)])
        elif kind == "unblock":
            budgets = [flags(e)[1:] for e in model]
            fleet._pending.unblock()
            assert [flags(e) for e in model] == [(False, *b) for b in budgets]
        elif kind == "reset_budgets":
            fleet._pending.reset_budgets()
            assert not any(any(flags(e)) for e in model)
        else:  # round_trip: restore rebuilds every index
            fleet = FleetScheduler.restore(fleet.snapshot(), policy="priority",
                                           elastic="shrink_then_preempt")
            restored = list(fleet._pending)
            assert ([(e.session, e.preemptions, flags(e)) for e in restored]
                    == [(e.session, e.preemptions, flags(e)) for e in model])
            model = restored
        for wait in waits:
            assert_queue_matches(fleet, model, newest + wait)
