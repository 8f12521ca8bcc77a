"""Precomputed admission keys on :class:`PendingSession`.

Each queued entry derives its SLO class and its priority sort key once
at construction; :class:`PriorityPolicy` and the elastic-relief pick
read them instead of re-resolving the SLO registry per entry per
decision. The references here are the inline keys those reads
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
    PendingSession,
    PriorityPolicy,
    TenantSession,
)
from repro.serving.slo import effective_priority, session_slo

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
    assert (PriorityPolicy().select(pending, free_cores)
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
    fleet._pending = list(pending)
    fleet.sim.now = now
    most_free = fleet.chips[0].free_cores()
    assert (fleet._relief_entry()
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
    fleet._pending = [first, second]
    assert fleet.withdraw(0) is first
    assert len(fleet._pending) == 1 and fleet._pending[0] is second


def test_placement_removes_the_identical_object():
    fleet = FleetScheduler.homogeneous(1, cores=16)
    fleet.begin_stream()
    first, second = twins()
    fleet._pending = [first, second]
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
