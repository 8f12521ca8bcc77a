"""Admission policies: which queued tenant gets the next free cores.

A policy inspects the pending queue and the currently free core count and
nominates one session to try next (or ``None`` to leave everything
queued). The scheduler owns the actual placement attempt — a nominated
session can still fail topology mapping, in which case it is parked until
the next departure changes the free set.

Policies are resolved by name through a
:class:`repro.core.registry.Registry` (the same helper behind the
mapping-strategy family), so serving experiments can plug in new
disciplines without touching the scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.registry import Registry
from repro.errors import ServingError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serving.fleet import PendingQueue, PendingSession


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Chooses the next pending session to attempt admitting."""

    name: str

    def select(self, pending: "PendingQueue",
               free_cores: int) -> "PendingSession | None":
        """Pick one admissible entry of ``pending`` or ``None``.

        Iterating ``pending`` yields entries in arrival order;
        ``pending.by_priority()`` yields them by ``priority_key``.
        ``entry.blocked`` marks sessions whose last placement attempt
        failed on the current free set.
        """
        ...


def _admissible(pending, free_cores):
    return [entry for entry in pending
            if not entry.blocked and entry.session.core_count <= free_cores]


class FCFSPolicy:
    """Strict arrival order with head-of-line blocking.

    The queue head waits for enough free cores even while smaller
    requests behind it could run — the fairness-first baseline.
    """

    name = "fcfs"

    def select(self, pending, free_cores):
        for entry in pending:
            if entry.blocked:
                continue
            if entry.session.core_count <= free_cores:
                return entry
            return None  # head must go first; nobody may overtake it
        return None


class BestFitPolicy:
    """Largest admissible request first (minimum leftover free cores).

    Packs the chip tightly under fragmentation; ties break toward the
    earliest arrival so small tenants cannot be starved forever by
    same-sized newcomers.
    """

    name = "best_fit"

    def select(self, pending, free_cores):
        fits = _admissible(pending, free_cores)
        if not fits:
            return None
        return min(fits, key=lambda e: (free_cores - e.session.core_count,
                                        e.session.arrival_cycle,
                                        e.session.session_id))


class PriorityPolicy:
    """Highest tenant priority first, FCFS within a priority class.

    Priority holds the line *while queued*, not just at selection time:
    the highest-priority waiter blocks lower classes from overtaking it
    even when it does not fit the current free cores yet (the starvation
    case the original fits-only comparison mishandled — a large
    high-priority request could wait forever behind a stream of small
    low-priority arrivals). Entries whose last placement attempt failed
    on this free set (``blocked``) are skipped, exactly like FCFS skips
    its blocked head — retrying them would fail identically, and letting
    them block the line would deadlock the queue.

    Sessions carrying an explicit SLO class rank by its tier
    (:func:`~repro.serving.slo.effective_priority`); legacy sessions
    rank by their raw ``priority`` value as always. The key is
    precomputed once per entry as ``PendingSession.priority_key``, and
    the queue keeps its entries sorted by it, so the walk stops at the
    first unblocked entry.
    """

    name = "priority"

    def select(self, pending, free_cores):
        for entry in pending.by_priority():
            if entry.blocked:
                continue
            if entry.session.core_count <= free_cores:
                return entry
            return None  # the top-priority waiter must go first
        return None


_REGISTRY: Registry[AdmissionPolicy] = Registry("admission policy",
                                                ServingError)


def register_policy(policy: AdmissionPolicy,
                    replace: bool = False) -> AdmissionPolicy:
    return _REGISTRY.register(policy, replace=replace)


def unregister_policy(name: str) -> None:
    return _REGISTRY.unregister(name)


def resolve_policy(name: str) -> AdmissionPolicy:
    return _REGISTRY.resolve(name)


def coerce_policy(policy: "AdmissionPolicy | str") -> AdmissionPolicy:
    """Resolve a policy name, or validate an instance.

    One of the four coerce helpers unified on
    :meth:`repro.core.registry.Registry.coerce`: unknown names and
    non-:class:`AdmissionPolicy` values (including policy *classes*)
    raise :class:`~repro.errors.ServingError` naming the offending
    value and the registered choices.
    """
    return _REGISTRY.coerce(policy, instance_of=AdmissionPolicy)


def available_policies() -> tuple[str, ...]:
    return _REGISTRY.names()


for _builtin in (FCFSPolicy(), BestFitPolicy(), PriorityPolicy()):
    register_policy(_builtin)
