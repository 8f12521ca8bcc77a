"""Service-level objectives and elastic (shrink/preempt) policies.

An :class:`SLOClass` is what :class:`~repro.serving.workload.TenantSession.priority`
always hinted at but the scheduler never enforced: a latency target on
admission delay plus a priority *tier* with teeth. Sessions name their
class through ``TenantSession.slo`` (drawn by the trace generator's
``slo_mix``); sessions without an explicit class fall back to a
per-priority default, so pre-SLO traces keep their historical ordering.

The enforcement half is the :class:`ElasticPolicy` family — registered
by name through the same :class:`~repro.core.registry.Registry` idiom as
admission and placement policies. When a higher-tier arrival is blocked
(or a queued one blows through its latency target), the scheduler asks
the elastic policy which lower-tier victims to *shrink* (live
:meth:`~repro.core.hypervisor.Hypervisor.resize_vnpu` onto a smaller
mesh) or *preempt* (tear down and requeue) to free the cores. The
policy plans; the scheduler executes and charges the resize/preemption
costs to the victims' timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.arch.topology import MeshShape
from repro.core.registry import Registry
from repro.errors import ServingError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serving.workload import TenantSession


@dataclass(frozen=True)
class SLOClass:
    """One service tier: a latency target plus enforcement permissions.

    ``tier`` orders classes (higher = more important); it doubles as the
    effective priority the admission policies sort by.
    ``queue_delay_target_cycles`` is the admission-delay objective the
    attainment metric scores against (``None`` = no objective, always
    attained). ``shrinkable``/``preemptible`` say what an elastic policy
    may do to a *resident* session of this class on behalf of a
    higher-tier arrival.
    """

    name: str
    tier: int
    queue_delay_target_cycles: int | None = None
    shrinkable: bool = True
    preemptible: bool = True
    #: Blocked arrivals of this class trigger elastic relief *immediately*
    #: (the preemptive-admission path). Classes without it only get
    #: relief once their queue delay has blown through the target — the
    #: queue-delay-pressure path. Squeezing victims on every blocked
    #: mid-tier arrival slows the whole fleet for tenants that would
    #: have met their (looser) target anyway.
    preemptive_admission: bool = False

    def met(self, queue_delay_cycles: int) -> bool:
        """Did a session of this class meet its admission-delay target?"""
        if self.queue_delay_target_cycles is None:
            return True
        return queue_delay_cycles <= self.queue_delay_target_cycles

    def relief_due(self, waited_cycles: int) -> bool:
        """Should a blocked arrival of this class trigger elastic relief?

        Tier 0 never squeezes anyone; preemptive-admission classes fire
        the moment they are blocked; everyone else fires when the wait
        has already blown the latency target (pressure, not privilege).
        """
        if self.tier <= 0:
            return False
        if self.preemptive_admission:
            return True
        target = self.queue_delay_target_cycles
        return target is not None and waited_cycles >= target


#: The built-in three-tier ladder. Gold pays for guaranteed placement
#: (never shrunk, never preempted, tight delay target); silver may be
#: squeezed but not evicted; best-effort is the elastic reserve.
GOLD = SLOClass("gold", tier=2, queue_delay_target_cycles=2_000_000,
                shrinkable=False, preemptible=False,
                preemptive_admission=True)
SILVER = SLOClass("silver", tier=1, queue_delay_target_cycles=40_000_000,
                  shrinkable=True, preemptible=False)
BEST_EFFORT = SLOClass("best_effort", tier=0, queue_delay_target_cycles=None,
                       shrinkable=True, preemptible=True)

_SLOS: Registry[SLOClass] = Registry("SLO class", ServingError)


def register_slo(slo: SLOClass, replace: bool = False) -> SLOClass:
    return _SLOS.register(slo, replace=replace)


def unregister_slo(name: str) -> None:
    return _SLOS.unregister(name)


def resolve_slo(name: str) -> SLOClass:
    return _SLOS.resolve(name)


def available_slos() -> tuple[str, ...]:
    return _SLOS.names()


for _builtin in (GOLD, SILVER, BEST_EFFORT):
    register_slo(_builtin)

#: Fallback class per legacy ``priority`` value (0/1/2); priorities
#: above the ladder clamp to gold.
DEFAULT_SLO_BY_PRIORITY = {0: "best_effort", 1: "silver", 2: "gold"}


def session_slo(session: "TenantSession") -> SLOClass:
    """The session's SLO class: explicit ``slo`` name, else by priority."""
    name = getattr(session, "slo", "")
    if name:
        return resolve_slo(name)
    priority = max(0, min(session.priority, max(DEFAULT_SLO_BY_PRIORITY)))
    return resolve_slo(DEFAULT_SLO_BY_PRIORITY[priority])


def effective_priority(session: "TenantSession") -> int:
    """What the priority admission policy sorts by.

    Sessions with an explicit SLO class rank by its tier; legacy
    sessions keep their raw ``priority`` value (unclamped), so pre-SLO
    traces order exactly as they always did.
    """
    if getattr(session, "slo", ""):
        return resolve_slo(session.slo).tier
    return session.priority


def shrink_shape(rows: int, cols: int) -> MeshShape | None:
    """One elastic shrink step: halve the longer mesh dimension.

    Returns ``None`` when the session is already at its 1x1 floor.
    The step is deliberately coarse — halving frees a meaningful block
    in one resize instead of nibbling a core at a time (each resize
    charges a real reconfiguration to the victim).
    """
    if rows * cols <= 1:
        return None
    if rows >= cols:
        return MeshShape(-(-rows // 2), cols)
    return MeshShape(rows, -(-cols // 2))


# -- elastic policies -------------------------------------------------------

@dataclass(frozen=True)
class ElasticVictim:
    """One resident candidate as the elastic policy sees it.

    ``key`` is the scheduler-side handle (an active-session object) that
    comes back inside the planned action; the policy only reads the
    fields. ``freeable_by_shrink`` is how many cores one shrink step
    would release (0 when the class forbids shrinking or the session is
    at the 1x1 floor); ``order`` is the scheduler-provided deterministic
    tie-break.
    """

    key: object
    tier: int
    cores: int
    freeable_by_shrink: int
    preemptible: bool
    order: tuple


@dataclass(frozen=True)
class ElasticAction:
    """One planned enforcement step: ``kind`` is "shrink" or "preempt"."""

    kind: str
    victim: ElasticVictim


def make_victim(active) -> ElasticVictim | None:
    """The policy's view of one resident session, or ``None`` when its
    class forbids both shrinking and preemption.

    ``active`` is any object with
    ``slo``/``rows``/``cols``/``cores``/``admit_cycle``/``session``.
    """
    if not (active.slo.shrinkable or active.slo.preemptible):
        return None
    smaller = (shrink_shape(active.rows, active.cols)
               if active.slo.shrinkable else None)
    freeable = (active.cores - smaller.node_count) if smaller else 0
    return ElasticVictim(
        key=active,
        tier=active.slo.tier,
        cores=active.cores,
        freeable_by_shrink=freeable,
        preemptible=active.slo.preemptible,
        order=(active.admit_cycle, active.session.session_id),
    )


def reprice(active, new_total: int, charge: int, now: int) -> None:
    """Re-project a resized session's departure.

    The un-served fraction of the old projection is re-priced at the new
    placement's full-service estimate, plus the resize charge itself.
    The fraction is clamped to 1.0: migration charges stretch
    ``expected_depart`` without touching ``service_total``, so a victim
    migrated and *then* resized can show ``remaining > service_total``
    — without the clamp the resize would re-bill the already-charged
    migration at the new placement's rate and over-project the
    departure.
    """
    remaining = max(0, active.expected_depart - now)
    fraction = (min(1.0, remaining / active.service_total)
                if active.service_total else 0.0)
    active.service_total = new_total
    active.expected_depart = now + max(1, int(fraction * new_total) + charge)


def resize_memory_bytes(session, core_count: int) -> int:
    """Guest memory for a session resized to ``core_count`` cores.

    A resize back to (or beyond) the requested mesh restores the
    *original* request exactly — per-core rescaling floor-divides, and a
    grow-back must not hand the tenant less memory than it asked for.
    """
    if core_count >= session.core_count:
        return session.memory_bytes
    per_core = max(1, session.memory_bytes // session.core_count)
    return max(1, per_core * core_count)


@runtime_checkable
class ElasticPolicy(Protocol):
    """Plans which victims to squeeze for a blocked higher-tier arrival."""

    name: str

    def plan(self, needed_cores: int,
             victims: "list[ElasticVictim]") -> "list[ElasticAction]":
        """Actions expected to free ``needed_cores``, or ``[]`` if the
        victims cannot cover it (partial squeezes would charge real
        resize costs without unblocking anyone)."""
        ...


def _shrink_plan(needed: int, victims: list[ElasticVictim]):
    """Greedy shrink plan: lowest tier first, biggest release first."""
    actions, freed = [], 0
    for victim in sorted(victims,
                         key=lambda v: (v.tier, -v.freeable_by_shrink,
                                        v.order)):
        if freed >= needed:
            break
        if victim.freeable_by_shrink <= 0:
            continue
        actions.append(ElasticAction("shrink", victim))
        freed += victim.freeable_by_shrink
    return actions, freed


def _preempt_plan(needed: int, victims: list[ElasticVictim]):
    """Greedy preemption plan: lowest tier first, biggest release first."""
    actions, freed = [], 0
    for victim in sorted(victims, key=lambda v: (v.tier, -v.cores, v.order)):
        if freed >= needed:
            break
        if not victim.preemptible:
            continue
        actions.append(ElasticAction("preempt", victim))
        freed += victim.cores
    return actions, freed


class ShrinkPolicy:
    """Shrink-only enforcement: squeeze, never evict."""

    name = "shrink"

    def plan(self, needed_cores, victims):
        actions, freed = _shrink_plan(needed_cores, victims)
        return actions if freed >= needed_cores else []


class PreemptPolicy:
    """Preemption-only enforcement: evict and requeue best-effort."""

    name = "preempt"

    def plan(self, needed_cores, victims):
        actions, freed = _preempt_plan(needed_cores, victims)
        return actions if freed >= needed_cores else []


class ShrinkThenPreemptPolicy:
    """Shrink first; escalate to preemption for the shortfall.

    When shrinking alone cannot cover the need (a near-chip-sized
    arrival must displace whole tenants, not nibble at them),
    preemptions are added bottom-tier-up — and a preemption *replaces*
    any planned shrink of the same victim, since eviction frees all of
    its cores.
    """

    name = "shrink_then_preempt"

    def plan(self, needed_cores, victims):
        shrinks, freed = _shrink_plan(needed_cores, victims)
        if freed >= needed_cores:
            return shrinks
        planned_shrink = {id(a.victim): a.victim for a in shrinks}
        covered = freed
        preempts = []
        for victim in sorted(victims,
                             key=lambda v: (v.tier, -v.cores, v.order)):
            if covered >= needed_cores:
                break
            if not victim.preemptible:
                continue
            gain = victim.cores
            if id(victim) in planned_shrink:
                gain -= victim.freeable_by_shrink  # shrink is replaced
            preempts.append(ElasticAction("preempt", victim))
            covered += gain
        if covered < needed_cores:
            return []
        preempted = {id(a.victim) for a in preempts}
        kept = [a for a in shrinks if id(a.victim) not in preempted]
        return kept + preempts


_ELASTICS: Registry[ElasticPolicy] = Registry("elastic policy", ServingError)


def register_elastic(policy: ElasticPolicy,
                     replace: bool = False) -> ElasticPolicy:
    return _ELASTICS.register(policy, replace=replace)


def unregister_elastic(name: str) -> None:
    return _ELASTICS.unregister(name)


def resolve_elastic(name: str) -> ElasticPolicy:
    return _ELASTICS.resolve(name)


def available_elastics() -> tuple[str, ...]:
    return _ELASTICS.names()


for _builtin_policy in (ShrinkPolicy(), PreemptPolicy(),
                        ShrinkThenPreemptPolicy()):
    register_elastic(_builtin_policy)


def coerce_elastic(policy: "ElasticPolicy | str | None") -> ElasticPolicy | None:
    """Resolve an elastic-policy name, validate an instance, pass None.

    Unified on :meth:`repro.core.registry.Registry.coerce` with the
    other coerce helpers: classes and arbitrary objects are rejected
    naming the offending value and the registered choices.
    """
    return _ELASTICS.coerce(policy, instance_of=ElasticPolicy,
                            allow_none=True)
