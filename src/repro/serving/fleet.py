"""Multi-chip fleet serving with live vNPU migration.

:class:`FleetScheduler` coordinates N chips — each with its own
:class:`~repro.core.hypervisor.Hypervisor` and per-chip state — on one
shared simulated clock (every :class:`~repro.arch.chip.Chip` is built on
the same :class:`~repro.sim.engine.Simulator`). Arrivals are admitted by
a pluggable :class:`~repro.serving.policies.AdmissionPolicy`; *which
chip* hosts an admitted session is decided by a
:class:`PlacementPolicy`, registered by name through the same registry
idiom:

- ``least_loaded`` — the chip with the most free cores;
- ``best_fit`` — the chip whose trial placement has the smallest
  topology-mapping distance (probes Algorithm 1 per chip; the results
  memo shared by the chips of one type keeps repeat probes cheap);
- ``power_of_two`` — classic power-of-two-choices: two chips sampled by
  a per-session seeded draw, the less loaded one first.

When an arrival is blocked and a chip's fragmentation ratio crosses the
configured threshold, the optional :class:`DefragPolicy` triggers **live
migration** (:meth:`~repro.core.hypervisor.Hypervisor.migrate_vnpu`):
resident tenants are re-placed — onto an emptier chip or compacted in
place — their guest memory re-mapped onto the destination buddy
allocator and routing tables rebuilt, with the migration cost (data
movement + Fig-11 reconfiguration) charged to the migrated session's
timeline. The fleet converts fragmentation into admitted sessions.

The fleet also survives infrastructure faults: a
:class:`~repro.serving.faults.FailureSchedule` injected at ``submit``
replays chip/link/HBM failures on the shared clock. A failing chip is
drained through the configured evacuation policy (``evacuate`` /
``shrink_to_fit`` / ``kill_requeue``) — gold tier first, live
migration onto healthy survivors where possible, shrink-to-fit via
``resize_vnpu`` when the full mesh fits nowhere, fail-stop kill +
requeue for the rest — and every placement decision honors
:attr:`FleetChip.healthy` until the recovery event lands.

Every session enters through :meth:`FleetScheduler.submit`, which may be
called any number of times: a batch run submits its whole trace once, a
shard slice submits each epoch's committed admissions, and the control
plane submits each folded backlog. Submitted sessions wait in one
fleet-owned collection until their arrival cycle, so queue depth,
withdrawal and snapshots see them before they arrive.
"""

from __future__ import annotations

import pickle
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import partial

from repro.arch.chip import Chip
from repro.arch.config import SoCConfig, sim_config
from repro.arch.topology import Topology
from repro.core.hypervisor import Hypervisor
from repro.core.registry import Registry
from repro.core.strategies import resolve_strategy
from repro.core.topology_mapping import ShapeMemos
from repro.core.vnpu import VNpuSpec
from repro.cost import CostModel, coerce_cost_model
from repro.errors import AllocationError, ServingError
from repro.serving.faults import (
    FailureEvent,
    FailureSchedule,
    coerce_evacuation,
)
from repro.serving.metrics import (
    FleetMetrics,
    SessionRecord,
    fragmentation_ratio,
)
from repro.serving.policies import AdmissionPolicy, coerce_policy
from repro.serving.slo import (
    ElasticAction,
    ElasticPolicy,
    ElasticVictim,
    SLOClass,
    coerce_elastic,
    effective_priority,
    make_victim,
    reprice,
    resize_memory_bytes,
    session_slo,
    shrink_shape,
)
from repro.serving.workload import TenantSession
from repro.sim import Simulator

#: Version of the pickled :meth:`FleetScheduler.snapshot` shape (keys,
#: pending tuple, metrics object); bump it whenever that shape changes.
SNAPSHOT_FORMAT = 2


@dataclass(slots=True, eq=False)
class PendingSession:
    """A queued arrival; ``blocked`` marks a failed placement attempt.

    Blocked entries are skipped by policies until a departure changes the
    free-core set (re-trying the same placement against the same free set
    would fail identically). ``preemptions`` counts how many times this
    session was elastically evicted back into the queue.

    Entries compare by identity (``eq=False``): the queue holds each
    entry once, and removal and ``in`` must find *that* object, not a
    field-equal twin. ``slo``, ``arrival_key`` and ``priority_key`` are
    derived from the session once at construction, so admission never
    re-resolves the SLO registry per queued entry per decision. While
    an entry is queued, its flags are set through its
    :class:`PendingQueue`, which tracks the flagged entries.
    """

    session: TenantSession
    blocked: bool = False
    preemptions: int = 0
    #: Fault-tolerance history carried across a kill-and-requeue: how
    #: often this session was evacuated or killed before, and the
    #: service cycles those kills discarded (flows into the final
    #: :class:`~repro.serving.metrics.SessionRecord`).
    evacuations: int = 0
    kills: int = 0
    lost_service_cycles: int = 0
    #: Set when an elastic-relief round was spent on this entry and its
    #: placement *still* failed (a topology problem squeezing cannot
    #: fix this instant). Cleared, like ``blocked``, when a departure
    #: changes the free set — without it a preempt-capable policy can
    #: livelock: evict a victim, fail to place, watch the victim
    #: re-admit to the same cores, evict again, forever.
    relief_exhausted: bool = False
    #: The defrag counterpart of ``relief_exhausted``: set when a defrag
    #: round migrated tenants on this entry's behalf and it *still*
    #: failed to place. Without it two blocked entries livelock at one
    #: cycle — each one's migrations unblock the other, whose failed
    #: placement migrates again. Cleared with ``relief_exhausted``.
    defrag_exhausted: bool = False
    #: The session's SLO class (:func:`~repro.serving.slo.session_slo`).
    slo: SLOClass = field(init=False)
    #: Arrival order, the queue's own order: ``(arrival_cycle,
    #: session_id)``.
    arrival_key: tuple[int, int] = field(init=False)
    #: What :class:`~repro.serving.policies.PriorityPolicy` ranks by:
    #: highest effective priority first, then arrival order.
    priority_key: tuple[int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        session = self.session
        self.slo = session_slo(session)
        self.arrival_key = (session.arrival_cycle, session.session_id)
        self.priority_key = (-effective_priority(session),
                             *self.arrival_key)


@dataclass(frozen=True)
class AdmitOrder:
    """A session handed to :meth:`FleetScheduler.submit` with the
    preemption / fault history it accumulated before this (re-)deal."""

    session: TenantSession
    preemptions: int = 0
    evacuations: int = 0
    kills: int = 0
    lost_service_cycles: int = 0

    @classmethod
    def of(cls, entry: PendingSession) -> "AdmitOrder":
        """The order that re-deals ``entry`` with its history."""
        return cls(entry.session, entry.preemptions, entry.evacuations,
                   entry.kills, entry.lost_service_cycles)

    def entry(self) -> PendingSession:
        return PendingSession(
            self.session, preemptions=self.preemptions,
            evacuations=self.evacuations, kills=self.kills,
            lost_service_cycles=self.lost_service_cycles)


class _SortedRun:
    """Entries kept sorted by a key; equal keys stay in insertion order."""

    __slots__ = ("keys", "entries")

    def __init__(self) -> None:
        self.keys: list[tuple] = []
        self.entries: list[PendingSession] = []

    def insert(self, key: tuple, entry: PendingSession) -> None:
        index = bisect_right(self.keys, key)
        self.keys.insert(index, key)
        self.entries.insert(index, entry)

    def remove(self, key: tuple, entry: PendingSession) -> None:
        # Field-equal twins share a key: find *this* object in the run.
        index = bisect_left(self.keys, key)
        while self.entries[index] is not entry:
            index += 1
        del self.keys[index]
        del self.entries[index]


def _has_flag(entry: PendingSession) -> bool:
    return entry.blocked or entry.relief_exhausted or entry.defrag_exhausted


class PendingQueue:
    """The fleet's waiting queue, indexed so admission never scans it.

    Iterating yields the entries in arrival order — by
    ``(arrival_cycle, session_id)``, field-equal twins in insertion
    order. FCFS, best-fit and custom policies walk that order, and
    snapshots record it. Next to it the queue keeps what the admit loop
    reads instead of scanning:

    - :meth:`by_priority` — the entries ordered by ``priority_key``, so
      :class:`~repro.serving.policies.PriorityPolicy` stops at the first
      unblocked one;
    - :meth:`by_class` — one arrival-ordered run per SLO class, walked
      by the elastic-relief pick;
    - a session-id index (:meth:`find`, ``in``);
    - the flagged entries (``blocked``, ``relief_exhausted`` or
      ``defrag_exhausted`` set), so :meth:`unblock` and
      :meth:`reset_budgets` touch only those.

    Flags are set through :meth:`block`, :meth:`exhaust_relief` and
    :meth:`exhaust_defrag`; an entry added with flags already set (a
    restored snapshot) is tracked on :meth:`add`.
    """

    __slots__ = ("_arrival", "_priority", "_classes", "_by_id", "_flagged")

    def __init__(self, entries: "Iterable[PendingSession]" = ()) -> None:
        self._arrival = _SortedRun()
        self._priority = _SortedRun()
        self._classes: dict[SLOClass, _SortedRun] = {}
        self._by_id: dict[int, list[PendingSession]] = {}
        self._flagged: list[PendingSession] = []
        for entry in entries:
            self.add(entry)

    def __len__(self) -> int:
        return len(self._arrival.entries)

    def __iter__(self) -> "Iterator[PendingSession]":
        return iter(self._arrival.entries)

    def __getitem__(self, index: int) -> PendingSession:
        return self._arrival.entries[index]

    def __contains__(self, entry: PendingSession) -> bool:
        twins = self._by_id.get(entry.session.session_id, ())
        return any(twin is entry for twin in twins)

    def add(self, entry: PendingSession) -> None:
        """Queue ``entry`` at its arrival position (after equal keys)."""
        self._arrival.insert(entry.arrival_key, entry)
        self._priority.insert(entry.priority_key, entry)
        run = self._classes.get(entry.slo)
        if run is None:
            run = self._classes[entry.slo] = _SortedRun()
        run.insert(entry.arrival_key, entry)
        self._by_id.setdefault(entry.session.session_id, []).append(entry)
        if _has_flag(entry):
            self._flagged.append(entry)

    def requeue(self, session: TenantSession, preemptions: int,
                evacuations: int = 0, kills: int = 0,
                lost_service_cycles: int = 0) -> PendingSession:
        """Put a preempted (or fault-killed) session back *by arrival
        cycle*.

        FCFS walks arrival order, so a tail append would silently cost
        the victim its place in line on top of the restarted service.
        The fault-tolerance counters ride along so a session killed by
        a chip failure keeps its history through re-admission.
        """
        entry = PendingSession(session, preemptions=preemptions,
                               evacuations=evacuations, kills=kills,
                               lost_service_cycles=lost_service_cycles)
        self.add(entry)
        return entry

    def remove(self, entry: PendingSession) -> None:
        """Drop exactly ``entry`` (not a field-equal twin)."""
        session_id = entry.session.session_id
        twins = self._by_id.get(session_id, [])
        for index, twin in enumerate(twins):
            if twin is entry:
                break
        else:
            raise ValueError(f"session {session_id} entry is not queued")
        del twins[index]
        if not twins:
            del self._by_id[session_id]
        self._arrival.remove(entry.arrival_key, entry)
        self._priority.remove(entry.priority_key, entry)
        self._classes[entry.slo].remove(entry.arrival_key, entry)
        if _has_flag(entry):
            self._flagged.remove(entry)

    def find(self, session_id: int) -> PendingSession | None:
        """The first-queued entry of ``session_id`` (``None`` if absent)."""
        twins = self._by_id.get(session_id)
        return twins[0] if twins else None

    def by_priority(self) -> "Iterator[PendingSession]":
        """Entries by ``priority_key``: highest priority, then oldest."""
        return iter(self._priority.entries)

    def by_class(self) -> "Iterator[tuple[SLOClass, list[PendingSession]]]":
        """Each SLO class with its entries in arrival order."""
        return ((slo, run.entries) for slo, run in self._classes.items())

    # -- flags ---------------------------------------------------------------
    def block(self, entry: PendingSession) -> None:
        """Park ``entry`` until the free set changes."""
        self._track(entry)
        entry.blocked = True

    def exhaust_relief(self, entry: PendingSession) -> None:
        self._track(entry)
        entry.relief_exhausted = True

    def exhaust_defrag(self, entry: PendingSession) -> None:
        self._track(entry)
        entry.defrag_exhausted = True

    def _track(self, entry: PendingSession) -> None:
        if not _has_flag(entry):
            self._flagged.append(entry)

    def unblock(self) -> None:
        """Clear ``blocked``: the free set changed, parked placements
        get a new try. Spent relief and defrag budgets stay spent."""
        kept = []
        for entry in self._flagged:
            entry.blocked = False
            if entry.relief_exhausted or entry.defrag_exhausted:
                kept.append(entry)
        self._flagged = kept

    def reset_budgets(self) -> None:
        """Clear every flag: ``blocked`` and the relief and defrag
        budgets (a departure, failure or recovery changed the fleet)."""
        for entry in self._flagged:
            entry.blocked = False
            entry.relief_exhausted = False
            entry.defrag_exhausted = False
        self._flagged = []


def validate_session(session: TenantSession, models, largest_cores: int,
                     largest_memory: int) -> None:
    """Refuse a session no chip of a fleet can ever host.

    ``models`` is the pricing tier's model table; ``largest_cores`` and
    ``largest_memory`` are the fleet's biggest chip and guest-memory
    capacity. A request past either must fail up front: parked behind
    a busy fleet it would otherwise wait forever.
    """
    if session.model not in models:
        raise ServingError(
            f"session {session.session_id} wants unknown model "
            f"{session.model!r}")
    if session.core_count > largest_cores:
        raise ServingError(
            f"session {session.session_id} wants "
            f"{session.core_count} cores; largest fleet chip has "
            f"{largest_cores}")
    if session.memory_bytes > largest_memory:
        raise ServingError(
            f"session {session.session_id} wants "
            f"{session.memory_bytes} guest bytes; largest fleet "
            f"chip can map {largest_memory}")


def sum_mapper_stats(stats) -> dict[str, int | float]:
    """Sum mapper ``cache_stats`` dicts; ``hit_rate`` is recomputed
    from the summed hits and misses, not summed."""
    total: dict[str, int | float] = {}
    for chip_stats in stats:
        for key, value in chip_stats.items():
            if key != "hit_rate":
                total[key] = total.get(key, 0) + value
    lookups = total.get("hits", 0) + total.get("misses", 0)
    total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
    return total


@dataclass
class FleetChip:
    """One chip of the fleet: its hypervisor plus derived state."""

    index: int
    chip: Chip
    hypervisor: Hypervisor
    #: ``(occupancy_version, ratio)`` of the last fragmentation read.
    _fragmentation_memo: tuple[int, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def healthy(self) -> bool:
        """False while the chip is inside an injected fault outage.

        Every placement policy honors this: an unhealthy chip is never
        ranked, so no new session lands on it until recovery.
        """
        return self.hypervisor.healthy

    def free_cores(self) -> int:
        return self.hypervisor.free_core_count()

    def utilization(self) -> float:
        return self.hypervisor.core_utilization()

    def fragmentation(self) -> float:
        """Fragmentation ratio of the free set, memoized per occupancy
        version: a chip whose residents did not change is not re-walked."""
        version = self.hypervisor.occupancy_version
        memo = self._fragmentation_memo
        if memo is None or memo[0] != version:
            memo = (version, fragmentation_ratio(
                self.chip.topology, self.hypervisor.allocated_cores))
            self._fragmentation_memo = memo
        return memo[1]


# -- cross-chip placement policies -----------------------------------------

class PlacementPolicy:
    """Orders the fleet's chips for one session's placement attempt.

    ``rank`` returns an iterable of the chips to try, best first; chips
    without enough free cores — and chips inside a fault outage (``not
    healthy``) — are excluded. Callers consume it lazily and abandon it
    once a placement lands, so a generator that defers work on chips
    it may never reach is allowed. An empty ranking parks the session
    until a departure (or migration, or recovery) changes some chip's
    free set.
    """

    name: str

    def rank(self, chips: "list[FleetChip]",
             session: TenantSession) -> "Iterable[FleetChip]":
        raise NotImplementedError


class LeastLoadedPlacement(PlacementPolicy):
    """Most free cores first — the load-balancing baseline."""

    name = "least_loaded"

    def rank(self, chips, session):
        fits = [c for c in chips
                if c.healthy and session.core_count <= c.free_cores()]
        return sorted(fits, key=lambda c: (-c.free_cores(), c.index))


class BestFitPlacement(PlacementPolicy):
    """Smallest trial mapping distance across chips (then tightest fit).

    The ranking is the chips sorted by ``(distance, leftover, index)``,
    where ``distance`` is the similar-topology mapper's trial distance
    and ``leftover`` the free cores the session would leave; a chip
    whose probe finds no connected placement is excluded (the real
    placement would fail the same way).

    It is built exact-first, the fleet-level form of Algorithm 1's early
    return. Chips are walked tightest fit first, and a chip the mapper's
    rectangle test (:meth:`TopologyMapper.holds_exact_mesh`) says holds
    the request exactly is yielded at once, unprobed. A chip the test
    cannot decide (a 1 x k request, a chip that is not a plain mesh) is
    probed on the spot and yielded if its distance is 0; a chip the test
    rules out is deferred. Only once the exact chips run out are the
    deferred chips probed and the rest yielded by distance. That is the
    order of the full sort, so a caller that stops at the first chip
    where a placement lands never pays for probing the others.
    """

    name = "best_fit"

    def rank(self, chips, session):
        rows, cols = session.rows, session.cols
        request = Topology.mesh2d(rows, cols, name="placement-probe")
        fits = sorted(
            (fleet_chip.free_cores() - session.core_count, fleet_chip.index,
             fleet_chip)
            for fleet_chip in chips
            if fleet_chip.healthy
            and session.core_count <= fleet_chip.free_cores())
        scored = []
        deferred = []
        for leftover, index, fleet_chip in fits:
            hypervisor = fleet_chip.hypervisor
            exact = hypervisor.mapper.holds_exact_mesh(
                rows, cols, hypervisor.allocated_cores)
            if exact:
                yield fleet_chip
                continue
            if exact is False:
                deferred.append((leftover, index, fleet_chip))
                continue
            distance = _probe(request, hypervisor)
            if distance == 0:
                yield fleet_chip
            elif distance is not None:
                scored.append((distance, leftover, index, fleet_chip))
        for leftover, index, fleet_chip in deferred:
            distance = _probe(request, fleet_chip.hypervisor)
            if distance is not None:
                scored.append((distance, leftover, index, fleet_chip))
        scored.sort(key=lambda e: e[:3])
        for entry in scored:
            yield entry[-1]


def _probe(request: Topology, hypervisor: Hypervisor) -> float | None:
    """Trial mapping distance of ``request`` on a chip, None if it has
    no connected placement."""
    try:
        return hypervisor.mapper.map_similar(
            request, hypervisor.allocated_cores).distance
    except AllocationError:
        return None


class PowerOfTwoPlacement(PlacementPolicy):
    """Power-of-two-choices: sample two chips, prefer the less loaded.

    The draw is seeded per session (from the policy seed and the session
    ID), not from a shared stream, so rankings are deterministic
    regardless of how many times or in what order sessions are
    (re-)ranked.
    """

    name = "power_of_two"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def rank(self, chips, session):
        fits = [c for c in chips
                if c.healthy and session.core_count <= c.free_cores()]
        if len(fits) <= 2:
            return sorted(fits, key=lambda c: (-c.free_cores(), c.index))
        rng = random.Random(self.seed * 1_000_003 + session.session_id)
        pair = rng.sample(fits, 2)
        return sorted(pair, key=lambda c: (-c.free_cores(), c.index))


_PLACEMENTS: Registry[PlacementPolicy] = Registry("placement policy",
                                                  ServingError)


def register_placement(policy: PlacementPolicy,
                       replace: bool = False) -> PlacementPolicy:
    return _PLACEMENTS.register(policy, replace=replace)


def unregister_placement(name: str) -> None:
    return _PLACEMENTS.unregister(name)


def resolve_placement(name: str) -> PlacementPolicy:
    return _PLACEMENTS.resolve(name)


def available_placements() -> tuple[str, ...]:
    return _PLACEMENTS.names()


def coerce_placement(placement: "PlacementPolicy | str") -> PlacementPolicy:
    """Resolve a placement name, or validate an instance.

    Unified on :meth:`repro.core.registry.Registry.coerce`: unknown
    names and non-:class:`PlacementPolicy` objects raise
    :class:`~repro.errors.ServingError` naming the offending value and
    the registered choices, like the other coerce helpers.
    """
    return _PLACEMENTS.coerce(placement, instance_of=PlacementPolicy)


for _builtin in (LeastLoadedPlacement(), BestFitPlacement(),
                 PowerOfTwoPlacement()):
    register_placement(_builtin)


# -- defragmentation -------------------------------------------------------

@dataclass(frozen=True)
class DefragPolicy:
    """When and how hard to defragment a blocked fleet.

    Migration triggers only when *both* hold: a queued arrival just
    failed placement everywhere, and some chip's fragmentation ratio
    exceeds ``fragmentation_threshold``. At most
    ``max_migrations_per_trigger`` tenants move per trigger — migration
    charges real cycles to the migrated sessions, so the policy is
    deliberately stingy.
    """

    fragmentation_threshold: float = 0.25
    max_migrations_per_trigger: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.fragmentation_threshold <= 1.0:
            raise ServingError(
                f"fragmentation threshold must be in [0, 1], got "
                f"{self.fragmentation_threshold}")
        if self.max_migrations_per_trigger < 1:
            raise ServingError("defrag needs at least one migration per "
                               "trigger")


def check_optional(knob: str, value, kind: type) -> None:
    """Fail fast unless the ``knob`` value is None or a ``kind``."""
    if value is not None and not isinstance(value, kind):
        raise ServingError(
            f"{knob} must be a {kind.__name__} or None; got {value!r}")


@dataclass(slots=True)
class ActiveFleetSession:
    session: TenantSession
    chip_index: int
    vmid: int
    admit_cycle: int
    strategy: str
    mapping_distance: float
    mapping_connected: bool
    slo: SLOClass
    #: Mesh the session currently *holds* (differs from the request
    #: while elastically shrunk).
    rows: int
    cols: int
    #: Full-service estimate on the current placement and the absolute
    #: cycle the session is currently projected to depart at. Migration
    #: and resize charges push the projection out; the lifetime process
    #: keeps sleeping until it stops receding.
    service_total: int
    expected_depart: int
    migrations: int = 0
    resizes: int = 0
    preemptions: int = 0
    #: Fault-tolerance history: live evacuations off failing chips this
    #: session survived, fail-stop kills it was requeued by, and the
    #: service cycles those kills discarded.
    evacuations: int = 0
    kills: int = 0
    lost_service_cycles: int = 0
    #: Set when the session is elastically evicted (or fault-killed):
    #: the sleeping lifetime process must vanish instead of departing.
    preempted: bool = False
    #: Absolute cycle the lifetime process's pending timeout fires at.
    #: ``expected_depart`` can *recede* (an elastic grow-back shortens
    #: the projection) but an already-scheduled sleep cannot be woken
    #: early, so the in-flight wake target is behavioral state: a
    #: restored run must resume sleeping toward the same cycle or it
    #: departs the session earlier than the original would have.
    wake_cycle: int = 0

    @property
    def cores(self) -> int:
        return self.rows * self.cols

    @property
    def shrunk(self) -> bool:
        return self.cores < self.session.core_count

    def sized_session(self) -> TenantSession:
        """The session re-shaped to its *current* allocation, for the
        cost model (which prices by the held mesh, not the request)."""
        if not self.shrunk:
            return self.session
        return replace(self.session, rows=self.rows, cols=self.cols,
                       memory_bytes=resize_memory_bytes(self.session,
                                                        self.cores))


class FleetScheduler:
    """Serves one tenant trace across N chips on a shared clock."""

    def __init__(self, configs: "list[SoCConfig]",
                 policy: "AdmissionPolicy | str" = "fcfs",
                 placement: "PlacementPolicy | str" = "least_loaded",
                 strategy: str | None = None,
                 defrag: DefragPolicy | None = None,
                 sim: Simulator | None = None,
                 cost_model: "CostModel | str" = "analytic",
                 elastic: "ElasticPolicy | str | None" = None,
                 faults: FailureSchedule | None = None,
                 evacuation: str = "shrink_to_fit") -> None:
        if not configs:
            raise ServingError("fleet needs at least one chip config")
        self.sim = sim or Simulator()
        #: One mapper memo object per distinct chip config, shared by
        #: every hypervisor built from that config.
        self._shape_memos: dict[SoCConfig, ShapeMemos] = {}
        #: Free cores per chip, 0 while the chip is unhealthy: kept
        #: current by each hypervisor's ``on_change``, so the admit loop
        #: reads the most free healthy chip without polling every chip.
        self._free_by_chip: list[int] = []
        self.chips: list[FleetChip] = [
            self._build_chip(index, config)
            for index, config in enumerate(configs)]
        self.core_count = sum(fc.chip.core_count for fc in self.chips)
        #: Static admission caps: the largest chip and guest memory.
        self._largest_cores = max(fc.chip.core_count for fc in self.chips)
        self._largest_memory = max(fc.hypervisor.guest_memory_capacity
                                   for fc in self.chips)
        self.policy = coerce_policy(policy)
        self.placement = coerce_placement(placement)
        if strategy is not None:
            resolve_strategy(strategy)  # fail fast, like the hypervisor
        self.strategy = strategy
        check_optional("defrag", defrag, DefragPolicy)
        self.defrag = defrag
        #: SLO enforcement: None = static behavior (queue and wait).
        self.elastic = coerce_elastic(elastic)
        #: Fault injection: events replayed on the shared clock, with
        #: ``evacuation`` governing how a failing chip is drained.
        #: Validated fail-fast (kerf-style) before anything runs.
        self.evacuation = coerce_evacuation(evacuation)
        check_optional("faults", faults, FailureSchedule)
        if faults is not None:
            faults.validate(len(self.chips))
        self.faults = faults
        self.metrics = FleetMetrics()
        self.metrics.faults_enabled = faults is not None
        #: The fidelity tier pricing every session's residency.
        self.cost_model = coerce_cost_model(cost_model)
        self._pending = PendingQueue()
        #: (chip index, vmid) -> active session.
        self._active: dict[tuple[int, int], ActiveFleetSession] = {}
        #: Set by the first ``submit``, which starts the fault timeline.
        self._started = False
        #: Submitted sessions whose arrival cycle is still ahead, keyed
        #: by entry identity; an arrival process pops each when it is due.
        self._future: dict[PendingSession, None] = {}

    def _build_chip(self, index: int, config: SoCConfig) -> FleetChip:
        """Build fleet chip ``index`` (with its hypervisor) on the shared
        clock."""
        chip = Chip(config, sim=self.sim)
        hypervisor = Hypervisor(chip, memos=self._shape_memos.get(config))
        self._shape_memos.setdefault(config, hypervisor.mapper.memos)
        fleet_chip = FleetChip(index, chip, hypervisor)
        self._free_by_chip.append(fleet_chip.free_cores())
        hypervisor.on_change = partial(self._note_chip_change, fleet_chip)
        return fleet_chip

    def _note_chip_change(self, fleet_chip: FleetChip) -> None:
        self._free_by_chip[fleet_chip.index] = (
            fleet_chip.free_cores() if fleet_chip.healthy else 0)

    @classmethod
    def homogeneous(cls, chips: int, cores: int = 36,
                    **kwargs) -> "FleetScheduler":
        """A fleet of ``chips`` identical SIM-configured chips."""
        if chips < 1:
            raise ServingError(f"fleet needs at least one chip, got {chips}")
        return cls([sim_config(cores) for _ in range(chips)], **kwargs)

    # -- queries -----------------------------------------------------------
    @property
    def chip_count(self) -> int:
        return len(self.chips)

    @property
    def pending_sessions(self) -> "tuple[PendingSession, ...]":
        """The waiting queue, in queue order (read-only view)."""
        return tuple(self._pending)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def free_core_count(self) -> int:
        return sum(fc.free_cores() for fc in self.chips)

    def mapper_stats(self) -> dict[str, int | float]:
        """Fleet-wide mapper counters (per-chip ``cache_stats`` summed).

        Every placement probe and provision lands on some chip's mapper;
        the sum is the fleet's mapping workload: results-memo
        hits/misses (a hit may reuse a sibling chip's result),
        candidates considered/pruned/refined, objective evaluations and
        free-set rebuilds.
        """
        return sum_mapper_stats(fc.hypervisor.mapper.cache_stats()
                                for fc in self.chips)

    # -- public API --------------------------------------------------------
    def register_model(self, name: str, builder) -> None:
        self.cost_model.register_model(name, builder)

    def _validate(self, session: TenantSession) -> None:
        """Refuse a session no chip of this fleet can ever host."""
        validate_session(session, self.cost_model.models,
                         self._largest_cores, self._largest_memory)

    def submit(self, arrivals: "Iterable[TenantSession | AdmitOrder]"
               ) -> None:
        """Hand sessions to the fleet; each arrives at its recorded cycle.

        The one way in, callable any number of times. Every session is
        validated before any is recorded. The batch waits in the fleet's
        not-yet-arrived collection, replayed by one arrival process in
        ``(arrival_cycle, session_id)`` order; a session whose arrival
        cycle has passed arrives now. An :class:`AdmitOrder` carries a
        re-dealt session's history along. The first call also starts
        the fault timeline; an empty call does only that.
        """
        entries = [item.entry() if isinstance(item, AdmitOrder)
                   else PendingSession(item) for item in arrivals]
        for entry in entries:
            self._validate(entry.session)
        if entries:
            entries.sort(key=lambda e: e.arrival_key)
            self._schedule(entries)
        if not self._started:
            self._started = True
            if self.faults is not None and len(self.faults):
                self.sim.process(self._failure_timeline(),
                                 name="fleet-faults")

    def withdraw(self, session_id: int) -> PendingSession:
        """Remove a session that is still waiting: queued, or submitted
        but not yet arrived (a spill leaving this shard, a client's
        withdrawal)."""
        entry = self._pending.find(session_id)
        if entry is not None:
            self._pending.remove(entry)
            return entry
        for entry in self._future:
            if entry.session.session_id == session_id:
                del self._future[entry]
                return entry
        raise ServingError(f"session {session_id} is not pending here")

    def run(self, until: int | None = None,
            limit: int | None = None) -> int:
        """Drive the simulation until the trace is fully served.

        ``until`` bounds simulated time (no deadlock detection).
        ``limit`` overrides the engine's deadlock-detection horizon —
        long traces priced by the slower (higher-fidelity) cost tiers
        can legitimately outlive the default. It only applies to
        run-to-completion; combining it with ``until`` is a
        contradiction and rejected.
        """
        if not self._started:
            raise ServingError("submit() a trace before run()")
        if until is not None:
            if limit is not None:
                raise ServingError(
                    "pass either until (bounded run) or limit (deadlock "
                    "horizon), not both")
            return self.sim.run(until=until)
        if limit is not None:
            return self.sim.run_until_processes_done(limit=limit)
        return self.sim.run_until_processes_done()

    def serve(self, trace: "list[TenantSession]",
              limit: int | None = None) -> FleetMetrics:
        """Convenience: submit + run + return the metrics."""
        self.submit(trace)
        self.run(limit=limit)
        return self.metrics

    # -- checkpoint --------------------------------------------------------
    def snapshot(self, *, detach: bool = True) -> dict:
        """Picklable checkpoint of the whole scheduler's logical state.

        Valid between ``run`` calls (the simulator parked at a cycle, no
        event mid-dispatch). Captures chip residents (via
        :meth:`Hypervisor.snapshot_state`), the pending queue with its
        preemption history, active sessions, accumulated metrics, the
        fault schedule, and the submitted sessions not yet arrived, with
        their history — everything :meth:`restore` needs to continue
        the run in a fresh process (which replays those arrivals in
        ``(arrival_cycle, session_id)`` order).
        By default the dict is detached via a pickle round-trip, so it
        doubles as the warm-restart wire format (and proves its own
        picklability). Callers that immediately ``pickle.dumps`` the
        result themselves — epoch-fence checkpointing does, every fence
        — pass ``detach=False`` to skip the redundant round-trip; the
        returned dict then aliases live scheduler state and must be
        serialized (or dropped) before the scheduler advances.
        """
        state = {
            "format": SNAPSHOT_FORMAT,
            "cycle": self.sim.now,
            "configs": [fc.chip.config for fc in self.chips],
            "chips": [fc.hypervisor.snapshot_state() for fc in self.chips],
            "pending": [
                (e.session, e.preemptions, e.evacuations, e.kills,
                 e.lost_service_cycles, e.blocked, e.relief_exhausted,
                 e.defrag_exhausted)
                for e in self._pending
            ],
            "active": sorted(
                self._active.values(),
                key=lambda a: (a.admit_cycle, a.session.session_id)),
            "arrivals": [AdmitOrder.of(e) for e in sorted(
                self._future, key=lambda e: e.arrival_key)],
            "started": self._started,
            "metrics": self.metrics,
            "faults": self.faults,
            "evacuation": self.evacuation,
            "cost_tier": self.cost_model.name,
            "cost_state": self.cost_model.snapshot_state(),
        }
        if not detach:
            return state
        return pickle.loads(pickle.dumps(state))

    @classmethod
    def restore(cls, state: dict, **kwargs) -> "FleetScheduler":
        """Rebuild a running scheduler from a :meth:`snapshot` dict.

        ``kwargs`` must name the same policy/placement/cost-model
        configuration the checkpointed scheduler ran with (policies are
        stateless between decisions, so they live outside the snapshot).
        The control plane checkpoints its
        :class:`~repro.serving.config.ServingConfig` next to the state
        and passes ``**config.fleet_kwargs()`` back here on warm
        restart. The snapshot's fault schedule, evacuation policy and
        cost tier are authoritative: a kwarg that contradicts one of
        them raises :class:`~repro.errors.ServingError`.
        Buddy-allocator addresses are re-assigned on restore (logical
        state round-trips; physical addresses may differ — see
        ``Hypervisor.snapshot_state``). A snapshot of any other
        :data:`SNAPSHOT_FORMAT` raises rather than half-restores.
        """
        found = state.get("format")
        if found != SNAPSHOT_FORMAT:
            raise ServingError(f"snapshot format {found!r} is not the "
                               f"supported format {SNAPSHOT_FORMAT}")
        recorded = {"faults": state["faults"],
                    "evacuation": state["evacuation"]}
        if state["cost_tier"]:
            recorded["cost_model"] = state["cost_tier"]
        for key, value in recorded.items():
            given = kwargs.setdefault(key, value)
            if key == "cost_model":
                given = getattr(given, "name", given)
            if given != value:
                raise ServingError(
                    f"restore got {key}={given!r}, but the snapshot "
                    f"recorded {value!r}")
        fleet = cls(list(state["configs"]), **kwargs)
        # Memoized prices are behavioral state: without them the restored
        # run would re-price cache keys on different placements and drift
        # off the checkpointed timeline.
        fleet.cost_model.restore_state(state["cost_state"])
        fleet.sim.now = state["cycle"]
        for fleet_chip, chip_state in zip(fleet.chips, state["chips"]):
            fleet_chip.hypervisor.restore_state(chip_state)
        fleet.metrics = state["metrics"]
        for (session, preemptions, evacuations, kills, lost, blocked,
             relief_exhausted, defrag_exhausted) in state["pending"]:
            fleet._pending.add(PendingSession(
                session, blocked=blocked, preemptions=preemptions,
                evacuations=evacuations, kills=kills,
                lost_service_cycles=lost, relief_exhausted=relief_exhausted,
                defrag_exhausted=defrag_exhausted))
        for active in state["active"]:
            fleet._active[(active.chip_index, active.vmid)] = active
            fleet.sim.process(
                fleet._session_lifetime(active, resume=True),
                name=f"fleet-session-{active.session.session_id}")
        fleet._started = state["started"]
        if state["arrivals"]:
            fleet._schedule([order.entry() for order in state["arrivals"]])
        if fleet._started and fleet.faults is not None and len(fleet.faults):
            steps = [s for s in fleet.faults.timeline()
                     if s[0] > state["cycle"]]
            if steps:
                fleet.sim.process(fleet._failure_timeline(steps),
                                  name="fleet-faults")
        return fleet

    # -- simulation processes ----------------------------------------------
    def _schedule(self, entries: "list[PendingSession]") -> None:
        """Hold arrival-ordered ``entries`` in ``_future`` until each is
        due; one arrival process replays them."""
        self._future.update(dict.fromkeys(entries))
        self.sim.process(self._arrivals(entries), name="fleet-arrivals")

    def _arrivals(self, entries: "list[PendingSession]"):
        """Move submitted entries into the queue at their arrival cycles,
        skipping any withdrawn before they arrived."""
        future = self._future
        for entry in entries:
            if entry not in future:
                continue
            gap = entry.session.arrival_cycle - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
                if entry not in future:
                    continue
            del future[entry]
            self._pending.add(entry)
            self._admit_loop()
            self._sample()

    def _session_lifetime(self, active: ActiveFleetSession, *,
                          resume: bool = False):
        # Migrations and elastic resizes that happen during the wait
        # push ``expected_depart`` out; keep sleeping until it stops
        # receding. (A grow-back that would depart *earlier* cannot wake
        # the scheduled timeout — growth restores the service rate going
        # forward, it never time-travels the current sleep.) Each sleep
        # records its target in ``wake_cycle``; a process respawned by
        # :meth:`restore` mid-sleep (``resume=True``) first finishes
        # the interrupted sleep toward that exact cycle — waking there
        # to re-read the projection, just as the original's pending
        # timeout would have — rather than re-arming at the current
        # ``expected_depart``, which may have receded since.
        if resume and active.wake_cycle > self.sim.now:
            yield self.sim.timeout(active.wake_cycle - self.sim.now)
            if active.preempted:
                return
        while True:
            remaining = active.expected_depart - self.sim.now
            if remaining <= 0:
                break
            active.wake_cycle = self.sim.now + remaining
            yield self.sim.timeout(remaining)
            if active.preempted:
                return  # evicted mid-sleep; the requeued entry took over
        self._depart(active)
        # A departure changes the free set: parked placements get a new
        # try, and spent relief rounds may be worth another shot.
        self._pending.reset_budgets()
        self._admit_loop()
        self._grow_back()
        self._sample()

    # -- admission ---------------------------------------------------------
    def _admit_loop(self) -> None:
        while True:
            most_free = max(self._free_by_chip)  # on any healthy chip
            entry = self.policy.select(self._pending, most_free)
            if entry is not None:
                self._try_admit(entry)
                continue
            if not self._elastic_relief(most_free):
                return

    def _try_admit(self, entry: PendingSession) -> None:
        if self._place(entry):
            return
        self.metrics.admission_failures += 1
        if self._refused_by_idle_chip(entry.session):
            # An idle chip is the best host this session's ranking will
            # ever see; when even it refuses, no amount of waiting
            # helps — drop instead of deadlocking the queue behind it.
            self._pending.remove(entry)
            self.metrics.rejected += 1
            return
        if (self.defrag is not None and not entry.defrag_exhausted
                and self._defragment(entry.session)):
            self._pending.unblock()
            if self._place(entry):
                return
            # One defrag round per entry per free-set change: what the
            # migrations could not open up, more migrations at this
            # instant will not either.
            self._pending.exhaust_defrag(entry)
        self._pending.block(entry)

    def _refused_by_idle_chip(self, session: TenantSession) -> bool:
        """Was the failed placement hopeless, not just crowded out?

        The old rule dropped only when the *entire fleet* was empty, so
        an impossible request (say, a shape the mapping strategy cannot
        carve out of any chip) parked forever behind a busy fleet. The
        tightened rule: probe the largest healthy *empty* chip — the
        best case any ranking can offer — and drop when even its fully
        free topology refuses the mapping. Smaller empty chips prove
        nothing (a bigger busy chip may host the session later), so
        only maximal chips are consulted; memory is already validated
        at submit against the largest chip's guest capacity.
        """
        healthy = [fc for fc in self.chips if fc.healthy]
        if not healthy:
            return False  # everything is down: park until recovery
        largest = max(fc.chip.core_count for fc in healthy)
        idle = [fc for fc in healthy
                if fc.chip.core_count == largest
                and not fc.hypervisor.vnpus
                and session.core_count <= fc.chip.core_count
                and session.memory_bytes
                <= fc.hypervisor.guest_memory_capacity]
        if not idle:
            return False
        probe = idle[0]
        spec = VNpuSpec(name=session.tenant, topology=session.shape,
                        memory_bytes=session.memory_bytes)
        strat = resolve_strategy(self.strategy or probe.hypervisor.strategy)
        try:
            strat.map(probe.hypervisor.mapper, spec, set())
        except AllocationError:
            return True
        return False

    def _place(self, entry: PendingSession) -> bool:
        """Try the placement policy's chip ranking; admit on first success."""
        session = entry.session
        for fleet_chip in self.placement.rank(self.chips, session):
            if not fleet_chip.healthy:
                continue  # custom policies may not filter; never place here
            spec = VNpuSpec(
                name=session.tenant,
                topology=session.shape,
                memory_bytes=session.memory_bytes,
            )
            try:
                vnpu = fleet_chip.hypervisor.create_vnpu(
                    spec, strategy=self.strategy)
            except AllocationError:
                continue
            self._pending.remove(entry)
            service = self.cost_model.service_cycles(fleet_chip.chip,
                                                     session, vnpu)
            active = ActiveFleetSession(
                session=session,
                chip_index=fleet_chip.index,
                vmid=vnpu.vmid,
                admit_cycle=self.sim.now,
                strategy=vnpu.mapping.strategy,
                mapping_distance=vnpu.mapping.distance,
                mapping_connected=vnpu.mapping.connected,
                slo=entry.slo,
                rows=session.rows,
                cols=session.cols,
                service_total=service,
                expected_depart=self.sim.now + service,
                preemptions=entry.preemptions,
                evacuations=entry.evacuations,
                kills=entry.kills,
                lost_service_cycles=entry.lost_service_cycles,
            )
            self._active[(fleet_chip.index, vnpu.vmid)] = active
            self.sim.process(
                self._session_lifetime(active),
                name=f"fleet-session-{session.session_id}"
                     f"-{entry.preemptions}",
            )
            return True
        return False

    def _depart(self, active: ActiveFleetSession) -> None:
        fleet_chip = self.chips[active.chip_index]
        fleet_chip.hypervisor.destroy_vnpu(active.vmid)
        del self._active[(active.chip_index, active.vmid)]
        session = active.session
        self.metrics.record_departure(SessionRecord(
            session_id=session.session_id,
            tenant=session.tenant,
            model=session.model,
            cores=session.core_count,
            arrival_cycle=session.arrival_cycle,
            admit_cycle=active.admit_cycle,
            depart_cycle=self.sim.now,
            strategy=active.strategy,
            mapping_distance=active.mapping_distance,
            mapping_connected=active.mapping_connected,
            chip=active.chip_index,
            migrations=active.migrations,
            slo=active.slo.name,
            preemptions=active.preemptions,
            resizes=active.resizes,
            evacuations=active.evacuations,
            kills=active.kills,
            lost_service_cycles=active.lost_service_cycles,
        ))

    # -- elastic enforcement ------------------------------------------------
    def _elastic_relief(self, most_free: int) -> bool:
        """Shrink/preempt lower tiers for the neediest blocked arrival.

        Chip-local: the arriving session needs its cores on *one* chip,
        so the plan targets the first chip (fullest-free first) whose
        lower-tier residents can cover the shortfall. Returns True when
        at least one enforcement action landed. A round that fails to
        place its entry marks it ``relief_exhausted`` until the next
        departure — preemption is not monotonic (an evicted victim can
        re-admit to the same cores), so this is what keeps the admit
        loop finite.
        """
        if self.elastic is None:
            return False
        entry = self._relief_entry(most_free)
        if entry is None:
            return False
        tier = entry.slo.tier
        for fleet_chip in sorted(
                (fc for fc in self.chips if fc.healthy),
                key=lambda fc: (-fc.free_cores(), fc.index)):
            needed = max(1,
                         entry.session.core_count - fleet_chip.free_cores())
            victims = self._victims(fleet_chip, tier)
            actions = self.elastic.plan(needed, victims)
            if not actions:
                continue
            executed = sum(1 for action in actions
                           if self._execute_action(fleet_chip, action))
            if executed == 0:
                continue
            self._pending.unblock()
            # The squeeze happened on *this* entry's behalf: place it
            # first, before any queue-mate (under fcfs/best_fit a
            # lower-tier head would otherwise consume the just-freed
            # cores). A failed attempt spends the entry's relief budget
            # for this instant — the plan covered the core *count*, so
            # what remains is a topology problem more squeezing cannot
            # fix right now.
            self._try_admit(entry)
            if entry in self._pending:
                self._pending.exhaust_relief(entry)
            return True
        return False

    def _relief_entry(self, most_free: int) -> PendingSession | None:
        """The neediest pending entry relief is due for: highest tier
        first, then arrival order (``None`` when nobody qualifies).

        An entry qualifies when its budget is unspent, it cannot go
        (blocked, or larger than ``most_free``, the most free cores on
        any healthy chip) and its class says relief is due. Each SLO
        class is walked oldest first and the walk stops at the first
        entry relief is not due for: ``relief_due`` is monotone in the
        waiting time, so no younger entry of that class is due either.
        Classes are walked, not tiers — a custom class may share a tier
        with a different delay target.
        """
        now = self.sim.now
        best = best_key = None
        for slo, entries in self._pending.by_class():
            if slo.tier <= 0:
                continue  # tier 0 never squeezes anyone
            for entry in entries:
                if not slo.relief_due(now - entry.session.arrival_cycle):
                    break
                if not entry.relief_exhausted and (
                        entry.blocked
                        or entry.session.core_count > most_free):
                    key = (-slo.tier, *entry.arrival_key)
                    if best is None or key < best_key:
                        best, best_key = entry, key
                    break
        return best

    def _victims(self, fleet_chip: FleetChip,
                 below_tier: int) -> list[ElasticVictim]:
        victims = []
        for chip_index, vmid in sorted(self._active):
            if chip_index != fleet_chip.index:
                continue
            active = self._active[(chip_index, vmid)]
            if active.slo.tier >= below_tier:
                continue
            victim = make_victim(active)
            if victim is not None:
                victims.append(victim)
        return victims

    def _execute_action(self, fleet_chip: FleetChip,
                        action: ElasticAction) -> bool:
        active = action.victim.key
        if action.kind == "shrink":
            smaller = shrink_shape(active.rows, active.cols)
            if smaller is None:
                return False
            return self._resize(fleet_chip, active, smaller)
        if action.kind == "preempt":
            return self._preempt(fleet_chip, active)
        raise ServingError(f"unknown elastic action {action.kind!r}")

    def _resize(self, fleet_chip: FleetChip, active: ActiveFleetSession,
                shape) -> bool:
        """Live-resize ``active`` on its chip and re-price its residency."""
        grew = shape.node_count > active.cores
        spec = VNpuSpec(
            name=active.session.tenant,
            topology=shape,
            memory_bytes=resize_memory_bytes(active.session,
                                             shape.node_count),
        )
        try:
            vnpu, charge = fleet_chip.hypervisor.resize_vnpu(
                active.vmid, spec, strategy=self.strategy)
        except AllocationError:
            return False
        active.rows, active.cols = shape.rows, shape.cols
        active.strategy = vnpu.mapping.strategy
        active.mapping_distance = vnpu.mapping.distance
        active.mapping_connected = vnpu.mapping.connected
        active.resizes += 1
        new_total = self.cost_model.service_cycles(
            fleet_chip.chip, active.sized_session(), vnpu)
        reprice(active, new_total, charge, self.sim.now)
        self.metrics.record_resize(charge, grew=grew)
        return True

    def _preempt(self, fleet_chip: FleetChip,
                 active: ActiveFleetSession) -> bool:
        fleet_chip.hypervisor.destroy_vnpu(active.vmid)
        del self._active[(active.chip_index, active.vmid)]
        active.preempted = True
        self.metrics.preemptions += 1
        self._pending.requeue(
            active.session, active.preemptions + 1,
            evacuations=active.evacuations, kills=active.kills,
            lost_service_cycles=active.lost_service_cycles)
        return True

    def _grow_back(self) -> None:
        """Give shrunk sessions their cores back once the queue is clear.

        Conservative by design: growth only happens when nothing is
        waiting (queued arrivals outrank a squeezed tenant's comfort),
        highest tier first.
        """
        if self.elastic is None or self._pending:
            return
        shrunk = sorted(
            (a for a in self._active.values()
             if a.shrunk and self.chips[a.chip_index].healthy),
            key=lambda a: (-a.slo.tier, a.admit_cycle, a.session.session_id),
        )
        for active in shrunk:
            self._resize(self.chips[active.chip_index], active,
                         active.session.shape)

    # -- defragmentation ---------------------------------------------------
    def _defragment(self, session: TenantSession) -> bool:
        """Migrate tenants off (or within) over-fragmented chips.

        Returns True when at least one migration landed, i.e. the free
        sets changed and the blocked arrival deserves another attempt.
        """
        threshold = self.defrag.fragmentation_threshold
        fragmented = sorted(
            (fc for fc in self.chips
             if fc.healthy and fc.fragmentation() > threshold),
            key=lambda fc: (-fc.fragmentation(), fc.index),
        )
        moved = 0
        for fleet_chip in fragmented:
            if moved >= self.defrag.max_migrations_per_trigger:
                break
            # Cheapest-to-move tenants first: migration cost scales with
            # resident memory.
            tenants = sorted(
                fleet_chip.hypervisor.vnpus,
                key=lambda v: (v.memory_bytes, v.vmid),
            )
            for vnpu in tenants:
                if moved >= self.defrag.max_migrations_per_trigger:
                    break
                if self._migrate(fleet_chip, vnpu.vmid):
                    moved += 1
                    if fleet_chip.fragmentation() <= threshold:
                        break
        if moved == 0:
            self.metrics.migration_failures += 1
        return moved > 0

    def _migrate(self, source: FleetChip, vmid: int, *,
                 evacuating: bool = False) -> bool:
        """Try destinations emptiest-first, then in-place compaction.

        ``evacuating`` drops the in-place fallback: the source chip is
        failed, so the only useful outcome is landing elsewhere.
        """
        vnpu = source.hypervisor.vnpu(vmid)
        destinations = sorted(
            (fc for fc in self.chips
             if fc is not source and fc.healthy
             and vnpu.core_count <= fc.free_cores()),
            key=lambda fc: (-fc.free_cores(), fc.index),
        )
        if not evacuating:
            destinations.append(source)  # in-place compaction, last resort
        active = self._active[(source.index, vmid)]
        for destination in destinations:
            if destination is source:
                # Probe the compaction placement on a trial mapping
                # before touching the tenant: an in-place "migration"
                # that would land on the identical cores frees nothing,
                # so skip the teardown/rebuild (and the charge) entirely.
                strat = resolve_strategy(
                    self.strategy or source.hypervisor.strategy)
                occupied = (source.hypervisor.allocated_cores
                            - set(vnpu.physical_cores))
                try:
                    trial = strat.map(source.hypervisor.mapper, vnpu.spec,
                                      occupied)
                except AllocationError:
                    continue
                if trial.physical_cores == vnpu.physical_cores:
                    return False
            try:
                migrated, cost = source.hypervisor.migrate_vnpu(
                    vmid, destination=destination.hypervisor,
                    strategy=self.strategy)
            except AllocationError:
                continue
            del self._active[(source.index, vmid)]
            active.chip_index = destination.index
            active.vmid = migrated.vmid
            active.strategy = migrated.mapping.strategy
            active.mapping_distance = migrated.mapping.distance
            active.mapping_connected = migrated.mapping.connected
            active.expected_depart += cost
            active.migrations += 1
            self._active[(destination.index, migrated.vmid)] = active
            self.metrics.record_migration(cost)
            return True
        return False

    # -- fault injection & evacuation ---------------------------------------
    def _failure_timeline(self, steps=None):
        """Replay the failure schedule on the shared clock.

        Recoveries sort before failures at the same cycle (the schedule
        guarantees it), so a back-to-back outage on one chip never sees
        the chip already down. ``steps`` lets a restore resume mid-way
        (only the steps strictly after the checkpoint cycle).
        """
        if steps is None:
            steps = self.faults.timeline()
        for cycle, action, event in steps:
            gap = cycle - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            if action == "fail":
                self._fail_chip(event)
            else:
                self._recover_chip(event)

    def _fail_chip(self, event: FailureEvent) -> None:
        fleet_chip = self.chips[event.chip_index]
        if not fleet_chip.healthy:
            return  # overlaps are dropped at schedule build; belt only
        fleet_chip.hypervisor.mark_failed()
        self.metrics.record_chip_failure(self.sim.now, event.chip_index,
                                         event.kind)
        # Gold drains first: when survivor capacity runs out mid-drain,
        # it is the lower tiers that end up killed and requeued.
        residents = sorted(
            (a for a in self._active.values()
             if a.chip_index == event.chip_index),
            key=lambda a: (-a.slo.tier, a.admit_cycle, a.session.session_id),
        )
        if event.kind == "link":
            # Degraded mode: only tenants owning an endpoint of the
            # failed link lose their placement; the rest keep serving
            # on the (unrankable, but alive) chip.
            residents = [a for a in residents
                         if self._touches_link(fleet_chip, a, event)]
        for active in residents:
            self._evacuate(fleet_chip, active, hard=(event.kind == "chip"))
        # Evacuations and kills changed free sets and the queue alike.
        self._pending.reset_budgets()
        self._admit_loop()
        self._sample()

    def _touches_link(self, fleet_chip: FleetChip,
                      active: ActiveFleetSession,
                      event: FailureEvent) -> bool:
        edges = sorted(fleet_chip.chip.topology.edges)
        if not edges:
            return False
        u, v = edges[event.link_index % len(edges)]
        cores = set(fleet_chip.hypervisor.vnpu(active.vmid).physical_cores)
        return u in cores or v in cores

    def _recover_chip(self, event: FailureEvent) -> None:
        self.chips[event.chip_index].hypervisor.mark_recovered()
        self.metrics.record_chip_recovery(self.sim.now, event.chip_index,
                                          event.kind)
        self._pending.reset_budgets()
        self._admit_loop()
        self._grow_back()
        self._sample()

    def _evacuate(self, source: FleetChip,
                  active: ActiveFleetSession, hard: bool) -> None:
        """Drain one resident off a failing chip.

        ``hard`` (a fail-stop chip crash) and the ``kill_requeue``
        policy skip straight to the kill. Otherwise live migration is
        tried at full size, then — under ``shrink_to_fit``, for
        shrinkable tiers only — at successively halved meshes resized
        in place on the failing chip (drains are exempt from the health
        gate) until some survivor accepts the smaller footprint. A
        session nothing can host is killed and requeued, its lost
        cycles charged to the fault accounting.
        """
        if hard or self.evacuation == "kill_requeue":
            self._kill(source, active)
            return
        if self._evacuate_migrate(source, active):
            return
        if self.evacuation == "shrink_to_fit" and active.slo.shrinkable:
            shape = shrink_shape(active.rows, active.cols)
            while shape is not None:
                if not self._resize(source, active, shape):
                    break
                if self._evacuate_migrate(source, active):
                    return
                shape = shrink_shape(active.rows, active.cols)
        self._kill(source, active)

    def _evacuate_migrate(self, source: FleetChip,
                          active: ActiveFleetSession) -> bool:
        before = active.expected_depart
        if not self._migrate(source, active.vmid, evacuating=True):
            return False
        active.evacuations += 1
        self.metrics.record_evacuation(active.expected_depart - before)
        return True

    def _kill(self, source: FleetChip, active: ActiveFleetSession) -> None:
        """Fail-stop: the vNPU dies with its chip, in-flight work is lost."""
        lost = max(0, self.sim.now - active.admit_cycle)
        source.hypervisor.kill_vnpu(active.vmid)
        del self._active[(active.chip_index, active.vmid)]
        active.preempted = True
        self._pending.requeue(
            active.session, active.preemptions + 1,
            evacuations=active.evacuations, kills=active.kills + 1,
            lost_service_cycles=active.lost_service_cycles + lost)
        self.metrics.record_kill(lost)

    # -- observability -----------------------------------------------------
    def _sample(self) -> None:
        free = sum(fc.free_cores() for fc in self.chips)
        utilization = tuple(fc.utilization() for fc in self.chips)
        fragmentation = [fc.fragmentation() for fc in self.chips]
        self.metrics.sample(
            self.sim.now,
            utilization=1.0 - free / self.core_count,
            fragmentation=sum(fragmentation) / len(fragmentation),
            queue_length=len(self._pending),
            chip_utilization=utilization)
