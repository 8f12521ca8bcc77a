"""Sharded multi-process fleet simulation with self-healing workers.

The fleet is partitioned into contiguous chip-group **shards**, each
owned by its own calendar-queue :class:`~repro.sim.engine.Simulator`
and per-shard :class:`~repro.serving.fleet.FleetScheduler` slice. A
parent :class:`ShardedFleetScheduler` coordinates the slices over
**epoch fences** (conservative time windows): every cross-shard
decision — which shard admits a session, which waiting session spills
to a less-loaded shard — happens only at a fence, never mid-epoch, so
each slice can simulate one epoch completely independently and in
parallel.

The fence protocol per epoch::

    deal        coordinator resolves candidate decisions (new arrivals
                inside the window, deferred sessions, spill proposals)
                in one fixed total order: (cycle, source shard id,
                session id). Every resource claim is validated against
                the claim-adjusted per-chip free/health map before any
                decision commits (kerf's validate-all-before-deploy);
                a claim that fails is deferred to the next fence, a
                spill that fails stays where it is.
    broadcast   each worker receives its shards' committed EpochPlans
                (admissions + withdrawals).
    run         every slice applies its plan and advances its own
                simulator to the fence (``sim.run(until=fence)``).
    report      each slice reports per-chip free cores and health, its
                queue depth, active count, and spill proposals — the
                claim map for the next fence — plus its new metrics
                history and, at checkpoint epochs, a slice checkpoint.

**Determinism.** Every coordinator decision is a function of the trace,
the shard decomposition and the per-shard reports — never of worker
count, scheduling order or wall clock. Workers only decide *which OS
process executes which shard*; shard results are byte-identical
regardless. ``workers=1`` runs every slice in-process (no
multiprocessing at all) and is the oracle the property suite compares
the multi-process runs against: aggregate ``SessionRecord`` ledgers,
per-class SLO digests and faults summaries are equal for any worker
count.

**Supervision.** The coordinator is a supervisor, not a fail-stop
client: worker processes are expected to die or hang, and the run is
expected to survive them. Three mechanisms compose:

- *Checkpoint ring* — every ``checkpoint_every`` epochs the workers
  attach a serialized :meth:`ShardSlice.checkpoint` (built on
  :meth:`FleetScheduler.snapshot`) per shard to their fence report.
  The append-only history (session records, fault log) leaves the
  slice in every report, so a checkpoint is O(live state). The ring
  keeps each shard's newest checkpoint bytes with the coordinator's
  history lengths at its fence, plus the ``EpochPlan`` log since.
- *Watchdog* — fence reports are received through a deadline-based
  ``conn.poll()`` loop instead of an unbounded blocking ``recv``; a
  worker that neither reports nor dies within
  ``epoch_timeout_seconds`` raises
  :class:`~repro.errors.EpochTimeoutError` and is treated exactly
  like a death (pipe ``EOFError`` / ``BrokenPipeError``).
- *Recovery* — a failed worker is killed, respawned with exponential
  backoff (``respawn_backoff_seconds * 2**attempt``), restored from
  the last fence checkpoint and driven through a replay of the
  already-committed epoch plans; the slice simulation is
  deterministic, so the replayed final report is byte-identical to
  the one the dead worker would have sent (the shard's history is
  cut back to the checkpoint first). After ``respawn_budget``
  consecutive failed respawns the coordinator *degrades gracefully*
  instead of dying: the orphaned shards are folded into the
  in-process oracle path (restored + replayed inside the
  coordinator) and the run continues without the worker.

Recovery activity is recorded in the summary's ``recovery`` block
(respawns, timeouts, replayed epochs, checkpoint counts/bytes,
degraded shards). The block appears only when recovery actually
happened, so crash-free summaries keep their historical byte layout —
and a crashed run's summary equals the crash-free oracle's everywhere
*except* that block.

**Worker protocol.** Persistent worker processes (forked where the
platform allows, spawned otherwise), one duplex pipe each, three
message kinds: ``("epoch", fence, plans, want_checkpoint)`` ->
``("report", reports, checkpoints)``, ``("collect",)`` ->
``("state", per-shard metrics)``, ``("stop",)``. Deterministic fault
injection for the *host* layer (the simulated chips have
:mod:`repro.serving.faults`) comes from :class:`CrashSchedule`: crash
at epoch N, hang for M wall seconds, crash while restoring from a
checkpoint, crash at collection — all validated against the shard
count at construction.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import time
from dataclasses import dataclass, field

from repro.arch.config import SoCConfig, sim_config
from repro.core.hypervisor import guest_capacity_bytes
from repro.cost import coerce_cost_model
from repro.errors import EpochTimeoutError, ServingError, WorkerFailure
from repro.serving.config import ServingConfig
from repro.serving.faults import FailureSchedule, partition_schedule
from repro.serving.fleet import (
    AdmitOrder,
    FleetScheduler,
    sum_mapper_stats,
    validate_session,
)
from repro.serving.metrics import FleetMetrics, merge_fleet_summaries
from repro.serving.workload import TenantSession

#: Host-process fault kinds a :class:`CrashSchedule` can inject.
CRASH_KINDS = ("crash", "hang", "crash_on_restore", "crash_on_collect")

#: Pipe/OS errors that mean "the worker on the other end is gone".
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


def partition_chips(chip_count: int,
                    shards: int) -> list[tuple[int, ...]]:
    """Contiguous, balanced chip groups: one tuple of global chip
    indices per shard (sizes differ by at most one)."""
    if shards < 1:
        raise ServingError(f"need at least one shard, got {shards}")
    if shards > chip_count:
        raise ServingError(
            f"cannot cut {chip_count} chips into {shards} shards")
    base, extra = divmod(chip_count, shards)
    groups: list[tuple[int, ...]] = []
    start = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return groups


# -- host-process crash injection --------------------------------------------

@dataclass(frozen=True)
class CrashEvent:
    """One injected worker-process fault, addressed by shard.

    The worker *owning* ``shard`` is the one hit (shards never move
    between workers except by degradation, so the target is stable).
    ``kind``:

    - ``crash`` — the worker ``os._exit``\\ s when it receives the
      epoch message for epoch index ``epoch`` (0-based fence ordinal),
      before reporting.
    - ``hang`` — the worker sleeps ``hang_seconds`` of wall time at
      that epoch before proceeding; with an ``epoch_timeout_seconds``
      shorter than the hang, the coordinator's watchdog fires.
    - ``crash_on_restore`` — the next ``count`` *recovery* respawns
      that would restore ``shard`` die during restore (exercises the
      retry budget and the degraded path).
    - ``crash_on_collect`` — the worker dies when asked to collect
      final results (exercises finalize-time recovery).
    """

    kind: str
    shard: int
    epoch: int = 0
    hang_seconds: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CRASH_KINDS:
            raise ServingError(
                f"unknown crash kind {self.kind!r}; known: {CRASH_KINDS}")
        if self.shard < 0:
            raise ServingError(
                f"crash event shard must be >= 0, got {self.shard}")
        if self.epoch < 0:
            raise ServingError(
                f"crash event epoch must be >= 0, got {self.epoch}")
        if self.kind == "hang" and self.hang_seconds <= 0:
            raise ServingError(
                "hang events need a positive hang_seconds, got "
                f"{self.hang_seconds}")
        if self.kind == "crash_on_restore" and self.count < 1:
            raise ServingError(
                f"crash_on_restore needs count >= 1, got {self.count}")


@dataclass(frozen=True)
class CrashSchedule:
    """A deterministic schedule of worker-process faults.

    The host-layer sibling of
    :class:`~repro.serving.faults.FailureSchedule`: where that one
    fails *simulated chips* on the simulated clock, this one fails
    *worker processes* on the wall clock — the recovery paths it
    reaches must leave the simulated results byte-identical, which is
    exactly what the crash-matrix property suite asserts. Events are
    normalized to ``(epoch, shard, kind)`` order.
    """

    events: tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.events, key=lambda e: (e.epoch, e.shard, e.kind)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, shards: int) -> None:
        """Fail fast on events addressing shards that do not exist."""
        for event in self.events:
            if event.shard >= shards:
                raise ServingError(
                    f"crash event targets shard {event.shard}, but the "
                    f"fleet only has {shards} shards")


def generate_crash_schedule(seed: int, *, shards: int, epochs: int,
                            events: int = 4,
                            kinds: tuple[str, ...] = ("crash", "hang"),
                            hang_seconds: float = 5.0) -> CrashSchedule:
    """A seeded random crash schedule (fixed per-event draw order).

    Draws, per event and in this order: epoch, shard, kind — so
    extending the parameter space later cannot silently reshuffle
    existing seeds' schedules.
    """
    if epochs < 1:
        raise ServingError(f"need at least one epoch, got {epochs}")
    for kind in kinds:
        if kind not in CRASH_KINDS:
            raise ServingError(
                f"unknown crash kind {kind!r}; known: {CRASH_KINDS}")
    rng = random.Random(seed)
    drawn = []
    for _ in range(events):
        epoch = rng.randrange(epochs)
        shard = rng.randrange(shards)
        kind = kinds[rng.randrange(len(kinds))]
        drawn.append(CrashEvent(kind=kind, shard=shard, epoch=epoch,
                                hang_seconds=hang_seconds))
    schedule = CrashSchedule(tuple(drawn))
    schedule.validate(shards)
    return schedule


@dataclass(frozen=True)
class EpochPlan:
    """A shard's committed plan for one epoch."""

    admissions: tuple[AdmitOrder, ...] = ()
    #: Session ids leaving this shard's queue (committed spills).
    withdrawals: tuple[int, ...] = ()


#: The append-only :class:`~repro.serving.metrics.FleetMetrics` lists —
#: the only slice state that grows over a run. Fence reports move them
#: to the coordinator, so everything a checkpoint pickles (chip
#: residents, queues, actives, counters and folded time-weighted
#: integrals, the cost cache) is O(live state).
_METRIC_LOGS = ("records", "fault_log")


class ShardSlice:
    """One shard: a chip group on its own simulator, driven by fences.

    A thin stateful wrapper around a per-shard
    :class:`~repro.serving.fleet.FleetScheduler`: each epoch the slice
    hands the coordinator's committed admissions to ``submit``, runs
    its engine to the fence and reports its claim state and new
    metrics history. ``spill_after_cycles=None`` disables spill proposals.
    """

    def __init__(self, shard_id: int, configs: list[SoCConfig],
                 spill_after_cycles: int | None = None,
                 **fleet_kwargs) -> None:
        self.shard_id = shard_id
        self.fleet = FleetScheduler(configs, **fleet_kwargs)
        self.spill_after_cycles = spill_after_cycles
        #: session id -> cycle it arrives in this slice's queue (spill
        #: aging).
        self._dealt_cycle: dict[int, int] = {}
        self.fleet.submit(())  # starts the fault timeline

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self, *, delta: bool = False) -> bytes:
        """Serialized fence checkpoint of the whole slice.

        Valid at a fence (the simulator parked at the fence cycle, no
        event mid-dispatch): the fleet's warm-restart snapshot plus the
        slice's own spill-aging table. The bytes are what crosses the
        worker pipe — :meth:`from_checkpoint` turns them back into a
        live slice in any process. Taken after :meth:`run_epoch`, whose
        report moved the metrics history out, the blob is O(live state)
        however long the run. ``delta`` is accepted and ignored.
        """
        return pickle.dumps({
            "shard_id": self.shard_id,
            "spill_after_cycles": self.spill_after_cycles,
            "dealt_cycle": dict(self._dealt_cycle),
            # ``detach=False``: the ``dumps`` *is* the detach — a second
            # round-trip inside ``snapshot`` would triple-pickle every
            # fence.
            "fleet": self.fleet.snapshot(detach=False),
        })

    @classmethod
    def from_checkpoint(cls, blob: bytes, *, shard_id: int,
                        configs: list[SoCConfig] | None = None,
                        faults: FailureSchedule | None = None,
                        spill_after_cycles: int | None = None,
                        **fleet_kwargs) -> "ShardSlice":
        """Rebuild a live slice from :meth:`checkpoint` bytes.

        Accepts the same kwargs dict the fresh constructor does (so the
        coordinator's per-shard kwargs work for both paths); ``configs``
        and ``faults`` are swallowed — the snapshot carries its own
        authoritative copies, including the fault-timeline tail.
        """
        state = pickle.loads(blob)
        slice_ = cls.__new__(cls)
        slice_.shard_id = shard_id
        slice_.spill_after_cycles = spill_after_cycles
        slice_._dealt_cycle = dict(state["dealt_cycle"])
        slice_.fleet = FleetScheduler.restore(state["fleet"],
                                              **fleet_kwargs)
        return slice_

    def run_epoch(self, fence: int, plan: EpochPlan | None) -> dict:
        """Apply ``plan``, advance to ``fence``, report claim state."""
        if plan is not None:
            for session_id in plan.withdrawals:
                self.fleet.withdraw(session_id)
                self._dealt_cycle.pop(session_id, None)
            now = self.fleet.sim.now
            for order in plan.admissions:
                self._dealt_cycle[order.session.session_id] = max(
                    now, order.session.arrival_cycle)
            self.fleet.submit(plan.admissions)
        self.fleet.run(until=fence)
        return self._report(fence)

    def _report(self, fence: int) -> dict:
        """Claim state at ``fence``; ``"logs"`` moves the metrics
        history out of the slice (one list per :data:`_METRIC_LOGS`).
        Departed sessions never wait again: their spill ages go too."""
        fleet = self.fleet
        metrics = fleet.metrics
        for record in metrics.records:
            self._dealt_cycle.pop(record.session_id, None)
        logs = tuple(getattr(metrics, name) for name in _METRIC_LOGS)
        for name in _METRIC_LOGS:
            setattr(metrics, name, [])
        pending = fleet.pending_sessions
        spills: list[AdmitOrder] = []
        if self.spill_after_cycles is not None:
            for entry in pending:
                dealt = self._dealt_cycle.get(
                    entry.session.session_id, entry.session.arrival_cycle)
                if fence - dealt >= self.spill_after_cycles:
                    spills.append(AdmitOrder.of(entry))
        return {
            "free_cores": tuple(fc.free for fc in fleet.chips),
            "healthy": tuple(fc.healthy for fc in fleet.chips),
            "pending": len(pending),
            "active": fleet.active_count,
            "spills": tuple(spills),
            "logs": logs,
        }

    def collect(self) -> dict:
        """Final per-shard results (picklable) for aggregation; the
        metrics history already left in the fence reports."""
        return {"metrics": self.fleet.metrics,
                "mapper": self.fleet.mapper_stats()}


def _revive(blob: bytes | None, slice_kwargs: dict) -> ShardSlice:
    """A slice restored from a checkpoint blob, or fresh without one."""
    if blob is None:
        return ShardSlice(**slice_kwargs)
    return ShardSlice.from_checkpoint(blob, **slice_kwargs)


def _worker_main(conn, shard_ids: tuple[int, ...],
                 slice_kwargs: dict,
                 crash_events: tuple[CrashEvent, ...] = (),
                 checkpoints: dict[int, bytes | None] | None = None,
                 start_epoch: int = 0,
                 crash_on_restore: bool = False) -> None:
    """Worker process loop: owns a fixed set of slices for the run.

    Fresh workers build their slices from ``slice_kwargs``; recovery
    respawns get ``checkpoints`` (one blob per shard, or None for a
    shard that never checkpointed) and ``start_epoch`` so the replayed
    epoch indices line up with the coordinator's. ``crash_events``
    carries only the injected faults still pending for these shards —
    the coordinator retires consumed events before each respawn, so a
    recovered worker never re-dies on the fault it just recovered from.
    """
    if crash_on_restore:
        os._exit(13)  # injected: die before any state is rebuilt
    checkpoints = checkpoints or {}
    slices = {sid: _revive(checkpoints.get(sid), slice_kwargs[sid])
              for sid in shard_ids}
    epoch_index = start_epoch
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "epoch":
                _, fence, plans, want_checkpoint = message
                for event in crash_events:
                    if event.epoch != epoch_index:
                        continue
                    if event.kind == "crash":
                        os._exit(13)  # injected: die without a report
                    if event.kind == "hang":
                        time.sleep(event.hang_seconds)
                reports = {sid: slices[sid].run_epoch(fence,
                                                      plans.get(sid))
                           for sid in shard_ids}
                blobs = ({sid: slices[sid].checkpoint()
                          for sid in shard_ids} if want_checkpoint else {})
                epoch_index += 1
                conn.send(("report", reports, blobs))
            elif kind == "collect":
                if any(e.kind == "crash_on_collect" for e in crash_events):
                    os._exit(13)  # injected: die holding the results
                conn.send(("state", {sid: slices[sid].collect()
                                     for sid in shard_ids}))
            else:  # "stop"
                return
    except (EOFError, KeyboardInterrupt):
        return
    finally:
        conn.close()


@dataclass
class _ShardState:
    """Coordinator-side claim view of one shard (from its last report)."""

    free_cores: list[int]
    healthy: list[bool]
    pending: int = 0
    active: int = 0


@dataclass
class _WorkerHandle:
    """One supervised worker process and the shards it owns."""

    index: int
    shards: tuple[int, ...]
    proc: object
    conn: object


@dataclass
class _RecoveryLedger:
    """Supervision counters feeding the summary's ``recovery`` block."""

    respawns: int = 0
    timeouts: int = 0
    replayed_epochs: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    degraded_shards: list[int] = field(default_factory=list)

    @property
    def active(self) -> bool:
        """Did any actual recovery happen (not just checkpointing)?

        Gates the summary block: checkpoints alone are routine overhead
        every multi-worker run pays, and must not change the summary's
        byte layout (worker-count invariance depends on it).
        """
        return bool(self.respawns or self.timeouts
                    or self.replayed_epochs or self.degraded_shards)

    def block(self) -> dict:
        return {
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoints": self.checkpoints,
            "degraded_shards": len(self.degraded_shards),
            "replayed_epochs": self.replayed_epochs,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
        }


class ShardedFleetScheduler:
    """Parent coordinator: deals a trace across shard slices at fences.

    The multi-process counterpart of
    :class:`~repro.serving.fleet.FleetScheduler`: same trace in, an
    aggregate :meth:`summary` out — byte-identical for any ``workers``
    value. ``workers`` is clamped to the shard count (a shard is the
    unit of parallelism); ``workers=1`` runs in-process and is the
    determinism oracle.

    Per-shard scheduler options (``policy``, ``placement``,
    ``strategy``, ``defrag``, ``cost_model``, ``elastic``,
    ``evacuation``) are validated as one
    :class:`~repro.serving.config.ServingConfig` at construction — a
    bad or unknown option raises before any worker starts — and
    forwarded to every slice; pass registry *names* (not instances)
    when worker processes may be spawned rather than forked, so the
    options cross the pipe.

    Supervision knobs (multi-worker runs only):

    - ``checkpoint_every`` — fence cadence of the checkpoint ring
      (1 = every fence, the default; ``None`` disables checkpoints,
      recovery then replays the whole run from the start).
    - ``epoch_timeout_seconds`` — watchdog deadline per fence report
      (``None`` restores unbounded blocking receives).
    - ``respawn_budget`` / ``respawn_backoff_seconds`` — consecutive
      respawn attempts per failure before the worker's shards are
      folded into the in-process path, and the exponential-backoff
      base between attempts.
    - ``crashes`` — a :class:`CrashSchedule` of injected host faults
      (tests/benches; requires ``workers > 1``).
    """

    def __init__(self, configs: list[SoCConfig], *,
                 shards: int | None = None,
                 workers: int = 1,
                 epoch_cycles: int = 25_000_000,
                 spill_after_cycles: int | None = None,
                 faults: FailureSchedule | None = None,
                 checkpoint_every: int | None = 1,
                 epoch_timeout_seconds: float | None = 120.0,
                 respawn_budget: int = 3,
                 respawn_backoff_seconds: float = 0.25,
                 crashes: CrashSchedule | None = None,
                 **slice_options) -> None:
        if not configs:
            raise ServingError("fleet needs at least one chip config")
        if epoch_cycles < 1:
            raise ServingError(
                f"epoch_cycles must be positive, got {epoch_cycles}")
        if workers < 1:
            raise ServingError(f"need at least one worker, got {workers}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ServingError(
                f"checkpoint_every must be >= 1 or None, got "
                f"{checkpoint_every}")
        if epoch_timeout_seconds is not None and epoch_timeout_seconds <= 0:
            raise ServingError(
                f"epoch_timeout_seconds must be positive or None, got "
                f"{epoch_timeout_seconds}")
        if respawn_budget < 1:
            raise ServingError(
                f"respawn_budget must be >= 1, got {respawn_budget}")
        if respawn_backoff_seconds < 0:
            raise ServingError(
                f"respawn_backoff_seconds must be >= 0, got "
                f"{respawn_backoff_seconds}")
        self.configs = list(configs)
        self.shards = min(8, len(configs)) if shards is None else shards
        self.groups = partition_chips(len(configs), self.shards)
        self.workers = min(workers, self.shards)
        self.epoch_cycles = epoch_cycles
        #: A waiter this many cycles old at a fence proposes a spill.
        self.spill_after_cycles = (epoch_cycles if spill_after_cycles is None
                                   else spill_after_cycles)
        if faults is not None:
            faults.validate(len(configs))
        self.faults = faults
        self._shard_faults = partition_schedule(faults, self.groups)
        self._fault_horizon = max(
            (e.recovery_cycle for e in faults.events), default=0
        ) if faults is not None else 0
        #: The per-slice scheduler knobs, validated before any worker
        #: starts. Its ``faults`` stays None: each slice gets its own
        #: partition of the fleet schedule.
        self.config = ServingConfig.from_kwargs(**slice_options)
        self.checkpoint_every = checkpoint_every
        self.epoch_timeout_seconds = epoch_timeout_seconds
        self.respawn_budget = respawn_budget
        self.respawn_backoff_seconds = respawn_backoff_seconds
        if crashes is not None:
            if self.workers == 1:
                raise ServingError(
                    "a crash schedule needs workers > 1 (in-process mode "
                    "has no worker process to kill)")
            crashes.validate(self.shards)
        self.crashes = crashes
        #: Injected faults not yet consumed, by category: epoch-addressed
        #: events retire once their worker has been recovered past them;
        #: restore crashes carry a per-event remaining count.
        self._pending_crashes: list[CrashEvent] = [
            e for e in (crashes.events if crashes else ())
            if e.kind in ("crash", "hang", "crash_on_collect")]
        self._restore_crashes: list[list] = [
            [e, e.count] for e in (crashes.events if crashes else ())
            if e.kind == "crash_on_restore"]
        #: Static per-(shard, chip) capability map for claim validation.
        self._chip_cores = [
            [configs[i].mesh_rows * configs[i].mesh_cols for i in group]
            for group in self.groups
        ]
        self._chip_capacity = [
            [guest_capacity_bytes(configs[i]) for i in group]
            for group in self.groups
        ]
        self._frequency_hz = configs[0].frequency_hz
        self._trace: list[TenantSession] = []
        self._trace_loaded = False
        # Run state.
        self._cursor = 0
        self._deferred: list[AdmitOrder] = []
        self._spills: list[tuple[int, AdmitOrder]] = []
        self._states = [
            _ShardState(free_cores=list(cores),
                        healthy=[True] * len(cores))
            for cores in self._chip_cores
        ]
        self._epochs = 0
        self.deferred_total = 0
        self.spills_committed = 0
        self.spills_rejected = 0
        self.shard_metrics: list[FleetMetrics] | None = None
        self._mapper_stats: dict | None = None
        #: In-process slices: all shards when ``workers=1``; orphaned
        #: shards after a degradation otherwise.
        self._slices: dict[int, ShardSlice] = {}
        self._pool: dict[int, _WorkerHandle] = {}
        self._mp_context = None
        #: Each shard's reported metrics history (see ``_METRIC_LOGS``).
        self._logs: list[tuple[list, ...]] = [
            tuple([] for _ in _METRIC_LOGS) for _ in range(self.shards)]
        #: Checkpoint ring: per shard, the newest checkpoint's bytes and
        #: ``_logs`` lengths at its fence, plus the epoch plans since.
        self._checkpoints: dict[int, tuple[bytes, tuple[int, ...]]] = {}
        self._plan_log: list[tuple[int, dict[int, EpochPlan], bool]] = []
        self.recovery = _RecoveryLedger()
        self._owned: list[tuple[int, ...]] = [
            tuple(sid for sid in range(self.shards)
                  if sid % self.workers == w)
            for w in range(self.workers)
        ]

    @classmethod
    def homogeneous(cls, chips: int, cores: int = 36,
                    **kwargs) -> "ShardedFleetScheduler":
        """A sharded fleet of ``chips`` identical SIM-configured chips."""
        if chips < 1:
            raise ServingError(f"fleet needs at least one chip, got {chips}")
        return cls([sim_config(cores) for _ in range(chips)], **kwargs)

    @property
    def chip_count(self) -> int:
        return len(self.configs)

    # -- public API --------------------------------------------------------
    def submit(self, trace: list[TenantSession]) -> None:
        """Queue a trace (validated fleet-wide, like the monolith)."""
        if self._trace_loaded:
            raise ServingError("scheduler already has a trace submitted")
        largest = max(max(cores) for cores in self._chip_cores)
        largest_memory = max(max(caps) for caps in self._chip_capacity)
        models = coerce_cost_model(self.config.cost_model).models
        ordered = sorted(trace,
                         key=lambda s: (s.arrival_cycle, s.session_id))
        for session in ordered:
            validate_session(session, models, largest, largest_memory)
        self._trace = ordered
        self._trace_loaded = True

    def run(self) -> int:
        """Drive every shard epoch by epoch; returns the final fence."""
        if not self._trace_loaded:
            raise ServingError("submit() a trace before run()")
        if self.shard_metrics is not None:
            raise ServingError("scheduler already ran its trace")
        self._start()
        fence = 0
        try:
            while True:
                fence += self.epoch_cycles
                plans = self._deal(fence)
                want = self._checkpoint_due()
                if self._pool:
                    self._plan_log.append((fence, plans, want))
                reports = self._exchange(fence, plans, want)
                if want and self._pool:
                    self._plan_log.clear()
                self._absorb(reports)
                self._epochs += 1
                if (self._cursor >= len(self._trace)
                        and not self._deferred and not self._spills
                        and all(s.pending == 0 and s.active == 0
                                for s in self._states)
                        and fence >= self._fault_horizon):
                    break
            self._finalize()
        finally:
            self._shutdown()
        return fence

    def serve(self, trace: list[TenantSession]) -> dict:
        """Convenience: submit + run + return the aggregate summary."""
        self.submit(trace)
        self.run()
        return self.summary()

    def summary(self, frequency_hz: int | None = None) -> dict:
        """The aggregate fleet digest (worker-count-invariant).

        When supervision actually recovered something, a ``recovery``
        block is appended (respawns, timeouts, replayed epochs,
        checkpoint ring size, degraded shards) — the one part of the
        digest that is *not* worker-count-invariant, which is why
        crash-free runs omit it entirely and equivalence checks compare
        summaries with the block popped.
        """
        if self.shard_metrics is None:
            raise ServingError("run() the trace before summary()")
        offsets = [group[0] for group in self.groups]
        cores = [sum(chip_cores) for chip_cores in self._chip_cores]
        digest = merge_fleet_summaries(
            self.shard_metrics, cores, offsets,
            frequency_hz or self._frequency_hz,
            recovery=(self.recovery.block()
                      if self.recovery.active else None))
        digest["sharding"].update({
            "chips_per_shard": [len(g) for g in self.groups],
            # The only dealing mode; the key keeps the digest layout.
            "dealing": "balanced",
            "deferred_total": self.deferred_total,
            "epoch_cycles": self.epoch_cycles,
            "epochs": self._epochs,
            "spills_committed": self.spills_committed,
            "spills_rejected": self.spills_rejected,
        })
        return digest

    def mapper_stats(self) -> dict:
        """Fleet-wide mapper counters (per-shard stats summed)."""
        if self._mapper_stats is None:
            raise ServingError("run() the trace before mapper_stats()")
        return dict(self._mapper_stats)

    # -- the fence protocol ------------------------------------------------
    def _deal(self, fence: int) -> dict[int, EpochPlan]:
        """Resolve this fence's decisions in one fixed total order.

        Validate-all-before-deploy: claims are tallied against the
        reported free/health map; only decisions whose claims hold are
        committed into plans, the rest defer (arrivals) or stay put
        (spills). The order — ``(cycle, source shard, session id)``
        with fresh arrivals and deferrals sourced at ``-1`` — depends
        only on trace and reports, never on workers.
        """
        decisions: list[tuple[int, int, int, AdmitOrder, int | None]] = []
        while (self._cursor < len(self._trace)
               and self._trace[self._cursor].arrival_cycle < fence):
            session = self._trace[self._cursor]
            self._cursor += 1
            decisions.append((session.arrival_cycle, -1,
                              session.session_id, AdmitOrder(session), None))
        for order in self._deferred:
            decisions.append((order.session.arrival_cycle, -1,
                              order.session.session_id, order, None))
        self._deferred = []
        last_fence = fence - self.epoch_cycles
        for source, order in self._spills:
            decisions.append((last_fence, source,
                              order.session.session_id, order, source))
        self._spills = []
        decisions.sort(key=lambda d: (d[0], d[1], d[2]))

        claims: dict[int, list[int]] = {}
        admissions: dict[int, list[AdmitOrder]] = {}
        withdrawals: dict[int, list[int]] = {}
        for _, _, _, order, source in decisions:
            target = self._choose_shard(order.session, claims,
                                        exclude=source,
                                        require_free=source is not None)
            if target is None:
                if source is None:
                    self._deferred.append(order)
                    self.deferred_total += 1
                else:
                    self.spills_rejected += 1  # stays at its source
                continue
            if source is not None:
                withdrawals.setdefault(source, []).append(
                    order.session.session_id)
                self.spills_committed += 1
            admissions.setdefault(target, []).append(order)
        plans: dict[int, EpochPlan] = {}
        for shard_id in range(self.shards):
            if shard_id not in admissions and shard_id not in withdrawals:
                continue
            batch = sorted(
                admissions.get(shard_id, ()),
                key=lambda o: (o.session.arrival_cycle,
                               o.session.session_id))
            plans[shard_id] = EpochPlan(
                admissions=tuple(batch),
                withdrawals=tuple(sorted(withdrawals.get(shard_id, ()))))
        return plans

    def _choose_shard(self, session: TenantSession,
                      claims: dict[int, list[int]],
                      exclude: int | None, *,
                      require_free: bool) -> int | None:
        """Validate the session's claim; commit it on the best shard.

        A shard is *eligible* when some healthy chip whose static shape
        fits the request still has enough claim-adjusted free cores —
        it can admit immediately. Ranking: most total claim-adjusted
        free cores, then shortest queue, then lowest shard id. When no
        shard is eligible and ``require_free`` is False (fresh
        arrivals), the session falls back to the best statically
        fitting healthy shard and waits in *its* queue — the slice
        admits it mid-epoch on the first departure, which a
        coordinator-side deferral could not. Spills set
        ``require_free``: moving to another queue is never better than
        staying put.
        """
        cores = session.core_count
        best: tuple | None = None
        best_shard = best_chip = None
        fallback: tuple | None = None
        fallback_shard = fallback_chip = None
        for shard_id in range(self.shards):
            if shard_id == exclude:
                continue
            state = self._states[shard_id]
            shard_claims = claims.get(shard_id)
            top_chip = None
            top_free = 0
            fit_chip = None
            fit_free = 0
            total_free = 0
            for chip in range(len(state.free_cores)):
                free = state.free_cores[chip]
                if shard_claims is not None:
                    free -= shard_claims[chip]
                total_free += max(0, free)
                if (not state.healthy[chip]
                        or self._chip_cores[shard_id][chip] < cores
                        or self._chip_capacity[shard_id][chip]
                        < session.memory_bytes):
                    continue
                if fit_chip is None or free > fit_free:
                    fit_chip, fit_free = chip, free
                if free < cores:
                    continue
                if top_chip is None or free > top_free:
                    top_chip, top_free = chip, free
            rank = (-total_free, state.pending, shard_id)
            if top_chip is not None and (best is None or rank < best):
                best, best_shard, best_chip = rank, shard_id, top_chip
            if fit_chip is not None and (fallback is None
                                         or rank < fallback):
                fallback, fallback_shard, fallback_chip = (
                    rank, shard_id, fit_chip)
        if best_shard is None and not require_free:
            best_shard, best_chip = fallback_shard, fallback_chip
        if best_shard is None:
            return None
        claims.setdefault(
            best_shard, [0] * len(self._chip_cores[best_shard])
        )[best_chip] += cores
        return best_shard

    def _absorb(self, reports: dict[int, dict]) -> None:
        """Fold per-shard reports into the next fence's claim map."""
        for shard_id in range(self.shards):
            report = reports[shard_id]
            state = self._states[shard_id]
            state.free_cores = list(report["free_cores"])
            state.healthy = list(report["healthy"])
            state.pending = report["pending"]
            state.active = report["active"]
            for order in report["spills"]:
                self._spills.append((shard_id, order))

    # -- slice / worker management -----------------------------------------
    def _slice_kwargs(self, shard_id: int) -> dict:
        return {
            **self.config.fleet_kwargs(),
            "shard_id": shard_id,
            "configs": [self.configs[i] for i in self.groups[shard_id]],
            "spill_after_cycles": self.spill_after_cycles,
            "faults": self._shard_faults[shard_id],
        }

    def _checkpoint_due(self) -> bool:
        """Checkpoint this epoch? (Only meaningful with live workers.)"""
        if not self._pool or self.checkpoint_every is None:
            return False
        return (self._epochs + 1) % self.checkpoint_every == 0

    def _start(self) -> None:
        if self.workers == 1:
            self._slices = {
                sid: ShardSlice(**self._slice_kwargs(sid))
                for sid in range(self.shards)
            }
            return
        methods = multiprocessing.get_all_start_methods()
        self._mp_context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        for worker in range(self.workers):
            self._pool[worker] = self._spawn(worker, self._owned[worker])

    def _spawn(self, worker: int, shards: tuple[int, ...], *,
               recovery: bool = False) -> _WorkerHandle:
        """Fork one worker; recovery spawns ship checkpoints to restore.

        A recovery spawn rewinds its shards (:meth:`_rewind`) and
        consumes a pending ``crash_on_restore`` charge for any of them
        (the injected worker dies before touching the pipe protocol, so
        the failure surfaces as an EOF on the first replay receive).
        """
        crash_on_restore = False
        checkpoints = None
        start_epoch = 0
        if recovery:
            for entry in self._restore_crashes:
                event, remaining = entry
                if remaining > 0 and event.shard in shards:
                    entry[1] -= 1
                    crash_on_restore = True
                    break
            checkpoints = {sid: self._rewind(sid) for sid in shards}
            start_epoch = self._epochs - (len(self._plan_log) - 1)
        events = tuple(e for e in self._pending_crashes
                       if e.shard in shards)
        parent, child = self._mp_context.Pipe()
        proc = self._mp_context.Process(
            target=_worker_main,
            args=(child, shards,
                  {sid: self._slice_kwargs(sid) for sid in shards},
                  events, checkpoints, start_epoch, crash_on_restore),
            daemon=True,
            name=f"shard-worker-{worker}")
        proc.start()
        child.close()
        return _WorkerHandle(index=worker, shards=shards, proc=proc,
                             conn=parent)

    def _exchange(self, fence: int, plans: dict[int, EpochPlan],
                  want_checkpoint: bool = False) -> dict[int, dict]:
        """One fence round-trip, supervising every live worker.

        In-process slices run first (they cannot fail), then plans are
        broadcast and reports gathered under the watchdog deadline. Any
        worker that dies (pipe EOF / broken pipe) or hangs
        (:class:`~repro.errors.EpochTimeoutError`) is handed to
        :meth:`_recover`, which either replays it back to this fence on
        a fresh process or degrades its shards in-process — either way
        this method returns a full, deterministic report set.
        """
        reports: dict[int, dict] = {}
        for sid in sorted(self._slices):
            reports[sid] = self._take(
                sid, self._slices[sid].run_epoch(fence, plans.get(sid)))
        failed: list[int] = []
        for worker, handle in sorted(self._pool.items()):
            sub = {sid: plans[sid] for sid in handle.shards
                   if sid in plans}
            try:
                handle.conn.send(("epoch", fence, sub, want_checkpoint))
            except _PIPE_ERRORS:
                failed.append(worker)
        for worker, handle in sorted(self._pool.items()):
            if worker in failed:
                continue
            try:
                _, payload, blobs = self._receive(handle, fence)
            except WorkerFailure:
                failed.append(worker)
                continue
            for sid, report in payload.items():
                reports[sid] = self._take(sid, report)
            self._stash(blobs)
        for worker in failed:
            reports.update(self._recover(worker, fence))
        return reports

    def _receive(self, handle: _WorkerHandle, fence: int):
        """Deadline-based receive: poll until report, death, or timeout.

        Replaces the unbounded blocking ``conn.recv()``: a worker that
        neither reports nor dies within ``epoch_timeout_seconds``
        raises :class:`~repro.errors.EpochTimeoutError`; a dead pipe
        raises :class:`~repro.errors.WorkerFailure`. Callers treat both
        as "this worker is gone".
        """
        conn = handle.conn
        try:
            if self.epoch_timeout_seconds is None:
                return conn.recv()
            deadline = time.monotonic() + self.epoch_timeout_seconds
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.recovery.timeouts += 1
                    raise EpochTimeoutError(
                        f"shard worker {handle.index} missed the "
                        f"{self.epoch_timeout_seconds}s epoch deadline "
                        f"at fence {fence}")
                if conn.poll(remaining):
                    return conn.recv()
        except _PIPE_ERRORS as exc:
            raise WorkerFailure(
                f"shard worker {handle.index} died at fence {fence}: "
                f"{exc!r}") from exc

    def _take(self, sid: int, report: dict) -> dict:
        """Append a report's metrics history to the shard's logs."""
        for log, new in zip(self._logs[sid], report.pop("logs")):
            log.extend(new)
        return report

    def _stash(self, blobs: dict[int, bytes]) -> None:
        """Store fresh checkpoints in the ring (newest wins), with the
        history lengths at their fence (whose reports are taken)."""
        for sid, blob in blobs.items():
            self.recovery.checkpoints += 1
            self.recovery.checkpoint_bytes += len(blob)
            self._checkpoints[sid] = (
                blob, tuple(len(log) for log in self._logs[sid]))

    def _rewind(self, sid: int) -> bytes | None:
        """Cut a shard's history back to its newest checkpoint and
        return the blob (None, history emptied, if it has none)."""
        blob, lengths = self._checkpoints.get(
            sid, (None, (0,) * len(_METRIC_LOGS)))
        for log, length in zip(self._logs[sid], lengths):
            del log[length:]
        return blob

    def _consume_crashes(self, shards: tuple[int, ...]) -> None:
        """Retire epoch-addressed injected faults a recovery passed.

        Without this a respawned worker would replay straight into the
        crash event that just killed it and burn the whole budget on
        one injection.
        """
        self._pending_crashes = [
            e for e in self._pending_crashes
            if not (e.shard in shards and e.kind in ("crash", "hang")
                    and e.epoch <= self._epochs)]

    def _recover(self, worker: int, fence: int) -> dict[int, dict]:
        """Respawn-and-replay a failed worker; degrade when out of budget.

        Each attempt: back off exponentially, fork a fresh process
        carrying the shards' last fence checkpoints, then replay every
        epoch plan committed since those checkpoints (the log always
        ends with the in-flight fence). Determinism makes the replayed
        final report byte-identical to the lost one. When
        ``respawn_budget`` consecutive attempts die, the shards are
        folded into the in-process path instead — the run completes
        degraded rather than aborting, and the summary's ``recovery``
        block says so.
        """
        handle = self._pool.pop(worker)
        self._dismiss(handle)
        self._consume_crashes(handle.shards)
        for attempt in range(self.respawn_budget):
            if self.respawn_backoff_seconds:
                time.sleep(self.respawn_backoff_seconds * (2 ** attempt))
            self.recovery.respawns += 1
            replacement = self._spawn(worker, handle.shards, recovery=True)
            try:
                reports = self._replay(replacement)
            except WorkerFailure:
                self._dismiss(replacement)
                continue
            self._pool[worker] = replacement
            return reports
        self.recovery.degraded_shards.extend(handle.shards)
        return self._fold(handle.shards)

    def _replay(self, handle: _WorkerHandle) -> dict[int, dict]:
        """Drive a respawned worker through the logged epochs.

        Every entry re-sends the committed plans (restricted to the
        worker's shards) and takes the report's history; intermediate
        claim states are discarded — the coordinator already absorbed
        their originals — and checkpoints are re-stashed so the ring
        stays current. Returns the final (in-flight) fence's reports.
        """
        reports: dict[int, dict] = {}
        for fence, plans, want in self._plan_log:
            sub = {sid: plans[sid] for sid in handle.shards
                   if sid in plans}
            try:
                handle.conn.send(("epoch", fence, sub, want))
            except _PIPE_ERRORS as exc:
                raise WorkerFailure(
                    f"shard worker {handle.index} died during replay at "
                    f"fence {fence}: {exc!r}") from exc
            _, payload, blobs = self._receive(handle, fence)
            self.recovery.replayed_epochs += 1
            reports = {sid: self._take(sid, report)
                       for sid, report in payload.items()}
            self._stash(blobs)
        return reports

    def _fold(self, shards: tuple[int, ...]) -> dict[int, dict]:
        """Absorb orphaned shards into the in-process oracle path.

        Each shard is rewound to its last fence checkpoint (or rebuilt
        from scratch when it never checkpointed) and replayed through
        the logged epochs inside the coordinator. From here on
        ``_exchange`` simulates these shards in-process — degraded but
        alive.
        """
        reports: dict[int, dict] = {}
        for sid in shards:
            self._slices[sid] = _revive(self._rewind(sid),
                                        self._slice_kwargs(sid))
        for fence, plans, _ in self._plan_log:
            for sid in shards:
                reports[sid] = self._take(sid, self._slices[sid].run_epoch(
                    fence, plans.get(sid)))
            self.recovery.replayed_epochs += 1
        return reports

    def _finalize(self) -> None:
        """Collect every shard's metrics and attach its history."""
        states: dict[int, dict] = {}
        for worker, handle in sorted(self._pool.items()):
            try:
                handle.conn.send(("collect",))
                _, payload = self._receive(handle, -1)
            except (WorkerFailure, *_PIPE_ERRORS):
                # A worker dying while holding finished results is the
                # worst-timed failure; the checkpoint ring still covers
                # it — fold the shards in-process (restore + replay to
                # the final fence) and collect from the slices below.
                self._pool.pop(worker)
                self._dismiss(handle)
                self.recovery.degraded_shards.extend(handle.shards)
                self._fold(handle.shards)
                continue
            states.update(payload)
        for sid in sorted(self._slices):
            states[sid] = self._slices[sid].collect()
        self.shard_metrics = [states[sid]["metrics"]
                              for sid in range(self.shards)]
        for metrics, logs in zip(self.shard_metrics, self._logs):
            for name, log in zip(_METRIC_LOGS, logs):
                setattr(metrics, name, log)
        self._mapper_stats = sum_mapper_stats(
            states[sid]["mapper"] for sid in range(self.shards))

    def _dismiss(self, handle: _WorkerHandle,
                 join_timeout: float = 5.0) -> None:
        """Put one worker down for good: terminate -> kill -> close.

        SIGTERM first; a worker that ignores it past ``join_timeout``
        (wedged in C code, masked signals) is escalated to SIGKILL,
        which cannot be ignored. The pipe end is always closed — a
        supervisor that respawns workers all run long cannot afford to
        leak one file descriptor per incident.
        """
        try:
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=join_timeout)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=join_timeout)
        finally:
            try:
                handle.conn.close()
            except OSError:
                pass

    def _shutdown(self) -> None:
        self._slices = {}
        for handle in self._pool.values():
            try:
                handle.conn.send(("stop",))
            except _PIPE_ERRORS:
                pass
        for handle in self._pool.values():
            try:
                handle.proc.join(timeout=10)
            finally:
                self._dismiss(handle)
        self._pool = {}
        self._checkpoints = {}
        self._plan_log = []
