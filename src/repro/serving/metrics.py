"""Serving metrics: per-session records plus time-weighted cluster state.

Everything here is deterministic and JSON-friendly — the benchmark's
byte-identical-output guarantee flows through this module, so no wall
clocks, no dict-order dependence (summaries are plain dicts serialized
with ``sort_keys=True`` by the caller) and nearest-rank percentiles
rather than interpolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.arch.topology import Topology
from repro.serving.slo import resolve_slo


def canonical_json(payload) -> str:
    """The one canonical JSON spelling of a metrics payload.

    Sorted keys, minimal separators, no trailing newline — the byte
    form the control plane's wire protocol, the service benchmark's
    batch-vs-service equality check and the warm-restart oracle all
    compare. Two payloads are "the same result" iff their
    ``canonical_json`` strings are equal.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def summary_wire(summary: dict) -> dict:
    """A summary dict projected onto plain JSON types.

    ``summary()`` dicts hold tuples (per-class rows, percentiles);
    round-tripping through :func:`canonical_json` normalizes them to
    lists, so a summary computed in-process compares equal to the same
    summary decoded off the wire.
    """
    return json.loads(canonical_json(summary))


def percentile(values: list[int | float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]); 0.0 on empty input."""
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return float(ordered[int(rank) - 1])


def fragmentation_ratio(topology: Topology, allocated: set[int]) -> float:
    """How shattered the free cores are: 1 - largest fragment / free.

    0.0 means every free core sits in one connected region (or the chip
    is full); approaching 1.0 means the free set is confetti — the state
    that forces fragmented mappings (Fig 17).
    """
    free = [node for node in topology.nodes if node not in allocated]
    if not free:
        return 0.0
    remaining = set(free)
    largest = 0
    while remaining:
        seed = next(iter(remaining))
        stack = [seed]
        component = {seed}
        while stack:
            node = stack.pop()
            for neighbor in topology.neighbors(node):
                if neighbor in remaining and neighbor not in component:
                    component.add(neighbor)
                    stack.append(neighbor)
        remaining -= component
        largest = max(largest, len(component))
    return 1.0 - largest / len(free)


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """Lifecycle of one served tenant session.

    One record per session, held for the whole run: ``slots=True`` keeps
    the metrics stream's allocation footprint flat on million-session
    traces.
    """

    session_id: int
    tenant: str
    model: str
    cores: int
    arrival_cycle: int
    admit_cycle: int
    depart_cycle: int
    strategy: str
    mapping_distance: float
    mapping_connected: bool
    #: Chip the session *departed* from (always 0 on a single chip).
    chip: int = 0
    #: Live migrations this session survived while resident.
    migrations: int = 0
    #: SLO class the session was served under ("" for pre-SLO records).
    slo: str = ""
    #: Times this session was preempted (torn down and requeued) before
    #: finally completing.
    preemptions: int = 0
    #: Live grow/shrink resizes this session survived while resident.
    resizes: int = 0
    #: Fault-tolerance lifecycle: times this session was live-evacuated
    #: off a failing chip, times it was killed (fail-stop teardown +
    #: requeue) by one, and the service cycles those kills discarded.
    evacuations: int = 0
    kills: int = 0
    lost_service_cycles: int = 0

    @property
    def queue_delay_cycles(self) -> int:
        return self.admit_cycle - self.arrival_cycle

    @property
    def service_cycles(self) -> int:
        return self.depart_cycle - self.admit_cycle


@dataclass
class SLOMetrics:
    """Per-SLO-class outcomes distilled from the session records.

    ``attainment`` is the fraction of completed sessions whose admission
    delay met their class target (classes without a target always
    attain); ``goodput_sessions_per_second`` counts only the sessions
    that met it. Everything is computed from the deterministic record
    stream, so the digest is byte-stable across runs.
    """

    #: class name -> {completed, met, attainment, p99, preemptions, ...}
    per_class: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: list[SessionRecord],
                     seconds: float) -> "SLOMetrics":
        grouped: dict[str, list[SessionRecord]] = {}
        for record in records:
            if record.slo:
                grouped.setdefault(record.slo, []).append(record)
        # The fault keys appear only when the run saw fault activity at
        # all, so fault-free digests (every pre-fault bench artifact)
        # keep their historical byte layout.
        faulted = any(r.evacuations or r.kills or r.lost_service_cycles
                      for r in records)
        per_class: dict[str, dict] = {}
        for name in sorted(grouped):
            slo = resolve_slo(name)
            group = grouped[name]
            delays = [r.queue_delay_cycles for r in group]
            met = sum(1 for r in group if slo.met(r.queue_delay_cycles))
            per_class[name] = {
                "attainment": round(met / len(group), 6),
                "goodput_sessions_per_second": round(
                    met / seconds if seconds else 0.0, 6),
                "p99_queue_delay_cycles": percentile(delays, 99),
                "preemptions": sum(r.preemptions for r in group),
                "resizes": sum(r.resizes for r in group),
                "sessions_completed": len(group),
                "sessions_met_slo": met,
                "tier": slo.tier,
            }
            if faulted:
                per_class[name].update({
                    "evacuations": sum(r.evacuations for r in group),
                    "killed_sessions": sum(r.kills for r in group),
                    "lost_service_cycles": sum(r.lost_service_cycles
                                               for r in group),
                })
        return cls(per_class)

    def digest(self) -> dict:
        return dict(self.per_class)


@dataclass
class FleetMetrics:
    """Accumulates one scheduler run: records, counters, cluster state.

    ``records`` and ``fault_log`` are the only per-event history kept,
    and they grow with the run. Every sampled instant is folded into
    running time-weighted integrals (:meth:`sample`), so the rest of
    the object stays a fixed size. A shard slice moves both lists into
    each fence report, so its fence checkpoints pickle none of them.
    """

    records: list[SessionRecord] = field(default_factory=list)
    #: Failed admission attempts — topology lock-in, no connected subset
    #: *or* guest-memory exhaustion (the scheduler cannot tell which
    #: phase of ``create_vnpu`` refused, so the counter is named for the
    #: admission attempt, not a single cause).
    admission_failures: int = 0
    #: Sessions dropped because even an empty chip could not host them.
    rejected: int = 0
    #: Elastic-enforcement counters: sessions torn down and requeued for
    #: a higher tier, live resizes by direction, and the total cycles
    #: charged to victims for those resizes.
    preemptions: int = 0
    shrinks: int = 0
    grows: int = 0
    resize_cycles: int = 0
    #: Completed live migrations and their total cycle cost.
    migrations: int = 0
    migration_cycles: int = 0
    #: Defrag attempts that found no better placement anywhere.
    migration_failures: int = 0
    #: Fault-tolerance counters (fleet level). ``faults_enabled`` is set
    #: by the scheduler when a failure schedule is attached; only then
    #: does the summary grow its ``faults`` block, so fault-free runs
    #: keep their historical byte layout.
    faults_enabled: bool = False
    chip_failures: int = 0
    chip_recoveries: int = 0
    evacuations: int = 0
    evacuation_cycles: int = 0
    killed_sessions: int = 0
    lost_service_cycles: int = 0
    #: Injection history: {"cycle", "action" ("fail"/"recover"),
    #: "chip", "kind"} per event, in injection order — what the
    #: failover bench derives recovery times from.
    fault_log: list[dict] = field(default_factory=list)
    #: The folded time series (see :meth:`sample`): first and last
    #: sampled cycle (``first_cycle`` is None before any sample), the
    #: last instant's values, one running area (value x cycles held)
    #: per value, and running maxima. Sampled values are nonnegative.
    first_cycle: int | None = None
    last_cycle: int = 0
    utilization: float = 0.0
    fragmentation: float = 0.0
    utilization_spread: float = 0.0
    chip_utilization: tuple[float, ...] = ()
    utilization_area: float = 0.0
    fragmentation_area: float = 0.0
    utilization_spread_area: float = 0.0
    chip_utilization_area: list[float] = field(default_factory=list)
    fragmentation_max: float = 0.0
    queue_length_max: int = 0

    def record_departure(self, record: SessionRecord) -> None:
        self.records.append(record)

    def sample(self, cycle: int, *, utilization: float,
               fragmentation: float, queue_length: int,
               chip_utilization: tuple[float, ...]) -> None:
        """Fold one instant: fleet utilization, mean chip fragmentation,
        queue length and per-chip utilization.

        The previous instant's values are weighted by the cycles they
        held (zero on the first sample) *before* being replaced — the
        summation order of a pairwise pass over stored samples, so the
        integrals are bit-identical to one.
        """
        if self.first_cycle is None:
            self.first_cycle = self.last_cycle = cycle
            self.chip_utilization_area = [0.0] * len(chip_utilization)
        weight = cycle - self.last_cycle
        self.utilization_area += self.utilization * weight
        self.fragmentation_area += self.fragmentation * weight
        self.utilization_spread_area += self.utilization_spread * weight
        for index, value in enumerate(self.chip_utilization):
            self.chip_utilization_area[index] += value * weight
        self.fragmentation_max = max(self.fragmentation_max, fragmentation)
        self.queue_length_max = max(self.queue_length_max, queue_length)
        self.last_cycle = cycle
        self.utilization = utilization
        self.fragmentation = fragmentation
        self.utilization_spread = max(chip_utilization) - min(chip_utilization)
        self.chip_utilization = chip_utilization

    def record_resize(self, cycles: int, grew: bool) -> None:
        if grew:
            self.grows += 1
        else:
            self.shrinks += 1
        self.resize_cycles += cycles

    def record_migration(self, cycles: int) -> None:
        self.migrations += 1
        self.migration_cycles += cycles

    def record_chip_failure(self, cycle: int, chip: int, kind: str) -> None:
        self.chip_failures += 1
        self.fault_log.append({"action": "fail", "chip": chip,
                               "cycle": cycle, "kind": kind})

    def record_chip_recovery(self, cycle: int, chip: int, kind: str) -> None:
        self.chip_recoveries += 1
        self.fault_log.append({"action": "recover", "chip": chip,
                               "cycle": cycle, "kind": kind})

    def record_evacuation(self, cycles: int) -> None:
        """One resident successfully live-migrated off a failing chip."""
        self.evacuations += 1
        self.evacuation_cycles += cycles

    def record_kill(self, lost_service_cycles: int) -> None:
        """One resident fail-stop-killed; its accrued service discarded."""
        self.killed_sessions += 1
        self.lost_service_cycles += lost_service_cycles

    # -- aggregation -------------------------------------------------------
    @property
    def chips(self) -> int:
        """Chips in the sampled fleet (0 before the first sample)."""
        return len(self.chip_utilization)

    def _over_span(self, area: float, last: float) -> float:
        """0.0 before any sample; the last value when the samples span
        no time (one sample, or all at one cycle)."""
        if self.first_cycle is None:
            return 0.0
        span = self.last_cycle - self.first_cycle
        return area / span if span > 0 else last

    def time_weighted(self, name: str) -> float:
        """Time-weighted mean of ``utilization``, ``fragmentation`` or
        ``utilization_spread``: each value weighted by how long it held."""
        return self._over_span(getattr(self, f"{name}_area"),
                               getattr(self, name))

    def summary(self, frequency_hz: int) -> dict:
        """A JSON-able digest of the run (rounded for stable serialization)."""
        digest = _digest([self], self.records,
                         self.time_weighted("utilization"),
                         self.time_weighted("fragmentation"), frequency_hz)
        digest["fleet"].update({
            "utilization_spread_time_weighted": round(
                self.time_weighted("utilization_spread"), 6),
            "per_chip_utilization_time_weighted": [
                round(self._over_span(area, last), 6)
                for area, last in zip(self.chip_utilization_area,
                                      self.chip_utilization)],
        })
        return digest


def _digest(parts: "list[FleetMetrics]", records: "list[SessionRecord]",
            utilization: float, fragmentation: float,
            frequency_hz: int) -> dict:
    """The digest fields one run and a merge of shard runs share.

    ``records`` are the (possibly merged) session records; counters are
    summed and maxima taken over ``parts``; ``utilization`` and
    ``fragmentation`` are the already-aggregated time-weighted means.
    """
    makespan = max((p.last_cycle for p in parts), default=0)
    seconds = makespan / frequency_hz if makespan else 0.0
    delays = [r.queue_delay_cycles for r in records]
    digest = {
        "sessions_completed": len(records),
        "sessions_per_second": round(
            len(records) / seconds if seconds else 0.0, 6),
        "makespan_cycles": makespan,
        "queue_delay_cycles": {
            "mean": round(sum(delays) / len(delays) if delays else 0.0, 3),
            "p50": percentile(delays, 50),
            "p95": percentile(delays, 95),
            "max": float(max(delays)) if delays else 0.0,
        },
        "utilization_time_weighted": round(utilization, 6),
        "fragmentation": {
            "time_weighted_mean": round(fragmentation, 6),
            "max": round(max((p.fragmentation_max for p in parts),
                             default=0.0), 6),
        },
        "queue_length_max": max((p.queue_length_max for p in parts),
                                default=0),
        "admission_failures": sum(p.admission_failures for p in parts),
        "sessions_rejected": sum(p.rejected for p in parts),
        "slo": {
            "classes": SLOMetrics.from_records(records, seconds).digest(),
            "grows": sum(p.grows for p in parts),
            "preemptions": sum(p.preemptions for p in parts),
            "resize_cycles": sum(p.resize_cycles for p in parts),
            "shrinks": sum(p.shrinks for p in parts),
        },
        "fleet": {
            "chips": sum(p.chips for p in parts),
            "migrations": sum(p.migrations for p in parts),
            "migration_cycles": sum(p.migration_cycles for p in parts),
            "migration_failures": sum(p.migration_failures for p in parts),
            "sessions_migrated": sum(1 for r in records if r.migrations > 0),
        },
    }
    if any(p.faults_enabled for p in parts):
        digest["faults"] = {
            "chip_failures": sum(p.chip_failures for p in parts),
            "chip_recoveries": sum(p.chip_recoveries for p in parts),
            "evacuation_cycles": sum(p.evacuation_cycles for p in parts),
            "evacuations": sum(p.evacuations for p in parts),
            "killed_sessions": sum(p.killed_sessions for p in parts),
            "lost_service_cycles": sum(p.lost_service_cycles
                                       for p in parts),
        }
    return digest


def merge_fleet_summaries(parts: "list[FleetMetrics]",
                          core_counts: "list[int]",
                          chip_offsets: "list[int]",
                          frequency_hz: int,
                          recovery: "dict | None" = None) -> dict:
    """Aggregate per-shard :class:`FleetMetrics` into one fleet digest.

    The sharded coordinator's summary: the shape mirrors
    :meth:`FleetMetrics.summary` so downstream tooling reads both, with
    a ``sharding.per_shard`` breakdown instead of per-chip columns.
    Everything is computed from the deterministic per-shard streams —
    records merged in ``(depart_cycle, session_id)`` order with chip
    indices remapped to fleet-global (``chip_offsets[shard] + local``),
    counters summed in shard order, utilization/fragmentation
    core-weighted across shards — so the digest depends only on the
    shard decomposition, never on how shards were spread over workers.

    Two aggregate caveats, both deliberate: ``queue_length_max`` is the
    max over per-shard maxima (shard queues are disjoint; instants are
    not aligned across engines, so a fleet-instant queue length does
    not exist), and the time-weighted means weight each shard's own
    makespan-normalized series by its core share.

    ``recovery``, when given, is attached verbatim as the digest's
    ``recovery`` block — the coordinator's host-process supervision
    counters (respawns, replayed epochs, degraded shards). It follows
    the same only-when-active convention as the ``faults`` block:
    callers pass ``None`` for crash-free runs so those digests keep
    their historical byte layout.
    """
    if not (len(parts) == len(core_counts) == len(chip_offsets)):
        raise ValueError(
            f"merge needs aligned inputs; got {len(parts)} metrics, "
            f"{len(core_counts)} core counts, {len(chip_offsets)} offsets")
    records: list[SessionRecord] = []
    for part, offset in zip(parts, chip_offsets):
        records.extend(replace(r, chip=offset + r.chip)
                       for r in part.records)
    records.sort(key=lambda r: (r.depart_cycle, r.session_id))
    total_cores = sum(core_counts) or 1

    def core_weighted(name: str) -> float:
        return sum(p.time_weighted(name) * c
                   for p, c in zip(parts, core_counts)) / total_cores

    digest = _digest(parts, records, core_weighted("utilization"),
                     core_weighted("fragmentation"), frequency_hz)
    digest["sharding"] = {
        "shards": len(parts),
        "per_shard": [
            {
                "chips": p.chips,
                "sessions_completed": len(p.records),
                "makespan_cycles": p.last_cycle,
                "utilization_time_weighted": round(
                    p.time_weighted("utilization"), 6),
                "fragmentation_time_weighted": round(
                    p.time_weighted("fragmentation"), 6),
                "migrations": p.migrations,
            }
            for p in parts
        ],
    }
    if recovery is not None:
        digest["recovery"] = dict(recovery)
    return digest
