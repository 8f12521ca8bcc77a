"""Dynamic multi-tenant serving: traces, admission policies, schedulers.

This layer turns the static create/deploy/estimate flow into a serving
system: :func:`generate_trace` produces a seeded stream of tenant
sessions, and :class:`FleetScheduler` replays it on N chips sharing
one discrete-event clock — admitting, queueing, provisioning vNPUs and
freeing them as tenants depart, with pluggable cross-chip placement
policies and live vNPU migration for defragmentation
(:class:`DefragPolicy`) — while :class:`FleetMetrics` tracks queue
delays, utilization and fragmentation over time; a one-chip serving
run is a one-chip fleet. Every scheduler knob can be bundled as a
validated, wire-serializable :class:`ServingConfig` and passed as
``**config.fleet_kwargs()``. Sessions are priced through a pluggable
:mod:`repro.cost` fidelity tier
(``cost_model="analytic" | "executor" | "cached"``) and, when given an
``elastic=`` policy, enforce :class:`SLOClass` objectives by live
grow/shrink resizing and preemption of lower tiers
(:mod:`repro.serving.slo`); traces can additionally model bursty
(Markov-modulated) and diurnal arrival processes with per-session SLO
mixes. :mod:`repro.serving.faults` adds deterministic chip/link/HBM
failure injection (:class:`FailureSchedule`) with policy-driven vNPU
evacuation off failing chips. :mod:`repro.serving.shard` scales past
one process: :class:`ShardedFleetScheduler` partitions the fleet into
chip-group shards, each simulated by its own worker process, and
coordinates them over deterministic epoch fences — aggregate results
are byte-identical for any worker count. The coordinator supervises
its workers: epoch-fence checkpoints, a watchdog deadline on fence
reports, respawn-and-replay recovery for crashed or hung workers
(injectable via :class:`CrashSchedule`), and graceful degradation to
the in-process path when the respawn budget runs out.
"""

from repro.serving.config import CONFIG_KEYS, ServingConfig
from repro.serving.faults import (
    EVACUATION_POLICIES,
    FAILURE_KINDS,
    FailureEvent,
    FailureSchedule,
    coerce_evacuation,
    generate_failure_schedule,
    partition_schedule,
)
from repro.serving.fleet import (
    AdmitOrder,
    BestFitPlacement,
    DefragPolicy,
    FleetChip,
    FleetScheduler,
    LeastLoadedPlacement,
    PendingQueue,
    PendingSession,
    PlacementPolicy,
    PowerOfTwoPlacement,
    available_placements,
    coerce_placement,
    register_placement,
    resolve_placement,
    unregister_placement,
)
from repro.serving.metrics import (
    FleetMetrics,
    SessionRecord,
    SLOMetrics,
    canonical_json,
    fragmentation_ratio,
    merge_fleet_summaries,
    percentile,
    summary_wire,
)
from repro.serving.protocol import (
    OPS,
    ProtocolError,
    decode_message,
    encode_message,
    session_from_wire,
    session_to_wire,
)
from repro.serving.service import MODES, ControlPlane, ServiceClient
from repro.serving.policies import (
    AdmissionPolicy,
    BestFitPolicy,
    FCFSPolicy,
    PriorityPolicy,
    available_policies,
    coerce_policy,
    register_policy,
    resolve_policy,
    unregister_policy,
)
from repro.serving.shard import (
    CRASH_KINDS,
    CrashEvent,
    CrashSchedule,
    EpochPlan,
    ShardedFleetScheduler,
    ShardSlice,
    generate_crash_schedule,
    partition_chips,
)
from repro.serving.slo import (
    BEST_EFFORT,
    GOLD,
    SILVER,
    ElasticAction,
    ElasticPolicy,
    ElasticVictim,
    PreemptPolicy,
    ShrinkPolicy,
    ShrinkThenPreemptPolicy,
    SLOClass,
    available_elastics,
    available_slos,
    coerce_elastic,
    effective_priority,
    register_elastic,
    register_slo,
    resolve_elastic,
    resolve_slo,
    session_slo,
    shrink_shape,
    unregister_elastic,
    unregister_slo,
)
from repro.serving.workload import (
    ARRIVAL_PROCESSES,
    DEFAULT_SLO_MIX,
    FRAGMENTATION_SHAPE_MIX,
    MODEL_BUILDERS,
    SHAPE_MIX,
    TenantSession,
    TraceSpec,
    generate_fleet_trace,
    generate_trace,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionPolicy",
    "AdmitOrder",
    "BEST_EFFORT",
    "BestFitPlacement",
    "BestFitPolicy",
    "CONFIG_KEYS",
    "CRASH_KINDS",
    "ControlPlane",
    "CrashEvent",
    "CrashSchedule",
    "DEFAULT_SLO_MIX",
    "DefragPolicy",
    "EVACUATION_POLICIES",
    "ElasticAction",
    "ElasticPolicy",
    "ElasticVictim",
    "EpochPlan",
    "FAILURE_KINDS",
    "FCFSPolicy",
    "FRAGMENTATION_SHAPE_MIX",
    "FailureEvent",
    "FailureSchedule",
    "FleetChip",
    "FleetMetrics",
    "FleetScheduler",
    "GOLD",
    "LeastLoadedPlacement",
    "MODEL_BUILDERS",
    "MODES",
    "OPS",
    "PendingQueue",
    "PendingSession",
    "PlacementPolicy",
    "PowerOfTwoPlacement",
    "PreemptPolicy",
    "PriorityPolicy",
    "ProtocolError",
    "SHAPE_MIX",
    "SILVER",
    "SLOClass",
    "SLOMetrics",
    "ServiceClient",
    "ServingConfig",
    "SessionRecord",
    "ShardSlice",
    "ShardedFleetScheduler",
    "ShrinkPolicy",
    "ShrinkThenPreemptPolicy",
    "TenantSession",
    "TraceSpec",
    "available_elastics",
    "available_placements",
    "available_policies",
    "available_slos",
    "canonical_json",
    "coerce_elastic",
    "coerce_evacuation",
    "coerce_placement",
    "coerce_policy",
    "decode_message",
    "encode_message",
    "effective_priority",
    "fragmentation_ratio",
    "generate_crash_schedule",
    "generate_failure_schedule",
    "generate_fleet_trace",
    "generate_trace",
    "merge_fleet_summaries",
    "partition_chips",
    "partition_schedule",
    "percentile",
    "register_elastic",
    "register_placement",
    "register_policy",
    "register_slo",
    "resolve_elastic",
    "resolve_placement",
    "resolve_policy",
    "resolve_slo",
    "session_from_wire",
    "session_slo",
    "session_to_wire",
    "shrink_shape",
    "summary_wire",
    "unregister_elastic",
    "unregister_placement",
    "unregister_policy",
    "unregister_slo",
]
