"""Sharded multi-process fleet simulation.

Covers :mod:`repro.serving.shard`: the chip partition, fault-schedule
sharding, fail-fast option validation, the epoch-fence coordinator's
determinism contract (sharded-vs-single-process equivalence across
seeds, worker counts and fault/elastic variants), the deferral and
spill paths, and the worker-crash recovery mode (supervised respawn,
summary equal to the oracle — the full crash matrix lives in
``test_recovery.py``).
"""

import json
import multiprocessing

import pytest

from repro.errors import HypervisorError, ServingError
from repro.serving import (
    DEFAULT_SLO_MIX,
    AdmitOrder,
    CrashEvent,
    CrashSchedule,
    FailureEvent,
    FailureSchedule,
    FleetScheduler,
    ShardedFleetScheduler,
    generate_failure_schedule,
    generate_fleet_trace,
    partition_chips,
    partition_schedule,
)

#: Equivalence-matrix shape (ISSUE 8's property suite floor).
SEEDS = (3, 11, 23, 42)
WORKER_COUNTS = (2, 4, 8)


def fleet_trace(seed, sessions=32, chips=8, **kwargs):
    kwargs.setdefault("arrival_process", "bursty")
    kwargs.setdefault("slo_mix", DEFAULT_SLO_MIX)
    return generate_fleet_trace(seed, sessions, chips=chips,
                                max_cores=16, **kwargs)


def sharded_summary(trace, workers, faults=None, **kwargs):
    kwargs.setdefault("shards", 4)
    fleet = ShardedFleetScheduler.homogeneous(
        8, cores=16, workers=workers, faults=faults, **kwargs)
    return fleet.serve(trace)


def canonical(summary):
    return json.dumps(summary, sort_keys=True)


# -- partition units ---------------------------------------------------------

class TestPartitionChips:
    def test_even_split(self):
        assert partition_chips(8, 4) == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_remainder_goes_to_leading_shards(self):
        groups = partition_chips(10, 4)
        assert groups == [(0, 1, 2), (3, 4, 5), (6, 7), (8, 9)]
        assert sorted(c for g in groups for c in g) == list(range(10))

    def test_one_chip_per_shard(self):
        assert partition_chips(3, 3) == [(0,), (1,), (2,)]

    def test_more_shards_than_chips_rejected(self):
        with pytest.raises(ServingError, match="cannot cut"):
            partition_chips(2, 3)

    def test_zero_shards_rejected(self):
        with pytest.raises(ServingError, match="at least one shard"):
            partition_chips(4, 0)


class TestPartitionSchedule:
    def test_events_land_in_owning_shard_with_local_index(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=10, chip_index=0, kind="chip",
                         duration_cycles=5),
            FailureEvent(cycle=20, chip_index=3, kind="hbm",
                         duration_cycles=5),
        ))
        parts = partition_schedule(schedule, [(0, 1), (2, 3)])
        assert [e.chip_index for e in parts[0].events] == [0]
        assert [e.chip_index for e in parts[1].events] == [1]
        assert parts[1].events[0].kind == "hbm"

    def test_quiet_shard_gets_none_not_empty_schedule(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=10, chip_index=0, kind="chip",
                         duration_cycles=5),
        ))
        parts = partition_schedule(schedule, [(0,), (1,)])
        assert parts[1] is None

    def test_none_schedule_passes_through(self):
        assert partition_schedule(None, [(0,), (1,)]) == [None, None]

    def test_unowned_chip_rejected(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=10, chip_index=5, kind="chip",
                         duration_cycles=5),
        ))
        with pytest.raises(ServingError, match="no shard group owns"):
            partition_schedule(schedule, [(0,), (1,)])

    def test_duplicate_chip_rejected(self):
        schedule = FailureSchedule(())
        with pytest.raises(ServingError, match="two shard groups"):
            partition_schedule(schedule, [(0, 1), (1, 2)])

    def test_union_of_parts_is_the_original_schedule(self):
        schedule = generate_failure_schedule(7, chips=8,
                                             horizon_cycles=10_000_000,
                                             failures=6)
        groups = partition_chips(8, 3)
        parts = partition_schedule(schedule, groups)
        rebuilt = []
        for shard_id, part in enumerate(parts):
            if part is None:
                continue
            for event in part.events:
                rebuilt.append((event.cycle,
                                groups[shard_id][event.chip_index],
                                event.kind, event.duration_cycles))
        original = [(e.cycle, e.chip_index, e.kind, e.duration_cycles)
                    for e in schedule.events]
        assert sorted(rebuilt) == sorted(original)


# -- coordinator validation --------------------------------------------------

class TestCoordinatorValidation:
    def test_bad_epoch(self):
        with pytest.raises(ServingError, match="epoch_cycles"):
            ShardedFleetScheduler.homogeneous(4, cores=16, epoch_cycles=0)

    def test_bad_policy_fails_before_any_worker_starts(self):
        with pytest.raises(ServingError, match="unknown admission policy"):
            ShardedFleetScheduler.homogeneous(4, cores=16, policy="lifo")

    @pytest.mark.parametrize("option,error,match", [
        ({"elastic": "shrinkk"}, ServingError, "shrinkk"),
        # Strategies keep their own registry's error type, as they do
        # for ServingConfig and FleetScheduler.
        ({"strategy": "similiar"}, HypervisorError, "similiar"),
        ({"defrag": 0.2}, ServingError, "DefragPolicy"),
        ({"placment": "best_fit"}, ServingError, "placment"),
    ], ids=["elastic", "strategy", "defrag", "unknown-key"])
    def test_bad_slice_option_fails_at_construction(self, option, error,
                                                    match):
        before = set(multiprocessing.active_children())
        with pytest.raises(error, match=match):
            ShardedFleetScheduler.homogeneous(4, cores=16, shards=2,
                                              workers=2, **option)
        assert set(multiprocessing.active_children()) == before

    def test_slice_options_are_one_serving_config(self):
        fleet = ShardedFleetScheduler.homogeneous(
            4, cores=16, shards=2, policy="priority",
            elastic="shrink_then_preempt")
        assert fleet.config.policy == "priority"
        assert fleet.config.elastic == "shrink_then_preempt"
        assert fleet.config.faults is None

    def test_crash_schedule_requires_workers(self):
        crashes = CrashSchedule((CrashEvent("crash", shard=0),))
        with pytest.raises(ServingError, match="workers > 1"):
            ShardedFleetScheduler.homogeneous(4, cores=16, crashes=crashes)

    def test_workers_clamped_to_shards(self):
        fleet = ShardedFleetScheduler.homogeneous(4, cores=16, shards=2,
                                                  workers=16)
        assert fleet.workers == 2

    def test_default_shards_cap_at_eight(self):
        assert ShardedFleetScheduler.homogeneous(64, cores=16).shards == 8
        assert ShardedFleetScheduler.homogeneous(3, cores=16).shards == 3

    def test_oversized_session_rejected_at_submit(self):
        fleet = ShardedFleetScheduler.homogeneous(4, cores=16, shards=2)
        # A 36-core-chip trace holds shapes a 16-core fleet cannot host.
        trace = generate_fleet_trace(3, 24, chips=4, max_cores=36)
        assert any(s.core_count > 16 for s in trace)
        with pytest.raises(ServingError, match="largest fleet chip"):
            fleet.submit(trace)

    def test_summary_before_run_rejected(self):
        fleet = ShardedFleetScheduler.homogeneous(4, cores=16)
        with pytest.raises(ServingError, match="run\\(\\)"):
            fleet.summary()


# -- the determinism contract ------------------------------------------------

class TestShardedEquivalence:
    """Aggregate summaries are byte-identical for every worker count."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_plain_matches_single_process_oracle(self, seed, workers):
        trace = fleet_trace(seed)
        oracle = canonical(sharded_summary(trace, workers=1,
                                           elastic="shrink_then_preempt"))
        assert canonical(sharded_summary(
            trace, workers=workers,
            elastic="shrink_then_preempt")) == oracle

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_faults_match_single_process_oracle(self, seed, workers):
        trace = fleet_trace(seed)
        faults = generate_failure_schedule(seed, chips=8,
                                           horizon_cycles=60_000_000,
                                           failures=3)
        oracle = canonical(sharded_summary(trace, workers=1, faults=faults))
        summary = sharded_summary(trace, workers=workers, faults=faults)
        assert canonical(summary) == oracle
        assert "faults" in summary

    def test_shard_count_changes_results_but_not_worker_count(self):
        # Sharding is part of the experiment definition (partition +
        # conservative fences change admissions); worker count is not.
        trace = fleet_trace(11)
        two = sharded_summary(trace, workers=1, shards=2)
        four = sharded_summary(trace, workers=1, shards=4)
        assert two["sharding"]["shards"] == 2
        assert four["sharding"]["shards"] == 4

    def test_all_sessions_complete(self):
        trace = fleet_trace(23, sessions=24)
        summary = sharded_summary(trace, workers=2)
        assert summary["sessions_completed"] == 24
        assert summary["sharding"]["epochs"] >= 1
        assert len(summary["sharding"]["per_shard"]) == 4

    def test_single_shard_matches_monolithic_fleet(self):
        # One shard, one worker: the coordinator degenerates to the
        # plain FleetScheduler on the same chips — same completions,
        # same per-session queue-delay tail.
        trace = fleet_trace(3, sessions=16)
        mono = FleetScheduler.homogeneous(8, cores=16)
        mono_summary = mono.serve(trace).summary(
            mono.chips[0].chip.config.frequency_hz)
        shard = sharded_summary(trace, workers=1, shards=1)
        assert (shard["sessions_completed"]
                == mono_summary["sessions_completed"])
        assert (shard["queue_delay_cycles"]["max"]
                == mono_summary["queue_delay_cycles"]["max"])


# -- deferral and spill paths ------------------------------------------------

class TestDeferralAndSpills:
    def test_fleet_wide_outage_defers_then_completes(self):
        # Every chip down across several fences: arrivals reported
        # against an all-unhealthy claim map cannot be routed anywhere
        # and must defer at the coordinator, then land after recovery —
        # nothing is lost.
        trace = generate_fleet_trace(3, 20, chips=4, max_cores=16,
                                     mean_interarrival_cycles=4_000_000,
                                     arrival_process="bursty",
                                     slo_mix=DEFAULT_SLO_MIX)
        faults = FailureSchedule(tuple(
            FailureEvent(cycle=1, chip_index=chip, kind="chip",
                         duration_cycles=30_000_000)
            for chip in range(4)))
        fleet = ShardedFleetScheduler.homogeneous(
            4, cores=16, shards=4, workers=1, epoch_cycles=5_000_000,
            faults=faults)
        summary = fleet.serve(trace)
        assert summary["sessions_completed"] == 20
        assert summary["sharding"]["deferred_total"] > 0

    def test_spill_path_is_worker_invariant(self):
        trace = generate_fleet_trace(3, 60, chips=4, max_cores=16,
                                     mean_interarrival_cycles=400_000,
                                     arrival_process="bursty",
                                     slo_mix=DEFAULT_SLO_MIX)
        def run(workers):
            fleet = ShardedFleetScheduler.homogeneous(
                4, cores=16, shards=4, workers=workers,
                epoch_cycles=5_000_000)
            summary = fleet.serve(trace)
            return summary
        base = run(1)
        assert canonical(run(4)) == canonical(base)

    def test_admit_order_carries_fault_history(self):
        order = AdmitOrder(session=fleet_trace(3, sessions=1)[0],
                           preemptions=2, kills=1,
                           lost_service_cycles=500)
        assert order.preemptions == 2
        assert order.kills == 1
        assert order.lost_service_cycles == 500


# -- worker failure ----------------------------------------------------------

class TestWorkerCrash:
    def test_crash_mid_epoch_recovers_to_oracle(self):
        trace = fleet_trace(11)
        oracle = sharded_summary(list(trace), workers=1)
        crashes = CrashSchedule((CrashEvent("crash", shard=1, epoch=1),))
        fleet = ShardedFleetScheduler.homogeneous(
            8, cores=16, shards=4, workers=2, crashes=crashes,
            respawn_backoff_seconds=0.0)
        summary = fleet.serve(trace)
        recovery = summary.pop("recovery")
        assert recovery["respawns"] == 1
        assert canonical(summary) == canonical(oracle)
        # The pool is torn down — no orphaned processes, no hang.
        assert fleet._pool == {}
