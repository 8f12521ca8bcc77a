"""Self-healing sharded simulation: crash injection and recovery.

Covers the supervision layer of :mod:`repro.serving.shard`:
:class:`CrashSchedule` validation and seeded generation, the
checkpoint/restore round-trip of a :class:`ShardSlice`, and the
recovery determinism contract — the crash matrix {crash epoch x
worker count x {plain, faults, elastic}} asserting that every
recovered summary byte-equals the crash-free ``workers=1`` oracle
(modulo the ``recovery`` block, which only crashed runs grow), plus
the hang/watchdog, budget-exhaustion/degradation, collect-crash and
checkpoint-disabled variants of the same invariant.
"""

import io
import json
from dataclasses import replace

import pytest

from repro.errors import EpochTimeoutError, ServingError, WorkerFailure
from repro.serving import (
    CRASH_KINDS,
    DEFAULT_SLO_MIX,
    CrashEvent,
    CrashSchedule,
    ShardedFleetScheduler,
    ShardSlice,
    generate_crash_schedule,
    generate_failure_schedule,
    generate_fleet_trace,
    merge_fleet_summaries,
)
from repro.serving.shard import _METRIC_LOGS, partition_chips

#: Crash-matrix shape: injected epochs x worker counts x variants.
CRASH_EPOCHS = (0, 3)
WORKER_COUNTS = (2, 4)
VARIANTS = ("plain", "faults", "elastic")

#: Small fences so even a 24-session trace crosses many epochs — the
#: crash matrix needs epochs to exist before it can crash them.
EPOCH_CYCLES = 2_000_000

_FAULTS = generate_failure_schedule(3, chips=8, horizon_cycles=30_000_000,
                                    failures=2,
                                    mean_outage_cycles=8_000_000)
_VARIANT_KWARGS = {
    "plain": {},
    "faults": {"faults": _FAULTS},
    "elastic": {"elastic": "shrink_then_preempt"},
}


def fleet_trace(seed=11, sessions=24, chips=8, **kwargs):
    kwargs.setdefault("arrival_process", "bursty")
    kwargs.setdefault("slo_mix", DEFAULT_SLO_MIX)
    return generate_fleet_trace(seed, sessions, chips=chips,
                                max_cores=16, **kwargs)


def run_sharded(trace, workers, variant="plain", crashes=None, **kwargs):
    kwargs.setdefault("epoch_cycles", EPOCH_CYCLES)
    fleet = ShardedFleetScheduler.homogeneous(
        8, cores=16, shards=4, workers=workers, crashes=crashes,
        respawn_backoff_seconds=0.0, **_VARIANT_KWARGS[variant], **kwargs)
    return fleet.serve(list(trace))


def canonical(summary):
    return json.dumps(summary, sort_keys=True)


_ORACLES: dict[str, dict] = {}


def oracle(variant):
    """Crash-free workers=1 digest per variant (computed once)."""
    if variant not in _ORACLES:
        _ORACLES[variant] = run_sharded(fleet_trace(), 1, variant)
    return _ORACLES[variant]


# -- crash schedule validation ----------------------------------------------

class TestCrashSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServingError, match="unknown crash kind"):
            CrashEvent("segfault", shard=0)

    def test_negative_shard_rejected(self):
        with pytest.raises(ServingError, match="shard must be >= 0"):
            CrashEvent("crash", shard=-1)

    def test_hang_needs_positive_duration(self):
        with pytest.raises(ServingError, match="positive hang_seconds"):
            CrashEvent("hang", shard=0, epoch=1)

    def test_restore_crash_needs_positive_count(self):
        with pytest.raises(ServingError, match="count >= 1"):
            CrashEvent("crash_on_restore", shard=0, count=0)

    def test_events_normalized_to_epoch_order(self):
        schedule = CrashSchedule((
            CrashEvent("crash", shard=1, epoch=5),
            CrashEvent("crash", shard=0, epoch=2),
        ))
        assert [e.epoch for e in schedule.events] == [2, 5]

    def test_validate_rejects_out_of_range_shard(self):
        schedule = CrashSchedule((CrashEvent("crash", shard=7),))
        with pytest.raises(ServingError, match="only has 4 shards"):
            schedule.validate(4)

    def test_coordinator_validates_at_construction(self):
        crashes = CrashSchedule((CrashEvent("crash", shard=9),))
        with pytest.raises(ServingError, match="only has 4 shards"):
            ShardedFleetScheduler.homogeneous(
                8, cores=16, shards=4, workers=2, crashes=crashes)

    def test_schedule_requires_worker_pool(self):
        crashes = CrashSchedule((CrashEvent("crash", shard=0),))
        with pytest.raises(ServingError, match="workers > 1"):
            ShardedFleetScheduler.homogeneous(
                8, cores=16, shards=4, workers=1, crashes=crashes)

    def test_generated_schedule_is_seed_deterministic(self):
        first = generate_crash_schedule(7, shards=4, epochs=20)
        again = generate_crash_schedule(7, shards=4, epochs=20)
        other = generate_crash_schedule(8, shards=4, epochs=20)
        assert first == again
        assert first != other
        assert all(e.kind in CRASH_KINDS for e in first.events)
        assert all(e.shard < 4 and e.epoch < 20 for e in first.events)

    def test_generator_rejects_unknown_kind(self):
        with pytest.raises(ServingError, match="unknown crash kind"):
            generate_crash_schedule(7, shards=4, epochs=20,
                                    kinds=("oom",))


# -- supervision knob validation ---------------------------------------------

class TestSupervisionKnobs:
    def test_bad_checkpoint_cadence(self):
        with pytest.raises(ServingError, match="checkpoint_every"):
            ShardedFleetScheduler.homogeneous(4, cores=16,
                                              checkpoint_every=0)

    def test_bad_timeout(self):
        with pytest.raises(ServingError, match="epoch_timeout_seconds"):
            ShardedFleetScheduler.homogeneous(4, cores=16,
                                              epoch_timeout_seconds=0)

    def test_bad_budget(self):
        with pytest.raises(ServingError, match="respawn_budget"):
            ShardedFleetScheduler.homogeneous(4, cores=16,
                                              respawn_budget=0)

    def test_error_hierarchy(self):
        # Supervisors catch WorkerFailure for both failure modes, and
        # legacy callers catching ServingError still see both.
        assert issubclass(EpochTimeoutError, WorkerFailure)
        assert issubclass(WorkerFailure, ServingError)


# -- slice checkpoint round-trip ---------------------------------------------

def stitched_summary(metrics, reports, hz):
    """A collected slice's summary with its reported history put back:
    the metrics a slice collects carry no records or fault log, since
    every fence report moved them out."""
    for index, name in enumerate(_METRIC_LOGS):
        setattr(metrics, name, [entry for report in reports
                                for entry in report["logs"][index]])
    return canonical(metrics.summary(hz))


def slice_configs(chips=2):
    return list(ShardedFleetScheduler.homogeneous(chips, cores=16).configs)


def epoch_plans(trace, shift=0):
    """Each epoch's admissions for a slice driven alone: like the
    coordinator, only deal sessions whose arrival lies inside the epoch
    (an in-flight arrival injector is not slice state). ``shift``
    moves the trace that many cycles later and adds it to every
    session id, so shifted copies are distinct sessions."""
    from repro.serving.shard import AdmitOrder, EpochPlan
    by_epoch: dict[int, list[AdmitOrder]] = {}
    for session in trace:
        by_epoch.setdefault((session.arrival_cycle + shift) // EPOCH_CYCLES,
                            []).append(AdmitOrder(replace(
                                session,
                                arrival_cycle=session.arrival_cycle + shift,
                                session_id=session.session_id + shift)))
    return {epoch: EpochPlan(admissions=tuple(orders))
            for epoch, orders in by_epoch.items()}


def drive(slice_, plans, start_epoch=0):
    """Run fences from ``start_epoch`` until every plan is dealt and
    the slice is idle; returns the reports."""
    reports = []
    last = max(plans)
    for epoch in range(start_epoch, start_epoch + 1000):
        report = slice_.run_epoch((epoch + 1) * EPOCH_CYCLES,
                                  plans.get(epoch))
        reports.append(report)
        if (epoch >= last and report["pending"] == 0
                and report["active"] == 0):
            return reports
    raise AssertionError("slice never drained")


class TestSliceCheckpoint:
    def test_checkpoint_restores_mid_run_slice(self):
        configs = slice_configs()
        assert partition_chips(2, 1) == [(0, 1)]
        plans = epoch_plans(fleet_trace(5, sessions=6, chips=2))

        hz = configs[0].frequency_hz
        whole = ShardSlice(0, list(configs))
        reports_a = drive(whole, plans)
        direct = stitched_summary(whole.collect()["metrics"], reports_a, hz)
        assert json.loads(direct)["sessions_completed"] == 6

        # Same drive, but serialize/deserialize the slice at fence 1.
        resumed = ShardSlice(0, list(configs))
        first = resumed.run_epoch(EPOCH_CYCLES, plans.get(0))
        revived = ShardSlice.from_checkpoint(
            resumed.checkpoint(), shard_id=0, configs=configs)
        reports_b = [first] + drive(revived, plans, start_epoch=1)
        assert reports_b == reports_a
        assert stitched_summary(revived.collect()["metrics"], reports_b,
                                hz) == direct

    def test_checkpoint_holds_no_history(self):
        # Three identical rounds of sessions, faults during the first:
        # the checkpoint after round three pickles no SessionRecord and
        # no fault-log entry, and is no bigger than after round two.
        import pickle
        from repro.serving.metrics import SessionRecord
        configs = slice_configs()
        trace = fleet_trace(5, sessions=12, chips=2)
        span = (max(s.arrival_cycle for s in trace) // EPOCH_CYCLES
                + 50) * EPOCH_CYCLES
        faults = generate_failure_schedule(
            3, chips=2, horizon_cycles=span // 2, failures=2,
            mean_outage_cycles=EPOCH_CYCLES)
        slice_ = ShardSlice(0, configs, faults=faults)
        history: list[dict] = []
        blobs: list[bytes] = []
        epoch = 0
        for round_ in range(3):
            plans = epoch_plans(trace, shift=round_ * span)
            epoch = max(epoch, min(plans))
            reports = drive(slice_, plans, start_epoch=epoch)
            epoch += len(reports)
            history.extend(reports)
            blobs.append(slice_.checkpoint())

        records = sum(len(r["logs"][0]) for r in history)
        assert records == 3 * len(trace)
        assert sum(len(r["logs"][1]) for r in history) > 0

        found: set[str] = set()

        class Classes(pickle.Unpickler):
            def find_class(self, module, name):
                found.add(name)
                return super().find_class(module, name)

        state = Classes(io.BytesIO(blobs[-1])).load()
        assert SessionRecord.__name__ not in found
        assert state["fleet"]["metrics"].records == []
        assert state["fleet"]["metrics"].fault_log == []
        assert len(blobs[2]) <= len(blobs[1])


# -- the recovery determinism contract ---------------------------------------

class TestCrashMatrix:
    """Recovered summaries byte-equal the crash-free oracle."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("crash_epoch", CRASH_EPOCHS)
    def test_single_crash_recovers(self, crash_epoch, workers, variant):
        crashes = CrashSchedule((
            CrashEvent("crash", shard=1, epoch=crash_epoch),))
        summary = run_sharded(fleet_trace(), workers, variant,
                              crashes=crashes)
        recovery = summary.pop("recovery")
        assert recovery["respawns"] >= 1
        assert recovery["degraded_shards"] == 0
        assert canonical(summary) == canonical(oracle(variant))

    def test_crash_at_every_epoch_matches_oracle(self):
        epochs = oracle("plain")["sharding"]["epochs"]
        crashes = CrashSchedule(tuple(
            CrashEvent("crash", shard=0, epoch=epoch)
            for epoch in range(epochs)))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes)
        recovery = summary.pop("recovery")
        assert recovery["respawns"] == epochs
        assert recovery["replayed_epochs"] == epochs
        assert canonical(summary) == canonical(oracle("plain"))

    def test_hang_trips_watchdog_and_recovers(self):
        crashes = CrashSchedule((
            CrashEvent("hang", shard=1, epoch=2, hang_seconds=10.0),))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes,
                              epoch_timeout_seconds=0.25)
        recovery = summary.pop("recovery")
        assert recovery["timeouts"] == 1
        assert recovery["respawns"] >= 1
        assert canonical(summary) == canonical(oracle("plain"))

    def test_seeded_schedule_recovers(self):
        epochs = oracle("plain")["sharding"]["epochs"]
        crashes = generate_crash_schedule(
            23, shards=4, epochs=epochs, events=3, kinds=("crash",))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes)
        summary.pop("recovery")
        assert canonical(summary) == canonical(oracle("plain"))

    def test_recovery_without_checkpoints_replays_from_genesis(self):
        crashes = CrashSchedule((CrashEvent("crash", shard=0, epoch=3),))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes,
                              checkpoint_every=None)
        recovery = summary.pop("recovery")
        assert recovery["checkpoints"] == 0
        assert recovery["checkpoint_bytes"] == 0
        # Epochs 0..3 re-run from a fresh slice.
        assert recovery["replayed_epochs"] == 4
        assert canonical(summary) == canonical(oracle("plain"))

    def test_sparse_checkpoint_cadence_recovers(self):
        crashes = CrashSchedule((CrashEvent("crash", shard=1, epoch=7),))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes,
                              checkpoint_every=5)
        recovery = summary.pop("recovery")
        # Last checkpoint at epoch 4 -> epochs 5, 6, 7 replayed.
        assert recovery["replayed_epochs"] == 3
        assert canonical(summary) == canonical(oracle("plain"))

    def test_collect_crash_folds_several_epochs(self):
        # Seed 14 at 20M-cycle fences runs 5 epochs: with a checkpoint
        # every third fence the last one is at epoch 2, so the fold at
        # collect replays epochs 3 and 4, and shard 1 departs a session
        # in epoch 3 — the intermediate report must keep its record.
        trace = fleet_trace(14)
        expected = run_sharded(trace, 1, epoch_cycles=20_000_000)
        assert expected["sharding"]["epochs"] == 5
        crashes = CrashSchedule((CrashEvent("crash_on_collect", shard=1),))
        summary = run_sharded(trace, 2, crashes=crashes,
                              checkpoint_every=3, epoch_cycles=20_000_000)
        recovery = summary.pop("recovery")
        assert recovery["degraded_shards"] == 2
        assert recovery["replayed_epochs"] == 2
        assert canonical(summary) == canonical(expected)

    def test_budget_exhaustion_between_checkpoints(self):
        # Checkpoints at epochs 2 and 5; the crash at epoch 4 exhausts
        # the budget, so the fold restores epoch 2 and replays 3 and 4.
        crashes = CrashSchedule((
            CrashEvent("crash", shard=1, epoch=4),
            CrashEvent("crash_on_restore", shard=1, count=2),
        ))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes,
                              checkpoint_every=3, respawn_budget=2)
        recovery = summary.pop("recovery")
        assert recovery["respawns"] == 2
        assert recovery["degraded_shards"] == 2
        assert recovery["replayed_epochs"] == 2
        assert canonical(summary) == canonical(oracle("plain"))

    def test_crash_free_multiworker_run_has_no_recovery_block(self):
        summary = run_sharded(fleet_trace(), 2)
        assert "recovery" not in summary
        assert canonical(summary) == canonical(oracle("plain"))


# -- graceful degradation ----------------------------------------------------

class TestGracefulDegradation:
    def test_budget_exhaustion_degrades_and_completes(self):
        crashes = CrashSchedule((
            CrashEvent("crash", shard=2, epoch=1),
            CrashEvent("crash_on_restore", shard=2, count=10),
        ))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes,
                              respawn_budget=2)
        recovery = summary.pop("recovery")
        # Both shards of the dead worker fold in-process, and the
        # block is honest about it.
        assert recovery["degraded_shards"] == 2
        assert recovery["respawns"] == 2
        assert canonical(summary) == canonical(oracle("plain"))

    def test_restore_crash_within_budget_retries_through(self):
        crashes = CrashSchedule((
            CrashEvent("crash", shard=2, epoch=1),
            CrashEvent("crash_on_restore", shard=2, count=1),
        ))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes,
                              respawn_budget=3)
        recovery = summary.pop("recovery")
        # Attempt 1 dies during restore, attempt 2 sticks.
        assert recovery["respawns"] == 2
        assert recovery["degraded_shards"] == 0
        assert canonical(summary) == canonical(oracle("plain"))

    def test_collect_crash_folds_at_finalize(self):
        crashes = CrashSchedule((CrashEvent("crash_on_collect", shard=3),))
        summary = run_sharded(fleet_trace(), 2, crashes=crashes)
        recovery = summary.pop("recovery")
        assert recovery["degraded_shards"] == 2
        assert canonical(summary) == canonical(oracle("plain"))


# -- recovery block merge ----------------------------------------------------

class TestRecoveryMerge:
    def test_merge_attaches_recovery_block_verbatim(self):
        fleet = ShardedFleetScheduler.homogeneous(
            4, cores=16, shards=2, workers=1, epoch_cycles=EPOCH_CYCLES)
        fleet.serve(fleet_trace(3, sessions=4, chips=4))
        block = {"respawns": 2, "timeouts": 1, "replayed_epochs": 2,
                 "checkpoints": 4, "checkpoint_bytes": 123,
                 "degraded_shards": 0}
        merged = merge_fleet_summaries(
            fleet.shard_metrics, [16, 16], [0, 2], 940_000_000,
            recovery=block)
        assert merged["recovery"] == block
        plain = merge_fleet_summaries(
            fleet.shard_metrics, [16, 16], [0, 2], 940_000_000)
        assert "recovery" not in plain
