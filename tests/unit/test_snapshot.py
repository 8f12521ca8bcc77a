"""Warm-restart checkpoints: FleetScheduler snapshot()/restore().

The checkpoint contract: a snapshot taken between ``run`` calls is a
picklable dict from which :meth:`FleetScheduler.restore` rebuilds a
scheduler — in the same process or a fresh one — whose continued run
produces byte-identical aggregate results to the run that never
stopped. Pricing caches are behavioral state and must round-trip
(:meth:`CostModel.snapshot_state`), or the restored timeline drifts.
"""

import json
import pickle

import pytest

from repro.arch.config import sim_config
from repro.errors import HypervisorError, ServingError
from repro.serving import (
    DEFAULT_SLO_MIX,
    ControlPlane,
    FleetScheduler,
    ShardSlice,
    generate_failure_schedule,
    generate_fleet_trace,
)
from repro.serving.fleet import SNAPSHOT_FORMAT


def fleet_trace(seed=11, sessions=40, chips=4):
    return generate_fleet_trace(seed, sessions, chips=chips, max_cores=16,
                                arrival_process="bursty",
                                slo_mix=DEFAULT_SLO_MIX)


def summary_of(fleet):
    return json.dumps(
        fleet.metrics.summary(fleet.chips[0].chip.config.frequency_hz),
        sort_keys=True)


def run_split(trace, pause_at, faults=None, **kwargs):
    """Run to ``pause_at``, snapshot, restore, finish; plus the oracle."""
    fleet = FleetScheduler.homogeneous(4, cores=16, faults=faults, **kwargs)
    fleet.submit(trace)
    fleet.run(until=pause_at)
    state = fleet.snapshot()
    restored = FleetScheduler.restore(state, **kwargs)
    restored.run()
    oracle = FleetScheduler.homogeneous(4, cores=16, faults=faults, **kwargs)
    oracle.submit(trace)
    oracle.run()
    return restored, oracle, state


class TestSnapshotRoundTrip:
    def test_snapshot_is_picklable_and_detached(self):
        fleet = FleetScheduler.homogeneous(4, cores=16)
        fleet.submit(fleet_trace())
        fleet.run(until=5_000_000)
        state = fleet.snapshot()
        blob = pickle.dumps(state)
        assert pickle.loads(blob)["cycle"] == state["cycle"]
        # Mutating the snapshot must not reach back into the scheduler.
        state["pending"].clear()
        assert fleet.pending_sessions or True  # no exception = detached

    def test_roundtrip_preserves_snapshot(self):
        # snapshot -> restore -> snapshot again: identical checkpoint.
        fleet = FleetScheduler.homogeneous(4, cores=16)
        fleet.submit(fleet_trace())
        fleet.run(until=5_000_000)
        state = fleet.snapshot()
        restored = FleetScheduler.restore(state)
        again = restored.snapshot()
        assert pickle.dumps(again) == pickle.dumps(state)

    def test_mid_run_snapshot_captures_live_state(self):
        fleet = FleetScheduler.homogeneous(4, cores=16)
        fleet.submit(fleet_trace())
        fleet.run(until=5_000_000)
        state = fleet.snapshot()
        assert state["cycle"] == 5_000_000
        assert state["active"], "pause point should have residents"
        assert state["arrivals"], "pause point should have arrivals"

    def test_restore_into_used_hypervisor_rejected(self):
        fleet = FleetScheduler.homogeneous(4, cores=16)
        fleet.submit(fleet_trace())
        fleet.run(until=5_000_000)
        state = fleet.snapshot()
        target = FleetScheduler.homogeneous(4, cores=16)
        target.submit(fleet_trace(seed=3))
        target.run(until=5_000_000)
        with pytest.raises(HypervisorError, match="resident"):
            target.chips[0].hypervisor.restore_state(state["chips"][0])


class TestContinuedRunEquivalence:
    @pytest.mark.parametrize("pause_at", [2_000_000, 5_000_000, 20_000_000])
    def test_continued_equals_oracle(self, pause_at):
        trace = fleet_trace()
        restored, oracle, _ = run_split(trace, pause_at)
        assert summary_of(restored) == summary_of(oracle)

    def test_continued_equals_oracle_with_elastic(self):
        trace = fleet_trace(seed=23)
        restored, oracle, _ = run_split(trace, 5_000_000, policy="priority",
                                        elastic="shrink_then_preempt")
        assert summary_of(restored) == summary_of(oracle)

    def test_continued_equals_oracle_under_faults(self):
        trace = fleet_trace(seed=3)
        faults = generate_failure_schedule(seed=7, chips=4,
                                           horizon_cycles=40_000_000,
                                           failures=3)
        restored, oracle, _ = run_split(trace, 5_000_000, faults=faults)
        assert summary_of(restored) == summary_of(oracle)

    @pytest.mark.parametrize("pause_at", [2_000_000, 5_000_000])
    def test_pause_between_two_submit_batches(self, pause_at):
        # Two interleaved batches: the first still has sessions ahead
        # of the pause (the snapshot carries them), the second is
        # submitted after it, to the restored fleet or the original.
        trace = fleet_trace()

        def run(restart):
            fleet = FleetScheduler.homogeneous(4, cores=16)
            fleet.submit(trace[::2])
            fleet.run(until=pause_at)
            if restart:
                state = fleet.snapshot()
                assert state["arrivals"], "pause point should have arrivals"
                fleet = FleetScheduler.restore(state)
            fleet.submit(trace[1::2])
            fleet.run()
            return summary_of(fleet)

        assert run(restart=True) == run(restart=False)

    def test_restore_before_the_first_submit_starts_faults_once(self):
        # A snapshot of a fleet nothing was submitted to yet: the fault
        # timeline starts with the restored fleet's first submit, once.
        trace = fleet_trace(seed=3)
        faults = generate_failure_schedule(seed=7, chips=4,
                                           horizon_cycles=40_000_000,
                                           failures=3)

        def run(restart):
            fleet = FleetScheduler.homogeneous(4, cores=16, faults=faults)
            if restart:
                fleet = FleetScheduler.restore(fleet.snapshot())
            fleet.submit(trace)
            fleet.run()
            return summary_of(fleet)

        assert run(restart=True) == run(restart=False)

    def test_cost_cache_rides_the_checkpoint(self):
        # Memoized prices are keyed (config, model, shape) but priced on
        # the *first* placement seen — an empty cache after restore
        # would re-price on different vNPUs and drift the timeline.
        trace = fleet_trace()
        _, _, state = run_split(trace, 5_000_000)
        assert state["cost_tier"] == "analytic"
        assert state["cost_state"]["cache"], "pause point should have prices"

    def test_cached_tier_counters_round_trip(self):
        trace = fleet_trace()
        fleet = FleetScheduler.homogeneous(4, cores=16, cost_model="cached")
        fleet.submit(trace)
        fleet.run(until=5_000_000)
        state = fleet.snapshot()
        restored = FleetScheduler.restore(state, cost_model="cached")
        assert (restored.cost_model.cache_stats()
                == fleet.cost_model.cache_stats())


class TestSnapshotFormat:
    """A snapshot of another pickled shape fails loudly at restore."""

    @staticmethod
    def paused_fleet():
        fleet = FleetScheduler.homogeneous(2, cores=16)
        fleet.submit(fleet_trace(sessions=10, chips=2))
        fleet.run(until=5_000_000)
        return fleet

    @staticmethod
    def make_stale(state, stale):
        if stale is None:
            del state["format"]
        else:
            state["format"] = stale

    def test_snapshot_records_the_format(self):
        assert self.paused_fleet().snapshot()["format"] == SNAPSHOT_FORMAT

    @pytest.mark.parametrize("stale", [None, SNAPSHOT_FORMAT + 1])
    def test_missing_or_bumped_format_is_rejected(self, stale):
        state = self.paused_fleet().snapshot()
        self.make_stale(state, stale)
        with pytest.raises(ServingError, match="snapshot format") as error:
            FleetScheduler.restore(state)
        assert repr(stale) in str(error.value)
        assert f"format {SNAPSHOT_FORMAT}" in str(error.value)

    def test_shard_checkpoint_with_stale_format_is_rejected(self):
        slice_ = ShardSlice(0, [sim_config(16), sim_config(16)])
        slice_.run_epoch(5_000_000, None)
        payload = pickle.loads(slice_.checkpoint())
        self.make_stale(payload["fleet"], None)
        with pytest.raises(ServingError, match="snapshot format"):
            ShardSlice.from_checkpoint(pickle.dumps(payload), shard_id=0)

    def test_service_snapshot_with_stale_format_is_rejected(self, tmp_path):
        plane = ControlPlane(chips=2, cores=16, autostart=False)
        payload = plane.snapshot_payload()
        self.make_stale(payload["state"], SNAPSHOT_FORMAT + 1)
        path = tmp_path / "stale.snapshot.pkl"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ServingError, match="snapshot format"):
            ControlPlane.restore(str(path), autostart=False)


class TestRestoreAuthority:
    """The snapshot's faults, evacuation and cost tier win over kwargs:
    agreeing kwargs are accepted, contradicting ones raise."""

    @staticmethod
    def paused_state():
        faults = generate_failure_schedule(3, chips=2,
                                           horizon_cycles=40_000_000,
                                           failures=2)
        fleet = FleetScheduler.homogeneous(2, cores=16, faults=faults,
                                           evacuation="kill_requeue",
                                           cost_model="cached")
        fleet.submit(fleet_trace(sessions=10, chips=2))
        fleet.run(until=5_000_000)
        return fleet.snapshot(), faults

    def test_snapshot_fills_the_recorded_knobs(self):
        state, faults = self.paused_state()
        restored = FleetScheduler.restore(state)
        assert restored.faults == faults
        assert restored.evacuation == "kill_requeue"
        assert restored.cost_model.name == "cached"

    def test_agreeing_kwargs_are_accepted(self):
        state, faults = self.paused_state()
        restored = FleetScheduler.restore(
            state, faults=faults, evacuation="kill_requeue",
            cost_model="cached")
        assert restored.cost_model.name == "cached"

    @pytest.mark.parametrize("key,value", [
        ("faults", None),
        ("evacuation", "evacuate"),
        ("cost_model", "analytic"),
    ])
    def test_contradicting_kwarg_raises(self, key, value):
        state, _ = self.paused_state()
        with pytest.raises(ServingError, match=f"restore got {key}="):
            FleetScheduler.restore(state, **{key: value})
