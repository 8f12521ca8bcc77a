"""Unit tests for the multi-chip fleet: placement, migration, defrag."""

import pytest

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape
from repro.core.hypervisor import Hypervisor
from repro.core.vnpu import VNpuSpec
from repro.errors import HypervisorError, ServingError
from repro.serving import (
    BestFitPlacement,
    DefragPolicy,
    FleetScheduler,
    LeastLoadedPlacement,
    PendingSession,
    PowerOfTwoPlacement,
    TenantSession,
    available_placements,
    generate_fleet_trace,
    register_placement,
    resolve_placement,
    unregister_placement,
)
from repro.serving.fleet import FleetChip
from repro.sim import Simulator


def session(session_id=0, arrival=0, rows=2, cols=2, model="alexnet",
            inferences=10):
    return TenantSession(
        session_id=session_id, tenant=f"t{session_id}",
        arrival_cycle=arrival, rows=rows, cols=cols,
        memory_bytes=rows * cols * 8 * MB, model=model,
        inferences=inferences,
    )


def make_fleet_chips(count=3, cores=16):
    sim = Simulator()
    chips = []
    for index in range(count):
        chip = Chip(sim_config(cores), sim=sim)
        chips.append(FleetChip(index, chip, Hypervisor(chip)))
    return chips


class TestPlacementRegistry:
    def test_builtins_registered(self):
        for name in ("least_loaded", "best_fit", "power_of_two"):
            assert name in available_placements()

    def test_unknown_name_raises(self):
        with pytest.raises(ServingError):
            resolve_placement("round-robin")

    def test_custom_placement_registers_and_unregisters(self):
        class FirstChip:
            name = "test-first-chip"

            def rank(self, chips, session):
                return [c for c in chips
                        if session.core_count <= c.free_cores()][:1]

        register_placement(FirstChip())
        try:
            assert resolve_placement("test-first-chip")
        finally:
            unregister_placement("test-first-chip")


class TestPlacementPolicies:
    def test_least_loaded_prefers_emptiest_chip(self):
        chips = make_fleet_chips()
        chips[0].hypervisor.create_vnpu(
            VNpuSpec("a", MeshShape(3, 3), 32 * MB))
        chips[2].hypervisor.create_vnpu(
            VNpuSpec("b", MeshShape(2, 2), 32 * MB))
        ranked = LeastLoadedPlacement().rank(chips, session())
        assert [c.index for c in ranked] == [1, 2, 0]

    def test_least_loaded_excludes_chips_without_room(self):
        chips = make_fleet_chips(count=2)
        chips[0].hypervisor.create_vnpu(
            VNpuSpec("a", MeshShape(4, 4), 32 * MB))
        ranked = LeastLoadedPlacement().rank(chips, session(rows=2, cols=2))
        assert [c.index for c in ranked] == [1]

    def test_best_fit_prefers_lower_mapping_distance(self):
        chips = make_fleet_chips(count=2)
        # Chip 0: several small tenants shatter the free set; chip 1 keeps
        # a pristine contiguous region after one compact allocation.
        hv0 = chips[0].hypervisor
        for name, shape in (("a", (1, 3)), ("b", (1, 2)), ("c", (2, 2))):
            hv0.create_vnpu(VNpuSpec(name, MeshShape(*shape), 16 * MB))
        chips[1].hypervisor.create_vnpu(
            VNpuSpec("d", MeshShape(2, 2), 16 * MB))
        ranked = list(BestFitPlacement().rank(chips, session(rows=2, cols=3)))
        assert ranked, "best-fit found no candidate"
        # Chip 1 still has a pristine 2x3 region -> distance 0 -> first.
        assert ranked[0].index == 1

    def test_power_of_two_is_deterministic_per_session(self):
        chips = make_fleet_chips(count=4)
        policy = PowerOfTwoPlacement(seed=3)
        one = [c.index for c in policy.rank(chips, session(session_id=9))]
        two = [c.index for c in policy.rank(chips, session(session_id=9))]
        assert one == two
        assert len(one) == 2

    def test_power_of_two_with_two_chips_ranks_both(self):
        chips = make_fleet_chips(count=2)
        ranked = PowerOfTwoPlacement().rank(chips, session())
        assert len(ranked) == 2


class TestDefragPolicy:
    def test_threshold_validated(self):
        with pytest.raises(ServingError):
            DefragPolicy(fragmentation_threshold=1.5)

    def test_migration_budget_validated(self):
        with pytest.raises(ServingError):
            DefragPolicy(max_migrations_per_trigger=0)


class TestFleetScheduler:
    def make(self, chips=2, cores=16, **kwargs):
        return FleetScheduler.homogeneous(chips, cores=cores, **kwargs)

    def test_needs_at_least_one_chip(self):
        with pytest.raises(ServingError):
            FleetScheduler([])
        with pytest.raises(ServingError):
            FleetScheduler.homogeneous(0)

    def test_chips_share_one_clock(self):
        fleet = self.make(chips=3)
        sims = {fc.chip.sim for fc in fleet.chips}
        assert sims == {fleet.sim}

    def test_serves_whole_trace_and_frees_every_chip(self):
        fleet = self.make(chips=3)
        trace = generate_fleet_trace(11, 30, chips=3, max_cores=16)
        metrics = fleet.serve(trace)
        assert len(metrics.records) + metrics.rejected == len(trace)
        assert metrics.rejected == 0
        for fleet_chip in fleet.chips:
            assert fleet_chip.hypervisor.vnpus == []
            assert fleet_chip.hypervisor.buddy.fully_coalesced

    def test_sessions_spread_across_chips(self):
        fleet = self.make(chips=3)
        trace = generate_fleet_trace(5, 30, chips=3, max_cores=16,
                                     mean_interarrival_cycles=600_000)
        metrics = fleet.serve(trace)
        assert len({r.chip for r in metrics.records}) > 1

    def test_oversized_session_rejected_at_submit(self):
        fleet = self.make(chips=2, cores=16)
        with pytest.raises(ServingError):
            fleet.submit([session(rows=6, cols=6)])

    def test_unknown_model_rejected_at_submit(self):
        fleet = self.make()
        with pytest.raises(ServingError):
            fleet.submit([session(model="skynet")])

    def test_run_before_submit_raises(self):
        with pytest.raises(ServingError):
            self.make().run()

    def test_non_policy_defrag_rejected(self):
        with pytest.raises(ServingError, match="defrag must be"):
            self.make(defrag=0.2)

    def test_non_schedule_faults_rejected(self):
        with pytest.raises(ServingError, match="faults must be"):
            self.make(faults="x")

    def test_invalid_policy_instance_rejected(self):
        with pytest.raises(ServingError):
            self.make(policy=object())

    def test_defrag_migration_extends_session_timeline(self):
        """A migrated session departs later than its solo service time."""
        fleet = self.make(chips=3, cores=16, defrag=DefragPolicy(0.1))
        trace = generate_fleet_trace(11, 60, chips=3, max_cores=16,
                                     mean_interarrival_cycles=20_000_000,
                                     fragmentation_heavy=True)
        metrics = fleet.serve(trace)
        assert metrics.migrations > 0
        assert metrics.migration_cycles > 0
        migrated = [r for r in metrics.records if r.migrations > 0]
        assert migrated, "no session carried a migration count"
        assert sum(r.migrations for r in migrated) == metrics.migrations

    def test_fleet_summary_shape(self):
        fleet = self.make(chips=2)
        metrics = fleet.serve(generate_fleet_trace(3, 10, chips=2,
                                                   max_cores=16))
        summary = metrics.summary(500_000_000)
        fleet_digest = summary["fleet"]
        assert fleet_digest["chips"] == 2
        assert len(fleet_digest["per_chip_utilization_time_weighted"]) == 2
        assert fleet_digest["migrations"] == 0


class TestMigrateVnpuApi:
    def test_unknown_vmid_raises(self):
        hypervisor = Hypervisor(Chip(sim_config(16)))
        with pytest.raises(HypervisorError):
            hypervisor.migrate_vnpu(404)

    def test_unknown_strategy_raises_before_any_mutation(self):
        hypervisor = Hypervisor(Chip(sim_config(16)))
        vnpu = hypervisor.create_vnpu(
            VNpuSpec("t", MeshShape(2, 2), 32 * MB))
        with pytest.raises(HypervisorError):
            hypervisor.migrate_vnpu(vnpu.vmid, strategy="teleport")
        assert hypervisor.vnpu(vnpu.vmid) is vnpu

    def test_in_place_compaction_reduces_fragmentation(self):
        """Destroying a corner tenant then migrating the stranded one
        re-places it into the freed contiguous region."""
        hypervisor = Hypervisor(Chip(sim_config(16)))
        first = hypervisor.create_vnpu(
            VNpuSpec("a", MeshShape(2, 4), 32 * MB))
        second = hypervisor.create_vnpu(
            VNpuSpec("b", MeshShape(2, 4), 32 * MB))
        hypervisor.destroy_vnpu(first.vmid)
        migrated, cost = hypervisor.migrate_vnpu(second.vmid)
        assert migrated.vmid == second.vmid
        assert cost > 0
        assert migrated.mapping.connected
        assert len(hypervisor.vnpus) == 1


class TestDefragLivelock:
    """Each pending entry spends at most one defrag round per free-set
    change. Without that budget two blocked entries ping-pong: each one's
    migrations unblock the other, whose failed placement migrates again,
    forever at one simulated cycle (here: cycle 305,313,259)."""

    LIVELOCK_CYCLE = 305_313_259

    def make(self):
        fleet = FleetScheduler.homogeneous(2, cores=16, placement="best_fit",
                                           defrag=DefragPolicy(0.2))
        fleet.submit(generate_fleet_trace(
            1, 40, 2, max_cores=16, fragmentation_heavy=True,
            mean_interarrival_cycles=20_000_000))
        migrate = fleet._migrate

        def bounded(*args, **kwargs):
            # A regression would hang the bounded run; fail it instead.
            assert fleet.metrics.migrations < 100, (
                f"defrag livelock at cycle {fleet.sim.now}")
            return migrate(*args, **kwargs)

        fleet._migrate = bounded
        return fleet

    def test_blocked_entries_do_not_ping_pong(self):
        fleet = self.make()
        assert fleet.run(until=self.LIVELOCK_CYCLE + 1) == \
            self.LIVELOCK_CYCLE + 1
        stuck = fleet.pending_sessions
        assert len(stuck) == 2
        assert all(e.blocked and e.defrag_exhausted for e in stuck)
        fleet.run()
        assert len(fleet.metrics.records) == 40
        assert fleet.metrics.migrations <= 10

    def test_defrag_budget_rides_the_checkpoint(self):
        fleet = self.make()
        fleet.run(until=self.LIVELOCK_CYCLE + 1)
        restored = FleetScheduler.restore(
            fleet.snapshot(), placement="best_fit", defrag=DefragPolicy(0.2))
        assert ([e.defrag_exhausted for e in restored.pending_sessions]
                == [e.defrag_exhausted for e in fleet.pending_sessions]
                == [True, True])
        fleet.run()
        restored.run()
        assert restored.metrics.records == fleet.metrics.records
        assert restored.metrics.migrations == fleet.metrics.migrations
