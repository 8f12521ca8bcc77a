"""Fault injection, chip health and vNPU evacuation.

Covers the :mod:`repro.serving.faults` schedule mechanics, the
hypervisor's kerf-style health gate (fail-fast creates, drain-only
failed chips, fail-stop kills), and the fleet scheduler's evacuation
semantics per failure kind and policy — including degraded-mode serving
under link faults and honest lost-work accounting.
"""

import pytest

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape
from repro.core.hypervisor import Hypervisor
from repro.core.strategies import register_strategy, unregister_strategy
from repro.core.vnpu import VNpuSpec
from repro.errors import AllocationError, HypervisorError, ServingError
from repro.serving import (
    EVACUATION_POLICIES,
    FailureEvent,
    FailureSchedule,
    FleetScheduler,
    TenantSession,
    coerce_evacuation,
    generate_failure_schedule,
)
from repro.serving.fleet import ActiveFleetSession
from repro.serving.slo import BEST_EFFORT
from repro.sim import Simulator


def session(session_id=0, arrival=0, rows=2, cols=2, model="alexnet",
            inferences=10, slo="", memory_bytes=None):
    return TenantSession(
        session_id=session_id, tenant=f"t{session_id}",
        arrival_cycle=arrival, rows=rows, cols=cols,
        memory_bytes=memory_bytes or rows * cols * 8 * MB, model=model,
        inferences=inferences, slo=slo,
    )


def record_of(metrics, session_id):
    matches = [r for r in metrics.records if r.session_id == session_id]
    assert len(matches) == 1, f"session {session_id} departed {len(matches)}x"
    return matches[0]


# -- schedule mechanics ------------------------------------------------------

class TestFailureEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServingError):
            FailureEvent(cycle=0, chip_index=0, kind="meteor",
                         duration_cycles=10)

    def test_negative_cycle_rejected(self):
        with pytest.raises(ServingError):
            FailureEvent(cycle=-1, chip_index=0, kind="chip",
                         duration_cycles=10)

    def test_zero_duration_rejected(self):
        with pytest.raises(ServingError):
            FailureEvent(cycle=0, chip_index=0, kind="hbm",
                         duration_cycles=0)

    def test_recovery_cycle(self):
        event = FailureEvent(cycle=100, chip_index=0, kind="link",
                             duration_cycles=40)
        assert event.recovery_cycle == 140


class TestFailureSchedule:
    def test_overlapping_same_chip_fault_dropped(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=100, chip_index=0, kind="chip",
                         duration_cycles=1000),
            FailureEvent(cycle=500, chip_index=0, kind="hbm",
                         duration_cycles=10),
        ))
        assert len(schedule) == 1
        assert schedule.events[0].kind == "chip"

    def test_same_cycle_different_chips_both_kept(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=100, chip_index=1, kind="chip",
                         duration_cycles=10),
            FailureEvent(cycle=100, chip_index=0, kind="hbm",
                         duration_cycles=10),
        ))
        assert len(schedule) == 2
        # Normalized order: by (cycle, chip_index).
        assert [e.chip_index for e in schedule.events] == [0, 1]

    def test_back_to_back_outage_kept(self):
        """A fault landing exactly at the previous recovery instant is a
        new outage, not an overlap."""
        schedule = FailureSchedule((
            FailureEvent(cycle=100, chip_index=0, kind="chip",
                         duration_cycles=400),
            FailureEvent(cycle=500, chip_index=0, kind="link",
                         duration_cycles=10),
        ))
        assert len(schedule) == 2

    def test_timeline_orders_recovery_before_same_cycle_failure(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=100, chip_index=0, kind="chip",
                         duration_cycles=400),
            FailureEvent(cycle=500, chip_index=0, kind="link",
                         duration_cycles=10),
        ))
        at_500 = [(action, e.kind) for cycle, action, e
                  in schedule.timeline() if cycle == 500]
        assert at_500 == [("recover", "chip"), ("fail", "link")]

    def test_validate_rejects_out_of_range_chip(self):
        schedule = FailureSchedule((
            FailureEvent(cycle=0, chip_index=3, kind="chip",
                         duration_cycles=10),
        ))
        with pytest.raises(ServingError):
            schedule.validate(chip_count=3)
        schedule.validate(chip_count=4)


class TestGenerateFailureSchedule:
    def test_same_seed_same_schedule(self):
        one = generate_failure_schedule(7, chips=4, horizon_cycles=10**9)
        two = generate_failure_schedule(7, chips=4, horizon_cycles=10**9)
        assert one.events == two.events
        assert 0 < len(one) <= 4

    def test_seeds_differ(self):
        seeds = {generate_failure_schedule(s, chips=4,
                                           horizon_cycles=10**9).events
                 for s in range(5)}
        assert len(seeds) > 1

    def test_kind_mix_restricts_kinds(self):
        schedule = generate_failure_schedule(
            3, chips=2, horizon_cycles=10**9, failures=8,
            kind_mix=(("hbm", 1),))
        assert {e.kind for e in schedule.events} == {"hbm"}

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ServingError):
            generate_failure_schedule(0, chips=0, horizon_cycles=10)
        with pytest.raises(ServingError):
            generate_failure_schedule(0, chips=1, horizon_cycles=0)
        with pytest.raises(ServingError):
            generate_failure_schedule(0, chips=1, horizon_cycles=10,
                                      failures=-1)
        with pytest.raises(ServingError):
            generate_failure_schedule(0, chips=1, horizon_cycles=10,
                                      kind_mix=(("meteor", 1),))

    def test_coerce_evacuation(self):
        for name in EVACUATION_POLICIES:
            assert coerce_evacuation(name) == name
        with pytest.raises(ServingError):
            coerce_evacuation("pray")


# -- hypervisor health gate --------------------------------------------------

class TestHypervisorHealth:
    def test_create_on_failed_chip_refused_until_recovery(self):
        hv = Hypervisor(Chip(sim_config(16)))
        assert hv.healthy
        hv.mark_failed()
        with pytest.raises(HypervisorError):
            hv.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 32 * MB))
        hv.mark_recovered()
        vnpu = hv.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 32 * MB))
        assert vnpu.core_count == 4

    def test_migrate_onto_failed_destination_refused(self):
        sim = Simulator()
        source = Hypervisor(Chip(sim_config(16), sim=sim))
        target = Hypervisor(Chip(sim_config(16), sim=sim))
        vnpu = source.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 32 * MB))
        target.mark_failed()
        with pytest.raises(HypervisorError):
            source.migrate_vnpu(vnpu.vmid, destination=target)
        assert source.vnpu(vnpu.vmid) is vnpu  # untouched

    def test_drains_off_failed_chip_still_work(self):
        """Kerf semantics: a failed chip refuses new placements but can
        be drained — migrate-off, shrink in place, destroy."""
        sim = Simulator()
        source = Hypervisor(Chip(sim_config(16), sim=sim))
        target = Hypervisor(Chip(sim_config(16), sim=sim))
        mover = source.create_vnpu(VNpuSpec("m", MeshShape(2, 2), 32 * MB))
        shrinker = source.create_vnpu(VNpuSpec("s", MeshShape(2, 2), 32 * MB))
        goner = source.create_vnpu(VNpuSpec("g", MeshShape(1, 2), 16 * MB))
        source.mark_failed()
        migrated, cost = source.migrate_vnpu(mover.vmid, destination=target)
        assert cost > 0
        resized, _ = source.resize_vnpu(
            shrinker.vmid, VNpuSpec("s", MeshShape(1, 2), 16 * MB))
        assert resized.core_count == 2
        source.destroy_vnpu(goner.vmid)
        assert len(source.vnpus) == 1

    def test_kill_returns_lost_bytes_and_frees_everything(self):
        hv = Hypervisor(Chip(sim_config(16)))
        vnpu = hv.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 32 * MB))
        lost = hv.kill_vnpu(vnpu.vmid)
        assert lost == 32 * MB
        assert hv.vnpus == []
        assert hv.allocated_cores == set()
        assert hv.buddy.fully_coalesced

    def test_kill_unknown_vmid_raises(self):
        hv = Hypervisor(Chip(sim_config(16)))
        with pytest.raises(HypervisorError):
            hv.kill_vnpu(404)


# -- fleet-level fault injection --------------------------------------------

def fleet_with(chips, faults, evacuation="shrink_to_fit", **kwargs):
    return FleetScheduler.homogeneous(
        chips, cores=16, faults=FailureSchedule(tuple(faults)),
        evacuation=evacuation, **kwargs)


class TestFleetFaultInjection:
    def test_unknown_evacuation_policy_rejected(self):
        with pytest.raises(ServingError):
            FleetScheduler.homogeneous(2, cores=16, evacuation="pray")

    def test_schedule_validated_against_fleet_size(self):
        with pytest.raises(ServingError):
            fleet_with(2, [FailureEvent(cycle=0, chip_index=5, kind="chip",
                                        duration_cycles=10)])

    def test_chip_crash_kills_requeues_and_recovers_elsewhere(self):
        fleet = fleet_with(2, [
            FailureEvent(cycle=1000, chip_index=0, kind="chip",
                         duration_cycles=50_000),
        ], evacuation="evacuate")
        metrics = fleet.serve([session(session_id=1)])
        record = record_of(metrics, 1)
        # Fail-stop: killed regardless of the evacuation policy, the
        # 1000 cycles served since admission discarded, then re-admitted
        # on the healthy survivor.
        assert record.kills == 1
        assert record.lost_service_cycles == 1000
        assert record.evacuations == 0
        assert record.chip == 1
        assert metrics.killed_sessions == 1
        assert metrics.lost_service_cycles == 1000
        assert metrics.chip_failures == 1
        assert metrics.chip_recoveries == 1
        assert [e["action"] for e in metrics.fault_log] == \
            ["fail", "recover"]

    def test_hbm_fault_evacuates_live(self):
        fleet = fleet_with(2, [
            FailureEvent(cycle=1000, chip_index=0, kind="hbm",
                         duration_cycles=50_000),
        ], evacuation="evacuate")
        metrics = fleet.serve([session(session_id=1)])
        record = record_of(metrics, 1)
        # Drained, not killed: the session live-migrates to chip 1 and
        # keeps its accrued service.
        assert record.evacuations == 1
        assert record.kills == 0
        assert record.lost_service_cycles == 0
        assert record.migrations == 1
        assert record.chip == 1
        assert metrics.evacuations == 1
        assert metrics.evacuation_cycles > 0
        assert metrics.killed_sessions == 0

    def test_kill_requeue_policy_never_migrates(self):
        fleet = fleet_with(2, [
            FailureEvent(cycle=1000, chip_index=0, kind="hbm",
                         duration_cycles=50_000),
        ], evacuation="kill_requeue")
        metrics = fleet.serve([session(session_id=1)])
        record = record_of(metrics, 1)
        assert record.kills == 1
        assert record.lost_service_cycles == 1000
        assert metrics.evacuations == 0
        assert metrics.migrations == 0

    def test_summary_grows_faults_block_only_when_enabled(self):
        faulted = fleet_with(2, [
            FailureEvent(cycle=1000, chip_index=0, kind="chip",
                         duration_cycles=50_000),
        ])
        faulted_summary = faulted.serve([session(session_id=1)]).summary(
            500_000_000)
        assert faulted_summary["faults"]["chip_failures"] == 1
        clean = FleetScheduler.homogeneous(2, cores=16)
        clean_summary = clean.serve([session(session_id=1)]).summary(
            500_000_000)
        assert "faults" not in clean_summary

    def test_failed_chip_refuses_new_placements_until_recovery(self):
        """An arrival during the outage parks (or lands elsewhere);
        nothing is ever placed on the down chip."""
        fleet = fleet_with(1, [
            FailureEvent(cycle=1000, chip_index=0, kind="hbm",
                         duration_cycles=80_000),
        ])
        metrics = fleet.serve([
            session(session_id=1, arrival=2000),
        ])
        record = record_of(metrics, 1)
        # Arrived mid-outage on a single-chip fleet: admitted only at
        # the recovery instant.
        assert record.admit_cycle == 81_000
        assert metrics.chip_recoveries == 1


class TestLinkFailureDegradedMode:
    def placement_of(self, shape, memory_bytes):
        """The cores the fleet's first placement lands on (same config,
        same default strategy, fresh chip — placements are pure)."""
        hv = Hypervisor(Chip(sim_config(16)))
        vnpu = hv.create_vnpu(VNpuSpec("probe", shape, memory_bytes))
        return set(vnpu.physical_cores)

    def edges_of(self):
        return sorted(Chip(sim_config(16)).topology.edges)

    def test_resident_on_failed_link_loses_placement(self):
        cores = self.placement_of(MeshShape(1, 2), 16 * MB)
        edges = self.edges_of()
        near = next(i for i, (u, v) in enumerate(edges)
                    if u in cores or v in cores)
        fleet = fleet_with(1, [
            FailureEvent(cycle=1000, chip_index=0, kind="link",
                         duration_cycles=50_000, link_index=near),
        ])
        metrics = fleet.serve(
            [session(session_id=1, rows=1, cols=2, memory_bytes=16 * MB)])
        record = record_of(metrics, 1)
        # Single-chip fleet: nowhere to evacuate to, so the affected
        # resident is killed and re-admitted after recovery.
        assert record.kills == 1
        assert record.lost_service_cycles == 1000

    def test_resident_off_failed_link_keeps_serving(self):
        cores = self.placement_of(MeshShape(1, 2), 16 * MB)
        edges = self.edges_of()
        far = next(i for i, (u, v) in enumerate(edges)
                   if u not in cores and v not in cores)
        fleet = fleet_with(1, [
            FailureEvent(cycle=1000, chip_index=0, kind="link",
                         duration_cycles=50_000, link_index=far),
        ])
        metrics = fleet.serve(
            [session(session_id=1, rows=1, cols=2, memory_bytes=16 * MB)])
        record = record_of(metrics, 1)
        # Degraded mode: the fault is recorded, but a resident whose
        # placement does not touch the failed link serves through it.
        assert record.kills == 0
        assert record.evacuations == 0
        assert record.migrations == 0
        assert metrics.chip_failures == 1
        assert metrics.killed_sessions == 0


class TestEvacuationPolicies:
    def crunch(self, evacuation):
        """Chip 0 fully loaded with a 3x4 tenant; chip 1 squatter leaves
        7 free cores — too few for a full-size 3x4 evacuation."""
        fleet = fleet_with(2, [
            FailureEvent(cycle=10_000, chip_index=0, kind="hbm",
                         duration_cycles=400_000),
        ], evacuation=evacuation)
        trace = [
            session(session_id=1, rows=3, cols=4),   # -> chip 0 (emptiest)
            session(session_id=2, rows=3, cols=3),   # -> chip 1
        ]
        return fleet.serve(trace)

    def test_shrink_to_fit_saves_the_session(self):
        metrics = self.crunch("shrink_to_fit")
        record = record_of(metrics, 1)
        assert record.evacuations == 1
        assert record.kills == 0
        assert record.resizes >= 1      # shrunk on the way out
        assert record.migrations == 1
        assert metrics.killed_sessions == 0

    def test_plain_evacuate_cannot_fit_and_kills(self):
        metrics = self.crunch("evacuate")
        record = record_of(metrics, 1)
        assert record.kills == 1
        assert record.evacuations == 0
        assert metrics.killed_sessions == 1

    def test_bystander_is_untouched_either_way(self):
        for policy in ("shrink_to_fit", "evacuate", "kill_requeue"):
            record = record_of(self.crunch(policy), 2)
            assert record.kills == 0
            assert record.evacuations == 0
            assert record.preemptions == 0

    def test_gold_evacuates_first(self):
        """Drain order is gold-first: with survivor capacity for exactly
        one of two residents, the gold session gets it."""
        fleet = fleet_with(2, [
            FailureEvent(cycle=10_000, chip_index=1, kind="hbm",
                         duration_cycles=800_000),
        ], evacuation="shrink_to_fit")
        trace = [
            # Squatter pins chip 0 down to a 4-core free row.
            session(session_id=1, rows=3, cols=4),            # -> chip 0
            session(session_id=2, rows=1, cols=4, slo="gold"),  # -> chip 1
            session(session_id=3, rows=2, cols=2),            # -> chip 1
        ]
        metrics = fleet.serve(trace)
        gold = record_of(metrics, 2)
        effort = record_of(metrics, 3)
        assert gold.kills == 0
        assert gold.evacuations == 1
        assert gold.resizes == 0        # gold is never shrunk
        assert effort.kills == 1        # capacity went to gold first


# -- preempt-at-departure race (same-cycle preempt + lifetime timeout) -------

#: A one-chip fleet and a multi-chip one: both run the same lifecycle, so
#: these regressions cover the single-chip edge and the fleet at once.
SCHEDULERS = pytest.mark.parametrize("build", [
    lambda chips: FleetScheduler([sim_config(16)]),
    lambda chips: FleetScheduler.homogeneous(chips, cores=16),
], ids=["one_chip", "fleet"])


class TestPreemptAtDepartureRace:
    """A preemption landing at the session's exact departure cycle must
    make the sleeping lifetime process vanish via the ``preempted``
    guard — not double-depart an already-destroyed vNPU."""

    @SCHEDULERS
    def test_preempt_at_departure_cycle(self, build):
        probe = build(1)
        depart = probe.serve([session(session_id=1)]).records[0].depart_cycle

        scheduler = build(1)

        def racer():
            yield scheduler.sim.timeout(depart)
            active = next(iter(scheduler._active.values()))
            scheduler._preempt(scheduler.chips[active.chip_index], active)
            scheduler._admit_loop()

        # Registered before submit: at the shared departure cycle the
        # racer's event was scheduled first, so it fires first.
        scheduler.sim.process(racer(), name="racer")
        metrics = scheduler.serve([session(session_id=1)])
        assert len(metrics.records) == 1      # exactly one departure
        record = metrics.records[0]
        assert record.preemptions == 1
        assert record.depart_cycle > depart   # service restarted


# -- satellite regressions ---------------------------------------------------

class TestSubmitMemoryValidation:
    @SCHEDULERS
    def test_refuses_unmappable_memory(self, build):
        scheduler = build(2)
        largest = max(fc.hypervisor.guest_memory_capacity
                      for fc in scheduler.chips)
        with pytest.raises(ServingError, match="guest bytes"):
            scheduler.submit([session(session_id=1,
                                      memory_bytes=largest + 1)])
        build(2).submit(
            [session(session_id=1, memory_bytes=largest)])  # boundary OK


class TestIdleChipDropRule:
    def test_hopeless_request_dropped_even_with_busy_fleet(self):
        """The old rule dropped only when the *entire fleet* was empty;
        a request no strategy can ever map parked forever behind one
        busy chip. The tightened rule probes the largest healthy empty
        chip and drops when even it refuses."""
        class Picky:
            name = "test-picky"

            def map(self, mapper, spec, allocated):
                if spec.topology.node_count > 4:
                    raise AllocationError("picky refuses big tenants")
                return mapper.map_similar(spec.topology, allocated)

        register_strategy(Picky())
        try:
            fleet = FleetScheduler.homogeneous(2, cores=16,
                                               strategy="test-picky")
            fleet.chips[1].hypervisor.create_vnpu(
                VNpuSpec("squatter", MeshShape(2, 2), 32 * MB))
            metrics = fleet.serve([session(session_id=1, rows=2, cols=3)])
            assert metrics.rejected == 1
            assert metrics.records == []
        finally:
            unregister_strategy("test-picky")


class TestNoOpInPlaceMigration:
    def make_active(self, fleet, vnpu):
        active = ActiveFleetSession(
            session=session(session_id=1), chip_index=0, vmid=vnpu.vmid,
            admit_cycle=0, strategy=vnpu.mapping.strategy,
            mapping_distance=vnpu.mapping.distance,
            mapping_connected=vnpu.mapping.connected, slo=BEST_EFFORT,
            rows=2, cols=2, service_total=1000, expected_depart=1000,
        )
        fleet._active[(0, vnpu.vmid)] = active
        return active

    def test_identical_compaction_skips_teardown(self):
        """An in-place migration whose trial mapping lands on the same
        cores must not tear the tenant down at all: same vNPU object,
        no charge, no migration recorded."""
        fleet = FleetScheduler.homogeneous(1, cores=16)
        source = fleet.chips[0]
        vnpu = source.hypervisor.create_vnpu(
            VNpuSpec("t1", MeshShape(2, 2), 32 * MB))
        active = self.make_active(fleet, vnpu)
        assert fleet._migrate(source, vnpu.vmid) is False
        assert source.hypervisor.vnpu(vnpu.vmid) is vnpu  # never rebuilt
        assert active.migrations == 0
        assert active.expected_depart == 1000             # not charged
        assert fleet.metrics.migrations == 0

    def test_evacuating_migration_never_falls_back_in_place(self):
        fleet = FleetScheduler.homogeneous(1, cores=16)
        source = fleet.chips[0]
        vnpu = source.hypervisor.create_vnpu(
            VNpuSpec("t1", MeshShape(2, 2), 32 * MB))
        self.make_active(fleet, vnpu)
        assert fleet._migrate(source, vnpu.vmid, evacuating=True) is False
        assert source.hypervisor.vnpu(vnpu.vmid) is vnpu
