"""Churn-invariant property tests: no leaks under create/destroy/migrate.

Seeded random operation sequences against one :class:`Hypervisor`: after
everything is destroyed, the chip must be byte-for-byte back to its
initial hyper-mode state — buddy allocator fully coalesced, no routing
table installed for any VM, every core's scratchpad meta-zone empty.
PR 1's rollback test covered one failure path; this covers arbitrary
interleavings of the whole lifecycle, including live migration.
"""

import random

import pytest

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape
from repro.core.hypervisor import Hypervisor
from repro.core.vnpu import VNpuSpec
from repro.errors import AllocationError
from repro.sim import Simulator

SHAPES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)]


def random_spec(rng, tag):
    rows, cols = rng.choice(SHAPES)
    return VNpuSpec(
        name=f"churn-{tag}",
        topology=MeshShape(rows, cols),
        memory_bytes=rows * cols * rng.choice([8, 16, 32]) * MB,
    )


def assert_pristine(hypervisor):
    """The no-leak invariant: hyper-mode state is back to the seed state."""
    chip = hypervisor.chip
    assert hypervisor.vnpus == []
    assert hypervisor.allocated_cores == set()
    assert hypervisor.buddy.fully_coalesced, \
        "buddy allocator did not coalesce back to its initial free state"
    assert hypervisor.buddy.free_bytes == hypervisor.buddy.capacity
    assert chip.controller.ivrouter.vmids == [], \
        "routing tables remain installed after all vNPUs were destroyed"
    for core_id in chip.cores:
        spad = chip.core(core_id).scratchpad
        assert spad.meta_regions == [], \
            f"core {core_id} scratchpad meta-zone is not empty"
        assert spad.meta_free == spad.meta_capacity


def churn(seed, steps=60, migrate_every=0.15):
    rng = random.Random(seed)
    hypervisor = Hypervisor(Chip(sim_config(16)))
    live = []
    for step in range(steps):
        roll = rng.random()
        if live and roll < migrate_every:
            vmid = rng.choice(live)
            try:
                migrated, cost = hypervisor.migrate_vnpu(vmid)
            except AllocationError:
                continue
            assert cost > 0
            assert migrated.vmid == vmid  # in-place keeps the VMID
        elif live and roll < 0.45:
            vmid = live.pop(rng.randrange(len(live)))
            hypervisor.destroy_vnpu(vmid)
        else:
            try:
                vnpu = hypervisor.create_vnpu(random_spec(rng, step))
            except AllocationError:
                continue
            live.append(vnpu.vmid)
    for vmid in live:
        hypervisor.destroy_vnpu(vmid)
    return hypervisor


@pytest.mark.parametrize("seed", [1, 7, 13, 42, 97, 2025])
def test_churn_leaves_no_trace(seed):
    assert_pristine(churn(seed))


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_cross_chip_churn_leaves_both_chips_clean(seed):
    """Random create/migrate-across/destroy over two hypervisors."""
    rng = random.Random(seed)
    sim = Simulator()
    fleet = [Hypervisor(Chip(sim_config(16), sim=sim)) for _ in range(2)]
    live = []  # (hypervisor index, vmid)
    for step in range(50):
        roll = rng.random()
        if live and roll < 0.2:
            index, vmid = live.pop(rng.randrange(len(live)))
            source, target = fleet[index], fleet[1 - index]
            try:
                migrated, cost = source.migrate_vnpu(vmid, destination=target)
            except AllocationError:
                live.append((index, vmid))
                continue
            assert cost > 0
            assert all(v.vmid != vmid for v in source.vnpus)
            live.append((1 - index, migrated.vmid))
        elif live and roll < 0.5:
            index, vmid = live.pop(rng.randrange(len(live)))
            fleet[index].destroy_vnpu(vmid)
        else:
            index = rng.randrange(2)
            try:
                vnpu = fleet[index].create_vnpu(random_spec(rng, step))
            except AllocationError:
                continue
            live.append((index, vnpu.vmid))
    for index, vmid in live:
        fleet[index].destroy_vnpu(vmid)
    for hypervisor in fleet:
        assert_pristine(hypervisor)


def test_migration_moves_all_resources_cross_chip():
    """After a cross-chip migration the source is pristine, the target owns
    the memory and routing state, and the spec is preserved."""
    sim = Simulator()
    source = Hypervisor(Chip(sim_config(16), sim=sim))
    target = Hypervisor(Chip(sim_config(16), sim=sim))
    vnpu = source.create_vnpu(VNpuSpec("mover", MeshShape(2, 3), 96 * MB))
    resident = vnpu.memory_bytes
    migrated, cost = source.migrate_vnpu(vnpu.vmid, destination=target)
    assert_pristine(source)
    assert migrated.memory_bytes == resident
    assert migrated.spec is vnpu.spec
    assert target.chip.controller.ivrouter.vmids == [migrated.vmid]
    assert cost > migrated.setup_cycles  # data movement is charged too
    target.destroy_vnpu(migrated.vmid)
    assert_pristine(target)


def churn_with_resize(seed, steps=70):
    """Arbitrary grow-shrink-migrate-create-destroy interleavings."""
    rng = random.Random(seed)
    hypervisor = Hypervisor(Chip(sim_config(16)))
    live = []
    for step in range(steps):
        roll = rng.random()
        if live and roll < 0.25:
            # Resize a live tenant to a fresh random shape (grow or
            # shrink, relocating when the adjacent cores refuse).
            vmid = rng.choice(live)
            try:
                resized, cost = hypervisor.resize_vnpu(
                    vmid, random_spec(rng, f"resize-{step}"))
            except AllocationError:
                continue
            assert cost >= resized.setup_cycles
            assert resized.vmid == vmid  # resize keeps the VMID
        elif live and roll < 0.4:
            vmid = rng.choice(live)
            try:
                migrated, cost = hypervisor.migrate_vnpu(vmid)
            except AllocationError:
                continue
            assert migrated.vmid == vmid
        elif live and roll < 0.6:
            vmid = live.pop(rng.randrange(len(live)))
            hypervisor.destroy_vnpu(vmid)
        else:
            try:
                vnpu = hypervisor.create_vnpu(random_spec(rng, step))
            except AllocationError:
                continue
            live.append(vnpu.vmid)
    for vmid in live:
        hypervisor.destroy_vnpu(vmid)
    return hypervisor


@pytest.mark.parametrize("seed", [2, 5, 17, 23, 61, 101])
def test_resize_churn_leaves_no_trace(seed):
    """Grow-shrink-migrate interleavings leak nothing over >= 6 seeds."""
    assert_pristine(churn_with_resize(seed))


@pytest.mark.parametrize("seed", [4, 9, 31, 47, 73, 2026])
def test_elastic_serving_churn_leaves_no_trace(seed):
    """A full elastic serving run (shrink + preempt + grow-back) tears
    everything down: the scheduler-driven resize path leaks nothing."""
    from repro.arch.config import sim_config as cfg
    from repro.serving import (
        DEFAULT_SLO_MIX,
        FleetScheduler,
        generate_trace,
    )
    scheduler = FleetScheduler([cfg(16)], policy="priority",
                               elastic="shrink_then_preempt")
    hypervisor = scheduler.chips[0].hypervisor
    trace = generate_trace(seed, 30, max_cores=16,
                           mean_interarrival_cycles=2_000_000,
                           arrival_process="bursty",
                           slo_mix=DEFAULT_SLO_MIX)
    metrics = scheduler.serve(trace)
    assert len(metrics.records) + metrics.rejected == len(trace)
    assert_pristine(hypervisor)


def test_resize_mapper_free_sets_stay_synced():
    """After resize churn and total teardown the mapper's free view is
    the whole chip: any mapping request must see all 16 cores free."""
    hypervisor = churn_with_resize(13, steps=40)
    vnpu = hypervisor.create_vnpu(
        VNpuSpec("post-churn", MeshShape(4, 4), 64 * MB))
    assert len(vnpu.physical_cores) == 16
    hypervisor.destroy_vnpu(vnpu.vmid)
    assert_pristine(hypervisor)


def assert_free_view_matches(hypervisor):
    """The mapper's free topology of the occupancy record is the chip's
    induced subgraph over the unallocated cores."""
    chip = hypervisor.chip.topology
    allocated = hypervisor.allocated_cores
    view = hypervisor.mapper.free_topology(allocated)
    expected = chip.subtopology([n for n in chip.nodes if n not in allocated])
    assert view.nodes == expected.nodes
    assert view.edges == expected.edges
    assert view.coords == expected.coords
    assert view.node_attrs == expected.node_attrs


@pytest.mark.parametrize("seed", [3, 8, 19, 44, 88, 2027])
def test_mapper_free_view_tracks_occupancy_under_churn(seed):
    """Create/destroy/migrate (in place and cross-chip)/resize churn over
    two chips: after every step each mapper's free view equals the
    chip's induced free subgraph."""
    rng = random.Random(seed)
    sim = Simulator()
    fleet = [Hypervisor(Chip(sim_config(16), sim=sim)) for _ in range(2)]
    live = []  # (hypervisor index, vmid)
    done = set()
    for step in range(60):
        roll = rng.random()
        try:
            if live and roll < 0.35:
                position = rng.randrange(len(live))
                index, vmid = live[position]
                if roll < 0.1:
                    moved, _ = fleet[index].migrate_vnpu(
                        vmid, destination=fleet[1 - index])
                    live[position] = (1 - index, moved.vmid)
                    done.add("cross-chip")
                elif roll < 0.2:
                    fleet[index].migrate_vnpu(vmid)
                    done.add("in-place")
                else:
                    fleet[index].resize_vnpu(
                        vmid, random_spec(rng, f"resize-{step}"))
                    done.add("resize")
            elif live and roll < 0.55:
                index, vmid = live.pop(rng.randrange(len(live)))
                fleet[index].destroy_vnpu(vmid)
                done.add("destroy")
            else:
                index = rng.randrange(2)
                vnpu = fleet[index].create_vnpu(random_spec(rng, step))
                live.append((index, vnpu.vmid))
                done.add("create")
        except AllocationError:
            pass
        for hypervisor in fleet:
            assert_free_view_matches(hypervisor)
    assert done == {"create", "destroy", "in-place", "cross-chip", "resize"}
    for index, vmid in live:
        fleet[index].destroy_vnpu(vmid)
        assert_free_view_matches(fleet[index])
    for hypervisor in fleet:
        assert_pristine(hypervisor)


class TestResizeSemantics:
    def test_shrink_within_own_block_charges_reconfig_only(self):
        """A shrink that fits the tenant's own cores is in place: the
        data stays put, only the Fig-11 reconfiguration is charged."""
        hv = Hypervisor(Chip(sim_config(16)))
        vnpu = hv.create_vnpu(VNpuSpec("t", MeshShape(2, 3), 96 * MB))
        old_cores = set(vnpu.physical_cores)
        resized, cost = hv.resize_vnpu(
            vnpu.vmid, VNpuSpec("t", MeshShape(1, 2), 32 * MB))
        assert set(resized.physical_cores) <= old_cores
        assert cost == resized.setup_cycles
        assert resized.memory_bytes == 32 * MB
        hv.destroy_vnpu(resized.vmid)
        assert_pristine(hv)

    def test_grow_keeps_vmid_and_updates_resources(self):
        hv = Hypervisor(Chip(sim_config(16)))
        vnpu = hv.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 64 * MB))
        resized, cost = hv.resize_vnpu(
            vnpu.vmid, VNpuSpec("t", MeshShape(3, 3), 144 * MB))
        assert resized.vmid == vnpu.vmid
        assert resized.core_count == 9
        assert resized.memory_bytes == 144 * MB
        assert cost >= resized.setup_cycles
        assert hv.vnpu(vnpu.vmid) is resized
        hv.destroy_vnpu(resized.vmid)
        assert_pristine(hv)

    def test_relocated_resize_charges_data_movement(self):
        """When the adjacent cores cannot host the grow, the fallback
        re-place additionally pays the retained-memory copy."""
        from repro.cost.charges import resize_cycles
        config = sim_config(16)
        in_place = resize_cycles(config, 64 * MB, 100, relocated=False)
        relocated = resize_cycles(config, 64 * MB, 100, relocated=True)
        assert in_place == 100
        assert relocated > in_place

    def test_failed_grow_leaves_vnpu_untouched(self):
        """No room to grow -> AllocationError and zero mutation."""
        hv = Hypervisor(Chip(sim_config(16)))
        squatter = hv.create_vnpu(VNpuSpec("sq", MeshShape(3, 4), 32 * MB))
        vnpu = hv.create_vnpu(VNpuSpec("t", MeshShape(1, 2), 16 * MB))
        before_cores = list(vnpu.physical_cores)
        before_free = hv.buddy.free_bytes
        with pytest.raises(AllocationError):
            hv.resize_vnpu(vnpu.vmid, VNpuSpec("t", MeshShape(3, 3), 48 * MB))
        assert hv.vnpu(vnpu.vmid) is vnpu
        assert vnpu.physical_cores == before_cores
        assert hv.buddy.free_bytes == before_free
        assert sorted(v.vmid for v in hv.vnpus) == sorted(
            [squatter.vmid, vnpu.vmid])

    def test_failed_memory_grow_restores_placement(self):
        """Cores fit but memory does not: the teardown/provision cycle
        must restore the original placement."""
        hv = Hypervisor(Chip(sim_config(16)))
        vnpu = hv.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 64 * MB))
        before_cores = list(vnpu.physical_cores)
        too_much = hv.buddy.capacity * 2
        with pytest.raises(AllocationError):
            hv.resize_vnpu(vnpu.vmid, VNpuSpec("t", MeshShape(2, 3),
                                               too_much))
        restored = hv.vnpu(vnpu.vmid)
        assert restored.physical_cores == before_cores
        assert restored.memory_bytes == 64 * MB
        hv.destroy_vnpu(restored.vmid)
        assert_pristine(hv)

    def test_resize_unknown_vmid_raises(self):
        from repro.errors import HypervisorError
        hv = Hypervisor(Chip(sim_config(16)))
        with pytest.raises(HypervisorError):
            hv.resize_vnpu(99, VNpuSpec("t", MeshShape(1, 2), 16 * MB))


def test_failed_migration_leaves_source_untouched():
    """No destination room -> AllocationError and zero source mutation."""
    sim = Simulator()
    source = Hypervisor(Chip(sim_config(16), sim=sim))
    target = Hypervisor(Chip(sim_config(16), sim=sim))
    target.create_vnpu(VNpuSpec("squatter", MeshShape(4, 4), 32 * MB))
    vnpu = source.create_vnpu(VNpuSpec("mover", MeshShape(2, 2), 64 * MB))
    before_cores = list(vnpu.physical_cores)
    before_free = source.buddy.free_bytes
    with pytest.raises(AllocationError):
        source.migrate_vnpu(vnpu.vmid, destination=target)
    assert source.vnpu(vnpu.vmid) is vnpu
    assert vnpu.physical_cores == before_cores
    assert source.buddy.free_bytes == before_free
    assert source.chip.controller.ivrouter.vmids == [vnpu.vmid]


def fault_churn(seed, evacuation):
    """A full fleet serving run under injected chip/link/HBM failures."""
    from repro.serving import (
        DEFAULT_SLO_MIX,
        FleetScheduler,
        generate_failure_schedule,
        generate_fleet_trace,
    )
    faults = generate_failure_schedule(seed, chips=3,
                                       horizon_cycles=300_000_000,
                                       failures=5,
                                       mean_outage_cycles=30_000_000)
    fleet = FleetScheduler.homogeneous(3, cores=16, policy="priority",
                                       elastic="shrink_then_preempt",
                                       faults=faults, evacuation=evacuation)
    trace = generate_fleet_trace(seed, 36, chips=3, max_cores=16,
                                 mean_interarrival_cycles=3_000_000,
                                 arrival_process="bursty",
                                 slo_mix=DEFAULT_SLO_MIX)
    metrics = fleet.serve(trace)
    return fleet, metrics, trace


@pytest.mark.parametrize("seed,evacuation", [
    (6, "shrink_to_fit"), (19, "evacuate"), (37, "kill_requeue"),
    (53, "shrink_to_fit"), (71, "evacuate"), (89, "kill_requeue"),
    (2027, "shrink_to_fit"),
])
def test_failure_evacuate_recover_churn_leaves_no_trace(seed, evacuation):
    """Arbitrary failure-evacuate-recover interleavings under load leak
    nothing: every chip ends healthy and byte-identical to its seed
    state, and every session is accounted for."""
    fleet, metrics, trace = fault_churn(seed, evacuation)
    assert len(metrics.records) + metrics.rejected == len(trace)
    assert metrics.chip_failures > 0          # the run actually saw faults
    assert metrics.killed_sessions > 0        # ... that hit live sessions
    assert metrics.chip_failures == metrics.chip_recoveries
    for fleet_chip in fleet.chips:
        assert fleet_chip.healthy
        assert_pristine(fleet_chip.hypervisor)


@pytest.mark.parametrize("seed", [6, 53])
def test_fault_churn_lost_work_accounting_balances(seed):
    """Per-record fault counters sum to the fleet-level counters."""
    _, metrics, _ = fault_churn(seed, "shrink_to_fit")
    assert sum(r.kills for r in metrics.records) == metrics.killed_sessions
    assert sum(r.lost_service_cycles for r in metrics.records) == \
        metrics.lost_service_cycles
    assert sum(r.evacuations for r in metrics.records) == metrics.evacuations
