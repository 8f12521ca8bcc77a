"""The hypervisor's occupancy record and a fleet chip's derived state.

:class:`Hypervisor` keeps ``allocated_cores`` as one incrementally
maintained ``frozenset`` instead of re-unioning every resident's cores
per read. The reference here is the loop that record replaced; after
every step of an arbitrary lifecycle churn — including refused
provisions, failed migrations/resizes that restore the old placement,
health changes and checkpoint restores — the record must equal it. Each
hypervisor of the churn sits in a standalone :class:`FleetChip`, whose
``free`` and ``fragmentation()`` must equal fresh reads after every
step; health changes must not touch them.

:meth:`FleetChip.fragmentation` memoizes until the hypervisor's
``on_change`` hook fires; served end to end through migrations,
evacuations and kills, every sampled value must equal a fresh BFS, with
at most one mask flood fill (``TopologyMapper.free_fragmentation``) per
chip and occupancy change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape
from repro.core.hypervisor import Hypervisor
from repro.core.topology_mapping import TopologyMapper
from repro.core.vnpu import VNpuSpec
from repro.errors import AllocationError, HypervisorError
from repro.serving import (
    DEFAULT_SLO_MIX,
    DefragPolicy,
    FleetScheduler,
    generate_failure_schedule,
    generate_fleet_trace,
)
from repro.serving.fleet import FleetChip
from repro.serving.metrics import fragmentation_ratio
from repro.sim import Simulator

SHAPES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)]
OPS = ("create", "destroy", "kill", "migrate", "migrate_cross", "resize",
       "create_no_memory", "migrate_fails", "resize_fails", "restore",
       "mark_failed", "mark_recovered")
#: Operations that change health only.
HEALTH_OPS = ("mark_failed", "mark_recovered")


def union_of_residents(hypervisor):
    """The union loop the occupancy record replaced (the reference)."""
    cores = set()
    for vnpu in hypervisor.vnpus:
        cores.update(vnpu.physical_cores)
    return cores


def spec(rows, cols, tag="t"):
    return VNpuSpec(f"{tag}-{rows}x{cols}", MeshShape(rows, cols),
                    rows * cols * 8 * MB)


def fail_next_memory_allocation(hypervisor):
    """Make the next ``_provision`` on ``hypervisor`` fail its memory
    step (the restore provision that follows then succeeds)."""
    original = hypervisor._allocate_memory

    def refuse_once(nbytes):
        hypervisor._allocate_memory = original
        raise AllocationError("injected memory exhaustion")

    hypervisor._allocate_memory = refuse_once


def watched_chip(index, hypervisor):
    """A standalone ``FleetChip`` around ``hypervisor`` whose flood
    fills are counted in ``fills``."""
    fleet_chip = FleetChip(index, hypervisor.chip, hypervisor)
    flood_fill = hypervisor.mapper.free_fragmentation
    fleet_chip.fills = 0

    def counting(allocated):
        fleet_chip.fills += 1
        return flood_fill(allocated)

    hypervisor.mapper.free_fragmentation = counting
    return fleet_chip


def apply(op, pick, chips):
    """Run one churn step on the hypervisors of ``chips`` (a restore
    replaces its chip); refused operations are part of the churn."""
    position = pick % len(chips)
    hv = chips[position].hypervisor
    other = chips[(pick + 1) % len(chips)].hypervisor
    vmids = [v.vmid for v in hv.vnpus]
    vmid = vmids[pick % len(vmids)] if vmids else None
    rows, cols = SHAPES[pick % len(SHAPES)]
    try:
        if op == "create":
            hv.create_vnpu(spec(rows, cols))
        elif op == "create_no_memory":
            # Cores map, then the buddy refuses: the provision rolls back.
            # A failed chip refuses before mapping.
            too_big = VNpuSpec("huge", MeshShape(1, 1),
                               hv.buddy.capacity + hv.buddy.min_block)
            with pytest.raises(AllocationError if hv.healthy
                               else HypervisorError):
                hv.create_vnpu(too_big)
        elif op == "restore":
            # The chip wraps the fresh hypervisor before the restore, so
            # its hook sees the restore's provisions.
            fresh = watched_chip(position, Hypervisor(
                Chip(sim_config(16), sim=hv.chip.sim)))
            fresh.hypervisor.restore_state(hv.snapshot_state())
            assert fresh.hypervisor.allocated_cores == hv.allocated_cores
            chips[position] = fresh
        elif op == "mark_failed":
            hv.mark_failed()
        elif op == "mark_recovered":
            hv.mark_recovered()
        elif vmid is None:
            return
        elif op == "destroy":
            hv.destroy_vnpu(vmid)
        elif op == "kill":
            hv.kill_vnpu(vmid)
        elif op == "migrate":
            hv.migrate_vnpu(vmid)
        elif op == "migrate_cross":
            hv.migrate_vnpu(vmid, destination=other)
        elif op == "resize":
            hv.resize_vnpu(vmid, spec(rows, cols))
        elif op == "migrate_fails":
            fail_next_memory_allocation(hv)
            before = hv.vnpu(vmid).physical_cores
            try:
                hv.migrate_vnpu(vmid)
            except AllocationError:
                assert hv.vnpu(vmid).physical_cores == before
            finally:
                hv.__dict__.pop("_allocate_memory", None)
        elif op == "resize_fails":
            fail_next_memory_allocation(hv)
            before = hv.vnpu(vmid).physical_cores
            try:
                hv.resize_vnpu(vmid, spec(rows, cols))
            except AllocationError:
                assert hv.vnpu(vmid).physical_cores == before
            finally:
                hv.__dict__.pop("_allocate_memory", None)
    except (AllocationError, HypervisorError):
        # No placement, or a failed chip refused it: state must still
        # be consistent.
        pass


def assert_record(fleet_chip):
    hypervisor = fleet_chip.hypervisor
    reference = union_of_residents(hypervisor)
    record = hypervisor.allocated_cores
    assert isinstance(record, frozenset)
    assert record == reference
    core_count = hypervisor.chip.core_count
    assert hypervisor.free_core_count() == core_count - len(reference)
    assert hypervisor.core_utilization() == len(reference) / core_count
    assert fleet_chip.free == core_count - len(reference)
    assert fleet_chip.fragmentation().hex() == fragmentation_ratio(
        hypervisor.chip.topology, reference).hex()


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(OPS),
                                st.integers(0, 10_000)),
                      min_size=1, max_size=40))
def test_record_matches_union_loop_under_churn(steps):
    sim = Simulator()
    chips = [watched_chip(index, Hypervisor(Chip(sim_config(16), sim=sim)))
             for index in range(2)]
    for fleet_chip in chips:
        assert_record(fleet_chip)
    for op, pick in steps:
        before = [(fc, fc.free, fc.fills) for fc in chips]
        apply(op, pick, chips)
        for (fc, free, fills), now in zip(before, chips):
            if op in HEALTH_OPS:
                # Health is read live: no hook, so the memo read right
                # before the step is still served without a flood fill.
                assert now is fc and now.free == free
                now.fragmentation()
                assert now.fills == fills
            assert_record(now)


def test_refused_provision_leaves_record_alone():
    hv = Hypervisor(Chip(sim_config(16)))
    hv.create_vnpu(spec(2, 2))
    cores = hv.allocated_cores
    with pytest.raises(AllocationError):
        hv.create_vnpu(VNpuSpec("huge", MeshShape(1, 1),
                                hv.buddy.capacity + hv.buddy.min_block))
    assert hv.allocated_cores is cores


def test_failed_create_on_failed_chip_leaves_record_alone():
    hv = Hypervisor(Chip(sim_config(16)))
    hv.mark_failed()
    with pytest.raises(HypervisorError):
        hv.create_vnpu(spec(2, 2))
    assert hv.allocated_cores == frozenset()


def test_record_is_shared_not_copied():
    hv = Hypervisor(Chip(sim_config(16)))
    vnpu = hv.create_vnpu(spec(2, 2))
    assert hv.allocated_cores is hv.allocated_cores
    # Set algebra on the shared record still yields plain results.
    assert hv.allocated_cores - set(vnpu.physical_cores) == set()


# -- fragmentation memo ------------------------------------------------------

def test_fragmentation_memo_matches_fresh_bfs(monkeypatch):
    """Serve a churny faulted, defragmenting, elastic trace: every
    sampled chip's memoized fragmentation equals a fresh BFS, and the
    flood fill runs at most once per chip and occupancy change (counted
    as calls of each hypervisor's ``on_change`` hook)."""
    chips = 4
    trace = generate_fleet_trace(
        1, 120, chips=chips, max_cores=16,
        mean_interarrival_cycles=20_000_000, arrival_process="bursty",
        slo_mix=DEFAULT_SLO_MIX, fragmentation_heavy=True)
    schedule = generate_failure_schedule(
        1, chips=chips, horizon_cycles=trace[-1].arrival_cycle + 1,
        failures=6, mean_outage_cycles=100_000_000)
    fleet = FleetScheduler.homogeneous(
        chips, cores=16, policy="priority", elastic="shrink_then_preempt",
        defrag=DefragPolicy(0.2), faults=schedule,
        evacuation="shrink_to_fit")

    calls = 0
    flood_fill = TopologyMapper.free_fragmentation

    def counting(mapper, allocated):
        nonlocal calls
        calls += 1
        return flood_fill(mapper, allocated)

    monkeypatch.setattr(TopologyMapper, "free_fragmentation", counting)
    changes = 0

    def counted(hook):
        def on_change():
            nonlocal changes
            changes += 1
            hook()
        return on_change

    for fc in fleet.chips:
        fc.hypervisor.on_change = counted(fc.hypervisor.on_change)
    samples = 0
    original_sample = fleet._sample

    def spy():
        nonlocal samples
        original_sample()
        samples += 1
        for fc in fleet.chips:
            assert fc.fragmentation() == fragmentation_ratio(
                fc.chip.topology, fc.hypervisor.allocated_cores)

    fleet._sample = spy
    metrics = fleet.serve(trace)

    # The migrate, evacuate and kill paths all ran.
    assert metrics.migrations > 0
    assert metrics.evacuations > 0
    assert metrics.killed_sessions > 0
    assert calls <= changes + chips
    assert calls < samples * chips  # the memo actually absorbed reads
