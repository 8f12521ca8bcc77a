"""The vNPU hypervisor: lifecycle + meta-table management (§5.2).

The hypervisor is the only agent allowed to touch hyper-mode state. For
each ``create_vnpu`` it:

1. allocates physical cores with the configured topology-mapping strategy
   (resolved by name through the :mod:`repro.core.strategies` registry;
   the built-ins are exact / similar / straightforward / fragmented);
2. builds the routing table — the compressed *shaped* form when the
   mapping landed on a contiguous 2D-mesh block, per-entry standard form
   otherwise — and installs it through the hyper-mode controller (Fig 11
   configuration cost is recorded on the vNPU);
3. allocates guest memory from the buddy system and maps each buddy block
   as **one RTT entry** (sorted by guest VA), building the vChunk
   translator;
4. installs the meta tables into each owned core's scratchpad meta-zone;
5. wires the NoC vRouter in confined or DOR mode per the spec.

``destroy_vnpu`` releases cores, coalesces memory back into the buddy
allocator and removes the routing table; ``kill_vnpu`` is its
fail-stop sibling (kerf's ``kill``): the same teardown, but the
resident guest state is *abandoned*, not drained — the caller gets the
lost byte count back to account the discarded work. The hypervisor
also carries a health flag for fault injection: ``mark_failed`` puts
the chip in degraded mode, where ``create_vnpu`` (and migrating *onto*
the chip) fail fast with :class:`~repro.errors.HypervisorError` while
drain operations — migrating *off*, resizing a resident down,
destroy/kill — stay allowed. ``migrate_vnpu`` is live
migration for defragmentation: the tenant is re-placed (on this chip or
another chip's hypervisor), its guest memory re-mapped onto the
destination buddy allocator, routing table and meta-zones rebuilt, and
the data-movement + reconfiguration cost returned so a serving loop can
charge it to the session's timeline. ``resize_vnpu`` is the elastic
sibling: grow or shrink a live vNPU in place when the adjacent cores
and memory allow (shrinks are carved out of the tenant's own block;
the freed remainder coalesces), falling back to the same re-place
mechanics as in-place migration when they don't, with the charge priced
through :func:`repro.cost.charges.resize_cycles`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.arch.chip import Chip
from repro.core.routing_table import (
    RoutingTable,
    ShapedRoutingTable,
    StandardRoutingTable,
)
from repro.core.strategies import MappingStrategy, resolve_strategy
from repro.core.topology_mapping import (
    MappingResult,
    ShapeMemos,
    TopologyMapper,
)
from repro.core.vchunk import AccessCounter, RangeTranslator, RTT_ENTRY_BITS
from repro.core.vnpu import VirtualNPU, VNpuSpec
from repro.core.vrouter import NocVRouter
from repro.errors import AllocationError, HypervisorError
from repro.mem.buddy import Block, BuddyAllocator

#: Guest virtual addresses start here (a nonzero base catches null derefs).
GUEST_VA_BASE = 0x1_0000


def guest_capacity_bytes(config) -> int:
    """Largest guest allocation a chip built from ``config`` can map.

    The static counterpart of :attr:`Hypervisor.guest_memory_capacity`
    (the buddy pool size), computable without building the chip — what
    admission-style validation against a *planned* fleet uses.
    """
    return _largest_pow2_at_most(config.memory.capacity_bytes)


def _largest_pow2_at_most(value: int) -> int:
    return 1 << (value.bit_length() - 1)


class Hypervisor:
    """Manages all virtual NPUs of one chip.

    Occupancy is one record, replaced only in ``_provision`` (after the
    vNPU is committed) and ``_teardown``: the immutable ``frozenset``
    behind ``allocated_cores`` plus an ``occupancy_version`` bumped on
    every change. Reads are O(1). Derived state keys on it: the fleet's
    fragmentation memo on the version, the mapper's free-set memo on
    the frozenset itself. State that spans several chips cannot poll
    every version cheaply, so ``on_change`` (when set) is called after
    every occupancy or health change.
    """

    def __init__(self, chip: Chip, strategy: str = "similar",
                 rtt_tlb_entries: int = 4,
                 min_block: int = 1 << 20,
                 memos: ShapeMemos | None = None) -> None:
        resolve_strategy(strategy)  # fail fast on unknown names
        self.chip = chip
        self.strategy = strategy
        # ``memos``: the mapper memos of an equal chip type to share
        # (see TopologyMapper); None keeps them private.
        self.mapper = TopologyMapper(chip.topology, memos=memos)
        self.rtt_tlb_entries = rtt_tlb_entries
        capacity = _largest_pow2_at_most(chip.config.memory.capacity_bytes)
        self.buddy = BuddyAllocator(capacity=capacity, min_block=min_block)
        self._vnpus: dict[int, VirtualNPU] = {}
        self._allocated: frozenset[int] = frozenset()
        #: Bumped whenever ``allocated_cores`` changes.
        self.occupancy_version = 0
        #: Called with no arguments after every occupancy or health
        #: change (the fleet refreshes its per-chip gauges).
        self.on_change: Callable[[], None] | None = None
        self._next_vmid = 1
        self._healthy = True

    # -- queries ----------------------------------------------------------
    @property
    def vnpus(self) -> list[VirtualNPU]:
        return [self._vnpus[vmid] for vmid in sorted(self._vnpus)]

    def vnpu(self, vmid: int) -> VirtualNPU:
        try:
            return self._vnpus[vmid]
        except KeyError:
            raise HypervisorError(f"no vNPU with VMID {vmid}") from None

    @property
    def allocated_cores(self) -> frozenset[int]:
        """Cores held by any resident: the O(1) occupancy record."""
        return self._allocated

    def core_utilization(self) -> float:
        return len(self._allocated) / self.chip.core_count

    def free_core_count(self) -> int:
        return self.chip.core_count - len(self._allocated)

    @property
    def healthy(self) -> bool:
        """False while the chip is inside an injected fault outage."""
        return self._healthy

    @property
    def guest_memory_capacity(self) -> int:
        """Largest guest allocation this chip can ever satisfy (the buddy
        pool size) — what admission validates ``memory_bytes`` against."""
        return self.buddy.capacity

    # -- health lifecycle --------------------------------------------------
    def mark_failed(self) -> None:
        """Enter degraded mode: new placements fail fast, drains allowed."""
        self._set_healthy(False)

    def mark_recovered(self) -> None:
        self._set_healthy(True)

    def _set_healthy(self, healthy: bool) -> None:
        self._healthy = healthy
        if self.on_change is not None:
            self.on_change()

    def _require_healthy(self, operation: str) -> None:
        if not self._healthy:
            raise HypervisorError(
                f"chip {self.chip.topology.name!r} is failed; "
                f"cannot {operation}")

    # -- checkpoint --------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Logical chip state as a picklable dict.

        Captures what ``restore_state`` needs to rebuild an equivalent
        hypervisor on a fresh chip: health, the vmid counter, and each
        resident vNPU's (vmid, spec, mapping) triple. Buddy block
        *addresses* are intentionally not part of the contract — a
        restore re-allocates from a fresh pool, so guests hold the same
        sizes at possibly different physical addresses.
        """
        return {
            "healthy": self._healthy,
            "next_vmid": self._next_vmid,
            "vnpus": [(v.vmid, v.spec, v.mapping)
                      for v in self.vnpus],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild residents from a ``snapshot_state`` dict.

        Must run on a freshly constructed hypervisor (no residents);
        vNPUs are re-provisioned at their pinned vmids with their
        recorded mappings, then health and the vmid counter are
        restored — so a later ``snapshot_state`` round-trips equal.
        """
        if self._vnpus:
            raise HypervisorError(
                "restore_state needs a fresh hypervisor (has "
                f"{len(self._vnpus)} resident vNPUs)")
        for vmid, spec, mapping in state["vnpus"]:
            self._provision(spec, mapping, vmid=vmid)
        self._next_vmid = state["next_vmid"]
        self._set_healthy(state["healthy"])

    # -- lifecycle -----------------------------------------------------------
    def create_vnpu(self, spec: VNpuSpec,
                    strategy: str | None = None) -> VirtualNPU:
        """Allocate and configure a virtual NPU for ``spec``."""
        self._require_healthy(f"create vNPU {spec.name!r}")
        strategy = strategy or self.strategy
        mapping = self._map_cores(spec, resolve_strategy(strategy))
        return self._provision(spec, mapping)

    def destroy_vnpu(self, vmid: int) -> None:
        self._teardown(self.vnpu(vmid))

    def kill_vnpu(self, vmid: int) -> int:
        """Force-terminate a vNPU: immediate teardown, state abandoned.

        The fail-stop path (kerf's ``kill``, vs ``destroy_vnpu`` =
        ``unload``): no drain, no data movement — the resident guest
        memory is simply discarded. Returns the abandoned byte count so
        the caller can account the lost work. Fails fast
        (:class:`~repro.errors.HypervisorError`) on an unknown VMID,
        and is allowed on a failed chip (it is *the* failed-chip path).
        """
        vnpu = self.vnpu(vmid)
        lost_bytes = vnpu.memory_bytes
        self._teardown(vnpu)
        return lost_bytes

    def migrate_vnpu(self, vmid: int,
                     destination: "Hypervisor | None" = None,
                     strategy: str | None = None) -> tuple[VirtualNPU, int]:
        """Live-migrate a vNPU onto ``destination`` (``None``/self = defrag
        in place on this chip).

        The tenant is re-placed with ``strategy`` (default: the
        destination's configured strategy), its guest memory re-mapped
        onto the destination's buddy allocator, and routing table +
        meta-zones rebuilt there. Returns the new :class:`VirtualNPU`
        (same VMID for in-place migration, a fresh destination VMID for
        cross-chip moves) and the migration cost in cycles: draining and
        refilling the resident memory at the slower of the two memory
        systems, plus the Fig-11 routing-table reconfiguration already
        charged as the new vNPU's ``setup_cycles``.

        A failed placement raises :class:`~repro.errors.AllocationError`
        (or :class:`~repro.errors.TopologyLockIn`) and leaves the source
        vNPU untouched.
        """
        destination = destination if destination is not None else self
        # Migrating *off* a failed chip is the evacuation drain and stays
        # allowed; migrating *onto* one fails fast before any teardown.
        destination._require_healthy(f"migrate vNPU {vmid} onto it")
        vnpu = self.vnpu(vmid)
        strat = resolve_strategy(strategy or destination.strategy)
        in_place = destination is self
        if in_place:
            # The tenant's own cores count as free: in-place migration
            # exists to *compact* the chip, and the mapper may re-use any
            # of them.
            allocated = self.allocated_cores - set(vnpu.physical_cores)
        else:
            allocated = destination.allocated_cores
        mapping = strat.map(destination.mapper, vnpu.spec, allocated)
        resident_bytes = vnpu.memory_bytes

        if in_place:
            migrated = self._reprovision(vnpu, vnpu.spec, mapping)
        else:
            migrated = destination._provision(vnpu.spec, mapping)
            self._teardown(vnpu)

        cycles = self._migration_cycles(resident_bytes, destination, migrated)
        return migrated, cycles

    def resize_vnpu(self, vmid: int, new_request: VNpuSpec,
                    strategy: str | None = None) -> tuple[VirtualNPU, int]:
        """Grow or shrink a live vNPU to ``new_request``, keeping its VMID.

        The resize is *in place* when adjacent cores and memory allow —
        a shrink is first attempted strictly within the tenant's own
        cores (the freed remainder coalesces back into the buddy
        allocator), and a grow that lands on a superset of the current
        cores keeps the resident data where it is, so only the Fig-11
        reconfiguration is charged. When the adjacent cores do not
        allow it, the resize falls back to the same re-place mechanics
        as an in-place :meth:`migrate_vnpu` and the retained resident
        memory (``min(old, new)`` bytes) is additionally copied, priced
        through :func:`repro.cost.charges.resize_cycles`.

        Returns the resized :class:`VirtualNPU` (same VMID) and the
        resize charge in cycles. A failed placement or memory grow
        raises :class:`~repro.errors.AllocationError` (or
        :class:`~repro.errors.TopologyLockIn`) and leaves the source
        vNPU untouched.
        """
        vnpu = self.vnpu(vmid)
        strat = resolve_strategy(strategy or self.strategy)
        own = set(vnpu.physical_cores)
        mapping: MappingResult | None = None
        if new_request.core_count <= len(own):
            # Shrink: prefer carving the smaller mesh out of the
            # tenant's own block — guaranteed in place, data stays put.
            outside_own = set(self.chip.topology.nodes) - own
            try:
                mapping = strat.map(self.mapper, new_request, outside_own)
            except AllocationError:
                mapping = None
        if mapping is None:
            # Grow (or a shrink whose own block cannot host the new
            # shape): the tenant's cores count as free, like in-place
            # migration — the mapper may reuse any of them.
            mapping = strat.map(self.mapper, new_request,
                                self.allocated_cores - own)
        new_cores = set(mapping.physical_cores)
        in_place = new_cores <= own or new_cores >= own
        retained = min(vnpu.memory_bytes, new_request.memory_bytes)

        resized = self._reprovision(vnpu, new_request, mapping)
        cycles = self._resize_cycles(retained, resized,
                                     relocated=not in_place)
        return resized, cycles

    # -- internals ---------------------------------------------------------------
    def _provision(self, spec: VNpuSpec, mapping: MappingResult,
                   vmid: int | None = None) -> VirtualNPU:
        """Configure a vNPU on an already-computed core mapping."""
        fresh_vmid = vmid is None
        if fresh_vmid:
            vmid = self._next_vmid

        routing_table = self._build_routing_table(vmid, mapping)
        setup_cycles = self.chip.controller.install_routing_table(
            routing_table, hyper_mode=True,
        )
        blocks: list[Block] = []
        try:
            blocks = self._allocate_memory(spec.memory_bytes)
            translator = self._build_translator(blocks)
            # Meta installs can also exhaust a core's meta zone; roll back
            # memory *and* the routing table on any allocation failure so
            # a refused create leaves no trace (the serving loop keeps
            # admitting on this hypervisor afterwards).
            self._install_meta_tables(mapping, routing_table, translator)
        except AllocationError:
            for block in blocks:
                self.buddy.free(block.address)
            for p_core in mapping.physical_cores:
                self.chip.core(p_core).scratchpad.reset_meta_zone(
                    hyper_mode=True)
            self.chip.controller.remove_routing_table(vmid, hyper_mode=True)
            raise
        counter = None
        if spec.memory_cap_bytes_per_window is not None:
            counter = AccessCounter(
                window_cycles=spec.memory_cap_window_cycles,
                max_bytes_per_window=spec.memory_cap_bytes_per_window,
            )

        mode = "confined" if spec.noc_isolation and mapping.connected else "dor"
        vrouter = NocVRouter(self.chip.topology, routing_table, mode=mode)

        vnpu = VirtualNPU(
            vmid=vmid,
            spec=spec,
            mapping=mapping,
            routing_table=routing_table,
            noc_vrouter=vrouter,
            translator=translator,
            memory_blocks=blocks,
            access_counter=counter,
            setup_cycles=setup_cycles,
        )
        self._vnpus[vmid] = vnpu
        # Update the occupancy record only after the provision is fully
        # committed — failures above leave it untouched.
        self._set_allocated(self._allocated.union(mapping.physical_cores))
        if fresh_vmid:
            self._next_vmid += 1
        return vnpu

    def _reprovision(self, vnpu: VirtualNPU, spec: VNpuSpec,
                     mapping: MappingResult) -> VirtualNPU:
        """Re-place ``vnpu`` on this chip as ``spec`` on ``mapping``,
        keeping its VMID; on failure the original vNPU is back as it was.
        """
        self._teardown(vnpu)
        try:
            return self._provision(spec, mapping, vmid=vnpu.vmid)
        except AllocationError:
            # Restore the original placement (same cores, same block
            # sizes against the just-freed space: cannot fail).
            self._provision(vnpu.spec, vnpu.mapping, vmid=vnpu.vmid)
            raise

    def _teardown(self, vnpu: VirtualNPU) -> None:
        """Release every resource ``vnpu`` holds on this chip."""
        for block in vnpu.memory_blocks:
            self.buddy.free(block.address)
        for p_core in vnpu.physical_cores:
            spad = self.chip.core(p_core).scratchpad
            spad.reset_meta_zone(hyper_mode=True)
            spad.reset_weight_zone()
        self.chip.controller.remove_routing_table(vnpu.vmid, hyper_mode=True)
        del self._vnpus[vnpu.vmid]
        self._set_allocated(self._allocated.difference(vnpu.physical_cores))

    def _set_allocated(self, cores: frozenset[int]) -> None:
        self._allocated = cores
        self.occupancy_version += 1
        if self.on_change is not None:
            self.on_change()

    def _migration_cycles(self, resident_bytes: int,
                          destination: "Hypervisor",
                          migrated: VirtualNPU) -> int:
        """Data movement at the slower memory system + Fig-11 reconfig.

        Delegates to the unified cost engine's shared charge formula so
        the hypervisor, the serving schedulers and the benchmarks price
        migrations identically. (Imported lazily: ``repro.cost`` sits
        above the core layer.)
        """
        from repro.cost.charges import migration_cycles
        return migration_cycles(self.chip.config, destination.chip.config,
                                resident_bytes, migrated.setup_cycles)

    def _resize_cycles(self, retained_bytes: int, resized: VirtualNPU,
                       relocated: bool) -> int:
        """Elastic grow/shrink charge through the shared cost engine."""
        from repro.cost.charges import resize_cycles
        return resize_cycles(self.chip.config, retained_bytes,
                             resized.setup_cycles, relocated)

    def _map_cores(self, spec: VNpuSpec,
                   strategy: MappingStrategy) -> MappingResult:
        return strategy.map(self.mapper, spec, self.allocated_cores)

    def _build_routing_table(self, vmid: int,
                             mapping: MappingResult) -> RoutingTable:
        shaped = self._try_shaped_table(vmid, mapping)
        if shaped is not None:
            return shaped
        return StandardRoutingTable(vmid, dict(mapping.vmap))

    def _try_shaped_table(self, vmid: int,
                          mapping: MappingResult) -> ShapedRoutingTable | None:
        """Use the 1-entry shaped form when the block is a contiguous mesh."""
        shape = self.mapper.block_shape(mapping.physical_cores)
        if shape is None:
            return None
        v_cores = sorted(mapping.vmap)
        v_base = v_cores[0]
        if v_cores != list(range(v_base, v_base + len(v_cores))):
            return None
        p_base = min(mapping.physical_cores)
        chip_cols = self.chip.config.mesh_cols
        table = ShapedRoutingTable(vmid, shape, p_base, chip_cols,
                                   v_base=v_base)
        # The shaped form is only valid if it reproduces the mapping.
        for v_core, p_core in mapping.vmap.items():
            if table.translate(v_core) != p_core:
                return None
        return table

    def _allocate_memory(self, nbytes: int) -> list[Block]:
        """Greedy power-of-two decomposition; each block -> one RTT entry."""
        blocks: list[Block] = []
        remaining = nbytes
        try:
            while remaining > 0:
                chunk = min(_largest_pow2_at_most(max(remaining,
                                                      self.buddy.min_block)),
                            self.buddy.capacity)
                while chunk >= self.buddy.min_block:
                    try:
                        blocks.append(self.buddy.alloc(chunk))
                        break
                    except AllocationError:
                        chunk //= 2
                else:
                    raise AllocationError(
                        f"cannot satisfy {nbytes} bytes of guest memory"
                    )
                remaining -= blocks[-1].size
        except AllocationError:
            for block in blocks:
                self.buddy.free(block.address)
            raise
        return blocks

    def _build_translator(self, blocks: list[Block]) -> RangeTranslator:
        translator = RangeTranslator(tlb_entries=self.rtt_tlb_entries)
        guest_va = GUEST_VA_BASE
        # §5.2: the hypervisor sorts RTT entries by virtual address —
        # sequential guest VAs over blocks sorted by size keep big tensors
        # in few entries.
        for block in sorted(blocks, key=lambda b: b.size, reverse=True):
            translator.map_range(guest_va, block.address, block.size)
            guest_va += block.size
        return translator

    def _install_meta_tables(self, mapping: MappingResult,
                             table: RoutingTable,
                             translator: RangeTranslator) -> None:
        rt_bytes = max(1, table.sram_bits // 8)
        rtt_bytes = max(1, translator.entry_count * RTT_ENTRY_BITS // 8)
        for p_core in mapping.physical_cores:
            spad = self.chip.core(p_core).scratchpad
            spad.install_meta(rt_bytes, label="routing-table", hyper_mode=True)
            spad.install_meta(rtt_bytes, label="rtt", hyper_mode=True)
