"""Exact-first best-fit ranking against the eager full sort in
``placement_oracle``: same chips in the same order, same admitting chip,
fewer probes."""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape, Topology
from repro.core.topology_mapping import TopologyMapper
from repro.core.vnpu import VNpuSpec
from repro.errors import AllocationError
from repro.serving import BestFitPlacement, FleetScheduler, TenantSession
from repro.serving.fleet import PendingSession

from placement_oracle import ReferenceBestFit, reference_best_fit_rank

RESIDENT_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]


def small_memory_config():
    config = sim_config(16)
    return replace(config, name="sim16-32mb",
                   memory=replace(config.memory, capacity_bytes=32 * MB))


def without_one_link(topology: Topology, rng: random.Random) -> Topology:
    """The chip mesh minus one link: not ``Topology.mesh2d`` any more."""
    edges = topology.edges
    edges.pop(rng.randrange(len(edges)))
    return Topology(topology.nodes, edges, coords=topology.coords,
                    node_attrs=topology.node_attrs, name="degraded")


def build_fleet(seed: int, placement) -> FleetScheduler:
    """A random fleet: 16- and 36-core meshes, a chip too small in memory
    for most sessions, one chip whose mapper sees a non-mesh topology,
    random residents (some departed again) and some chips in an outage.
    Equal seeds build equal fleets."""
    rng = random.Random(seed)
    configs = [rng.choice((sim_config(16), sim_config(36)))
               for _ in range(rng.randint(2, 5))]
    configs += [small_memory_config(), sim_config(16)]
    rng.shuffle(configs)
    fleet = FleetScheduler(configs, placement=placement)
    odd = fleet.chips[rng.randrange(len(fleet.chips))].hypervisor
    odd.mapper = TopologyMapper(without_one_link(odd.chip.topology, rng))
    for fleet_chip in fleet.chips:
        hypervisor = fleet_chip.hypervisor
        for number in range(rng.randint(0, 9)):
            shape = MeshShape(*rng.choice(RESIDENT_SHAPES))
            try:
                hypervisor.create_vnpu(VNpuSpec(f"r{number}", shape, MB))
            except AllocationError:
                pass
        for vnpu in hypervisor.vnpus:
            if rng.random() < 0.3:
                hypervisor.destroy_vnpu(vnpu.vmid)
        if rng.random() < 0.2:
            hypervisor.mark_failed()
    fleet.begin_stream()
    return fleet


def request(rows: int, cols: int) -> TenantSession:
    return TenantSession(
        session_id=1, tenant="probe", arrival_cycle=0, rows=rows, cols=cols,
        memory_bytes=rows * cols * 8 * MB, model="alexnet", inferences=1)


def admitted_chip(fleet: FleetScheduler, session: TenantSession):
    entry = PendingSession(session)
    fleet._pending.add(entry)
    fleet._place(entry)
    return next((chip for (chip, _), active in fleet._active.items()
                 if active.session is session), None)


SHAPE = st.tuples(st.integers(1, 4), st.integers(1, 4))


class TestExactFirstRanking:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=SHAPE)
    def test_lazy_ranking_equals_eager_sort(self, seed, shape):
        fleet = build_fleet(seed, "best_fit")
        session = request(*shape)
        lazy = [c.index for c in BestFitPlacement().rank(fleet.chips,
                                                         session)]
        eager = [c.index for c in reference_best_fit_rank(fleet.chips,
                                                          session)]
        assert lazy == eager

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=SHAPE)
    def test_place_admits_on_the_same_chip(self, seed, shape):
        session = request(*shape)
        lazy = build_fleet(seed, "best_fit")
        eager = build_fleet(seed, ReferenceBestFit())
        assert admitted_chip(lazy, session) == admitted_chip(eager, session)

    def test_exact_chip_is_yielded_without_probing(self):
        fleet = FleetScheduler([sim_config(36)] * 4, placement="best_fit")
        ranking = BestFitPlacement().rank(fleet.chips, request(2, 3))
        assert next(iter(ranking)).index == 0
        assert fleet.mapper_stats()["misses"] == 0
        assert fleet.mapper_stats()["hits"] == 0
