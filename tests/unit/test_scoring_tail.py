"""The mapper's scoring tail and the fleet's per-chip gauges against
their references.

- The one-pass 2-opt refine (int tables in sixteenths) against the
  oracle's full-recompute refine: same refined mapping, same objective,
  same ``objective_evaluations``.
- The mask lower bound against ``bijection_lower_bound`` on the
  candidate's subtopology, bit for bit.
- The mask flood fill behind ``FleetChip.fragmentation`` against
  ``fragmentation_ratio``, and the per-chip gauges ``_sample`` reads
  against fresh per-chip reads through admits, departures, faults,
  migrations and a snapshot/restore.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.topology import Topology
from repro.core.ged import EditCosts, bijection_lower_bound
from repro.core.topology_mapping import TopologyMapper
from repro.serving import (
    DEFAULT_SLO_MIX,
    DefragPolicy,
    FleetScheduler,
    generate_failure_schedule,
    generate_fleet_trace,
)
from repro.serving.metrics import fragmentation_ratio

from cost_strategies import edit_costs
from mapping_oracle import ReferenceMapper, all_pairs_hops
from test_bitboards import cut_mesh
from test_mapping_fastpath import tagged_mesh


#: Every chip the scoring tail must price: plain meshes (convex
#: candidates reuse the chip hop table), a mesh with a cut link (no
#: reuse) and a tagged mesh.
CHIPS = {
    "mesh4": Topology.mesh2d(4, 4),
    "mesh6": Topology.mesh2d(6, 6),
    "cut4": cut_mesh(4, 4),
    "tagged4": tagged_mesh(4, 4),
}

#: Request shapes, each at most 9 cores.
SHAPES = [(1, 2), (1, 3), (2, 2), (1, 5), (2, 3), (2, 4), (3, 3)]

#: Prices with every table in use: tag prices for tagged and untagged
#: nodes, critical request edges, fractional flat prices.
TABLE_COSTS = EditCosts(
    tag_mismatch={"mem": 0.1875, "": 0.0625},
    edge_delete_at={(0, 1): 6.0, (1, 2): 0.0625, (2, 5): 2.5},
    edge_delete=0.75,
    edge_insert=0.3125,
)


def connected_nodes(chip, size, rng):
    """A random connected ``size``-subset grown one frontier core at a
    time (usually not convex)."""
    nodes = [rng.choice(chip.nodes)]
    while len(nodes) < size:
        frontier = sorted({nbr for node in nodes
                           for nbr in chip.neighbors(node)} - set(nodes))
        nodes.append(rng.choice(frontier))
    return sorted(nodes)


def rectangle_nodes(chip, rows, cols, rng):
    """A random ``rows`` x ``cols`` coordinate block (convex), or None
    when the chip is too small for one."""
    height = max(r for r, _ in chip.coords.values()) + 1
    width = max(c for _, c in chip.coords.values()) + 1
    if rows > height or cols > width:
        return None
    r0 = rng.randrange(height - rows + 1)
    c0 = rng.randrange(width - cols + 1)
    return sorted(r * width + c for r in range(r0, r0 + rows)
                  for c in range(c0, c0 + cols))


def request_for(shape, tagged):
    request = Topology.mesh2d(*shape)
    if tagged:
        request.node_attrs.update({0: "mem", request.node_count - 1: "mem"})
    return request


class TestOnePassRefine:
    @settings(max_examples=80, deadline=None)
    @given(chip_name=st.sampled_from(sorted(CHIPS)),
           shape=st.sampled_from(SHAPES), convex=st.booleans(),
           tables=st.booleans(), seed=st.integers(0, 10**6))
    def test_matches_full_recompute_refine(self, chip_name, shape, convex,
                                           tables, seed):
        """From a random seed permutation the one-pass refine returns the
        oracle's objective and mapping, with the oracle's evaluation
        count."""
        rng = random.Random(seed)
        chip = CHIPS[chip_name]
        costs = TABLE_COSTS if tables else EditCosts()
        request = request_for(shape, tagged=tables)
        nodes = rectangle_nodes(chip, *shape, rng) if convex else None
        if nodes is None:
            nodes = connected_nodes(chip, request.node_count, rng)
        candidate = chip.subtopology(nodes)
        rng.shuffle(nodes)
        start = dict(zip(request.nodes, nodes))
        fast = TopologyMapper(chip, costs=costs)
        reference = ReferenceMapper(chip, costs=costs)
        hop = all_pairs_hops(candidate)
        assert fast._candidate_hops(candidate) == hop

        got = fast._refine_delta(
            fast._refine_tables(request, candidate, hop), start)
        want = reference._stretch_aware_refine(request, candidate, start,
                                               hop)
        assert got == want
        assert list(got[1]) == list(start)  # keys in the seed's order

        # Both count the start objective and every trial swap. The
        # one-pass refine also stops after a pass that reaches objective
        # 0; the oracle then runs one more pass, which cannot improve.
        n = request.node_count
        pairs = n * (n - 1) // 2
        passes = (fast.objective_evaluations - 1) // pairs
        first = ReferenceMapper(chip, costs=costs)._stretch_objective(
            request, candidate, start, hop)
        skipped = pairs if want[0] == 0 < first and passes < 6 else 0
        assert (fast.objective_evaluations
                == reference.objective_evaluations - skipped)

    def test_polish_shares_one_table_build(self, monkeypatch):
        """A polish miss builds its tables once for all of its seeds."""
        chip = Topology.mesh2d(4, 4)
        fast = TopologyMapper(chip)
        builds = []
        original = fast._refine_tables

        def counting(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(fast, "_refine_tables", counting)
        request = Topology.mesh2d(2, 3)
        candidate = chip.subtopology([0, 1, 2, 4, 5, 9])
        _, seed = fast._bijection(request, candidate)
        fast._polish(request, candidate, seed)
        assert len(builds) == 1


class TestMaskBound:
    @settings(max_examples=120, deadline=None)
    @given(chip_name=st.sampled_from(sorted(CHIPS)),
           shape=st.sampled_from(SHAPES), tagged=st.booleans(),
           costs=edit_costs(), seed=st.integers(0, 10**6))
    def test_equals_bound_on_subtopology(self, chip_name, shape, tagged,
                                         costs, seed):
        rng = random.Random(seed)
        chip = CHIPS[chip_name]
        request = request_for(shape, tagged)
        nodes = connected_nodes(chip, request.node_count, rng)
        mapper = TopologyMapper(chip, costs=costs)
        bound = mapper._mask_bound(mapper._profile(request),
                                   mapper.memos.mask_of(nodes))
        want = bijection_lower_bound(request, chip.subtopology(nodes), costs)
        assert bound.hex() == want.hex()

    def test_irregular_requests(self):
        """Rings and a star: degree sequences a mesh never has."""
        star = Topology([0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
        rng = random.Random(5)
        for chip in CHIPS.values():
            mapper = TopologyMapper(chip, costs=TABLE_COSTS)
            for request in (Topology.ring(5), Topology.ring(6), star):
                profile = mapper._profile(request)
                for _ in range(20):
                    nodes = connected_nodes(chip, request.node_count, rng)
                    assert (mapper._mask_bound(
                        profile, mapper.memos.mask_of(nodes)).hex()
                        == bijection_lower_bound(
                            request, chip.subtopology(nodes),
                            TABLE_COSTS).hex())

    def test_profiles_are_bounded_by_memo_size(self):
        mapper = TopologyMapper(Topology.mesh2d(4, 4), memo_size=2)
        for shape in SHAPES:
            mapper._profile(Topology.mesh2d(*shape))
        assert len(mapper.memos.requests) == 2
        request = Topology.mesh2d(3, 3)
        assert mapper._profile(request) is mapper._profile(request)
        assert (mapper._profile(request).certificate
                == request.wl_certificate())


class TestFragmentationGauges:
    @settings(max_examples=60, deadline=None)
    @given(chip_name=st.sampled_from(sorted(CHIPS)),
           taken=st.integers(0, 36), seed=st.integers(0, 10**6))
    def test_flood_fill_equals_fragmentation_ratio(self, chip_name, taken,
                                                   seed):
        chip = CHIPS[chip_name]
        rng = random.Random(seed)
        allocated = frozenset(rng.sample(chip.nodes,
                                         min(taken, chip.node_count)))
        mapper = TopologyMapper(chip)
        ratio = mapper.free_fragmentation(allocated)
        assert ratio.hex() == fragmentation_ratio(chip, allocated).hex()
        assert mapper.free_rebuilds == 0  # the free-mask LRU is untouched

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**4), pause_at=st.integers(1, 60),
           failures=st.integers(0, 5))
    def test_gauges_equal_fresh_reads(self, seed, pause_at, failures):
        """Through admits, departures, faults, defrag migrations,
        elastic resizes and a restore, every gauge ``_sample`` reads
        equals a fresh per-chip read."""
        chips = 3
        trace = generate_fleet_trace(
            seed, 50, chips=chips, max_cores=16,
            mean_interarrival_cycles=20_000_000, arrival_process="bursty",
            slo_mix=DEFAULT_SLO_MIX, fragmentation_heavy=True)
        faults = generate_failure_schedule(
            seed, chips=chips, horizon_cycles=trace[-1].arrival_cycle + 1,
            failures=failures, mean_outage_cycles=100_000_000)
        kwargs = dict(policy="priority", elastic="shrink_then_preempt",
                      defrag=DefragPolicy(0.2), faults=faults)
        samples = []

        def check(fleet, sampled):
            for fc in fleet.chips:
                hypervisor = fc.hypervisor
                index = fc.index
                assert (fleet._chip_free[index]
                        == hypervisor.free_core_count())
                assert (fleet._chip_utilization[index]
                        == hypervisor.core_utilization())
                assert fleet._free_by_chip[index] == (
                    hypervisor.free_core_count() if fc.healthy else 0)
            if sampled:
                assert fleet._chip_fragmentation == [
                    fragmentation_ratio(fc.chip.topology,
                                        fc.hypervisor.allocated_cores)
                    for fc in fleet.chips]

        def spied(fleet):
            original = fleet._sample

            def sample():
                original()
                samples.append(fleet.sim.now)
                check(fleet, sampled=True)

            fleet._sample = sample
            return fleet

        fleet = spied(FleetScheduler.homogeneous(chips, cores=16, **kwargs))
        fleet.submit(trace)
        fleet.run(until=trace[-1].arrival_cycle * pause_at // 100)
        check(fleet, sampled=False)
        restored = FleetScheduler.restore(fleet.snapshot(), **kwargs)
        check(restored, sampled=False)
        spied(restored).run()
        assert samples
