"""Mapping fast path: equivalence with the reference mapper in
``mapping_oracle``, pruning accounting, the free-set memo and the perf
harness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape, Topology
from repro.core.ged import (
    EditCosts,
    best_bijection,
    bijection_lower_bound,
    induced_edit_cost,
)
from repro.core.hypervisor import Hypervisor
from repro.core.topology_mapping import TopologyMapper
from repro.core.vnpu import VNpuSpec
from repro.errors import AllocationError, TopologyError

from cost_strategies import edit_costs
from mapping_oracle import ReferenceMapper, all_pairs_hops


REQUEST_SHAPES = [(1, 2), (2, 2), (2, 3), (3, 3), (1, 4), (3, 4)]


def make_pair(rows=5, cols=5):
    chip = Topology.mesh2d(rows, cols)
    fast = TopologyMapper(chip)
    reference = ReferenceMapper(chip)
    return chip, fast, reference


def occupancy(chip: Topology, pattern: str, rng: random.Random) -> set[int]:
    """Exact / stretched / fragmented allocation patterns."""
    n = chip.node_count
    if pattern == "exact":
        # Empty or one compact corner block: exact placements survive.
        return set() if rng.random() < 0.5 else {0, 1}
    if pattern == "stretched":
        # Scattered singles: connected free set, but warped.
        return set(rng.sample(chip.nodes, n // 3))
    # Fragmented: a cut band plus scatter shatters the free set.
    row = rng.randrange(1, n // 5)
    band = {node for node in chip.nodes
            if chip.coords[node][0] == row}
    return band | set(rng.sample(chip.nodes, n // 4))


def call(mapper, request, allocated):
    try:
        return mapper.map_similar(request, set(allocated),
                                  require_connected=False)
    except AllocationError:
        return None


class TestFastPathEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pattern", ["exact", "stretched", "fragmented"])
    def test_identical_results_per_pattern(self, seed, pattern):
        """Fast and reference mappers agree on (distance, cores) — and on
        the full vmap — across seeds and occupancy patterns."""
        rng = random.Random(seed)
        chip, fast, reference = make_pair()
        allocated = occupancy(chip, pattern, rng)
        checked = 0
        for shape in REQUEST_SHAPES:
            request = Topology.mesh2d(*shape)
            if request.node_count > chip.node_count - len(allocated):
                continue
            fast_result = call(fast, request, allocated)
            ref_result = call(reference, request, allocated)
            assert (fast_result is None) == (ref_result is None)
            if fast_result is None:
                continue
            checked += 1
            assert fast_result.distance == ref_result.distance
            assert fast_result.physical_cores == ref_result.physical_cores
            assert fast_result.vmap == ref_result.vmap
            assert fast_result.strategy == ref_result.strategy
        assert checked > 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           occupied=st.integers(0, 14),
           shape=st.sampled_from(REQUEST_SHAPES))
    def test_identical_results_property(self, seed, occupied, shape):
        rng = random.Random(seed)
        chip, fast, reference = make_pair()
        allocated = set(rng.sample(chip.nodes, occupied))
        request = Topology.mesh2d(*shape)
        if request.node_count > chip.node_count - occupied:
            return
        fast_result = call(fast, request, allocated)
        ref_result = call(reference, request, allocated)
        assert (fast_result is None) == (ref_result is None)
        if fast_result is not None:
            assert fast_result.distance == ref_result.distance
            assert fast_result.vmap == ref_result.vmap

    def test_identical_results_on_coordless_chip(self):
        """A coordinate-less chip that is *structurally* a mesh must not
        reuse chip hops for snake candidates misdetected as 1xN blocks
        (mesh_shape falls back to isomorphism without coords)."""
        mesh = Topology.mesh2d(3, 3)
        chip = Topology(mesh.nodes, mesh.edges)  # structure only, no coords
        fast = TopologyMapper(chip)
        reference = ReferenceMapper(chip)
        ring = Topology([0, 1, 2, 3, 4, 5, 6],
                        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                         (6, 0)])
        star = Topology([0, 1, 2, 3, 4],
                        [(0, 1), (0, 2), (0, 3), (0, 4)])
        for request in (ring, star):
            for allocated in (set(), {4}):
                fast_result = call(fast, request, allocated)
                ref_result = call(reference, request, allocated)
                assert (fast_result is None) == (ref_result is None)
                if fast_result is not None:
                    assert fast_result.distance == ref_result.distance
                    assert fast_result.vmap == ref_result.vmap

    def test_identical_results_with_table_costs(self):
        """Fractional table prices must not flip 2-opt accept decisions:
        the delta refine stays equivalent to the full recompute."""
        costs = EditCosts(
            tag_mismatch={"": 0.3125, "mem": 0.3125},
            edge_delete=0.125,
            edge_delete_at={(0, 1): 0.0625, (1, 2): 2.5},
            edge_insert=0.0625,
        )
        chip = Topology.mesh2d(6, 6)
        fast = TopologyMapper(chip, costs=costs)
        reference = ReferenceMapper(chip, costs=costs)
        allocated = {0, 4, 8, 15, 19, 23, 26, 30, 34}
        for shape in ((2, 3), (3, 3), (2, 2)):
            request = Topology.mesh2d(*shape)
            fast_result = call(fast, request, allocated)
            ref_result = call(reference, request, allocated)
            assert fast_result.distance == ref_result.distance
            assert fast_result.vmap == ref_result.vmap

    @pytest.mark.parametrize("costs", [
        EditCosts(),
        EditCosts(node_delete=1.5, node_insert=2.0, edge_insert=0.5),
        EditCosts(tag_mismatch={"mem": 0.1875, "": 0.0625},
                  edge_delete_at={(0, 3): 6.0, (2, 5): 0.0625}),
    ])
    def test_delta_refine_matches_full_recompute_refine(self, costs):
        """Same accept sequence, objective and evaluation count as the
        oracle's full-recompute refine, from every polish seed."""
        chip = tagged_mesh(4, 4)
        request = Topology.mesh2d(2, 3)
        request.node_attrs.update({0: "mem", 4: "mem"})
        candidate = chip.subtopology([0, 1, 4, 5, 8, 9])
        fast = TopologyMapper(chip, costs=costs)
        reference = ReferenceMapper(chip, costs=costs)
        hop = all_pairs_hops(candidate)
        _, seed = best_bijection(request, candidate, costs)
        tables = fast._refine_tables(request, candidate, hop)
        for start in fast._polish_seeds(request, candidate, seed):
            assert (fast._refine_delta(tables, start)
                    == reference._stretch_aware_refine(request, candidate,
                                                       start, hop))
        assert fast.objective_evaluations == reference.objective_evaluations

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), occupied=st.integers(0, 14),
           shape=st.sampled_from(REQUEST_SHAPES), tag=st.booleans(),
           costs=edit_costs())
    def test_identical_results_under_random_costs(self, seed, occupied,
                                                  shape, tag, costs):
        rng = random.Random(seed)
        chip = tagged_mesh(5, 5)
        fast = TopologyMapper(chip, costs=costs)
        reference = ReferenceMapper(chip, costs=costs)
        allocated = set(rng.sample(chip.nodes, occupied))
        request = tagged_request(*shape) if tag else Topology.mesh2d(*shape)
        if request.node_count > chip.node_count - occupied:
            return
        fast_result = call(fast, request, allocated)
        ref_result = call(reference, request, allocated)
        assert (fast_result is None) == (ref_result is None)
        if fast_result is not None:
            assert fast_result.distance == ref_result.distance
            assert fast_result.vmap == ref_result.vmap

    def test_equivalence_under_churn(self):
        """Interleaved alloc/free churn (the fast side's memos warm
        across calls) still matches per-call reference results."""
        rng = random.Random(11)
        chip, fast, reference = make_pair(6, 6)
        allocated: set[int] = set()
        placements: list[list[int]] = []
        for step in range(30):
            if placements and rng.random() < 0.4:
                cores = placements.pop(rng.randrange(len(placements)))
                allocated -= set(cores)
                continue
            shape = rng.choice(REQUEST_SHAPES)
            request = Topology.mesh2d(*shape)
            if request.node_count > chip.node_count - len(allocated):
                continue
            fast_result = call(fast, request, allocated)
            ref_result = call(reference, request, allocated)
            assert (fast_result is None) == (ref_result is None)
            if fast_result is None:
                continue
            assert fast_result.distance == ref_result.distance
            assert fast_result.vmap == ref_result.vmap
            allocated |= set(fast_result.physical_cores)
            placements.append(fast_result.physical_cores)


class TestPruningCounters:
    def test_pruned_plus_refined_accounts_considered(self):
        rng = random.Random(3)
        chip, fast, _ = make_pair(6, 6)
        for _ in range(12):
            allocated = set(rng.sample(chip.nodes, 16))
            call(fast, Topology.mesh2d(3, 3), allocated)
        stats = fast.cache_stats()
        assert stats["candidates_considered"] > 0
        assert (stats["candidates_pruned"] + stats["candidates_refined"]
                == stats["candidates_considered"])

    def test_reference_path_keeps_counters_zero(self):
        rng = random.Random(3)
        chip, _, reference = make_pair(6, 6)
        for _ in range(4):
            allocated = set(rng.sample(chip.nodes, 16))
            call(reference, Topology.mesh2d(3, 3), allocated)
        stats = reference.cache_stats()
        assert stats["candidates_considered"] == 0
        assert stats["candidates_pruned"] == 0
        # The reference 2-opt still reports its objective evaluations.
        assert stats["objective_evaluations"] > 0


class TestLowerBound:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_admissible_against_best_bijection(self, seed):
        """The screen's bound never exceeds the exact Hungarian score."""
        rng = random.Random(seed)
        chip = Topology.mesh2d(5, 5)
        k = rng.randrange(2, 10)
        request = Topology.mesh2d(*rng.choice(
            [(1, k)] + [(r, k // r) for r in range(2, k) if k % r == 0]))
        nodes = [0]
        while len(nodes) < request.node_count:
            frontier = sorted({nbr for node in nodes
                               for nbr in chip.neighbors(node)}
                              - set(nodes))
            nodes.append(rng.choice(frontier))
        candidate = chip.subtopology(nodes)
        bound = bijection_lower_bound(request, candidate)
        distance, _ = best_bijection(request, candidate)
        assert bound <= distance + 1e-9

    def test_size_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            bijection_lower_bound(Topology.mesh2d(2, 2),
                                  Topology.mesh2d(2, 3))

    def test_attribute_excess_priced(self):
        tagged = Topology([0, 1], [(0, 1)], node_attrs={0: "mem", 1: "mem"})
        plain = Topology([5, 6], [(5, 6)])
        assert bijection_lower_bound(tagged, plain) == 2.0
        # Each excess node is priced at its tag's table price.
        costs = EditCosts(tag_mismatch={"mem": 2.5})
        assert bijection_lower_bound(tagged, plain, costs) == 5.0


class TestFreeTopologyMemo:
    def test_two_entry_lru_keyed_by_allocated_set(self):
        _, fast, _ = make_pair(4, 4)
        first = fast.free_topology(frozenset({0, 1}))
        assert fast.free_topology({0, 1}) is first  # equal set, any type
        assert 0 not in first and first.node_count == 14
        adhoc = fast.free_topology({5})
        assert fast.free_topology(frozenset({0, 1})) is first
        fast.free_topology({6})  # evicts the least recently used: {5}
        assert fast.free_topology({0, 1}) is first
        assert fast.free_topology({5}) is not adhoc
        assert fast.cache_stats()["free_rebuilds"] == 4

    def test_view_never_mutated_by_later_provisioning(self):
        """A returned free topology is a value: creating or destroying a
        vNPU afterwards leaves it exactly as it was."""
        hypervisor = Hypervisor(Chip(sim_config(16)))
        mapper = hypervisor.mapper

        def snapshot(topology):
            return (topology.nodes, topology.edges, dict(topology.coords),
                    dict(topology.node_attrs))

        empty = mapper.free_topology(hypervisor.allocated_cores)
        before = snapshot(empty)
        vnpu = hypervisor.create_vnpu(VNpuSpec("t", MeshShape(2, 2), 16 * MB))
        occupied = mapper.free_topology(hypervisor.allocated_cores)
        during = snapshot(occupied)
        assert occupied.node_count == 12
        hypervisor.create_vnpu(VNpuSpec("u", MeshShape(1, 3), 8 * MB))
        hypervisor.destroy_vnpu(vnpu.vmid)
        assert snapshot(empty) == before
        assert snapshot(occupied) == during


class TestCacheKeyAttributes:
    def test_tagged_requests_do_not_collide(self):
        """Structurally-equal requests with different node attrs must not
        share a results-memo entry."""
        chip = Topology.mesh2d(3, 3, name="chip")
        chip.node_attrs[0] = "mem"
        mapper = TopologyMapper(chip)
        plain = Topology.mesh2d(1, 2)
        tagged = Topology.mesh2d(1, 2)
        tagged.node_attrs.update({0: "sa", 1: "sa"})
        mapper.map_similar(plain)
        mapper.map_similar(tagged)
        assert (mapper.cache_hits, mapper.cache_misses) == (0, 2)
        assert len(mapper.memos.results) == 2


class TestMapperStatsSurfaces:
    def test_one_chip_fleet_exposes_mapper_stats(self):
        from repro.serving import FleetScheduler, generate_trace
        scheduler = FleetScheduler([sim_config(16)])
        scheduler.serve(generate_trace(3, 10, max_cores=16))
        stats = scheduler.mapper_stats()
        assert stats["hits"] + stats["misses"] > 0
        assert (stats["candidates_pruned"] + stats["candidates_refined"]
                == stats["candidates_considered"])

    def test_fleet_scheduler_sums_per_chip_counters(self):
        from repro.serving import FleetScheduler, generate_fleet_trace
        fleet = FleetScheduler.homogeneous(2, cores=16)
        fleet.serve(generate_fleet_trace(3, 12, chips=2, max_cores=16))
        stats = fleet.mapper_stats()
        per_chip = [fc.hypervisor.mapper.cache_stats()
                    for fc in fleet.chips]
        assert stats["misses"] == sum(s["misses"] for s in per_chip)
        assert stats["free_rebuilds"] == sum(s["free_rebuilds"]
                                             for s in per_chip)
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestHelpers:
    def test_chip_hops_computed_once_and_correct(self):
        chip, fast, _ = make_pair(3, 3)
        hops = fast.chip_hops
        assert hops[0][8] == chip.hop_distance(0, 8)
        assert fast.chip_hops is hops

    def test_mesh_dims_factorization(self):
        from mapping_oracle import mesh_dims
        assert mesh_dims(36) == (6, 6)
        assert mesh_dims(16) == (4, 4)
        assert mesh_dims(12) == (3, 4)
        assert mesh_dims(7) == (1, 7)


class TestPerfHarness:
    def test_small_corpus_replays_identically(self):
        from mapping_oracle import record_corpus, replay
        corpus = record_corpus(seed=3, sessions=25, chips=2,
                               cores_per_chip=16)
        assert corpus.map_calls > 0
        fast = replay(corpus)
        reference = replay(corpus, ReferenceMapper)
        assert fast.outputs == reference.outputs
        assert fast.outputs_digest() == reference.outputs_digest()
        counters = fast.counters
        assert (counters["candidates_pruned"]
                + counters["candidates_refined"]
                == counters["candidates_considered"])

    def test_corpus_is_deterministic(self):
        from mapping_oracle import record_corpus
        one = record_corpus(seed=5, sessions=15, chips=2, cores_per_chip=16)
        two = record_corpus(seed=5, sessions=15, chips=2, cores_per_chip=16)
        assert one.events == two.events
        assert one.digest() == two.digest()

    def test_report_shape(self):
        from mapping_oracle import run_mapping_perf
        report = run_mapping_perf(seed=3, sessions=15, chips=2,
                                  cores_per_chip=16)
        deterministic = report["deterministic"]
        assert deterministic["equivalence"]["identical"]
        assert deterministic["equivalence"]["mismatches"] == 0
        assert deterministic["pruning_accounted"]
        assert report["timing"]["fast_seconds"] >= 0.0


class TestHopTableIdentity:
    """The multi-source matrix-BFS hop table must equal the per-node
    Python BFS dict-for-dict (unreachable pairs absent from both)."""

    @staticmethod
    def _random_topology(seed, n, connect_prob=0.25):
        rng = random.Random(seed)
        nodes = list(range(n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < connect_prob:
                    edges.append((u, v))
        return Topology(nodes, edges)

    def test_mesh_hop_tables_identical(self):
        for rows, cols in ((1, 1), (2, 3), (4, 4), (3, 7)):
            mesh = Topology.mesh2d(rows, cols)
            assert (TopologyMapper._all_pairs_hops_vectorized(mesh)
                    == all_pairs_hops(mesh))

    def test_random_hop_tables_identical(self):
        # Includes sparse draws with isolated nodes and disconnected
        # components — unreachable pairs must be absent, not inf.
        for seed in range(20):
            topology = self._random_topology(seed, 12,
                                             connect_prob=0.08 + seed * 0.02)
            assert (TopologyMapper._all_pairs_hops_vectorized(topology)
                    == all_pairs_hops(topology))

    def test_empty_and_singleton(self):
        empty = Topology([], [])
        single = Topology([0], [])
        for topology in (empty, single):
            assert (TopologyMapper._all_pairs_hops_vectorized(topology)
                    == all_pairs_hops(topology))


# -- shape-canonical memos ---------------------------------------------------

def tagged_mesh(rows=6, cols=6):
    """A row-major mesh tagged ``mem`` in column 0, like a SoCConfig chip."""
    chip = Topology.mesh2d(rows, cols)
    for row in range(rows):
        chip.node_attrs[row * cols] = "mem"
    return chip


def polyomino(rng, size, box=4):
    """A random connected set of ``size`` cells inside a ``box`` square."""
    cells = {(rng.randrange(box), rng.randrange(box))}
    while len(cells) < size:
        frontier = sorted(
            (r + dr, c + dc) for r, c in cells
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
            if 0 <= r + dr < box and 0 <= c + dc < box
            and (r + dr, c + dc) not in cells)
        cells.add(rng.choice(frontier))
    return cells


def window(chip, cells, offset):
    """Allocated set leaving exactly ``cells`` shifted by ``offset`` free."""
    by_coord = {coord: node for node, coord in chip.coords.items()}
    dr, dc = offset
    free = {by_coord[(r + dr, c + dc)] for r, c in cells}
    return set(chip.nodes) - free


def assert_matches_reference(fast, request, allocated, costs=None):
    """Compare a warm fast mapper with a fresh reference mapper."""
    reference = ReferenceMapper(fast.chip, costs=costs)
    fast_result = call(fast, request, allocated)
    ref_result = call(reference, request, allocated)
    assert (fast_result is None) == (ref_result is None)
    if fast_result is not None:
        assert ((fast_result.distance, fast_result.vmap, fast_result.strategy)
                == (ref_result.distance, ref_result.vmap,
                    ref_result.strategy))
    return fast_result


def tagged_request(rows, cols):
    request = Topology.mesh2d(rows, cols)
    request.node_attrs[0] = "mem"
    return request


#: Even and odd row offsets (zig-zag parity), and column 0 (tagged cores).
OFFSETS = ((0, 1), (2, 2), (1, 1), (0, 0), (2, 0), (1, 2))
TRANSLATE_REQUESTS = (
    Topology.mesh2d(2, 3), Topology.mesh2d(1, 4), tagged_request(2, 2),
    Topology.ring(5), Topology.mesh2d(2, 4), Topology.mesh2d(3, 3),
)


class TestTranslateIdentity:
    """One warm fast mapper fed translated occupancies returns exactly
    what a fresh ``ReferenceMapper`` returns for each of them."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(5, 11))
    def test_translated_free_sets(self, seed, size):
        rng = random.Random(seed)
        chip = tagged_mesh()
        cells = polyomino(rng, size)
        fast = TopologyMapper(chip)
        for request in TRANSLATE_REQUESTS:
            if request.node_count > size:
                continue
            for offset in OFFSETS:
                assert_matches_reference(fast, request,
                                         window(chip, cells, offset))

    def test_repeat_translate_reuses_memos(self):
        """A same-parity translate re-prices nothing; an odd-row one
        re-polishes (the zig-zag seed flips) but reuses the rest."""
        chip = tagged_mesh()
        # A U shape: no 2x3 block fits and its candidates are non-convex
        # (the polish takes BFS hops, not chip hops).
        cells = {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2)}
        request = Topology.mesh2d(2, 3)
        fast = TopologyMapper(chip)
        first = assert_matches_reference(fast, request,
                                         window(chip, cells, (0, 1)))
        assert first.distance > 0
        memos = fast.memos
        sizes = {name: len(getattr(memos, name))
                 for name in ("certs", "bounds", "scores", "polished")}
        evaluations = fast.objective_evaluations
        second = assert_matches_reference(fast, request,
                                          window(chip, cells, (2, 2)))
        assert second.vmap == {v: p + 2 * 6 + 1
                               for v, p in first.vmap.items()}
        assert fast.objective_evaluations == evaluations
        for name, size in sizes.items():
            assert len(getattr(memos, name)) == size
        assert_matches_reference(fast, request, window(chip, cells, (1, 1)))
        assert len(memos.polished) == sizes["polished"] + 1
        assert len(memos.certs) == sizes["certs"]
        assert fast.objective_evaluations > evaluations

    def test_odd_row_translate_is_not_a_polish_hit(self):
        """The zig-zag seed flips on odd rows: reusing an even-row
        polish for this odd-row translate would return a worse vmap."""
        chip = tagged_mesh()
        cells = {(1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (3, 1),
                 (3, 3)}
        fast = TopologyMapper(chip)
        for offset in ((0, 1), (1, 1)):
            assert_matches_reference(fast, Topology.mesh2d(2, 4),
                                     window(chip, cells, offset))

    def test_relabelled_mesh_takes_node_set_keys(self):
        """A mesh whose ids are not row-major cannot use translation;
        shapes fall back to node sets and results stay exact."""
        rng = random.Random(4)
        mesh = tagged_mesh(5, 5)
        order = mesh.nodes
        rng.shuffle(order)
        chip = mesh.relabel(dict(zip(mesh.nodes, order)))
        fast = TopologyMapper(chip)
        mask = fast.memos.mask_of(chip.nodes[:3])
        assert fast.memos.shape(mask) == (mask, 0)
        cells = polyomino(rng, 9)
        for request in TRANSLATE_REQUESTS:
            for offset in ((0, 0), (1, 1), (0, 1)):
                assert_matches_reference(fast, request,
                                         window(chip, cells, offset))

    def test_custom_costs_match_and_share_only_equal_costs(self):
        costs = EditCosts(
            tag_mismatch={"": 0.3125, "mem": 0.3125},
            edge_delete=0.125,
            edge_insert=0.125,
        )
        chip = tagged_mesh()
        fast = TopologyMapper(chip, costs=costs)
        cells = polyomino(random.Random(9), 10)
        for request in TRANSLATE_REQUESTS:
            for offset in OFFSETS:
                assert_matches_reference(fast, request,
                                         window(chip, cells, offset),
                                         costs=costs)
        default = TopologyMapper(chip)
        with pytest.raises(TopologyError):
            TopologyMapper(chip, costs=costs, memos=default.memos)
        with pytest.raises(TopologyError):
            TopologyMapper(chip, memos=fast.memos)
        equal = EditCosts(tag_mismatch={"mem": 0.3125, "": 0.3125},
                          edge_delete=0.125, edge_insert=0.125)
        assert TopologyMapper(chip, costs=equal,
                              memos=fast.memos).memos is fast.memos

    def test_sharing_requires_equal_chips(self):
        shared = TopologyMapper(tagged_mesh()).memos
        assert TopologyMapper(tagged_mesh(), memos=shared).memos is shared
        with pytest.raises(TopologyError):
            TopologyMapper(Topology.mesh2d(6, 6), memos=shared)


MEMO_NAMES = ("results", "subsets", "certs", "bounds", "scores", "polished")


class TestSharedMemos:
    def test_equal_configs_share_one_object(self):
        from repro.serving import FleetScheduler
        fleet = FleetScheduler.homogeneous(3, cores=16)
        memos = {id(fc.hypervisor.mapper.memos) for fc in fleet.chips}
        assert len(memos) == 1

    def test_one_object_per_distinct_config(self):
        from repro.serving import FleetScheduler
        fleet = FleetScheduler([sim_config(36), sim_config(16),
                                sim_config(36)])
        objects = [fc.hypervisor.mapper.memos for fc in fleet.chips]
        assert objects[0] is objects[2]
        assert objects[0] is not objects[1]
        assert len({id(memos) for memos in objects}) == 2

    def test_sibling_chip_hits_a_result_priced_on_chip_zero(self):
        """A ``map_similar`` miss on chip 0 is a hit on chip 1 under the
        same occupancy, and chip 1 provisions exactly that placement."""
        from repro.serving import FleetScheduler
        fleet = FleetScheduler.homogeneous(2, cores=16)
        first, second = (fc.hypervisor for fc in fleet.chips)
        for hypervisor in (first, second):  # equal occupancy on both chips
            hypervisor.create_vnpu(VNpuSpec("pin", MeshShape(1, 3), 8 * MB))
        assert first.allocated_cores == second.allocated_cores
        spec = VNpuSpec("t", MeshShape(2, 3), 16 * MB)
        priced = first.mapper.map_similar(spec.topology,
                                          first.allocated_cores)
        mapper = second.mapper
        before = (mapper.cache_hits, mapper.cache_misses)
        reused = mapper.map_similar(spec.topology, second.allocated_cores)
        assert (mapper.cache_hits, mapper.cache_misses) == (before[0] + 1,
                                                            before[1])
        assert reused.vmap == priced.vmap
        assert reused.vmap is not priced.vmap
        vnpu = second.create_vnpu(spec)
        assert vnpu.physical_cores == priced.physical_cores
        assert mapper.cache_hits == before[0] + 2

    def test_standalone_hypervisors_keep_private_memos(self):
        first = Hypervisor(Chip(sim_config(16)))
        second = Hypervisor(Chip(sim_config(16)))
        assert first.mapper.memos is not second.mapper.memos

    def test_shared_memos_stay_bounded(self):
        rng = random.Random(2)
        chip = tagged_mesh()
        owner = TopologyMapper(chip, memo_size=8)
        sibling = TopologyMapper(chip, memos=owner.memos)
        for _ in range(30):
            mapper = rng.choice((owner, sibling))
            assert_matches_reference(
                mapper, rng.choice(TRANSLATE_REQUESTS),
                set(rng.sample(chip.nodes, 14)))
        for name in MEMO_NAMES:
            assert len(getattr(owner.memos, name)) <= 8

    def test_churny_serve_bounded_and_unchanged(self):
        """Shrinking the shared memos mid-fleet evicts constantly yet
        changes no result, and no memo outgrows its bound."""
        from repro.serving import FleetScheduler, generate_fleet_trace
        trace = generate_fleet_trace(5, 60, chips=4, max_cores=16,
                                     fragmentation_heavy=True)
        baseline = FleetScheduler.homogeneous(4, cores=16,
                                              placement="best_fit")
        frequency = sim_config(16).frequency_hz
        expected = baseline.serve(trace).summary(frequency)
        fleet = FleetScheduler.homogeneous(4, cores=16, placement="best_fit")
        memos = fleet.chips[0].hypervisor.mapper.memos
        memos.memo_size = 16
        assert fleet.serve(trace).summary(frequency) == expected
        assert len(memos.certs) == 16  # the bound was reached
        for name in MEMO_NAMES:
            assert len(getattr(memos, name)) <= 16

    def test_sharded_mapper_stats_independent_of_workers(self):
        from repro.serving import ShardedFleetScheduler, generate_fleet_trace
        trace = generate_fleet_trace(7, 40, chips=4, max_cores=16,
                                     fragmentation_heavy=True)
        stats = []
        for workers in (1, 2):
            fleet = ShardedFleetScheduler.homogeneous(
                4, cores=16, shards=2, workers=workers)
            fleet.serve(trace)
            stats.append(fleet.mapper_stats())
        assert stats[0] == stats[1]
        assert stats[0]["objective_evaluations"] > 0


# -- the exact-mesh rectangle test -------------------------------------------

def exactly_mapped(mapper, rows, cols, allocated):
    """Whether ``map_similar`` prices a rows x cols mesh at distance 0."""
    try:
        return mapper.map_similar(Topology.mesh2d(rows, cols),
                                  allocated).distance == 0
    except AllocationError:
        return False


class TestExactMeshLemma:
    """``holds_exact_mesh`` decides ``map_similar`` distance 0 for
    rows, cols >= 2 on a plain mesh chip, and abstains elsewhere."""

    @settings(max_examples=150, deadline=None)
    @given(dims=st.sampled_from([(4, 4), (6, 6), (4, 6)]),
           tagged=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 0.7),
           shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4),
                                  (4, 2)]))
    def test_rectangle_test_matches_map_similar(self, dims, tagged, seed,
                                                density, shape):
        chip = tagged_mesh(*dims) if tagged else Topology.mesh2d(*dims)
        mapper = TopologyMapper(chip)
        rng = random.Random(seed)
        allocated = frozenset(node for node in chip.nodes
                              if rng.random() < density)
        decided = mapper.holds_exact_mesh(*shape, allocated)
        assert decided is not None
        assert decided == exactly_mapped(mapper, *shape, allocated)

    def test_lines_stay_undecided(self):
        mapper = TopologyMapper(Topology.mesh2d(4, 4))
        for shape in ((1, 1), (1, 3), (3, 1), (1, 4)):
            assert mapper.holds_exact_mesh(*shape, frozenset()) is None

    def test_non_mesh_chips_stay_undecided(self):
        mesh = Topology.mesh2d(4, 4)
        order = mesh.nodes
        random.Random(4).shuffle(order)
        relabelled = mesh.relabel(dict(zip(mesh.nodes, order)))
        cut = Topology(mesh.nodes, mesh.edges[1:], coords=mesh.coords)
        for chip in (relabelled, cut, Topology.ring(8)):
            mapper = TopologyMapper(chip)
            assert mapper.holds_exact_mesh(2, 2, frozenset()) is None
        # Priced untagged nodes: a slid rectangle may not be exact.
        custom = TopologyMapper(
            mesh, costs=EditCosts(tag_mismatch={"": 0.5}))
        assert custom.holds_exact_mesh(2, 2, frozenset()) is None
        # Other prices leave distance 0 meaning an isomorphic candidate.
        flat = TopologyMapper(mesh, costs=EditCosts(edge_insert=0.5))
        assert flat.holds_exact_mesh(2, 2, frozenset()) is True

    def test_tagged_request_is_not_slid(self):
        """The mesh slide prices nothing, so a tagged request must reach
        the certificate path and land its mem node on the mem core."""
        chip = Topology.mesh2d(4, 4)
        chip.node_attrs[15] = "mem"
        request = Topology.mesh2d(2, 2)
        request.node_attrs[0] = "mem"
        mapper = TopologyMapper(chip)
        for result in (mapper.map_similar(request), mapper.map_exact(request)):
            candidate = chip.subtopology(result.physical_cores)
            assert result.distance == induced_edit_cost(
                request, candidate, result.vmap)
            assert result.distance == 0.0
            assert result.vmap[0] == 15
        assert call(ReferenceMapper(chip), request, set()).vmap[0] == 15

    def test_slide_needs_the_full_coordinate_grid(self):
        """The slide prices a rectangle by coordinates alone, so on a
        chip missing a grid link (or with an extra one) the distance
        must still equal the induced cost of the returned vmap."""
        mesh = Topology.mesh2d(4, 4)
        request = Topology.mesh2d(2, 2)
        cut = Topology(mesh.nodes, mesh.edges[1:], coords=mesh.coords)
        extra = Topology(mesh.nodes, mesh.edges + [(0, 5)],
                         coords=mesh.coords)
        for chip in (cut, extra):
            mapper = TopologyMapper(chip)
            for result in (mapper.map_similar(request, set()),
                           mapper.map_exact(request)):
                candidate = chip.subtopology(result.physical_cores)
                assert result.distance == induced_edit_cost(
                    request, candidate, result.vmap)
                assert result.distance == 0.0

    def test_line_exact_only_as_an_l_is_undecided(self):
        chip = Topology.mesh2d(4, 4)
        mapper = TopologyMapper(chip)
        allocated = window(chip, {(0, 0), (0, 1), (1, 1)}, (0, 0))
        assert mapper.holds_exact_mesh(1, 3, allocated) is None
        assert mapper.holds_exact_mesh(3, 1, allocated) is None
        assert exactly_mapped(mapper, 1, 3, allocated)
        assert not mapper.holds_exact_mesh(2, 2, allocated)
