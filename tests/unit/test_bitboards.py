"""The mapper's bitboard front end against its set-based oracles.

Mask ESU against the set-based ESU kept in ``mapping_oracle``, mask WL
certificates against ``Topology.wl_certificate`` (and the bound on
their interning tables), the rectangle table against ``mesh_shape()``
in the hypervisor's shaped routing tables, and placement ranks that
read each chip's free cores once.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.chip import Chip
from repro.arch.config import sim_config
from repro.arch.topology import Topology
from repro.core.hypervisor import Hypervisor
from repro.core.routing_table import ShapedRoutingTable
from repro.core.topology_mapping import (
    MappingResult,
    TopologyMapper,
    _connected_masks,
    enumerate_connected_subsets,
)
from repro.serving.fleet import LeastLoadedPlacement, PowerOfTwoPlacement

from mapping_oracle import reference_connected_subsets


def cut_mesh(rows, cols):
    """A mesh missing its first grid link (0-1)."""
    mesh = Topology.mesh2d(rows, cols)
    return Topology(mesh.nodes, mesh.edges[1:], coords=mesh.coords)


#: The chips the front end must handle: row-major meshes (translation
#: shape keys, rectangle tables), a mesh with a cut link (no grid) and a
#: coordinate-free ring.
CHIPS = {
    "mesh4x4": lambda: Topology.mesh2d(4, 4),
    "mesh6x6": lambda: Topology.mesh2d(6, 6),
    "cut4x4": lambda: cut_mesh(4, 4),
    "ring12": lambda: Topology.ring(12),
}


def tag(chip, rng):
    """Tag about a third of the chip's cores with one of two tags."""
    for node in chip.nodes:
        if rng.random() < 0.35:
            chip.node_attrs[node] = rng.choice(("mem", "vu"))
    return chip


def connected_subset(rng, chip, size):
    """A random connected node set of up to ``size`` nodes."""
    nodes = {rng.choice(chip.nodes)}
    while len(nodes) < size:
        frontier = sorted({nbr for node in nodes
                           for nbr in chip.neighbors(node)} - nodes)
        if not frontier:
            break
        nodes.add(rng.choice(frontier))
    return sorted(nodes)


class TestMaskEsu:
    @settings(max_examples=120, deadline=None)
    @given(chip=st.sampled_from(sorted(CHIPS)),
           seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 0.6),
           k=st.integers(1, 5),
           limit=st.one_of(st.none(), st.integers(0, 60)))
    def test_same_subsets_in_the_same_order(self, chip, seed, density, k,
                                            limit):
        """The public wrapper and the mapper's masks over the chip's
        neighbour masks both equal the set-based ESU, list for list,
        including where ``limit`` truncates."""
        topology = CHIPS[chip]()
        rng = random.Random(seed)
        free = topology.subtopology(
            [n for n in topology.nodes if rng.random() >= density])
        expected = reference_connected_subsets(free, k, limit)
        assert enumerate_connected_subsets(free, k, limit) == expected
        memos = TopologyMapper(topology).memos
        masks = _connected_masks(memos.neighbours,
                                 memos.mask_of(free.nodes), k, limit)
        assert [frozenset(memos.nodes_of(m)) for m in masks] == expected

    def test_limit_keeps_the_truncation_point(self):
        mesh = Topology.mesh2d(6, 6)
        full = reference_connected_subsets(mesh, 4)
        for limit in (0, 1, 7, len(full) - 1, len(full), len(full) + 5):
            expected = reference_connected_subsets(mesh, 4, limit)
            assert expected == full[:max(limit, 1)]
            assert enumerate_connected_subsets(mesh, 4, limit) == expected


class TestMaskCertificate:
    @settings(max_examples=150, deadline=None)
    @given(chip=st.sampled_from(sorted(CHIPS)),
           tagged=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           size=st.integers(1, 14))
    def test_equals_wl_certificate(self, chip, tagged, seed, size):
        rng = random.Random(seed)
        topology = CHIPS[chip]()
        if tagged:
            tag(topology, rng)
        memos = TopologyMapper(topology).memos
        for _ in range(4):  # warm interning tables, fresh subsets
            nodes = connected_subset(rng, topology, size)
            assert (memos.certificate(memos.mask_of(nodes))
                    == topology.subtopology(nodes).wl_certificate())

    def test_interning_tables_stay_within_memo_size(self):
        """Small ``memo_size``: the label and certificate tables are
        cleared wholesale, together, and never outgrow the bound, while
        every certificate stays exact."""
        rng = random.Random(5)
        chip = tag(Topology.mesh2d(6, 6), rng)
        memos = TopologyMapper(chip, memo_size=12).memos
        clears = 0
        for _ in range(300):
            nodes = connected_subset(rng, chip, rng.randint(1, 12))
            assert (memos.certificate(memos.mask_of(nodes))
                    == chip.subtopology(nodes).wl_certificate())
            assert len(memos.wl_labels) <= 12
            assert len(memos.wl_certs) <= 12
            assert len(memos._wl_names) == len(memos.wl_labels)
            if not memos.wl_labels:
                assert not memos.wl_certs
                clears += 1
        assert clears > 0


# -- the rectangle table and the shaped routing table ------------------------

def random_cores(rng, chip):
    """Rectangles, rectangles with a core swapped out, and scatter."""
    rows = max(r for r, _ in chip.coords.values()) + 1
    cols = max(c for _, c in chip.coords.values()) + 1
    by_coord = {coord: node for node, coord in chip.coords.items()}
    kind = rng.random()
    if kind < 0.6:
        height, width = rng.randint(1, rows), rng.randint(1, cols)
        r0, c0 = rng.randint(0, rows - height), rng.randint(0, cols - width)
        cores = [by_coord[(r0 + r, c0 + c)]
                 for r in range(height) for c in range(width)]
        if kind < 0.15:
            outside = sorted(set(chip.nodes) - set(cores))
            if outside:
                cores[rng.randrange(len(cores))] = rng.choice(outside)
        return sorted(cores)
    return sorted(rng.sample(chip.nodes, rng.randint(1, chip.node_count)))


def reference_shaped_table(hypervisor, vmid, mapping):
    """The shaped routing table the hypervisor built before the
    rectangle table: ``mesh_shape()`` of the physical subtopology."""
    physical = hypervisor.chip.topology.subtopology(mapping.physical_cores)
    shape = physical.mesh_shape()
    if shape is None:
        return None
    v_cores = sorted(mapping.vmap)
    v_base = v_cores[0]
    if v_cores != list(range(v_base, v_base + len(v_cores))):
        return None
    table = ShapedRoutingTable(vmid, shape, min(mapping.physical_cores),
                               hypervisor.chip.config.mesh_cols,
                               v_base=v_base)
    for v_core, p_core in mapping.vmap.items():
        if table.translate(v_core) != p_core:
            return None
    return table


def described(table):
    if table is None:
        return None
    return (type(table), table.shape, table.p_base, table.v_base,
            table.chip_cols, sorted(table.virtual_cores()))


def random_mapping(rng, cores):
    """A vmap onto ``cores``: contiguous virtual ids in row-major order,
    shuffled, or with a gap in the virtual ids."""
    kind = rng.random()
    v_base = rng.randint(0, 3)
    virtual = list(range(v_base, v_base + len(cores)))
    physical = list(cores)
    if kind < 0.2:
        rng.shuffle(physical)
    elif kind < 0.35:
        virtual[-1] += 2  # non-contiguous virtual ids
    return MappingResult("similar", dict(zip(virtual, physical)), 0.0, True)


class TestRectangleTable:
    @pytest.mark.parametrize("dims", [(4, 4), (6, 6), (4, 6)])
    def test_block_shape_matches_mesh_shape(self, dims):
        chip = Topology.mesh2d(*dims)
        mapper = TopologyMapper(chip)
        rng = random.Random(sum(dims))
        shapes = 0
        for _ in range(400):
            cores = random_cores(rng, chip)
            expected = chip.subtopology(cores).mesh_shape()
            assert mapper.block_shape(cores) == expected
            shapes += expected is not None
        assert shapes > 100

    def test_cut_link_chip_keeps_the_subtopology_path(self):
        chip = cut_mesh(4, 4)
        mapper = TopologyMapper(chip)
        assert not mapper.memos._cols
        assert mapper.block_shape([0, 1, 4, 5]) is None  # spans the cut
        assert mapper.block_shape([2, 3, 6, 7]).rows == 2
        rng = random.Random(3)
        for _ in range(200):
            cores = random_cores(rng, chip)
            assert (mapper.block_shape(cores)
                    == chip.subtopology(cores).mesh_shape())

    @pytest.mark.parametrize("cores,cut", [(16, False), (36, False),
                                           (16, True)])
    def test_shaped_table_agrees_with_mesh_shape_path(self, cores, cut):
        chip = Chip(sim_config(cores))
        if cut:
            topology = chip.topology
            chip.topology = Topology(topology.nodes, topology.edges[1:],
                                     coords=topology.coords)
        hypervisor = Hypervisor(chip)
        assert bool(hypervisor.mapper.memos._cols) is not cut
        rng = random.Random(cores + cut)
        shaped = 0
        for _ in range(400):
            mapping = random_mapping(rng, random_cores(rng, chip.topology))
            table = hypervisor._try_shaped_table(1, mapping)
            expected = reference_shaped_table(hypervisor, 1, mapping)
            assert described(table) == described(expected)
            shaped += table is not None
        assert shaped > 50


# -- placement ranks ---------------------------------------------------------

class CountingChip:
    """A fleet chip stand-in that counts its ``free`` reads."""

    def __init__(self, index, free, healthy):
        self.index = index
        self.cores_free = free
        self.healthy = healthy
        self.reads = 0

    @property
    def free(self):
        self.reads += 1
        return self.cores_free


def old_order(fits):
    return sorted(fits, key=lambda c: (-c.cores_free, c.index))


@settings(max_examples=200, deadline=None)
@given(frees=st.lists(st.integers(0, 6), max_size=12),
       sick=st.sets(st.integers(0, 11)),
       need=st.integers(1, 6),
       seed=st.integers(0, 50),
       session_id=st.integers(0, 10_000))
def test_ranks_read_free_cores_once_and_keep_the_order(frees, sick, need,
                                                       seed, session_id):
    """Chip order, ties included, is the order of the sort that read
    ``free`` in its key; each chip is read at most once."""
    chips = [CountingChip(i, free, i not in sick)
             for i, free in enumerate(frees)]
    session = SimpleNamespace(core_count=need, session_id=session_id)
    fits = [c for c in chips if c.healthy and need <= c.cores_free]

    ranked = LeastLoadedPlacement().rank(chips, session)
    assert ranked == old_order(fits)
    assert all(chip.reads <= 1 for chip in chips)

    for chip in chips:
        chip.reads = 0
    ranked = PowerOfTwoPlacement(seed).rank(chips, session)
    if len(fits) <= 2:
        expected = old_order(fits)
    else:
        rng = random.Random(seed * 1_000_003 + session_id)
        expected = old_order(rng.sample(fits, 2))
    assert ranked == expected
    assert all(chip.reads <= 1 for chip in chips)
