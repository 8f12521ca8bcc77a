"""Topology-mapping strategies for virtual-NPU core allocation (§4.3).

The hypervisor must carve a requested virtual topology out of whatever
physical cores are still free. Strategies, in the paper's terminology:

- **Exact mapping** — find a free induced subgraph isomorphic to the
  request; raise :class:`~repro.errors.TopologyLockIn` when none exists
  even though enough cores are free (the paper's motivating failure).
- **Straightforward (zig-zag) mapping** — take the first free cores in
  boustrophedon row order, ignoring topology. Cheap, but the resulting
  communication pattern can be far from the request (Fig 18's baseline).
- **Similar topology mapping** (Algorithm 1) — enumerate candidate
  connected free subgraphs of the right size (R-1, R-3), deduplicate by
  isomorphism certificate, early-return on an exact match, and otherwise
  pick the candidate with minimum topology edit distance (R-2).
- **Fragmented mapping** — relax R-3: allow a disconnected core set so
  fragments can still be used, trading NoC interference for utilization.

Candidate enumeration uses the ESU ("enumerate subgraphs") algorithm,
which visits every connected ``k``-subset exactly once; a candidate cap
keeps worst cases bounded (the paper prunes and parallelizes similarly).

Under fleet churn the mapper is the dominant serving cost, so it is
built for speed:

- *bitboards* — a free set and a candidate are int bitmasks over the
  chip's sorted node order (bit ``i`` is ``chip.nodes[i]``), and
  :class:`ShapeMemos` keeps, once per chip type, every core's neighbour
  mask and every coordinate rectangle's mask. ESU extends masks lowest
  bit first (the order of a sorted extension set), the mesh slide tests
  each precomputed rectangle with one ``mask & taken``, and a
  certificate miss runs WL colour refinement on the neighbour masks;
- *memoized free sets* — :meth:`TopologyMapper.free_topology` and the
  free mask behind it are pure functions of the ``allocated`` set they
  are given, memoized in a two-entry LRU keyed by
  ``frozenset(allocated)``. The hypervisor passes its immutable
  occupancy record, so a repeat lookup costs one cached hash and an
  identity match; the mapper holds no occupancy of its own. The entry
  stores the free mask; a free ``Topology`` is built only when
  :meth:`~TopologyMapper.map_fragmented` or a caller asks for one;
- *shape-canonical memos* — WL certificates, lower bounds, Hungarian
  scores and 2-opt polish results are keyed by the candidate's
  **shape**, not its node set, and live in one :class:`ShapeMemos` per
  chip type (see below), next to the connected-subset enumerations
  keyed by (free set, k). Induced subtopologies and hop tables are only
  built on a memo miss (the chip-level hop table is computed once and
  reused verbatim for convex mesh-block candidates, where the subgraph
  metric collapses to the chip metric);
- *one profile per request* — a request's WL certificate, mesh-slide
  grid and the request side of the lower bound are computed once per
  request structure and memoized in :class:`ShapeMemos`;
- *lower-bound screening on masks* — candidates are visited cheapest
  :func:`~repro.core.ged.bijection_lower_bound` first and pruned once
  the bound exceeds the incumbent's exact score (``cache_stats`` exposes
  the considered/pruned/refined counters). The bound is read off the
  neighbour masks (degrees are popcounts, tag counts are masks) and the
  request profile, bit-identical to the ``Topology`` form;
- *one-pass 2-opt in integer sixteenths* — ``_polish`` builds int
  tables once (substitution prices, per-price edge rows that fold the
  hop stretch and the deletion price together, adjacency masks) and
  prices each trial swap in one pass over the O(degree) terms it can
  change, without touching the mapping. Every
  :class:`~repro.core.ged.EditCosts` price is a multiple of 1/16 and the
  stretch weight is 1/2, so integer sixteenths are exact: accept and
  reject decisions — and hence results — never drift;
- *numpy-vectorized inner loops* — Hungarian reward matrices and
  admissible lower bounds are built with broadcasting
  (:func:`~repro.core.ged._pair_cost_block`, bit-identical to the scalar
  loops for every ``EditCosts``), and hop tables come from one
  multi-source matrix-BFS instead of per-node Python BFS.

The unoptimized reference implementation of Algorithm 1 lives with the
tests, as ``ReferenceMapper`` in ``tests/unit/mapping_oracle.py``: fresh
free-set builds, the set-based ESU, the coordinate-walk mesh slide, a
subtopology and ``wl_certificate`` per candidate, no memos or
screening, the scalar Hungarian loop and the full-recompute polish over
every seed. Property tests and the
``bench_mapping_perf`` corpus replay hold this mapper to identical
``(distance, vmap)`` results.

**Shape keys.** On a full row-major mesh (``node == row * cols + col``,
every edge a grid step — every ``SoCConfig`` chip) a candidate's key is
its mask shifted down by ``base``, the id of its bounding-box corner
``(r0, c0)`` (a bijective encoding of the ``(row - r0, col - c0)``
cells), plus the relative positions of attribute-tagged cores.
Translation shifts every id by the same offset, so it preserves the
induced subgraph, node order, sorted BFS neighbours and
enumeration-index tie-breaks: a certificate, bound or score found for
one translate holds for all of them, and stored vmaps are relative
(``p - base``), translated back on a hit. The one catch is the zig-zag
polish seed, which flips direction on odd rows, so polish keys also
carry ``r0 % 2``. On any other chip the key degrades to the mask itself
with base 0 through the same code path. Certificates are computed on a
key miss only, from the neighbour masks: colour-refinement labels are
interned per signature, so a signature seen before skips its hash, and
the strings are byte-for-byte those of
:meth:`~repro.arch.topology.Topology.wl_certificate`. ``Topology``
objects are built only for Hungarian scoring, polish and VF2; bounds
are priced on the masks.

**Sharing.** A standalone mapper owns a private :class:`ShapeMemos`.
``FleetScheduler`` hands one to every hypervisor built from an equal
``SoCConfig``, so a shape priced on one chip is free on its siblings,
and so is a whole :meth:`TopologyMapper.map_similar` result: its memo
key is the request's structure and the free-core set, and chips of
one type with equal free sets place identically. Sharing requires
equal chip topologies (a chip failure never edits one) and equal
:class:`~repro.core.ged.EditCosts`. Every memo stays LRU-bounded by
``memo_size`` and every counter stays per mapper.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace

from repro.arch.topology import MeshShape, Topology
from repro.core.ged import (
    EditCosts,
    best_bijection,
    induced_edit_cost,
)
from repro.errors import AllocationError, TopologyError, TopologyLockIn

import networkx as nx
import numpy as np


@dataclass
class MappingResult:
    """A concrete placement of a virtual topology onto physical cores."""

    strategy: str
    #: virtual core ID -> physical core ID
    vmap: dict[int, int]
    #: Topology edit distance between request and mapped subgraph (0 = exact).
    distance: float
    #: Is the mapped physical core set connected (R-3)?
    connected: bool
    candidates_considered: int = 0

    @property
    def physical_cores(self) -> list[int]:
        return sorted(self.vmap.values())

    @property
    def is_exact(self) -> bool:
        return self.distance == 0


def _bits(mask: int) -> list[int]:
    """Bit positions of ``mask``, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _neighbour_masks(topology: Topology) -> list[int]:
    """Per node (in sorted order), the mask of its neighbours."""
    index = {node: i for i, node in enumerate(topology.nodes)}
    return [sum(1 << index[nbr] for nbr in topology._adj[node])
            for node in topology.nodes]


def _connected_masks(neighbours: list[int], free: int, k: int,
                     limit: int | None) -> list[int]:
    """ESU over the bits of ``free``: every connected ``k``-subset as a
    mask, each exactly once.

    Roots and extensions are taken lowest bit first, which is the order
    of a sorted extension set. ``limit`` caps the result; enumeration
    stops once reached.
    """
    if k < 1:
        raise TopologyError(f"subset size must be >= 1, got {k}")
    results: list[int] = []

    def extend(subgraph: int, extension: int, closed: int, size: int,
               above: int) -> bool:
        # ``closed`` is the subgraph plus every chip neighbour of it, so
        # ``above & ~closed`` is the ESU exclusive neighbourhood: free
        # bits past the root, outside the subgraph and not adjacent to it.
        if size + 1 == k:  # every extension closes a subset
            while extension:
                low = extension & -extension
                extension ^= low
                results.append(subgraph | low)
                if limit is not None and len(results) >= limit:
                    return True
            return False
        while extension:
            low = extension & -extension
            extension ^= low
            around = neighbours[low.bit_length() - 1]
            if extend(subgraph | low, extension | (around & above & ~closed),
                      closed | around, size + 1, above):
                return True
        return False

    rest = free
    while rest:
        root = rest & -rest
        rest ^= root
        if k == 1:
            results.append(root)
            if limit is not None and len(results) >= limit:
                break
            continue
        around = neighbours[root.bit_length() - 1]
        if extend(root, around & rest, root | around, 1, rest):
            break
    return results


def enumerate_connected_subsets(topology: Topology, k: int,
                                limit: int | None = None) -> list[frozenset[int]]:
    """All connected induced ``k``-subsets of ``topology`` (ESU algorithm).

    Each subset is produced exactly once. ``limit`` caps the result for
    pathological sizes; enumeration stops once reached.
    """
    nodes = topology.nodes
    masks = _connected_masks(_neighbour_masks(topology),
                             (1 << len(nodes)) - 1, k, limit)
    return [frozenset(nodes[i] for i in _bits(mask)) for mask in masks]


class ShapeMemos:
    """The mapper memos of one chip type.

    Holds the ``map_similar`` results and the (free set, k) subset
    enumerations, both keyed by free mask, the request profiles keyed
    by request structure, and the shape-keyed certificate, lower-bound,
    Hungarian-score and polish memos (see the module docstring), each
    LRU-bounded by ``memo_size``. ``identity`` is the chip's structural
    key and the edit costs, which a mapper must match to share the
    object.

    It also holds the chip type's bitboards: ``bit`` (node -> its bit),
    ``neighbours`` (bit -> neighbour mask), ``tag_masks`` (tag -> mask
    of the cores carrying it, ``""`` for untagged) and, built on first
    use, the mask of every coordinate rectangle. The WL label and
    certificate interning tables are cleared wholesale once either
    outgrows ``memo_size``.
    """

    #: WL colour-refinement rounds, as ``Topology.wl_certificate``.
    WL_ITERATIONS = 3

    def __init__(self, chip: Topology, memo_size: int,
                 identity: tuple) -> None:
        self.memo_size = memo_size
        self.identity = identity
        self.results: OrderedDict[tuple, MappingResult] = OrderedDict()
        self.subsets: OrderedDict[tuple, list] = OrderedDict()
        self.requests: OrderedDict[tuple, _RequestProfile] = OrderedDict()
        self.certs: OrderedDict = OrderedDict()
        self.bounds: OrderedDict[tuple, float] = OrderedDict()
        self.scores: OrderedDict[tuple, tuple] = OrderedDict()
        self.polished: OrderedDict[tuple, tuple] = OrderedDict()
        self.nodes = chip.nodes
        self.bit = {node: 1 << i for i, node in enumerate(self.nodes)}
        self.full = (1 << len(self.nodes)) - 1
        self.neighbours = _neighbour_masks(chip)
        self._tags = [chip.attr(node) for node in self.nodes]
        self.tag_masks: dict[str, int] = {}
        for i, tag in enumerate(self._tags):
            self.tag_masks[tag] = self.tag_masks.get(tag, 0) | 1 << i
        self._attrs = dict(chip.node_attrs)
        self._tagged = self.mask_of(self._attrs)
        self._neighbour_bits = [[(1 << q, q) for q in _bits(around)]
                                for around in self.neighbours]
        #: WL interning: signature -> label id (``_wl_names`` holds each
        #: id's label string), and sorted final label ids -> certificate.
        self.wl_labels: dict[tuple, int] = {}
        self._wl_names: list[str] = []
        self.wl_certs: dict[tuple, str] = {}
        # Grid rows and columns spanned by the coordinates (0 x 0 without).
        self._extent = ((max(r for r, _ in chip.coords.values()) + 1,
                         max(c for _, c in chip.coords.values()) + 1)
                        if chip.coords else (0, 0))
        # Row-major width when shape keys are translation-canonical,
        # else 0 (mask keys).
        self._cols = self._row_major_cols(chip, *self._extent)
        self._columns = [self.mask_of(range(col, len(self.nodes), self._cols))
                         for col in range(self._cols)]
        # The coordinate grid the mesh slide walks: it runs only on a
        # chip whose edges are exactly the unit steps between its
        # (distinct) coordinates.
        self._by_coord = {coord: node for node, coord in chip.coords.items()}
        steps = {tuple(sorted((node, self._by_coord[(r + dr, c + dc)])))
                 for node, (r, c) in chip.coords.items()
                 for dr, dc in ((0, 1), (1, 0))
                 if (r + dr, c + dc) in self._by_coord}
        self.grid = (len(self._by_coord) == chip.node_count
                     and steps == set(chip.edges))
        self._rectangles: dict[tuple[int, int], list] = {}
        self._rectangle_shapes: dict[int, MeshShape] | None = None

    @staticmethod
    def _row_major_cols(chip: Topology, rows: int, cols: int) -> int:
        """Column count of a chip that is exactly ``Topology.mesh2d``
        (row-major ids, grid-step edges), else 0."""
        if not chip.coords:
            return 0
        grid = Topology.mesh2d(rows, cols)
        if chip.coords == grid.coords and chip.edges == grid.edges:
            return cols
        return 0

    def mask_of(self, nodes) -> int:
        """The mask of ``nodes``; ids not on the chip are ignored."""
        bit = self.bit
        mask = 0
        for node in nodes:
            mask |= bit.get(node, 0)
        return mask

    def nodes_of(self, mask: int) -> list[int]:
        """The sorted node ids of ``mask``."""
        nodes = self.nodes
        return [nodes[i] for i in _bits(mask)]

    def shape(self, mask: int) -> tuple[object, int]:
        """``(key, base)`` of a candidate mask."""
        cols = self._cols
        if not cols:
            return mask, 0
        low = (mask & -mask).bit_length() - 1
        for first_col, column in enumerate(self._columns):
            if mask & column:
                break
        base = low - low % cols + first_col
        tagged = mask & self._tagged
        attrs = self._attrs
        return ((mask >> base,
                 tuple((n - base, attrs[n]) for n in _bits(tagged))
                 if tagged else ()),
                base)

    def row_parity(self, base: int) -> int:
        """``r0 % 2`` of a candidate's corner (0 for mask keys)."""
        return base // self._cols % 2 if self._cols else 0

    def lookup(self, memo: OrderedDict, key, build):
        """LRU-bounded get-or-build."""
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            return hit
        value = build()
        memo[key] = value
        while len(memo) > self.memo_size:
            memo.popitem(last=False)
        return value

    def certificate(self, mask: int) -> str:
        """``Topology.wl_certificate()`` of the chip's induced subgraph
        over ``mask``, refined on the neighbour masks.

        Labels are interned as small ints: a signature (a label plus its
        neighbours' labels, as a sorted multiset) is hashed the first
        time it is seen only, and the certificate of a multiset of final
        labels likewise. Hashes are taken over the same strings
        ``wl_certificate`` builds, so the result is byte-for-byte equal.
        """
        positions = _bits(mask)
        neighbour_bits = self._neighbour_bits
        adjacency = [[q for bit, q in neighbour_bits[p] if mask & bit]
                     for p in positions]
        interned = self.wl_labels
        names = self._wl_names
        tags = self._tags
        labels = [0] * len(self.nodes)  # bit position -> label id
        for p, adj in zip(positions, adjacency):
            signature = (len(adj), tags[p])
            label = interned.get(signature)
            if label is None:
                label = interned[signature] = len(names)
                names.append(f"{len(adj)}|{tags[p]}")
            labels[p] = label
        for _ in range(self.WL_ITERATIONS):
            refined = labels[:]
            for p, adj in zip(positions, adjacency):
                own = labels[p]
                signature = (own, *sorted([labels[q] for q in adj]))
                label = interned.get(signature)
                if label is None:
                    text = (names[own] + "("
                            + ",".join(sorted([names[labels[q]]
                                               for q in adj])) + ")")
                    label = interned[signature] = len(names)
                    names.append(hashlib.blake2s(
                        text.encode(), digest_size=8).hexdigest())
                refined[p] = label
            labels = refined
        final = tuple(sorted([labels[p] for p in positions]))
        certificate = self.wl_certs.get(final)
        if certificate is None:
            certificate = self.wl_certs[final] = hashlib.blake2s(
                ",".join(sorted([names[label] for label in final])).encode(),
                digest_size=16).hexdigest()
        if (len(interned) > self.memo_size
                or len(self.wl_certs) > self.memo_size):
            interned.clear()
            names.clear()
            self.wl_certs.clear()
        return certificate

    def rectangles(self, height: int, width: int) -> list[tuple[int, tuple]]:
        """Every ``height`` x ``width`` coordinate rectangle of the chip
        whose cells all hold a core, as ``(mask, cells)`` with ``cells``
        row-major, in corner-row then corner-column order."""
        placed = self._rectangles.get((height, width))
        if placed is None:
            by_coord = self._by_coord
            bit = self.bit
            rows, cols = self._extent
            placed = []
            for base_row in range(rows - height + 1):
                for base_col in range(cols - width + 1):
                    cells = tuple(by_coord.get((base_row + r, base_col + c))
                                  for r in range(height)
                                  for c in range(width))
                    if None not in cells:
                        placed.append((sum(bit[n] for n in cells), cells))
            self._rectangles[(height, width)] = placed
        return placed

    def rectangle_shape(self, mask: int) -> MeshShape | None:
        """The ``MeshShape`` of the rectangle ``mask`` covers exactly,
        or None when it covers none."""
        if self._rectangle_shapes is None:
            rows, cols = self._extent
            self._rectangle_shapes = {
                rect: MeshShape(height, width)
                for height in range(1, rows + 1)
                for width in range(1, cols + 1)
                for rect, _ in self.rectangles(height, width)}
        return self._rectangle_shapes.get(mask)


@dataclass(frozen=True, slots=True)
class _RequestProfile:
    """What the mapper reads of one request structure, computed once
    per ``_request_key`` and memoized in ``ShapeMemos.requests``."""

    key: tuple
    #: ``request.wl_certificate()``.
    certificate: str
    #: ``(grid, height, width)`` of the mesh slide: virtual node ->
    #: (row, col) for an untagged mesh request on a mapper that slides,
    #: else None.
    slide: tuple[dict[int, tuple[int, int]], int, int] | None
    #: The request side of ``bijection_lower_bound``: sorted degrees,
    #: edge count, ``(tag, count, mismatch price)`` in first-seen node
    #: order, and the cheapest edge-deletion price (0 without edges).
    degrees: tuple[int, ...]
    edges: int
    tags: tuple[tuple[str, int, float], ...]
    cheapest_delete: float


def _sixteenths(price: float) -> int:
    """A validated price (a multiple of 1/16) as an exact int count of
    sixteenths."""
    return int(16 * price)


@dataclass(frozen=True, slots=True)
class _RefineTables:
    """One polish's 2-opt prices over int positions, in sixteenths.

    Request nodes are positions ``a`` in ``request.nodes`` order and
    candidate nodes positions ``A`` in ``candidate.nodes`` order. Built
    once per polish miss and shared by its refinement seeds.
    """

    request_nodes: list[int]
    candidate_nodes: list[int]
    request_index: dict[int, int]
    candidate_index: dict[int, int]
    #: ``sub[a][A]``: price of placing ``a`` on ``A``.
    sub: list[list[int]]
    #: Per request edge, ``(a, v, rows)``; ``rows[A][X]`` prices the edge
    #: on images ``(A, X)``: its stretch (``STRETCH_WEIGHT`` times the
    #: extra hops) plus its deletion price when ``A`` and ``X`` are not
    #: adjacent. Edges of one deletion price share one ``rows``.
    edges: list[tuple[int, int, list[list[int]]]]
    #: ``incident[a]``: ``(v, rows)`` of every request edge at ``a``.
    incident: list[list[tuple[int, list[list[int]]]]]
    #: ``request_adjacent[a]``: mask of ``a``'s request neighbours.
    request_adjacent: list[int]
    #: ``candidate_adjacent[A]``: ``A``'s candidate neighbours.
    candidate_adjacent: list[list[int]]
    #: Price of one inserted candidate edge.
    insert: int


@dataclass(slots=True)
class _Candidate:
    """One connected free subset (a mask), its shape key and (lazily)
    topology."""

    mask: int
    shape: object
    base: int
    topology: Topology | None = None


def _translated(mapping: dict[int, int], offset: int) -> dict[int, int]:
    return {v: p + offset for v, p in mapping.items()}


class TopologyMapper:
    """Implements the allocation strategies over one chip topology."""

    #: Cap on the connected subsets enumerated per (free set, k).
    CANDIDATE_LIMIT = 20_000
    #: Largest request size for which candidates are enumerated
    #: exhaustively (ESU); beyond it a compact-region generator is used
    #: (the paper prunes aggressively and parallelizes instead).
    ESU_MAX_REQUEST = 9

    def __init__(self, chip_topology: Topology,
                 costs: EditCosts | None = None,
                 memo_size: int = 16_384,
                 memos: ShapeMemos | None = None) -> None:
        self.chip = chip_topology
        self.costs = costs or EditCosts()
        #: ``map_similar`` lookups in ``memos.results``, per mapper; a
        #: hit may be a result priced on a sibling chip.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Whether untagged request nodes substitute free, so an untagged
        #: mesh slid onto free cells is exact whatever their tags.
        self._untagged_free = self.costs.tag_price("") == 0.0
        self._chip_zigzag = self._zigzag_order(chip_topology)
        # Coordinates are required, not just mesh structure: without them
        # mesh_shape() falls back to isomorphism, which would misdetect a
        # snake-shaped candidate as a "1xN block" and reuse understated
        # chip hops in _candidate_hops.
        self._chip_is_mesh = (bool(chip_topology.coords)
                              and chip_topology.mesh_shape() is not None)
        self._chip_hops: dict[int, dict[int, int]] | None = None
        #: Shape memos, each LRU-bounded by ``memo_size``: private
        #: unless a ``ShapeMemos`` of an equal chip type is passed in to
        #: share. One object can serve a whole fleet's chips of a type,
        #: and a 36-core best-fit fleet prices ~9k distinct shapes, so
        #: the bound sits above that.
        identity = (self._request_key(chip_topology), self.costs)
        if memos is None:
            memos = ShapeMemos(chip_topology, memo_size, identity)
        elif memos.identity != identity:
            raise TopologyError(
                "shape memos are shared only between mappers of equal "
                "chips and equal edit costs")
        self.memos = memos
        #: Whether ``holds_exact_mesh`` can decide: the chip is exactly
        #: ``Topology.mesh2d`` and distance 0 means an isomorphic
        #: induced candidate (structural prices are positive, and
        #: untagged request nodes substitute free).
        self._rectangles_decide = bool(memos._cols) and self._untagged_free
        # Free masks of the last two allocated sets (see free_topology):
        # the current occupancy plus one ad-hoc set, as resize and
        # in-place migration pass. Each entry is ``[mask, Topology or
        # None]``; the topology is built on first request.
        self._free_memo: OrderedDict[frozenset[int], list] = OrderedDict()
        # Operation counters (surfaced via cache_stats()).
        self.candidates_considered = 0
        self.candidates_pruned = 0
        self.candidates_refined = 0
        self.objective_evaluations = 0
        self.free_rebuilds = 0

    # -- memo keys and counters ----------------------------------------------
    def _request_key(self, request: Topology) -> tuple:
        """Structural identity of a request topology.

        The request's name is deliberately excluded (every tenant names its
        mesh differently); coordinates are included because
        ``_mesh_placement`` slides the request by its grid layout, and
        node attributes because they price substitutions.
        """
        return (
            tuple(request.nodes),
            tuple(request.edges),
            tuple(sorted(request.coords.items())) if request.coords else None,
            tuple(sorted(request.node_attrs.items()))
            if request.node_attrs else None,
        )

    def cache_stats(self) -> dict[str, int | float]:
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "candidates_considered": self.candidates_considered,
            "candidates_pruned": self.candidates_pruned,
            "candidates_refined": self.candidates_refined,
            "objective_evaluations": self.objective_evaluations,
            "free_rebuilds": self.free_rebuilds,
        }

    # -- helpers ------------------------------------------------------------
    def _free_entry(self, allocated: set[int] | frozenset[int]) -> list:
        """The two-entry LRU behind ``free_topology`` (``free_rebuilds``
        counts its misses). ``frozenset`` of a frozenset is the object
        itself, and CPython caches its hash, so the hypervisor's
        occupancy record hits by identity in O(1)."""
        key = frozenset(allocated)
        memo = self._free_memo
        entry = memo.get(key)
        if entry is not None:
            memo.move_to_end(key)
            return entry
        self.free_rebuilds += 1
        entry = [self.memos.full & ~self.memos.mask_of(key), None]
        memo[key] = entry
        if len(memo) > 2:
            memo.popitem(last=False)
        return entry

    def _free_mask(self, allocated: set[int] | frozenset[int]) -> int:
        """The mask of the cores not in ``allocated`` (memoized)."""
        return self._free_entry(allocated)[0]

    def free_topology(self, allocated: set[int] | frozenset[int]) -> Topology:
        """The induced topology over the cores not in ``allocated``.

        A pure function of ``allocated``, built once per entry of the
        free-mask LRU. The result is shared: treat it as read-only.
        """
        entry = self._free_entry(allocated)
        if entry[1] is None:
            entry[1] = self.chip.subtopology(self.memos.nodes_of(entry[0]),
                                             name="free")
        return entry[1]

    def _taken(self, allocated: set[int] | frozenset[int]) -> int:
        """The chip mask of ``allocated``, read from the free-mask LRU
        when it holds the set (a peek: neither order nor counters move)."""
        entry = self._free_memo.get(frozenset(allocated))
        if entry is not None:
            return self.memos.full ^ entry[0]
        return self.memos.mask_of(allocated)

    def free_fragmentation(self, allocated: set[int] | frozenset[int]
                           ) -> float:
        """``1 - largest free fragment / free cores`` (0 with none free):
        :func:`repro.serving.metrics.fragmentation_ratio` of the chip and
        ``allocated``, over the same ints, by flood fill on the
        neighbour masks. Reads the free-mask LRU as ``_taken`` does,
        without moving it or its counters."""
        memos = self.memos
        free = memos.full ^ self._taken(allocated)
        if not free:
            return 0.0
        neighbours = memos.neighbours
        largest = 0
        rest = free
        while rest:
            component = frontier = rest & -rest
            while frontier:
                grown = 0
                for p in _bits(frontier):
                    grown |= neighbours[p]
                frontier = grown & rest & ~component
                component |= frontier
            rest ^= component
            largest = max(largest, component.bit_count())
        return 1.0 - largest / free.bit_count()

    @staticmethod
    def _check_capacity(request: Topology, free_count: int) -> None:
        if request.node_count > free_count:
            raise AllocationError(
                f"request needs {request.node_count} cores but only "
                f"{free_count} are free"
            )

    @staticmethod
    def _zigzag_order(topology: Topology) -> list[int]:
        """Boustrophedon order: row 0 left-to-right, row 1 right-to-left..."""
        if not topology.coords:
            return topology.nodes
        def key(node):
            row, col = topology.coords[node]
            return (row, col if row % 2 == 0 else -col)
        return sorted(topology.nodes, key=key)

    def _zigzag_within(self, nodes) -> list[int]:
        """Zig-zag order of a chip-node subset via the cached chip walk.

        Equivalent to ``_zigzag_order`` of the induced subtopology (the
        sort key depends only on chip coordinates) without building one.
        """
        members = set(nodes)
        return [n for n in self._chip_zigzag if n in members]

    def _isomorphism_mapping(self, request: Topology,
                             candidate: Topology) -> dict[int, int] | None:
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            request.to_networkx(), candidate.to_networkx(),
            node_match=lambda a, b: a.get("abbr", "") == b.get("abbr", ""),
        )
        if matcher.is_isomorphic():
            return dict(matcher.mapping)
        return None

    # -- candidate generation -------------------------------------------------
    def _request_grid(self, request: Topology) -> dict[int, tuple[int, int]] | None:
        """Virtual node -> (row, col) within the request mesh, if a mesh."""
        shape = request.mesh_shape()
        if shape is None:
            return None
        if request.coords:
            min_row = min(r for r, _ in request.coords.values())
            min_col = min(c for _, c in request.coords.values())
            return {
                node: (r - min_row, c - min_col)
                for node, (r, c) in request.coords.items()
            }
        return {
            node: divmod(index, shape.cols)
            for index, node in enumerate(sorted(request.nodes))
        }

    def _profile(self, request: Topology) -> _RequestProfile:
        """The request's profile, memoized per request structure."""
        key = self._request_key(request)
        memos = self.memos
        return memos.lookup(memos.requests, key,
                            lambda: self._build_profile(request, key))

    def _build_profile(self, request: Topology,
                       key: tuple) -> _RequestProfile:
        costs = self.costs
        slide = None
        # A slid placement is priced 0 without looking at tags or edges,
        # which is right only for an untagged request whose nodes
        # substitute free, on a chip whose edges are exactly its
        # coordinate grid.
        if (self._untagged_free and self.memos.grid
                and not any(request.node_attrs.values())):
            grid = self._request_grid(request)
            if grid is not None:
                slide = (grid, max(r for r, _ in grid.values()) + 1,
                         max(c for _, c in grid.values()) + 1)
        listed = [price for (u, v), price in costs.edge_delete_at
                  if request.has_edge(u, v)]
        if len(listed) < request.edge_count:
            listed.append(costs.edge_delete)
        tags = Counter(request.attr(node) for node in request.nodes)
        return _RequestProfile(
            key=key,
            certificate=request.wl_certificate(),
            slide=slide,
            degrees=tuple(sorted(request.degree(node)
                                 for node in request.nodes)),
            edges=request.edge_count,
            tags=tuple((tag, count, costs.tag_price(tag))
                       for tag, count in tags.items()),
            cheapest_delete=min(listed) if listed else 0.0,
        )

    def _mesh_placement(self, profile: _RequestProfile,
                        free: int) -> dict[int, int] | None:
        """The first exact vmap sliding the request mesh over free cells.

        Placements are tried in orientation (as given, then transposed),
        corner-row, corner-column order, each one a precomputed rectangle
        mask tested against the taken cores at once. A request the
        profile gives no slide grid gets None and takes the certificate
        path.
        """
        if profile.slide is None:
            return None
        memos = self.memos
        grid, height, width = profile.slide
        taken = memos.full ^ free
        for mask, cells in memos.rectangles(height, width):
            if not mask & taken:
                return {node: cells[r * width + c]
                        for node, (r, c) in grid.items()}
        if height != width:
            for mask, cells in memos.rectangles(width, height):
                if not mask & taken:
                    return {node: cells[c * height + r]
                            for node, (r, c) in grid.items()}
        return None

    def _compact_sets(self, free: int, k: int) -> list[int]:
        """Diverse connected k-regions: the first ``k`` cores of a BFS
        (sorted neighbours) from every free core, deduplicated."""
        neighbours = self.memos.neighbours
        seen: set[int] = set()
        subsets: list[int] = []
        for seed in _bits(free):
            ball = 1 << seed
            count = 1
            queue = [seed]
            head = 0
            while count < k and head < len(queue):
                fresh = neighbours[queue[head]] & free & ~ball
                head += 1
                while fresh and count < k:
                    low = fresh & -fresh
                    fresh ^= low
                    ball |= low
                    count += 1
                    queue.append(low.bit_length() - 1)
            if count < k or ball in seen:
                continue
            seen.add(ball)
            subsets.append(ball)
        return subsets

    def _candidate_sets(self, free: int, k: int) -> list[int]:
        """Connected k-subsets of the free mask (memoized per free set —
        churn revisits the same fragmentation states)."""
        def build():
            if k <= self.ESU_MAX_REQUEST:
                return _connected_masks(self.memos.neighbours, free, k,
                                        self.CANDIDATE_LIMIT)
            return self._compact_sets(free, k)
        memos = self.memos
        return memos.lookup(memos.subsets, (free, k), build)

    def _topology(self, candidate: _Candidate) -> Topology:
        """The candidate's induced subtopology, built on first use."""
        if candidate.topology is None:
            candidate.topology = self.chip.subtopology(
                self.memos.nodes_of(candidate.mask))
        return candidate.topology

    def _certified(self, subsets: list[int]):
        """Yield ``(candidate, WL certificate)`` over ``subsets`` in
        enumeration order; a certificate is computed on a shape miss
        only, from the neighbour masks."""
        memos = self.memos
        certs = memos.certs
        for mask in subsets:
            shape, base = memos.shape(mask)
            yield _Candidate(mask, shape, base), memos.lookup(
                certs, shape, lambda: memos.certificate(mask))

    def block_shape(self, cores) -> MeshShape | None:
        """The ``MeshShape`` of the chip's induced subgraph over ``cores``
        (None when it is not a full mesh): one lookup in the rectangle
        table on a chip that is exactly ``Topology.mesh2d``, where a full
        mesh is exactly a coordinate rectangle; ``mesh_shape()`` of the
        subtopology elsewhere."""
        memos = self.memos
        if memos._cols:
            return memos.rectangle_shape(memos.mask_of(cores))
        return self.chip.subtopology(cores).mesh_shape()

    # -- strategies -----------------------------------------------------------
    def map_exact(self, request: Topology,
                  allocated: set[int] | None = None) -> MappingResult:
        """Exact-topology placement or TopologyLockIn."""
        free = self._free_mask(allocated or set())
        self._check_capacity(request, free.bit_count())
        profile = self._profile(request)
        vmap = self._mesh_placement(profile, free)
        if vmap is not None:
            return MappingResult(
                strategy="exact", vmap=vmap, distance=0.0,
                connected=True, candidates_considered=1,
            )
        subsets = self._candidate_sets(free, request.node_count)
        considered = len(subsets)
        for candidate, cert in self._certified(subsets):
            if cert != profile.certificate:
                continue
            mapping = self._isomorphism_mapping(request,
                                                self._topology(candidate))
            if mapping is not None:
                return MappingResult(
                    strategy="exact", vmap=mapping, distance=0.0,
                    connected=True, candidates_considered=considered,
                )
        raise TopologyLockIn(
            f"no exact placement for {request.name!r} "
            f"({request.node_count} cores requested, {free.bit_count()} "
            f"free) — the topology lock-in problem"
        )

    def map_straightforward(self, request: Topology,
                            allocated: set[int] | None = None) -> MappingResult:
        """Zig-zag by core ID, ignoring the requested topology."""
        free = self._free_mask(allocated or set())
        self._check_capacity(request, free.bit_count())
        chosen = self._zigzag_within(
            self.memos.nodes_of(free))[: request.node_count]
        vmap = dict(zip(sorted(request.nodes), chosen))
        candidate = self.chip.subtopology(chosen)
        # Price the *naive* assignment itself — this strategy does not
        # optimize which virtual core lands on which physical core.
        distance = induced_edit_cost(request, candidate, dict(vmap), self.costs)
        return MappingResult(
            strategy="straightforward", vmap=vmap, distance=distance,
            connected=self.chip.is_connected(set(chosen)),
            candidates_considered=1,
        )

    def holds_exact_mesh(self, rows: int, cols: int,
                         allocated: set[int] | frozenset[int]
                         ) -> bool | None:
        """Does the free set hold an exact ``rows`` x ``cols`` mesh?

        Answers whether ``map_similar(Topology.mesh2d(rows, cols),
        allocated)`` would return distance 0 (an ``AllocationError``
        counts as no) by testing the rectangle masks of both
        orientations against the taken cores, without enumerating
        candidates. It decides only when ``rows`` and ``cols`` are both
        at least 2 on a chip that is exactly ``Topology.mesh2d`` under
        edit costs where untagged request nodes substitute free, and
        returns ``None`` otherwise. There, distance 0 needs a free
        induced subgraph isomorphic to the request (every structural
        price is positive), and an induced r x c grid with r, c >= 2 in
        a grid graph is an axis-aligned rectangle: its 4-cycles are unit
        squares, glued edge to edge. A 1 x k line has no 4-cycle and can
        be exact as an L or a snake, so lines stay undecided.
        """
        if rows < 2 or cols < 2 or not self._rectangles_decide:
            return None
        taken = self._taken(allocated)
        memos = self.memos
        return any(not mask & taken
                   for dims in {(rows, cols), (cols, rows)}
                   for mask, _ in memos.rectangles(*dims))

    def map_similar(self, request: Topology,
                    allocated: set[int] | None = None,
                    require_connected: bool = True) -> MappingResult:
        """Algorithm 1: minimum topology-edit-distance placement.

        The placement is a pure function of the request's structure, the
        free-core set and ``require_connected``, so results are memoized
        under that key in ``memos.results``, shared by every chip of the
        type: a hit, possibly priced on a sibling chip, skips candidate
        enumeration and GED scoring. Every call returns a copy with a
        fresh ``vmap``.
        """
        allocated = allocated or set()
        free = self._free_mask(allocated)
        self._check_capacity(request, free.bit_count())

        def build() -> MappingResult:
            self.cache_misses += 1
            return self._map_similar_uncached(request, allocated,
                                              require_connected)

        misses = self.cache_misses
        memos = self.memos
        result = memos.lookup(
            memos.results,
            (self._request_key(request), free, require_connected),
            build)
        self.cache_hits += self.cache_misses == misses
        return replace(result, vmap=dict(result.vmap))

    def _map_similar_uncached(self, request: Topology, allocated,
                              require_connected: bool) -> MappingResult:
        """One Algorithm 1 run, without the results memo."""
        free = self._free_mask(allocated)
        self._check_capacity(request, free.bit_count())
        profile = self._profile(request)
        vmap = self._mesh_placement(profile, free)
        if vmap is not None:
            return MappingResult(  # Algorithm 1 line 22: early exact return
                strategy="similar", vmap=vmap, distance=0.0,
                connected=True, candidates_considered=1,
            )

        subsets = self._candidate_sets(free, request.node_count)
        considered = len(subsets)
        candidates: list[_Candidate] = []
        seen_certs: set[str] = set()
        for candidate, cert in self._certified(subsets):
            if cert == profile.certificate:
                mapping = self._isomorphism_mapping(
                    request, self._topology(candidate))
                if mapping is not None:  # Algorithm 1 line 22: early return
                    return MappingResult(
                        strategy="similar", vmap=mapping, distance=0.0,
                        connected=True, candidates_considered=considered,
                    )
            if cert in seen_certs:  # line 25: dedup identical topologies
                continue
            seen_certs.add(cert)
            candidates.append(candidate)

        if not candidates:
            if require_connected:
                raise AllocationError(
                    f"free cores hold no connected {request.node_count}-subset"
                )
            return self.map_fragmented(request, allocated)

        distance, mapping = self._best_placement(request, profile,
                                                 candidates)
        return MappingResult(
            strategy="similar", vmap=mapping, distance=distance,
            connected=True, candidates_considered=considered,
        )

    def _best_placement(self, request: Topology, profile: _RequestProfile,
                        candidates: list[_Candidate]
                        ) -> tuple[float, dict[int, int]]:
        """R-2 argmin over deduplicated candidates (Algorithm 1 lines
        30-32), then the 2-opt polish, memoized per shape."""
        candidate, seed = self._select_screened(request, profile,
                                                candidates)
        base = candidate.base
        memos = self.memos
        distance, polished = memos.lookup(
            memos.polished,
            (profile.key, candidate.shape, memos.row_parity(base)),
            lambda: self._relative(self._polish(
                request, self._topology(candidate), seed), base))
        return distance, _translated(polished, base)

    @staticmethod
    def _relative(scored: tuple[float, dict[int, int]],
                  base: int) -> tuple[float, dict[int, int]]:
        """A ``(distance, vmap)`` pair with the vmap stored as ``p - base``."""
        distance, mapping = scored
        return distance, _translated(mapping, -base)

    def _scored(self, request_key: tuple, request: Topology,
                candidate: _Candidate) -> tuple[float, dict[int, int]]:
        """Hungarian score + mapping, memoized per (request, shape)."""
        memos = self.memos
        distance, mapping = memos.lookup(
            memos.scores, (request_key, candidate.shape),
            lambda: self._relative(self._bijection(
                request, self._topology(candidate)), candidate.base))
        return distance, _translated(mapping, candidate.base)

    def _select_screened(self, request: Topology, profile: _RequestProfile,
                         candidates: list[_Candidate]
                         ) -> tuple[_Candidate, dict[int, int]]:
        """R-2 argmin with admissible lower-bound pruning.

        Candidates are visited cheapest bound first; once the bound (and,
        on ties, the enumeration index the reference loop breaks ties by)
        exceeds the incumbent's *exact* Hungarian score, no remaining
        candidate can win and the tail is pruned unscored. Selection is
        therefore identical to the reference loop — including which of
        several equal-distance candidates wins. Bounds are priced on the
        masks, so a pruned candidate never builds its ``Topology``.
        """
        self.candidates_considered += len(candidates)
        memos = self.memos
        request_key = profile.key
        bounds = [
            memos.lookup(
                memos.bounds, (request_key, candidate.shape),
                lambda mask=candidate.mask: self._mask_bound(profile, mask))
            for candidate in candidates
        ]
        order = sorted(range(len(candidates)), key=lambda i: (bounds[i], i))
        best: tuple[float, int, dict[int, int]] | None = None
        for position, index in enumerate(order):
            if best is not None and (bounds[index], index) > best[:2]:
                self.candidates_pruned += len(order) - position
                break
            self.candidates_refined += 1
            distance, mapping = self._scored(request_key, request,
                                             candidates[index])
            if best is None or (distance, index) < best[:2]:
                best = (distance, index, mapping)
        return candidates[best[1]], best[2]

    def _mask_bound(self, profile: _RequestProfile, mask: int) -> float:
        """``bijection_lower_bound(request, chip.subtopology(nodes),
        costs)`` of the candidate ``mask``, bit for bit: candidate
        degrees are popcounts of the neighbour masks within ``mask``, tag
        counts are popcounts of the tag masks, the request side comes
        from the profile, and every sum is formed in the same order."""
        memos = self.memos
        neighbours = memos.neighbours
        degrees = sorted([(neighbours[p] & mask).bit_count()
                          for p in _bits(mask)])
        tag_masks = memos.tag_masks
        node_term = float(sum(
            price * max(0, count - (mask & tag_masks.get(tag, 0)).bit_count())
            for tag, count, price in profile.tags))
        matchable = sum(map(min, profile.degrees, degrees)) // 2
        deletions = max(0, profile.edges - matchable)
        insertions = max(0, sum(degrees) // 2 - matchable)
        edge_term = insertions * self.costs.edge_insert
        if deletions:
            edge_term += deletions * profile.cheapest_delete
        return node_term + edge_term

    def _bijection(self, request: Topology,
                   candidate: Topology) -> tuple[float, dict[int, int]]:
        """Hungarian ``(distance, mapping)`` with numpy-built matrices
        (bit-identical to the scalar loop, so the assignment cannot
        drift)."""
        return best_bijection(request, candidate, self.costs)

    def _polish_seeds(self, request: Topology, candidate: Topology,
                      hungarian_seed: dict[int, int]) -> list[dict[int, int]]:
        """The 2-opt starting points: the Hungarian seed, a BFS-aligned
        seed and a snake-aligned seed.

        The Hungarian assignment only sees node-local costs; aligning two
        BFS traversals gives a geometry-aware alternative. The snake seed
        zips the boustrophedon walks of both topologies: dataflow
        pipelines are laid along the snake walk of the virtual topology
        (§3.1 programming model), so it keeps the dominant traffic on
        short physical paths.
        """
        request_corner = min(request.nodes, key=request.degree)
        candidate_corner = min(candidate.nodes, key=candidate.degree)
        return [
            hungarian_seed,
            dict(zip(request.bfs_order(request_corner),
                     candidate.bfs_order(candidate_corner))),
            dict(zip(self._zigzag_order(request),
                     self._zigzag_order(candidate))),
        ]

    def _polish(self, request: Topology, candidate: Topology,
                hungarian_seed: dict[int, int]) -> tuple[float, dict[int, int]]:
        """2-opt refinement from every polish seed; the best one wins.

        The refinement tables are built once and shared by the seeds,
        duplicate seeds are skipped, and the loop stops once a
        refinement reaches objective zero (nothing can beat an exact,
        stretch-free mapping).
        """
        tables = self._refine_tables(request, candidate,
                                     self._candidate_hops(candidate))
        best: tuple[float, dict[int, int]] | None = None
        seen: set[tuple] = set()
        for seed in self._polish_seeds(request, candidate, hungarian_seed):
            key = tuple(sorted(seed.items()))
            if key in seen:
                continue
            seen.add(key)
            outcome = self._refine_delta(tables, seed)
            if best is None or outcome[0] < best[0]:
                best = outcome
            if best[0] <= 1e-12:
                break
        distance = induced_edit_cost(request, candidate, dict(best[1]),
                                     self.costs)
        return distance, best[1]

    @staticmethod
    def _all_pairs_hops_vectorized(topology: Topology) -> dict[int, dict[int, int]]:
        """Hop table via one vectorized multi-source BFS.

        A boolean frontier matrix (one row per source) is advanced by
        adjacency matmul, levelling every source's BFS in lockstep —
        the per-node Python BFS loop becomes ``O(diameter)`` numpy ops.
        Hop counts are integers, so the table equals a per-node BFS
        exactly (unreachable pairs are absent); only dict insertion
        order may differ, which no consumer observes.
        """
        nodes = topology.nodes
        n = len(nodes)
        if n == 0:
            return {}
        index = {node: i for i, node in enumerate(nodes)}
        adjacency = np.zeros((n, n), dtype=np.int64)
        for u, v in topology.edges:
            i, j = index[u], index[v]
            adjacency[i, j] = 1
            adjacency[j, i] = 1
        dist = np.full((n, n), -1, dtype=np.int64)
        frontier = np.eye(n, dtype=bool)
        reached = frontier.copy()
        dist[frontier] = 0
        level = 0
        while True:
            frontier = ((frontier @ adjacency) > 0) & ~reached
            if not frontier.any():
                break
            level += 1
            dist[frontier] = level
            reached |= frontier
        return {
            u: {nodes[j]: hops for j, hops in enumerate(row) if hops >= 0}
            for u, row in zip(nodes, dist.tolist())
        }

    @property
    def chip_hops(self) -> dict[int, dict[int, int]]:
        """Chip-level all-pairs hop table, computed once per mapper."""
        if self._chip_hops is None:
            self._chip_hops = self._all_pairs_hops_vectorized(self.chip)
        return self._chip_hops

    def _candidate_hops(self, candidate: Topology) -> dict[int, dict[int, int]]:
        """Per-candidate all-pairs hops (built once per polish miss).

        The chip table is always a lower bound on a subgraph's hop count
        (paths may leave the candidate). For convex candidates — a
        contiguous mesh block on a mesh chip — the bound is tight, so the
        chip table (computed once) is reused verbatim; everything else
        falls back to a per-candidate BFS.
        """
        if self._chip_is_mesh and candidate.mesh_shape() is not None:
            chip_hops = self.chip_hops
            nodes = candidate.nodes
            return {u: {v: chip_hops[u][v] for v in nodes} for u in nodes}
        return self._all_pairs_hops_vectorized(candidate)

    #: Weight of edge *stretch* (extra hops of a request edge on the
    #: physical fabric) relative to one edit operation. This realizes the
    #: paper's customizable EdgeMatch: an edge mapped 3 hops apart is worse
    #: than one mapped 2 hops apart, even though plain GED prices both as
    #: a single deletion. A multiple of 1/16, as every edit price.
    STRETCH_WEIGHT = 0.5

    def _refine_tables(self, request: Topology, candidate: Topology,
                       hop: dict[int, dict[int, int]]) -> _RefineTables:
        """The int tables of one polish (see :class:`_RefineTables`).

        ``hop`` is the candidate's all-pairs hop table; a pair it lacks
        (unreachable) counts ``request.node_count`` hops.
        """
        costs = self.costs
        request_nodes = request.nodes
        candidate_nodes = candidate.nodes
        request_index = {v: a for a, v in enumerate(request_nodes)}
        candidate_index = {p: i for i, p in enumerate(candidate_nodes)}
        fallback = request.node_count
        weight = _sixteenths(self.STRETCH_WEIGHT)
        candidate_tags = [candidate.attr(p) for p in candidate_nodes]
        sub = []
        for v in request_nodes:
            tag = request.attr(v)
            price = _sixteenths(costs.tag_price(tag))
            sub.append([0 if tag == other else price
                        for other in candidate_tags])
        stretch = [[weight * (hop[p].get(q, fallback) - 1)
                    for q in candidate_nodes] for p in candidate_nodes]
        candidate_adjacent = [[candidate_index[q] for q in candidate._adj[p]]
                              for p in candidate_nodes]
        by_price: dict[int, list[list[int]]] = {}

        def rows_of(price: int) -> list[list[int]]:
            rows = by_price.get(price)
            if rows is None:
                rows = by_price[price] = [
                    [gap + price for gap in row] for row in stretch]
                for row, adjacent in zip(rows, candidate_adjacent):
                    for x in adjacent:
                        row[x] -= price
            return rows

        edges = []
        incident: list[list] = [[] for _ in request_nodes]
        for u, v in request.edges:
            a, b = request_index[u], request_index[v]
            rows = rows_of(_sixteenths(costs.edge_price(u, v)))
            edges.append((a, b, rows))
            incident[a].append((b, rows))
            incident[b].append((a, rows))
        return _RefineTables(
            request_nodes=request_nodes,
            candidate_nodes=candidate_nodes,
            request_index=request_index,
            candidate_index=candidate_index,
            sub=sub,
            edges=edges,
            incident=incident,
            request_adjacent=[sum(1 << b for b, _ in around)
                              for around in incident],
            candidate_adjacent=candidate_adjacent,
            insert=_sixteenths(costs.edge_insert),
        )

    def _refine_delta(self, tables: _RefineTables, seed: dict[int, int],
                      max_passes: int = 6) -> tuple[float, dict[int, int]]:
        """2-opt on edit cost + stretch, each trial swap priced in one pass.

        The objective is the induced edit cost of the mapping plus
        ``STRETCH_WEIGHT`` times the extra hops of every request edge.
        Swaps are tried in request-node order (first improvement, at
        most ``max_passes`` passes, stopping early at objective 0). A
        trial of ``(a, b)`` sums, without touching the mapping, the
        change of the terms it can move: the two substitutions, the
        request edges at ``a`` or ``b`` (one ``rows`` lookup each, edge
        ``(a, b)`` itself cannot change) and the candidate edges at
        their images, counted as popcounts of ``pre`` (per candidate
        position, the mask of its neighbours' preimages) against the
        request adjacency masks. A swap is accepted when that delta is
        negative.

        Every price is an exact int of sixteenths, so the delta is the
        full objective's change exactly, and ``delta < 0`` is the accept
        test of the full-recompute refine the tests keep as the oracle
        (``after + 1e-12 < before`` over multiples of 1/16): the accept
        sequence, the refined mapping and the returned objective are
        identical. ``objective_evaluations`` counts the start objective
        and every trial, as the oracle does.
        """
        n = len(tables.request_nodes)
        index = tables.candidate_index
        m = [index[seed[v]] for v in tables.request_nodes]
        inv = [0] * n
        for a, image in enumerate(m):
            inv[image] = a
        sub = tables.sub
        incident = tables.incident
        adjacent = tables.request_adjacent
        candidate_adjacent = tables.candidate_adjacent
        insert = tables.insert
        pre = [sum(1 << inv[q] for q in around)
               for around in candidate_adjacent]
        current = sum(sub[a][image] for a, image in enumerate(m))
        for a, b, rows in tables.edges:
            current += rows[m[a]][m[b]]
        # Inserted candidate edges: those whose preimages are not
        # request neighbours, each seen from both ends.
        current += insert * (sum(
            (pre[x] & ~adjacent[inv[x]]).bit_count() for x in range(n)) // 2)
        self.objective_evaluations += 1
        for _ in range(max_passes):
            self.objective_evaluations += n * (n - 1) // 2
            improved = False
            for a in range(n):
                sub_a = sub[a]
                incident_a = incident[a]
                adjacent_a = adjacent[a]
                bit_a = 1 << a
                for b in range(a + 1, n):
                    image_a = m[a]
                    image_b = m[b]
                    sub_b = sub[b]
                    delta = (sub_a[image_b] + sub_b[image_a]
                             - sub_a[image_a] - sub_b[image_b])
                    for v, rows in incident_a:
                        if v != b:
                            x = m[v]
                            delta += rows[image_b][x] - rows[image_a][x]
                    for v, rows in incident[b]:
                        if v != a:
                            x = m[v]
                            delta += rows[image_a][x] - rows[image_b][x]
                    adjacent_b = adjacent[b]
                    # Candidate edges at image_a (b's after the swap) and
                    # image_b (a's), less the edge between them, which
                    # the swap cannot change.
                    pre_a = pre[image_a] & ~(1 << b)
                    pre_b = pre[image_b] & ~bit_a
                    delta += insert * (
                        (pre_a & adjacent_a).bit_count()
                        - (pre_a & adjacent_b).bit_count()
                        + (pre_b & adjacent_b).bit_count()
                        - (pre_b & adjacent_a).bit_count())
                    if delta < 0:
                        current += delta
                        improved = True
                        m[a], m[b] = image_b, image_a
                        flip = bit_a | 1 << b
                        for q in candidate_adjacent[image_a]:
                            pre[q] ^= flip
                        for q in candidate_adjacent[image_b]:
                            pre[q] ^= flip
            if not improved or current <= 0:
                break
        nodes = tables.candidate_nodes
        position = tables.request_index
        return current / 16, {v: nodes[m[position[v]]] for v in seed}

    def map_fragmented(self, request: Topology,
                       allocated: set[int] | None = None) -> MappingResult:
        """Relaxed R-3: allow a disconnected placement (uses fragments)."""
        free = self.free_topology(allocated or set())
        self._check_capacity(request, free.node_count)
        chosen: list[int] = []
        remaining = set(free.nodes)
        # Greedily take the largest free fragments first, zig-zag inside.
        while len(chosen) < request.node_count and remaining:
            fragment = self._largest_fragment(free, remaining)
            ordered = self._zigzag_within(fragment)
            take = min(len(ordered), request.node_count - len(chosen))
            chosen.extend(ordered[:take])
            remaining -= fragment
        candidate = free.subtopology(chosen)
        distance, mapping = self._bijection(request, candidate)
        return MappingResult(
            strategy="fragmented", vmap=mapping, distance=distance,
            connected=self.chip.is_connected(set(chosen)),
            candidates_considered=1,
        )

    @staticmethod
    def _largest_fragment(free: Topology, remaining: set[int]) -> set[int]:
        best: set[int] = set()
        unvisited = set(remaining)
        while unvisited:
            seed = next(iter(unvisited))
            stack = [seed]
            comp = {seed}
            while stack:
                node = stack.pop()
                for nbr in free.neighbors(node):
                    if nbr in remaining and nbr not in comp:
                        comp.add(nbr)
                        stack.append(nbr)
            unvisited -= comp
            if len(comp) > len(best):
                best = comp
        return best
