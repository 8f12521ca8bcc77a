"""Chip and virtual-NPU topologies.

A :class:`Topology` is an undirected graph over integer core IDs, optionally
annotated with 2D grid coordinates (for meshes) and per-node attributes
(for heterogeneous cores, e.g. ``"mem"`` for cores adjacent to a memory
interface). It is the common currency between the hardware model
(:mod:`repro.arch.noc`), the topology-mapping allocator
(:mod:`repro.core.topology_mapping`) and the compiler's mapper.

Core IDs are 0-based everywhere in this library (the paper's figures use
1-based labels).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import networkx as nx

from repro.errors import TopologyError

Coord = tuple[int, int]


@dataclass(frozen=True)
class MeshShape:
    """Rows x columns of a 2D-mesh (virtual) topology."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise TopologyError(f"invalid mesh shape {self.rows}x{self.cols}")

    @property
    def node_count(self) -> int:
        return self.rows * self.cols

    def __str__(self) -> str:
        return f"{self.rows}x{self.cols}"


class Topology:
    """An undirected topology over integer node IDs.

    Parameters
    ----------
    nodes:
        Iterable of node IDs.
    edges:
        Iterable of ``(u, v)`` undirected edges between nodes.
    coords:
        Optional mapping ``node -> (row, col)`` grid position. Required for
        dimension-order routing.
    node_attrs:
        Optional mapping ``node -> str`` attribute tag ("abbr" in the
        paper's Algorithm 1), e.g. ``"mem"`` / ``"sa"`` / ``"vu"``.
    name:
        Human-readable label.
    """

    def __init__(
        self,
        nodes,
        edges,
        coords: dict[int, Coord] | None = None,
        node_attrs: dict[int, str] | None = None,
        name: str = "topology",
    ) -> None:
        self.name = name
        self._nodes: list[int] = sorted(set(int(n) for n in nodes))
        node_set = set(self._nodes)
        self._adj: dict[int, set[int]] = {n: set() for n in self._nodes}
        for u, v in edges:
            u, v = int(u), int(v)
            if u not in node_set or v not in node_set:
                raise TopologyError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise TopologyError(f"self-loop on node {u}")
            self._adj[u].add(v)
            self._adj[v].add(u)
        self.coords: dict[int, Coord] = dict(coords) if coords else {}
        if self.coords and set(self.coords) != node_set:
            raise TopologyError("coords must cover every node or be absent")
        self.node_attrs: dict[int, str] = dict(node_attrs) if node_attrs else {}

    # -- constructors -----------------------------------------------------
    @classmethod
    def mesh2d(cls, rows: int, cols: int, name: str | None = None) -> "Topology":
        """A ``rows x cols`` 2D mesh; node ``r * cols + c`` sits at (r, c)."""
        shape = MeshShape(rows, cols)
        nodes = range(shape.node_count)
        coords = {r * cols + c: (r, c) for r in range(rows) for c in range(cols)}
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + cols))
        return cls(nodes, edges, coords=coords, name=name or f"mesh{shape}")

    @classmethod
    def line(cls, n: int, name: str | None = None) -> "Topology":
        return cls.mesh2d(1, n, name=name or f"line{n}")

    @classmethod
    def ring(cls, n: int, name: str | None = None) -> "Topology":
        if n < 3:
            raise TopologyError(f"ring needs >= 3 nodes, got {n}")
        edges = [(i, (i + 1) % n) for i in range(n)]
        return cls(range(n), edges, name=name or f"ring{n}")

    @classmethod
    def from_networkx(cls, graph: nx.Graph, name: str = "graph") -> "Topology":
        return cls(graph.nodes, graph.edges, name=name)

    # -- basic queries ------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self._nodes for v in sorted(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def neighbors(self, node: int) -> list[int]:
        try:
            return sorted(self._adj[node])
        except KeyError:
            raise TopologyError(f"unknown node {node} in {self.name}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(self._adj[n]) for n in self._nodes))

    def attr(self, node: int) -> str:
        """Node attribute tag; empty string when untagged."""
        return self.node_attrs.get(node, "")

    # -- structure ----------------------------------------------------------
    def is_connected(self, nodes: set[int] | None = None) -> bool:
        """Connectivity of the whole topology or of an induced node subset."""
        universe = set(self._nodes) if nodes is None else set(nodes)
        if not universe:
            return True
        for node in universe:
            if node not in self._adj:
                raise TopologyError(f"unknown node {node} in {self.name}")
        start = next(iter(universe))
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for nbr in self._adj[current]:
                if nbr in universe and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen == universe

    def subtopology(self, nodes, name: str | None = None) -> "Topology":
        """The induced subgraph over ``nodes`` (coords/attrs preserved)."""
        node_set = set(int(n) for n in nodes)
        for node in node_set:
            if node not in self._adj:
                raise TopologyError(f"unknown node {node} in {self.name}")
        edges = [
            (u, v)
            for u in node_set
            for v in self._adj[u]
            if v in node_set and u < v
        ]
        coords = {n: self.coords[n] for n in node_set} if self.coords else None
        attrs = {n: self.node_attrs[n] for n in node_set if n in self.node_attrs}
        return Topology(
            node_set, edges, coords=coords, node_attrs=attrs,
            name=name or f"{self.name}[{len(node_set)}]",
        )

    def hop_distance(self, src: int, dst: int) -> int:
        """BFS hop count between two nodes; raises if unreachable."""
        if src == dst:
            return 0
        if src not in self._adj or dst not in self._adj:
            raise TopologyError(f"unknown endpoint {src}->{dst} in {self.name}")
        seen = {src: 0}
        frontier = deque([src])
        while frontier:
            current = frontier.popleft()
            for nbr in self._adj[current]:
                if nbr not in seen:
                    seen[nbr] = seen[current] + 1
                    if nbr == dst:
                        return seen[nbr]
                    frontier.append(nbr)
        raise TopologyError(f"{dst} unreachable from {src} in {self.name}")

    def bfs_order(self, start: int) -> list[int]:
        """Nodes in BFS order from ``start`` (used by the greedy mapper)."""
        if start not in self._adj:
            raise TopologyError(f"unknown node {start} in {self.name}")
        seen = [start]
        seen_set = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for nbr in sorted(self._adj[current]):
                if nbr not in seen_set:
                    seen_set.add(nbr)
                    seen.append(nbr)
                    frontier.append(nbr)
        return seen

    # -- dimension-order routing --------------------------------------------
    def dor_path(self, src: int, dst: int) -> list[int]:
        """X-then-Y dimension-order route over grid coordinates.

        The path is computed over the *coordinate grid* (column moves first,
        then row moves, matching the paper's "first along the X-axis")
        regardless of whether intermediate nodes belong to any particular
        virtual NPU — that leakage is exactly the NoC-interference
        phenomenon of §4.1.2. Raises if a grid step lands on a coordinate
        with no node or no physical link.
        """
        if not self.coords:
            raise TopologyError(f"{self.name} has no grid coordinates for DOR")
        if src not in self._adj or dst not in self._adj:
            raise TopologyError(f"unknown endpoint {src}->{dst} in {self.name}")
        by_coord = {coord: node for node, coord in self.coords.items()}
        row, col = self.coords[src]
        dst_row, dst_col = self.coords[dst]
        path = [src]
        current = src
        while col != dst_col:
            col += 1 if dst_col > col else -1
            current = self._step(by_coord, current, (row, col))
            path.append(current)
        while row != dst_row:
            row += 1 if dst_row > row else -1
            current = self._step(by_coord, current, (row, col))
            path.append(current)
        return path

    def _step(self, by_coord: dict[Coord, int], current: int, coord: Coord) -> int:
        nxt = by_coord.get(coord)
        if nxt is None:
            raise TopologyError(
                f"DOR step to empty coordinate {coord} in {self.name}"
            )
        if nxt not in self._adj[current]:
            raise TopologyError(
                f"DOR step {current}->{nxt} has no physical link in {self.name}"
            )
        return nxt

    # -- shape recognition / canonical form ----------------------------------
    def mesh_shape(self) -> MeshShape | None:
        """Detect whether this topology is a full 2D mesh; return its shape.

        Used by the shaped routing-table optimization (§4.1.1): a shaped
        entry stores only the base IDs plus the mesh shape.
        """
        n = self.node_count
        if n == 0:
            return None
        if not self.coords:
            return self._mesh_shape_structural()
        rows = sorted({r for r, _ in self.coords.values()})
        cols = sorted({c for _, c in self.coords.values()})
        height, width = len(rows), len(cols)
        if height * width != n:
            return None
        row_base, col_base = rows[0], cols[0]
        if rows != list(range(row_base, row_base + height)):
            return None
        if cols != list(range(col_base, col_base + width)):
            return None
        expected_edges = height * (width - 1) + width * (height - 1)
        if self.edge_count != expected_edges:
            return None
        return MeshShape(height, width)

    def _mesh_shape_structural(self) -> MeshShape | None:
        """Mesh detection without coordinates, via isomorphism check."""
        n = self.node_count
        for rows in range(1, n + 1):
            if n % rows:
                continue
            cols = n // rows
            reference = Topology.mesh2d(rows, cols)
            if self.edge_count != reference.edge_count:
                continue
            if self.is_isomorphic_to(reference):
                return MeshShape(rows, cols)
        return None

    def wl_certificate(self, iterations: int = 3) -> str:
        """Weisfeiler-Lehman refinement hash.

        Equal certificates are a *necessary* condition for isomorphism;
        the topology-mapping candidate dedup uses it as a cheap first-pass
        key before an exact isomorphism check.
        """
        labels = {
            n: f"{len(self._adj[n])}|{self.node_attrs.get(n, '')}"
            for n in self._nodes
        }
        for _ in range(iterations):
            new_labels = {}
            for node in self._nodes:
                neighborhood = sorted(labels[nbr] for nbr in self._adj[node])
                signature = labels[node] + "(" + ",".join(neighborhood) + ")"
                new_labels[node] = hashlib.blake2s(
                    signature.encode(), digest_size=8
                ).hexdigest()
            labels = new_labels
        return hashlib.blake2s(
            ",".join(sorted(labels.values())).encode(), digest_size=16
        ).hexdigest()

    def is_isomorphic_to(self, other: "Topology") -> bool:
        """Exact isomorphism (attribute-aware), via networkx VF2."""
        if self.node_count != other.node_count:
            return False
        if self.edge_count != other.edge_count:
            return False
        if self.degree_sequence() != other.degree_sequence():
            return False
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            self.to_networkx(),
            other.to_networkx(),
            node_match=lambda a, b: a.get("abbr", "") == b.get("abbr", ""),
        )
        return matcher.is_isomorphic()

    def to_networkx(self) -> nx.Graph:
        graph = nx.Graph()
        for node in self._nodes:
            graph.add_node(node, abbr=self.node_attrs.get(node, ""))
        graph.add_edges_from(self.edges)
        return graph

    def relabel(self, mapping: dict[int, int], name: str | None = None) -> "Topology":
        """Return a copy with node IDs renamed through ``mapping``."""
        missing = [n for n in self._nodes if n not in mapping]
        if missing:
            raise TopologyError(f"relabel mapping misses nodes {missing}")
        nodes = [mapping[n] for n in self._nodes]
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        coords = (
            {mapping[n]: c for n, c in self.coords.items()} if self.coords else None
        )
        attrs = {mapping[n]: a for n, a in self.node_attrs.items()}
        return Topology(
            nodes, edges, coords=coords, node_attrs=attrs, name=name or self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name!r}: {self.node_count} nodes, "
            f"{self.edge_count} edges>"
        )
