"""Graph (topology) edit distance, exact and approximate (§4.3, Fig 9).

The topology-mapping allocator scores candidate core sets by the minimum
number of edit operations — node/edge insertion, deletion, substitution —
needed to turn the candidate's induced topology into the requested one.

Two solvers:

- :func:`exact_ged` — A* over partial node assignments. Optimal; used for
  small topologies (the decision problem is NP-hard, §4.3).
- :func:`bipartite_ged` — the Riesen-Bunke bipartite approximation: a
  Hungarian assignment over node-plus-local-edge costs, then the *exact
  induced cost* of that node mapping. Always an upper bound on the true
  distance; near-optimal on the sparse, near-regular graphs that NPU
  topologies are.

Heterogeneous penalties (Algorithm 1's ``NodeMatch`` / ``EdgeMatch``) are
data, not callbacks: :class:`EditCosts` holds a mismatch price per source
tag and a deletion price per request edge next to the flat prices. One
numpy-built reward matrix and one closed-form lower bound price every
``EditCosts``; the scalar loops they replace are kept with the tests as
the identity oracle. Every price is a multiple of 1/16, so every sum the
mapper forms is exact and the two agree bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.arch.topology import Topology
from repro.errors import TopologyError

#: Sentinel for "mapped to epsilon" (deleted / inserted).
EPS = None

#: Largest accepted price. With prices in steps of 1/16 below it, every
#: sum of prices the mapper forms stays exact in a double.
MAX_PRICE = 2.0 ** 32


def _price(name: str, value: object, positive: bool) -> float:
    """``value`` as a validated price, else :class:`TopologyError`."""
    if not isinstance(value, numbers.Real):
        raise TopologyError(f"{name} must be a number, got {value!r}")
    price = float(value)
    if not (math.isfinite(price) and (16 * price).is_integer()):
        raise TopologyError(
            f"{name} must be a finite multiple of 1/16, got {value!r}")
    if price < 0 or price > MAX_PRICE or (positive and price == 0):
        bounds = "(0, 2**32]" if positive else "[0, 2**32]"
        raise TopologyError(f"{name} must lie in {bounds}, got {value!r}")
    return price


@dataclass(frozen=True)
class EditCosts:
    """Edit-operation prices, as data.

    ``tag_mismatch`` maps a *source* (request) node's tag to the price of
    placing that node on a core with another tag (Algorithm 1's NodeMatch
    penalty). Unlisted tags cost 1, and untagged nodes (tag ``""``) are
    "don't care" by default: tenants that did not ask for heterogeneous
    cores land on any core, memory-interface-tagged ones included, for
    free. ``edge_delete_at`` maps a request edge ``(u, v)`` to the price of
    losing it (Algorithm 1's EdgeMatch: list critical edges with a high
    price); unlisted edges cost the flat ``edge_delete``. Node deletion
    and node and edge insertion are flat.

    Both tables may be passed as mappings; they are stored as sorted
    tuples of items, so the object is hashable and equal tables compare
    equal. Every price must be a finite multiple of 1/16 no larger than
    :data:`MAX_PRICE`; tag prices may be 0, every structural price must be
    positive. Anything else raises :class:`TopologyError`.
    """

    tag_mismatch: Mapping[str, float] = ()
    edge_delete_at: Mapping[tuple[int, int], float] = ()
    node_delete: float = 1.0
    node_insert: float = 1.0
    edge_delete: float = 1.0
    edge_insert: float = 1.0

    def __post_init__(self) -> None:
        for name in ("node_delete", "node_insert", "edge_delete",
                     "edge_insert"):
            object.__setattr__(self, name,
                               _price(name, getattr(self, name), True))
        tags = {str(tag): _price(f"tag_mismatch[{tag!r}]", price, False)
                for tag, price in dict(self.tag_mismatch).items()}
        edges = {(min(u, v), max(u, v)):
                 _price(f"edge_delete_at[{(u, v)!r}]", price, True)
                 for (u, v), price in dict(self.edge_delete_at).items()}
        object.__setattr__(self, "tag_mismatch", tuple(sorted(tags.items())))
        object.__setattr__(self, "edge_delete_at",
                           tuple(sorted(edges.items())))
        object.__setattr__(self, "_tags", tags)
        object.__setattr__(self, "_edges", edges)

    def tag_price(self, tag: str) -> float:
        """Price of a request node tagged ``tag`` on a core tagged otherwise."""
        return self._tags.get(tag, 1.0 if tag else 0.0)

    def substitute(self, source_tag: str, target_tag: str) -> float:
        """Price of relabelling a ``source_tag`` node as a ``target_tag`` one."""
        return 0.0 if source_tag == target_tag else self.tag_price(source_tag)

    def edge_price(self, u: int, v: int) -> float:
        """Price of deleting request edge ``(u, v)``."""
        return self._edges.get((u, v) if u < v else (v, u), self.edge_delete)


def induced_edit_cost(t1: Topology, t2: Topology,
                      mapping: dict[int, int | None],
                      costs: EditCosts | None = None) -> float:
    """Exact edit cost implied by a complete node mapping ``t1 -> t2``.

    ``mapping`` maps every node of ``t1`` to a node of ``t2`` or to
    ``None`` (deletion); unmentioned ``t2`` nodes are insertions.
    """
    costs = costs or EditCosts()
    if set(mapping) != set(t1.nodes):
        raise TopologyError("mapping must cover every node of the source")
    images = [v for v in mapping.values() if v is not EPS]
    if len(set(images)) != len(images):
        raise TopologyError("mapping is not injective on mapped nodes")
    for image in images:
        if image not in t2:
            raise TopologyError(f"mapping targets unknown node {image}")

    total = 0.0
    for n1, n2 in mapping.items():
        if n2 is EPS:
            total += costs.node_delete
        else:
            total += costs.substitute(t1.attr(n1), t2.attr(n2))
    total += (t2.node_count - len(images)) * costs.node_insert

    for u, v in t1.edges:
        mu, mv = mapping[u], mapping[v]
        if mu is EPS or mv is EPS or not t2.has_edge(mu, mv):
            total += costs.edge_price(u, v)
    # The mapping is injective on mapped nodes (checked above), so it
    # inverts in one pass.
    preimage = {n2: n1 for n1, n2 in mapping.items() if n2 is not EPS}
    for a, b in t2.edges:
        if a not in preimage or b not in preimage:
            total += costs.edge_insert
            continue
        # Both endpoints are images: the edge is matched only if its
        # preimage edge exists (already priced as a deletion otherwise —
        # an unmatched t2 edge between images is an insertion).
        if not t1.has_edge(preimage[a], preimage[b]):
            total += costs.edge_insert
    return total


# ---------------------------------------------------------------------------
# Exact A*
# ---------------------------------------------------------------------------

def exact_ged(t1: Topology, t2: Topology,
              costs: EditCosts | None = None,
              max_nodes: int = 10) -> float:
    """Optimal edit distance by A* search over node assignments.

    Raises :class:`TopologyError` when either topology exceeds
    ``max_nodes`` — use :func:`bipartite_ged` (or :func:`ged` with
    ``method="auto"``) beyond that.
    """
    costs = costs or EditCosts()
    if t1.node_count > max_nodes or t2.node_count > max_nodes:
        raise TopologyError(
            f"exact GED limited to {max_nodes} nodes "
            f"({t1.node_count} vs {t2.node_count} requested)"
        )
    # Assign t1 nodes in descending-degree order: high-degree nodes
    # constrain edge costs early, tightening the search.
    order = sorted(t1.nodes, key=t1.degree, reverse=True)
    n2_nodes = t2.nodes

    counter = itertools.count()
    # state: (f, tiebreak, g, depth, assignment tuple, used t2 frozenset)
    heap = [(0.0, next(counter), 0.0, 0, (), frozenset())]
    best = float("inf")
    while heap:
        f, _tie, g, depth, assignment, used = heapq.heappop(heap)
        if f >= best:
            break
        if depth == len(order):
            total = g + _closing_cost(t1, t2, order, assignment, costs)
            best = min(best, total)
            continue
        node = order[depth]
        for candidate in [*[n for n in n2_nodes if n not in used], EPS]:
            step = _assignment_step_cost(
                t1, t2, order, assignment, node, candidate, costs,
            )
            new_g = g + step
            remaining1 = len(order) - depth - 1
            remaining2 = len(n2_nodes) - len(used) - (candidate is not EPS)
            h = max(0, remaining2 - remaining1) * costs.node_insert
            if new_g + h < best:
                new_used = used | {candidate} if candidate is not EPS else used
                heapq.heappush(heap, (
                    new_g + h, next(counter), new_g, depth + 1,
                    assignment + (candidate,), new_used,
                ))
    return best


def _assignment_step_cost(t1, t2, order, assignment, node, candidate, costs):
    """Incremental cost of assigning ``node`` (next t1 node) to ``candidate``."""
    if candidate is EPS:
        step = costs.node_delete
        # Edges from node to already-assigned t1 nodes are deleted.
        for prior_index, prior_image in enumerate(assignment):
            prior = order[prior_index]
            if t1.has_edge(node, prior):
                step += costs.edge_price(node, prior)
        return step
    step = costs.substitute(t1.attr(node), t2.attr(candidate))
    for prior_index, prior_image in enumerate(assignment):
        prior = order[prior_index]
        e1 = t1.has_edge(node, prior)
        e2 = prior_image is not EPS and t2.has_edge(candidate, prior_image)
        if e1 and not e2:
            step += costs.edge_price(node, prior)
        elif e2 and not e1:
            step += costs.edge_insert
    return step


def _closing_cost(t1, t2, order, assignment, costs):
    """Cost of inserting whatever t2 structure the assignment left unused."""
    image = {img for img in assignment if img is not EPS}
    total = (t2.node_count - len(image)) * costs.node_insert
    for a, b in t2.edges:
        if a not in image or b not in image:
            total += costs.edge_insert
    return total


# ---------------------------------------------------------------------------
# Bipartite (Riesen-Bunke) approximation
# ---------------------------------------------------------------------------

def _degrees(topology: Topology) -> np.ndarray:
    return np.array([topology.degree(node) for node in topology.nodes],
                    dtype=np.float64)


def _adjacent_delete(t1: Topology, costs: EditCosts,
                     deg1: np.ndarray) -> np.ndarray:
    """Each request node's total incident edge-deletion price: the flat
    price per edge, corrected for the listed edges (exact, since every
    price is a multiple of 1/16)."""
    total = deg1 * costs.edge_delete
    if costs.edge_delete_at:
        index = {node: i for i, node in enumerate(t1.nodes)}
        for (u, v), price in costs.edge_delete_at:
            if t1.has_edge(u, v):
                total[index[u]] += price - costs.edge_delete
                total[index[v]] += price - costs.edge_delete
    return total


def _pair_cost_block(t1: Topology, t2: Topology,
                     costs: EditCosts) -> np.ndarray:
    """Substitution-plus-local-edge block of the reward matrix.

    Returns the ``n1 x n2`` block built with numpy broadcasting. Each
    elementwise operation mirrors the expression tree of the scalar loop
    that prices one pair at a time (kept with the tests as the oracle),
    and every price is a multiple of 1/16, so the block is
    **bit-identical** to the loop-built one: the Hungarian assignment,
    and hence the mapping, cannot drift.
    """
    deg1 = _degrees(t1)
    deg2 = _degrees(t2)
    adjacent_del = _adjacent_delete(t1, costs, deg1)
    tags1 = [t1.attr(u) for u in t1.nodes]
    attrs1 = np.array(tags1, dtype=object)
    attrs2 = np.array([t2.attr(v) for v in t2.nodes], dtype=object)
    prices1 = np.array([costs.tag_price(tag) for tag in tags1],
                       dtype=np.float64)
    # A source pays its tag's price iff the target's tag differs.
    sub = (attrs1[:, None] != attrs2[None, :]) * prices1[:, None]
    diff = deg1[:, None] - deg2[None, :]
    # deg1 > deg2 prices u's unmatched edges at u's mean deletion price
    # (exactly 1.0 under flat unit prices); deg2 > deg1 prices the degree
    # excess as insertions.
    mean_del = adjacent_del / np.maximum(deg1, 1.0)
    local = np.where(diff > 0.0, (0.5 * diff) * mean_del[:, None],
                     (0.5 * -diff) * costs.edge_insert)
    return sub + local


def bipartite_ged(t1: Topology, t2: Topology,
                  costs: EditCosts | None = None) -> float:
    """Upper-bound edit distance via Hungarian node assignment.

    The cost matrix prices each node pair with its substitution cost plus
    half the local edge mismatch (each edge is shared by two endpoints);
    deletions/insertions carry their adjacent edges. The winning
    assignment is then re-priced exactly with :func:`induced_edit_cost`.
    """
    costs = costs or EditCosts()
    nodes1, nodes2 = t1.nodes, t2.nodes
    n1, n2 = len(nodes1), len(nodes2)
    size = n1 + n2
    big = 1e18
    matrix = np.zeros((size, size))
    matrix[:n1, :n2] = _pair_cost_block(t1, t2, costs)
    matrix[:n1, n2:] = big
    matrix[:n1, n2:][np.arange(n1), np.arange(n1)] = \
        costs.node_delete + 0.5 * _adjacent_delete(t1, costs, _degrees(t1))
    matrix[n1:, :n2] = big
    matrix[n1:, :n2][np.arange(n2), np.arange(n2)] = \
        costs.node_insert + (0.5 * _degrees(t2)) * costs.edge_insert

    rows, cols = linear_sum_assignment(matrix)
    mapping: dict[int, int | None] = {}
    for row, col in zip(rows, cols):
        if row < n1:
            mapping[nodes1[row]] = nodes2[col] if col < n2 else EPS
    return induced_edit_cost(t1, t2, mapping, costs)


def best_bijection(t1: Topology, t2: Topology,
                   costs: EditCosts | None = None
                   ) -> tuple[float, dict[int, int]]:
    """Minimum-cost *bijective* node mapping between equal-sized topologies.

    This is what core allocation needs (requirement R-1 fixes the node
    count): a Hungarian assignment over substitution-plus-local-edge
    costs (:func:`_pair_cost_block`), re-priced exactly. Returns
    ``(cost, mapping t1-node -> t2-node)``.
    """
    costs = costs or EditCosts()
    if t1.node_count != t2.node_count:
        raise TopologyError(
            f"bijection needs equal sizes ({t1.node_count} vs {t2.node_count})"
        )
    nodes1, nodes2 = t1.nodes, t2.nodes
    rows, cols = linear_sum_assignment(_pair_cost_block(t1, t2, costs))
    mapping = {nodes1[row]: nodes2[col] for row, col in zip(rows, cols)}
    return induced_edit_cost(t1, t2, mapping, costs), mapping


def bijection_lower_bound(t1: Topology, t2: Topology,
                          costs: EditCosts | None = None) -> float:
    """Admissible lower bound on any bijection's induced edit cost.

    The topology mapper screens candidate core sets with this before
    paying for :func:`best_bijection`: a candidate whose bound already
    exceeds an incumbent's *exact* score cannot win the R-2 argmin. The
    bound is the sum of two independently-minimal terms:

    - **node term** — the cheapest possible substitution assignment,
      exact in closed form: each source tag's excess over the same-tag
      targets, priced at that tag's mismatch price.
    - **edge term** — a degree-sequence bound: with both degree
      sequences sorted ascending, no bijection can match more than
      ``floor(sum_i min(d1_i, d2_i) / 2)`` edges, so the remaining
      request edges must be deleted (priced at the cheapest request
      edge) and the remaining candidate edges inserted.
    """
    costs = costs or EditCosts()
    if t1.node_count != t2.node_count:
        raise TopologyError(
            f"bijection needs equal sizes ({t1.node_count} vs {t2.node_count})"
        )
    if t1.node_count == 0:
        return 0.0
    node_term = _node_assignment_lower_bound(t1, t2, costs)
    s1 = np.sort(np.array([t1.degree(node) for node in t1.nodes],
                          dtype=np.int64))
    s2 = np.sort(np.array([t2.degree(node) for node in t2.nodes],
                          dtype=np.int64))
    matchable = int(np.minimum(s1, s2).sum()) // 2
    edges1 = t1.edge_count
    deletions = max(0, edges1 - matchable)
    insertions = max(0, t2.edge_count - matchable)
    edge_term = insertions * costs.edge_insert
    if deletions:
        # Every deleted request edge costs at least the cheapest one.
        listed = [price for (u, v), price in costs.edge_delete_at
                  if t1.has_edge(u, v)]
        if len(listed) < edges1:
            listed.append(costs.edge_delete)
        edge_term += deletions * min(listed)
    return node_term + edge_term


def _node_assignment_lower_bound(t1: Topology, t2: Topology,
                                 costs: EditCosts) -> float:
    """Minimum total node-substitution cost over all bijections.

    A source node maps to a same-tag target for free and pays its own
    tag's price wherever else it lands, and tags only compete with their
    own kind, so the minimum is each tag's excess at that tag's price.
    """
    counts2 = Counter(t2.attr(node) for node in t2.nodes)
    counts1 = Counter(t1.attr(node) for node in t1.nodes)
    return float(sum(
        costs.tag_price(tag) * max(0, count - counts2.get(tag, 0))
        for tag, count in counts1.items()
    ))


def ged(t1: Topology, t2: Topology, costs: EditCosts | None = None,
        method: str = "auto", exact_limit: int = 8) -> float:
    """Topology edit distance with automatic solver selection."""
    if method == "exact":
        return exact_ged(t1, t2, costs, max_nodes=max(
            exact_limit, t1.node_count, t2.node_count))
    if method == "bipartite":
        return bipartite_ged(t1, t2, costs)
    if method != "auto":
        raise TopologyError(f"unknown GED method {method!r}")
    if t1.node_count <= exact_limit and t2.node_count <= exact_limit:
        return exact_ged(t1, t2, costs, max_nodes=exact_limit)
    return bipartite_ged(t1, t2, costs)
