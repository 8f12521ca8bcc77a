"""Reference similarity mapper and the mapper perf-regression harness.

:class:`ReferenceMapper` is the unoptimized implementation of the
paper's Algorithm 1, kept as the oracle whose ``(distance, vmap)``
results :class:`~repro.core.topology_mapping.TopologyMapper` must
reproduce exactly. It runs the seed behaviour on its own set-based
front end: a fresh free topology per call, no memos (not even the
results memo, see :func:`map_similar_unmemoized`), the set-based ESU
(:func:`reference_connected_subsets`), the coordinate-walk mesh slide
(:func:`reference_mesh_placements`), a subtopology and
``wl_certificate`` per candidate, the serial scalar Hungarian loop, and
the full-recompute 2-opt over every polish seed with per-candidate
Python-BFS hop tables. None of the production mapper's bitboards are on
its path.

The scalar loops behind that Hungarian loop live here too:
:func:`scalar_best_bijection`, :func:`scalar_bipartite_ged` and
:func:`scalar_bijection_lower_bound` price one node pair at a time, and
are the oracle the numpy-built matrices and closed-form bound of
:mod:`repro.core.ged` must equal bit for bit, for every
:class:`~repro.core.ged.EditCosts`.

The harness pins a **corpus** — the exact sequence of mapper
invocations a fragmentation-heavy fleet trace produces — and replays it
against both mappers:

1. :func:`record_corpus` emulates best-fit probe churn over N chips
   (every arrival probes every chip that fits; placements and departures
   become ``alloc``/``free`` events) and returns a flat, deterministic
   event list. Service time uses a fixed per-inference proxy so the
   corpus is a pure function of the trace seed — no simulator, no cost
   model, nothing but mapper calls.
2. :func:`replay` executes the ``map`` events against fresh mappers
   through :func:`map_similar_unmemoized` (so every call does real
   mapping work) and collects outputs, operation counters and wall
   time.
3. :func:`run_mapping_perf` compares the two replays and splits the
   digest the way ``BENCH_cost`` does: a **deterministic** section
   (operation counts, pruning accounting, output equality — byte-stable
   across runs and hosts, gated by CI) and a **timing** section
   (wall-clock seconds and speedup — recorded but never gated).

``benchmarks/bench_mapping_perf.py`` imports this module by putting
``tests/unit`` on ``sys.path``; pytest does the same for the tests
beside it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.arch.topology import Topology
from repro.core.ged import EPS, EditCosts, induced_edit_cost
from repro.core.topology_mapping import MappingResult, TopologyMapper
from repro.errors import AllocationError, TopologyError
from repro.serving.workload import generate_fleet_trace


def scalar_pair_costs(t1: Topology, t2: Topology,
                      costs: EditCosts) -> np.ndarray:
    """Substitution-plus-local-edge costs, one node pair at a time."""
    matrix = np.zeros((t1.node_count, t2.node_count))
    for i, u in enumerate(t1.nodes):
        deg1 = t1.degree(u)
        adjacent_del = sum(costs.edge_price(u, nbr)
                           for nbr in t1.neighbors(u))
        for j, v in enumerate(t2.nodes):
            deg2 = t2.degree(v)
            local = 0.0
            if deg1 > deg2:
                # Some of u's edges will have no counterpart.
                local += 0.5 * (deg1 - deg2) * (adjacent_del / max(deg1, 1))
            elif deg2 > deg1:
                local += 0.5 * (deg2 - deg1) * costs.edge_insert
            matrix[i, j] = costs.substitute(t1.attr(u), t2.attr(v)) + local
    return matrix


def scalar_best_bijection(t1: Topology, t2: Topology,
                          costs: EditCosts | None = None
                          ) -> tuple[float, dict[int, int]]:
    """``best_bijection`` over the scalar-loop reward matrix."""
    costs = costs or EditCosts()
    nodes1, nodes2 = t1.nodes, t2.nodes
    rows, cols = linear_sum_assignment(scalar_pair_costs(t1, t2, costs))
    mapping = {nodes1[row]: nodes2[col] for row, col in zip(rows, cols)}
    return induced_edit_cost(t1, t2, mapping, costs), mapping


def scalar_bipartite_ged(t1: Topology, t2: Topology,
                         costs: EditCosts | None = None) -> float:
    """``bipartite_ged`` over the scalar-loop reward matrix."""
    costs = costs or EditCosts()
    nodes1, nodes2 = t1.nodes, t2.nodes
    n1, n2 = len(nodes1), len(nodes2)
    size = n1 + n2
    big = 1e18
    matrix = np.full((size, size), 0.0)
    matrix[:n1, :n2] = scalar_pair_costs(t1, t2, costs)
    for i, u in enumerate(nodes1):
        adjacent_del = sum(costs.edge_price(u, nbr)
                           for nbr in t1.neighbors(u))
        matrix[i, n2:] = big
        matrix[i, n2 + i] = costs.node_delete + 0.5 * adjacent_del
    for j, v in enumerate(nodes2):
        matrix[n1:, j] = big
        matrix[n1 + j, j] = (costs.node_insert
                             + 0.5 * t2.degree(v) * costs.edge_insert)
    matrix[n1:, n2:] = 0.0
    rows, cols = linear_sum_assignment(matrix)
    mapping: dict[int, int | None] = {}
    for row, col in zip(rows, cols):
        if row < n1:
            mapping[nodes1[row]] = nodes2[col] if col < n2 else EPS
    return induced_edit_cost(t1, t2, mapping, costs)


def scalar_bijection_lower_bound(t1: Topology, t2: Topology,
                                 costs: EditCosts | None = None) -> float:
    """``bijection_lower_bound`` with a Hungarian node term (the general
    assignment its closed form must equal) and Python-sorted degrees."""
    costs = costs or EditCosts()
    if t1.node_count == 0:
        return 0.0
    substitutions = np.array([
        [costs.substitute(t1.attr(u), t2.attr(v)) for v in t2.nodes]
        for u in t1.nodes
    ])
    rows, cols = linear_sum_assignment(substitutions)
    node_term = float(substitutions[rows, cols].sum())
    s1 = sorted(t1.degree(node) for node in t1.nodes)
    s2 = sorted(t2.degree(node) for node in t2.nodes)
    matchable = sum(min(a, b) for a, b in zip(s1, s2)) // 2
    deletions = max(0, t1.edge_count - matchable)
    insertions = max(0, t2.edge_count - matchable)
    edge_term = insertions * costs.edge_insert
    if deletions:
        edge_term += deletions * min(costs.edge_price(u, v)
                                     for u, v in t1.edges)
    return node_term + edge_term


def all_pairs_hops(topology: Topology) -> dict[int, dict[int, int]]:
    """Reference hop table: one Python BFS per source node."""
    hops: dict[int, dict[int, int]] = {}
    for start in topology.nodes:
        dist = {start: 0}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for nbr in topology.neighbors(node):
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    frontier.append(nbr)
        hops[start] = dist
    return hops


def reference_connected_subsets(topology: Topology, k: int,
                                limit: int | None = None
                                ) -> list[frozenset[int]]:
    """All connected induced ``k``-subsets of ``topology``: the ESU
    algorithm on Python sets, the oracle of the production mask ESU.

    Each subset is produced exactly once. ``limit`` caps the result;
    enumeration stops once reached.
    """
    if k < 1:
        raise TopologyError(f"subset size must be >= 1, got {k}")
    results: list[frozenset[int]] = []
    adj = topology._adj

    def extend(subgraph: set[int], extension: set[int], root: int) -> bool:
        if len(subgraph) == k:
            results.append(frozenset(subgraph))
            return limit is not None and len(results) >= limit
        candidates = sorted(extension)
        for index, node in enumerate(candidates):
            # ESU exclusive neighborhood: neighbors of `node` greater than
            # root that are neither in the subgraph nor adjacent to it.
            exclusive = {nbr for nbr in adj[node]
                         if nbr > root and nbr not in subgraph
                         and adj[nbr].isdisjoint(subgraph)}
            if extend(subgraph | {node},
                      exclusive.union(candidates[index + 1:]), root):
                return True
        return False

    for root in topology.nodes:
        extension = {nbr for nbr in adj[root] if nbr > root}
        if extend({root}, extension, root):
            break
    return results


def reference_compact_sets(free: Topology, k: int) -> list[frozenset[int]]:
    """Diverse connected k-regions: BFS balls grown from every free node."""
    seen: set[frozenset[int]] = set()
    subsets: list[frozenset[int]] = []
    for seed in free.nodes:
        ball = free.bfs_order(seed)[:k]
        if len(ball) < k:
            continue
        key = frozenset(ball)
        if key in seen:
            continue
        seen.add(key)
        subsets.append(key)
    return subsets


def reference_mesh_placements(mapper: TopologyMapper, request: Topology,
                              free_nodes: set[int]):
    """Yield exact vmaps by sliding the request mesh over free cells,
    one coordinate lookup per cell (orientation, row, column order).

    Like the production slide it yields nothing unless the request is
    untagged, its untagged nodes substitute free and the chip's edges
    are exactly its coordinate grid.
    """
    chip = mapper.chip
    if not mapper._untagged_free or any(request.node_attrs.values()):
        return
    grid = mapper._request_grid(request)
    by_coord = {coord: node for node, coord in chip.coords.items()}
    steps = {tuple(sorted((node, by_coord[(r + dr, c + dc)])))
             for node, (r, c) in chip.coords.items()
             for dr, dc in ((0, 1), (1, 0))
             if (r + dr, c + dc) in by_coord}
    chip_is_grid = (len(by_coord) == chip.node_count
                    and steps == set(chip.edges))
    if grid is None or not chip_is_grid:
        return
    chip_rows = max(r for r, _ in chip.coords.values()) + 1
    chip_cols = max(c for _, c in chip.coords.values()) + 1
    height = max(r for r, _ in grid.values()) + 1
    width = max(c for _, c in grid.values()) + 1
    orientations = [(grid, height, width)]
    if height != width:
        orientations.append(({n: (c, r) for n, (r, c) in grid.items()},
                             width, height))
    for oriented, height, width in orientations:
        for base_row in range(chip_rows - height + 1):
            for base_col in range(chip_cols - width + 1):
                vmap = {}
                for node, (r, c) in oriented.items():
                    physical = by_coord.get((base_row + r, base_col + c))
                    if physical is None or physical not in free_nodes:
                        vmap = None
                        break
                    vmap[node] = physical
                if vmap is not None:
                    yield vmap


def map_similar_unmemoized(mapper: TopologyMapper, request: Topology,
                           allocated=None,
                           require_connected: bool = True):
    """``mapper.map_similar`` without the results memo: every call maps.

    The shape memos stay on for a :class:`TopologyMapper`; only the
    lookup of a whole earlier result is skipped, and the hit and miss
    counters stay untouched.
    """
    return mapper._map_similar_uncached(request, allocated or set(),
                                        require_connected)


class ReferenceMapper(TopologyMapper):
    """The seed implementation of Algorithm 1: the mapper's oracle.

    Only ``objective_evaluations`` and ``free_rebuilds`` move; the
    screening counters stay zero because nothing is screened.
    """

    map_similar = map_similar_unmemoized

    def free_topology(self, allocated) -> Topology:
        self.free_rebuilds += 1
        return self.chip.subtopology(
            [n for n in self.chip.nodes if n not in allocated], name="free")

    def _map_similar_uncached(self, request, allocated, require_connected):
        free = self.free_topology(allocated)
        self._check_capacity(request, free.node_count)
        for vmap in reference_mesh_placements(self, request,
                                              set(free.nodes)):
            return MappingResult(
                strategy="similar", vmap=vmap, distance=0.0,
                connected=True, candidates_considered=1,
            )
        request_cert = request.wl_certificate()
        k = request.node_count
        if k <= self.ESU_MAX_REQUEST:
            subsets = reference_connected_subsets(free, k,
                                                  limit=self.CANDIDATE_LIMIT)
        else:
            subsets = reference_compact_sets(free, k)
        candidates: list[Topology] = []
        seen_certs: set[str] = set()
        for nodes in subsets:
            topology = free.subtopology(nodes)
            cert = topology.wl_certificate()
            if cert == request_cert:
                mapping = self._isomorphism_mapping(request, topology)
                if mapping is not None:
                    return MappingResult(
                        strategy="similar", vmap=mapping, distance=0.0,
                        connected=True, candidates_considered=len(subsets),
                    )
            if cert in seen_certs:
                continue
            seen_certs.add(cert)
            candidates.append(topology)
        if not candidates:
            if require_connected:
                raise AllocationError(
                    f"free cores hold no connected {k}-subset")
            return self.map_fragmented(request, allocated)
        distance, mapping = self._serial_placement(request, candidates)
        return MappingResult(
            strategy="similar", vmap=mapping, distance=distance,
            connected=True, candidates_considered=len(subsets),
        )

    def _bijection(self, request, candidate):
        return scalar_best_bijection(request, candidate, self.costs)

    def _serial_placement(self, request, candidates):
        best: tuple[float, Topology, dict[int, int]] | None = None
        for candidate in candidates:  # Algorithm 1 lines 30-32, serially
            distance, mapping = self._bijection(request, candidate)
            if best is None or distance < best[0]:
                best = (distance, candidate, mapping)
        _distance, topology, mapping = best
        return self._polish(request, topology, mapping)

    def _polish(self, request, candidate, hungarian_seed):
        hop = all_pairs_hops(candidate)
        outcomes = [
            self._stretch_aware_refine(request, candidate, seed, hop)
            for seed in self._polish_seeds(request, candidate,
                                           hungarian_seed)
        ]
        best_mapping = min(outcomes, key=lambda pair: pair[0])[1]
        distance = induced_edit_cost(request, candidate, dict(best_mapping),
                                     self.costs)
        return distance, best_mapping

    def _stretch_objective(self, request, candidate, mapping, hop):
        """Induced edit cost plus ``STRETCH_WEIGHT`` times the extra hops
        of every request edge, recomputed from scratch."""
        self.objective_evaluations += 1
        cost = induced_edit_cost(request, candidate, dict(mapping),
                                 self.costs)
        stretch = sum(
            hop[mapping[u]].get(mapping[v], request.node_count) - 1
            for u, v in request.edges
        )
        return cost + self.STRETCH_WEIGHT * stretch

    def _stretch_aware_refine(self, request, candidate, seed, hop,
                              max_passes: int = 6):
        """2-opt hill climbing on edit-cost + stretch, re-pricing the
        full objective for every trial swap."""
        mapping = dict(seed)
        nodes = request.nodes
        current = self._stretch_objective(request, candidate, mapping, hop)
        for _ in range(max_passes):
            improved = False
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    mapping[a], mapping[b] = mapping[b], mapping[a]
                    trial = self._stretch_objective(
                        request, candidate, mapping, hop)
                    if trial + 1e-12 < current:
                        current = trial
                        improved = True
                    else:
                        mapping[a], mapping[b] = mapping[b], mapping[a]
            if not improved:
                break
        return current, mapping


# -- corpus record/replay harness ------------------------------------------

#: Cycles one inference contributes to the corpus's departure proxy.
#: Together with the trace's inter-arrival gap this pins fleet occupancy
#: in the mid-high range where exact placements are rare and similarity
#: mapping does real work.
PROXY_CYCLES_PER_INFERENCE = 60_000

#: Fleet-wide mean inter-arrival gap fed to ``generate_fleet_trace``.
MEAN_INTERARRIVAL = 6_000_000

#: Cores pre-pinned on every chip (scattered, so chips start fragmented
#: instead of offering one big exact mesh block).
PINNED_CORES = (7, 14, 22, 27)

#: Counter keys whose fleet-wide sums make up the deterministic digest.
COUNTER_KEYS = (
    "candidates_considered",
    "candidates_pruned",
    "candidates_refined",
    "objective_evaluations",
    "free_rebuilds",
)


@dataclass(frozen=True)
class MappingCorpus:
    """A pinned, replayable sequence of mapper invocations.

    ``events`` entries are tuples: ``("map", chip, rows, cols,
    allocated)`` for an invocation, ``("alloc", chip, cores)`` /
    ``("free", chip, cores)`` for free-set transitions (``allocated`` and
    ``cores`` are sorted tuples, keeping the corpus hashable and
    JSON-stable). Replay needs only the ``map`` events; the transitions
    document the churn and are part of the corpus digest.
    """

    chips: int
    cores_per_chip: int
    sessions: int
    seed: int
    events: tuple

    @property
    def map_calls(self) -> int:
        return sum(1 for event in self.events if event[0] == "map")

    def digest(self) -> str:
        """Content hash of the event stream (corpus identity)."""
        payload = json.dumps(
            [self.chips, self.cores_per_chip, self.sessions, self.seed,
             list(self.events)],
            separators=(",", ":"),
        )
        return hashlib.blake2s(payload.encode(), digest_size=16).hexdigest()


@dataclass
class ReplayResult:
    """One implementation's pass over a corpus."""

    outputs: list
    counters: dict
    wall_seconds: float

    def outputs_digest(self) -> str:
        payload = json.dumps(
            [[distance, list(map(list, vmap))] for distance, vmap in
             self.outputs],
            separators=(",", ":"),
        )
        return hashlib.blake2s(payload.encode(), digest_size=16).hexdigest()


def mesh_dims(cores: int) -> tuple[int, int]:
    """Squarest rows x cols factorization of a chip's core count."""
    rows = int(cores ** 0.5)
    while rows > 1 and cores % rows:
        rows -= 1
    return rows, cores // rows


def record_corpus(seed: int = 7, sessions: int = 500, chips: int = 8,
                  cores_per_chip: int = 36) -> MappingCorpus:
    """Pin the mapper-call sequence of a fragmented fleet trace.

    Every chip starts with :data:`PINNED_CORES` occupied; each arrival
    probes every chip with room (best-fit ranking by trial distance,
    ties to the lower chip index) and lands on the winner; departures
    fire at ``arrival + inferences * PROXY_CYCLES_PER_INFERENCE``. The
    event list is a pure function of the arguments.
    """
    rows, cols = mesh_dims(cores_per_chip)
    trace = generate_fleet_trace(
        seed, sessions, chips=chips, max_cores=16,
        mean_interarrival_cycles=MEAN_INTERARRIVAL,
        fragmentation_heavy=True,
    )
    chip_topology = Topology.mesh2d(rows, cols)
    pinned = tuple(core for core in PINNED_CORES
                   if core < cores_per_chip)
    mappers = [TopologyMapper(chip_topology) for _ in range(chips)]
    allocated: list[set[int]] = [set(pinned) for _ in range(chips)]
    requests: dict[tuple[int, int], Topology] = {}
    live: list[tuple[int, int, tuple[int, ...]]] = []
    events: list[tuple] = []
    for session in trace:
        while live and live[0][0] <= session.arrival_cycle:
            _, index, cores = heapq.heappop(live)
            allocated[index] -= set(cores)
            events.append(("free", index, cores))
        shape = (session.rows, session.cols)
        request = requests.get(shape)
        if request is None:
            request = requests[shape] = Topology.mesh2d(*shape)
        best = None
        for index, mapper in enumerate(mappers):
            if session.core_count > cores_per_chip - len(allocated[index]):
                continue
            events.append(("map", index, session.rows, session.cols,
                           tuple(sorted(allocated[index]))))
            try:
                result = mapper.map_similar(request, allocated[index],
                                            require_connected=False)
            except AllocationError:
                continue
            if best is None or (result.distance, index) < best[:2]:
                best = (result.distance, index, result)
        if best is None:
            continue
        _, index, result = best
        cores = tuple(result.physical_cores)
        allocated[index] |= set(cores)
        events.append(("alloc", index, cores))
        heapq.heappush(live, (
            session.arrival_cycle
            + session.inferences * PROXY_CYCLES_PER_INFERENCE,
            index, cores,
        ))
    return MappingCorpus(chips=chips, cores_per_chip=cores_per_chip,
                         sessions=sessions, seed=seed,
                         events=tuple(events))


def replay(corpus: MappingCorpus,
           mapper_type: type[TopologyMapper] = TopologyMapper
           ) -> ReplayResult:
    """Execute a corpus's ``map`` events against fresh mappers of
    ``mapper_type``; collect outputs, counters and timing.

    Every call goes through :func:`map_similar_unmemoized`, for the
    fast mapper as for the reference, so every ``map`` event pays for
    real mapping work: the replay measures the mapper, not its results
    memo. Each call passes its recorded ``allocated`` set, as the
    hypervisor passes its occupancy record. The mappers share one
    shape-memo object, as the chips of one type in a fleet do.
    """
    rows, cols = mesh_dims(corpus.cores_per_chip)
    chip_topology = Topology.mesh2d(rows, cols)
    mappers: list[TopologyMapper] = []
    for _ in range(corpus.chips):
        mappers.append(mapper_type(
            chip_topology, memos=mappers[0].memos if mappers else None))
    requests: dict[tuple[int, int], Topology] = {}
    calls = [event for event in corpus.events if event[0] == "map"]
    for _, _, req_rows, req_cols, _ in calls:
        shape = (req_rows, req_cols)
        if shape not in requests:
            requests[shape] = Topology.mesh2d(*shape)
    outputs: list[tuple] = []
    start = time.perf_counter()
    for _, index, req_rows, req_cols, alloc in calls:
        try:
            result = map_similar_unmemoized(
                mappers[index], requests[(req_rows, req_cols)], set(alloc),
                require_connected=False,
            )
        except AllocationError:
            outputs.append((-1.0, ()))
            continue
        outputs.append((result.distance,
                        tuple(sorted(result.vmap.items()))))
    wall = time.perf_counter() - start
    counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}
    for mapper in mappers:
        stats = mapper.cache_stats()
        for key in COUNTER_KEYS:
            counters[key] += stats[key]
    return ReplayResult(outputs=outputs, counters=counters,
                        wall_seconds=wall)


def run_mapping_perf(seed: int = 7, sessions: int = 500, chips: int = 8,
                     cores_per_chip: int = 36) -> dict:
    """Record a corpus, replay it on both mappers, and return the
    two-section report: ``deterministic`` (CI-gated) and ``timing``
    (recorded only).
    """
    corpus = record_corpus(seed=seed, sessions=sessions, chips=chips,
                           cores_per_chip=cores_per_chip)
    fast = replay(corpus)
    reference = replay(corpus, ReferenceMapper)
    mismatches = sum(
        1 for fast_out, ref_out in zip(fast.outputs, reference.outputs)
        if fast_out != ref_out
    )
    pruning = fast.counters
    deterministic = {
        "corpus": {
            "chips": corpus.chips,
            "cores_per_chip": corpus.cores_per_chip,
            "digest": corpus.digest(),
            "events": len(corpus.events),
            "map_calls": corpus.map_calls,
            "seed": corpus.seed,
            "sessions": corpus.sessions,
        },
        "equivalence": {
            "identical": mismatches == 0,
            "map_calls": len(fast.outputs),
            "mismatches": mismatches,
            "outputs_digest": fast.outputs_digest(),
            "reference_outputs_digest": reference.outputs_digest(),
        },
        "fast": dict(sorted(fast.counters.items())),
        "pruning_accounted": (
            pruning["candidates_pruned"] + pruning["candidates_refined"]
            == pruning["candidates_considered"]
        ),
        "reference": {
            "free_rebuilds": reference.counters["free_rebuilds"],
            "objective_evaluations":
                reference.counters["objective_evaluations"],
        },
    }
    speedup = (reference.wall_seconds / fast.wall_seconds
               if fast.wall_seconds > 0 else float("inf"))
    timing = {
        "fast_seconds": round(fast.wall_seconds, 4),
        "reference_seconds": round(reference.wall_seconds, 4),
        "speedup": round(speedup, 2),
        "target_speedup": 3.0,
        "meets_target": speedup >= 3.0,
    }
    return {"deterministic": deterministic, "timing": timing}
