"""Unit and property tests for graph edit distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.topology import Topology
from repro.core.ged import (
    EditCosts,
    _pair_cost_block,
    best_bijection,
    bijection_lower_bound,
    bipartite_ged,
    exact_ged,
    ged,
    induced_edit_cost,
)
from repro.errors import TopologyError

from cost_strategies import edit_costs
from mapping_oracle import (
    scalar_best_bijection,
    scalar_pair_costs,
    scalar_bijection_lower_bound,
    scalar_bipartite_ged,
)


def small_topology(seed: int, n: int) -> Topology:
    """Deterministic pseudo-random connected topology."""
    edges = [(i, i + 1) for i in range(n - 1)]  # spine keeps it connected
    state = seed
    for u in range(n):
        for v in range(u + 2, n):
            state = (state * 1103515245 + 12345) % (1 << 31)
            if state % 7 == 0:
                edges.append((u, v))
    return Topology(range(n), edges)


class TestInducedCost:
    def test_identity_mapping_is_free(self):
        mesh = Topology.mesh2d(2, 3)
        mapping = {n: n for n in mesh.nodes}
        assert induced_edit_cost(mesh, mesh, mapping) == 0.0

    def test_single_missing_edge(self):
        line = Topology.line(3)
        broken = Topology([0, 1, 2], [(0, 1)])
        mapping = {0: 0, 1: 1, 2: 2}
        assert induced_edit_cost(line, broken, mapping) == 1.0

    def test_deletion_and_insertion(self):
        single = Topology([0], [])
        pair = Topology([0, 1], [(0, 1)])
        # Map the one node, insert the other and its edge.
        assert induced_edit_cost(single, pair, {0: 0}) == 2.0
        # Delete the node instead: delete 1 + insert 2 + insert edge.
        assert induced_edit_cost(single, pair, {0: None}) == 4.0

    def test_attribute_substitution(self):
        sa = Topology([0], [], node_attrs={0: "sa"})
        vu = Topology([0], [], node_attrs={0: "vu"})
        assert induced_edit_cost(sa, vu, {0: 0}) == 1.0

    def test_untagged_source_is_dont_care(self):
        plain = Topology([0], [])
        tagged = Topology([0], [], node_attrs={0: "mem"})
        assert induced_edit_cost(plain, tagged, {0: 0}) == 0.0
        # The reverse direction still costs: a tagged request node needs
        # a matching physical core.
        assert induced_edit_cost(tagged, plain, {0: 0}) == 1.0

    def test_incomplete_mapping_rejected(self):
        mesh = Topology.mesh2d(2, 2)
        with pytest.raises(TopologyError):
            induced_edit_cost(mesh, mesh, {0: 0})

    def test_non_injective_mapping_rejected(self):
        pair = Topology([0, 1], [(0, 1)])
        with pytest.raises(TopologyError):
            induced_edit_cost(pair, pair, {0: 0, 1: 0})


class TestExact:
    def test_identical_graphs_zero(self):
        mesh = Topology.mesh2d(2, 3)
        assert exact_ged(mesh, mesh) == 0.0

    def test_isomorphic_graphs_zero(self):
        a = Topology.mesh2d(2, 3)
        b = a.relabel({n: 5 - n for n in a.nodes})
        assert exact_ged(a, b) == 0.0

    def test_line_vs_ring_is_one_edge(self):
        assert exact_ged(Topology.line(5), Topology.ring(5)) == 1.0

    def test_fig9_style_example_distance_four(self):
        """Two edge deletions + one edge insertion + one node substitution."""
        t1 = Topology(
            range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)],
            node_attrs={4: "sa"},
        )
        t2 = Topology(
            range(5), [(0, 1), (0, 2), (0, 3), (0, 4)],  # star
            node_attrs={4: "vu"},
        )
        assert exact_ged(t1, t2) == 4.0

    def test_size_limit_enforced(self):
        big = Topology.mesh2d(4, 4)
        with pytest.raises(TopologyError):
            exact_ged(big, big, max_nodes=8)

    def test_symmetry_with_unit_costs(self):
        a = small_topology(1, 5)
        b = small_topology(2, 5)
        assert exact_ged(a, b) == exact_ged(b, a)


class TestBipartite:
    def test_upper_bounds_exact(self):
        for seed in range(6):
            a = small_topology(seed, 5)
            b = small_topology(seed + 100, 5)
            assert bipartite_ged(a, b) >= exact_ged(a, b) - 1e-9

    def test_zero_on_identical(self):
        mesh = Topology.mesh2d(3, 3)
        assert bipartite_ged(mesh, mesh) == 0.0

    def test_different_sizes(self):
        small = Topology.mesh2d(2, 2)
        large = Topology.mesh2d(3, 3)
        distance = bipartite_ged(small, large)
        # At least 5 node insertions + some edges.
        assert distance >= 5.0


class TestDispatch:
    def test_auto_uses_exact_for_small(self):
        line, ring = Topology.line(5), Topology.ring(5)
        assert ged(line, ring, method="auto") == 1.0

    def test_auto_uses_bipartite_for_large(self):
        a = Topology.mesh2d(4, 4)
        assert ged(a, a, method="auto") == 0.0

    def test_unknown_method(self):
        mesh = Topology.mesh2d(2, 2)
        with pytest.raises(TopologyError):
            ged(mesh, mesh, method="nope")


class TestBijection:
    def test_equal_size_required(self):
        with pytest.raises(TopologyError):
            best_bijection(Topology.line(3), Topology.line(4))

    def test_identity_found_for_identical(self):
        mesh = Topology.mesh2d(2, 3)
        cost, mapping = best_bijection(mesh, mesh)
        assert cost == 0.0
        assert induced_edit_cost(mesh, mesh, dict(mapping)) == 0.0


class TestCustomCosts:
    def test_critical_edge_penalty(self):
        """Algorithm 1's EdgeMatch: losing a critical edge costs more."""
        line = Topology.line(3)
        broken = Topology([0, 1, 2], [(1, 2)])  # edge (0,1) missing
        costs = EditCosts(edge_delete_at={(1, 0): 10.0})
        mapping = {0: 0, 1: 1, 2: 2}
        assert induced_edit_cost(line, broken, mapping, costs) == 10.0
        assert costs.edge_price(0, 1) == 10.0
        assert costs.edge_price(1, 2) == 1.0

    def test_heterogeneous_node_penalty(self):
        """Algorithm 1's NodeMatch: a mem node off a mem core costs 3."""
        req = Topology([0, 1], [(0, 1)], node_attrs={0: "mem"})
        far = Topology([0, 1], [(0, 1)], node_attrs={1: "mem"})
        costs = EditCosts(tag_mismatch={"mem": 3.0})
        assert induced_edit_cost(req, far, {0: 0, 1: 1}, costs) == 3.0
        # The optimal bijection aligns mem with mem (cost 0).
        cost, mapping = best_bijection(req, far, costs)
        assert cost == 0.0
        assert mapping[0] == 1

    def test_untagged_price_from_the_table(self):
        plain = Topology([0], [])
        tagged = Topology([0], [], node_attrs={0: "mem"})
        costs = EditCosts(tag_mismatch={"": 0.5})
        assert induced_edit_cost(plain, tagged, {0: 0}, costs) == 0.5
        assert induced_edit_cost(plain, plain, {0: 0}, costs) == 0.0


class TestEditCostsValidation:
    def test_tables_are_stored_sorted_and_hashable(self):
        one = EditCosts(tag_mismatch={"sa": 2, "mem": 0.5},
                        edge_delete_at={(3, 1): 4.0})
        two = EditCosts(tag_mismatch={"mem": 0.5, "sa": 2.0},
                        edge_delete_at={(1, 3): 4})
        assert one == two and hash(one) == hash(two)
        assert one.tag_mismatch == (("mem", 0.5), ("sa", 2.0))
        assert one.edge_delete_at == (((1, 3), 4.0),)
        assert one != EditCosts()
        assert EditCosts(tag_mismatch={"mem": 0}).tag_price("mem") == 0.0

    @pytest.mark.parametrize("value", [0.1, float("nan"), float("inf"),
                                       -1.0, 0.0, 2.0 ** 33, "1"])
    def test_bad_structural_price_rejected(self, value):
        for field in ("node_delete", "node_insert", "edge_delete",
                      "edge_insert"):
            with pytest.raises(TopologyError):
                EditCosts(**{field: value})

    @pytest.mark.parametrize("value", [0.1, float("nan"), float("inf"),
                                       -0.5, 0.0])
    def test_bad_edge_table_price_rejected(self, value):
        with pytest.raises(TopologyError):
            EditCosts(edge_delete_at={(0, 1): value})

    @pytest.mark.parametrize("value", [0.1, float("nan"), float("-inf"),
                                       -0.0625])
    def test_bad_tag_price_rejected(self, value):
        with pytest.raises(TopologyError):
            EditCosts(tag_mismatch={"mem": value})


@settings(max_examples=60, deadline=None)
@given(
    seed1=st.integers(0, 1000), seed2=st.integers(0, 1000),
    n=st.integers(3, 5),
)
def test_property_exact_ged_is_symmetric_and_nonnegative(seed1, seed2, n):
    a = small_topology(seed1, n)
    b = small_topology(seed2, n)
    d_ab = exact_ged(a, b)
    d_ba = exact_ged(b, a)
    assert d_ab >= 0
    assert d_ab == d_ba
    if seed1 == seed2:
        assert d_ab == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(3, 6))
def test_property_bipartite_upper_bounds_exact(seed, n):
    a = small_topology(seed, n)
    b = small_topology(seed + 7, n)
    assert bipartite_ged(a, b) >= exact_ged(a, b) - 1e-9


def tagged_topology(seed: int, n: int) -> Topology:
    """Like :func:`small_topology` but with a pseudo-random tag mix."""
    base = small_topology(seed, n)
    tags = ("", "mem", "sa", "vu")
    attrs = {node: tags[(seed + node * 3) % len(tags)]
             for node in base.nodes}
    attrs = {node: tag for node, tag in attrs.items() if tag}
    return Topology(base.nodes, base.edges, node_attrs=attrs)


class TestVectorizedIdentity:
    """The numpy reward-matrix block and the closed-form bound must be
    *bit-identical* to the scalar loops in ``mapping_oracle``, the
    property-tested oracle the one production path is judged against,
    for default and random prices alike."""

    @settings(max_examples=60, deadline=None)
    @given(seed1=st.integers(0, 1000), seed2=st.integers(0, 1000),
           n=st.integers(1, 9), costs=st.none() | edit_costs())
    def test_best_bijection_matches_scalar_oracle(self, seed1, seed2, n,
                                                  costs):
        a = tagged_topology(seed1, n)
        b = tagged_topology(seed2, n)
        prices = costs or EditCosts()
        assert np.array_equal(_pair_cost_block(a, b, prices),
                              scalar_pair_costs(a, b, prices))
        fast_cost, fast_map = best_bijection(a, b, costs)
        slow_cost, slow_map = scalar_best_bijection(a, b, costs)
        assert fast_cost == slow_cost  # exact float equality, no epsilon
        assert fast_map == slow_map

    @settings(max_examples=60, deadline=None)
    @given(seed1=st.integers(0, 1000), seed2=st.integers(0, 1000),
           n1=st.integers(1, 8), n2=st.integers(1, 8),
           costs=st.none() | edit_costs())
    def test_bipartite_ged_matches_scalar_oracle(self, seed1, seed2, n1, n2,
                                                 costs):
        a = tagged_topology(seed1, n1)
        b = tagged_topology(seed2, n2)
        assert bipartite_ged(a, b, costs) == scalar_bipartite_ged(a, b, costs)

    @settings(max_examples=60, deadline=None)
    @given(seed1=st.integers(0, 1000), seed2=st.integers(0, 1000),
           n=st.integers(1, 9), costs=st.none() | edit_costs())
    def test_lower_bound_matches_scalar_oracle(self, seed1, seed2, n, costs):
        a = tagged_topology(seed1, n)
        b = tagged_topology(seed2, n)
        fast = bijection_lower_bound(a, b, costs)
        assert fast == scalar_bijection_lower_bound(a, b, costs)
        # Admissibility must survive the closed form.
        exact_cost, _ = best_bijection(a, b, costs)
        assert fast <= exact_cost

    def test_table_costs_take_the_vectorized_path(self):
        # Prices from the tables are broadcast like the flat ones and
        # still equal the loop one pair at a time.
        a = small_topology(3, 6)
        b = small_topology(11, 6)
        costs = EditCosts(edge_delete=2.5, edge_delete_at={(0, 1): 7.0},
                          tag_mismatch={"": 0.25})
        assert best_bijection(a, b, costs) == scalar_best_bijection(a, b,
                                                                    costs)
        assert bipartite_ged(a, b, costs) == scalar_bipartite_ged(a, b, costs)
        assert (bijection_lower_bound(a, b, costs)
                == scalar_bijection_lower_bound(a, b, costs))

    def test_empty_topology(self):
        empty = Topology([], [])
        assert bipartite_ged(empty, empty) == 0.0
        assert bijection_lower_bound(empty, empty) == 0.0
        assert best_bijection(empty, empty) == (0.0, {})
