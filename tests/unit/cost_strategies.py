"""Hypothesis strategy for random :class:`~repro.core.ged.EditCosts`."""

from hypothesis import strategies as st

from repro.core.ged import EditCosts

#: The tags test topologies carry ("" is untagged).
TAGS = ("", "mem", "sa", "vu")


def _sixteenths(low: int, high: int) -> st.SearchStrategy[float]:
    return st.integers(low, high).map(lambda n: n / 16)


def edit_costs(max_node: int = 8) -> st.SearchStrategy[EditCosts]:
    """Random valid prices: tag prices in [0, 4] (untagged included),
    flat structural prices in (0, 4], and up to four critical request
    edges among nodes ``0..max_node`` priced in (0, 64]."""
    edges = st.tuples(st.integers(0, max_node),
                      st.integers(0, max_node)).filter(
                          lambda edge: edge[0] != edge[1])
    return st.builds(
        EditCosts,
        tag_mismatch=st.dictionaries(st.sampled_from(TAGS),
                                     _sixteenths(0, 64)),
        edge_delete_at=st.dictionaries(edges, _sixteenths(1, 1024),
                                       max_size=4),
        node_delete=_sixteenths(1, 64),
        node_insert=_sixteenths(1, 64),
        edge_delete=_sixteenths(1, 64),
        edge_insert=_sixteenths(1, 64),
    )
