import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_distance, oracle_simple_paths
from strategies import all_vertex_pairs, connected_graphs_st

from rvckit.graphs import (
    INFINITY,
    Graph,
    VertexColoring,
    coloring,
    diameter,
    distance,
    graph_from_edges,
    is_complete,
    is_connected,
    normalize_pair,
    pair_set,
    remove_edges,
    simple_paths,
)
from rvckit.families import complete_graph, cycle_graph, path_graph


class TestConstruction:
    def test_from_edges_normalizes_and_dedupes(self):
        g = graph_from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.m == 2

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            graph_from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph_from_edges(2, [(0, 2)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            graph_from_edges(0, [])

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None, 0, -1])
    def test_rejects_an_order_that_is_not_a_positive_int(self, n):
        # True == 1 built a one-vertex graph whose n is True; 2.0, "3" and
        # None raised TypeError.
        with pytest.raises(ValueError, match="graph order"):
            graph_from_edges(n, [])
        with pytest.raises(ValueError, match="graph order"):
            Graph(n, frozenset())

    def test_rejects_denormalized_direct_edges(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 1)}))

    @pytest.mark.parametrize("edge", [(0, True), (False, 2), (0, 1.0), (0, "1")])
    def test_from_edges_rejects_non_int_ids(self, edge):
        # True == 1, so (0, True) would otherwise alias the edge (0, 1); a str
        # id does not even compare with an int, and must not raise TypeError.
        with pytest.raises(ValueError):
            graph_from_edges(4, [edge, (1, 2), (2, 3)])

    @pytest.mark.parametrize("edge", [(0, True), (False, 2)])
    def test_direct_construction_rejects_boolean_ids(self, edge):
        with pytest.raises(ValueError):
            Graph(4, frozenset({edge, (2, 3)}))

    def test_neighbors_sorted(self):
        g = graph_from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0) == (1, 2, 3)
        assert len(g.adjacency[0]) == 3
        assert len(g.adjacency[1]) == 1
        assert g.has_edge(3, 0) and not g.has_edge(0, 0)

    def test_normalize_pair(self):
        assert normalize_pair(3, 1) == (1, 3)
        with pytest.raises(ValueError):
            normalize_pair(2, 2)


class TestPairSet:
    def test_iteration_is_sorted(self):
        p = pair_set([(3, 1), (0, 2), (0, 1)])
        assert list(p) == [(0, 1), (0, 2), (1, 3)]

    def test_contains_normalizes(self):
        p = pair_set([(1, 3)])
        assert (3, 1) in p
        assert (1, 3) in p
        assert (1, 1) not in p

    def test_range_check(self):
        p = pair_set([(0, 5)])
        with pytest.raises(ValueError):
            p.check_in_range(path_graph(3))

    @pytest.mark.parametrize("pair", [(-1, 2), (True, 2), (0, True)])
    def test_rejects_negative_and_boolean_ids(self, pair):
        with pytest.raises(ValueError):
            pair_set([pair])

    def test_all_vertex_pairs_count(self):
        assert len(all_vertex_pairs(path_graph(5))) == 10
        assert len(pair_set([])) == 0


class TestColoring:
    def test_budget_inference(self):
        c = coloring([1, 3, 2])
        assert c.k == 3 and len(c) == 3

    def test_rejects_out_of_budget_colors(self):
        with pytest.raises(ValueError):
            VertexColoring((1, 4), 3)
        with pytest.raises(ValueError):
            VertexColoring((0, 1), 2)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            VertexColoring((), 0)

    @pytest.mark.parametrize(
        "colors, k",
        [((1.0, 2, 3, 1), 3), ((True, 2), 2), ((1, 2), 2.0), ((1, 1), True)],
        ids=["float-color", "bool-color", "float-budget", "bool-budget"],
    )
    def test_rejects_non_int_colors_and_budgets(self, colors, k):
        with pytest.raises(ValueError, match="int"):
            VertexColoring(colors, k)


class TestDistance:
    def test_path_endpoints(self):
        assert distance(path_graph(4), 0, 3) == 3

    def test_cycle_wraps(self):
        assert distance(cycle_graph(5), 0, 3) == 2

    def test_self_distance(self):
        assert distance(path_graph(3), 1, 1) == 0

    def test_unreachable_is_infinite(self):
        g = graph_from_edges(3, [(0, 1)])
        assert distance(g, 0, 2) == INFINITY
        assert math.isinf(distance(g, 0, 2))

    def test_diameter_values(self):
        assert diameter(path_graph(5)) == 4
        assert diameter(cycle_graph(6)) == 3
        assert diameter(complete_graph(4)) == 1

    def test_diameter_rejects_disconnected(self):
        with pytest.raises(ValueError):
            diameter(graph_from_edges(3, [(0, 1)]))

    def test_connectivity_and_completeness(self):
        assert is_connected(path_graph(6))
        assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
        assert is_complete(complete_graph(5))
        assert not is_complete(cycle_graph(4))
        assert is_connected(graph_from_edges(1, []))


class TestRemoveEdges:
    def test_removes(self):
        g = remove_edges(cycle_graph(4), [(0, 1)])
        assert g.edges == frozenset({(1, 2), (2, 3), (0, 3)})

    def test_rejects_absent_edge(self):
        with pytest.raises(ValueError):
            remove_edges(path_graph(3), [(0, 2)])

    def test_original_untouched(self):
        g = cycle_graph(4)
        remove_edges(g, [(0, 1)])
        assert g.m == 4


class TestSimplePaths:
    def test_square_both_ways(self):
        paths = list(simple_paths(cycle_graph(4), 0, 2))
        assert paths == [(0, 1, 2), (0, 3, 2)]

    def test_respects_length_cap(self):
        assert list(simple_paths(cycle_graph(4), 0, 2, max_len=1)) == []
        assert list(simple_paths(cycle_graph(4), 0, 1, max_len=1)) == [(0, 1)]

    def test_prefix_lexicographic_order(self):
        g = complete_graph(4)
        paths = list(simple_paths(g, 0, 3))
        assert paths[0] == (0, 1, 2, 3)
        assert paths.index((0, 3)) < paths.index((0, 2, 3)) or paths == sorted(paths)
        assert sorted(paths) == paths

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            list(simple_paths(path_graph(3), 1, 1))

    def test_unreachable_yields_nothing(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert list(simple_paths(g, 0, 3)) == []

    def test_long_path_does_not_recurse(self):
        assert list(simple_paths(path_graph(1200), 0, 1199)) == [tuple(range(1200))]


@given(connected_graphs_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_distance_matches_relaxation_oracle(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    assert distance(g, u, v) == oracle_distance(g, u, v)
    assert distance(g, u, v) == distance(g, v, u)


@given(connected_graphs_st(max_n=5), st.data())
@settings(max_examples=100, deadline=None)
def test_simple_paths_match_unbounded_oracle(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    if u == v:
        return
    mine = list(simple_paths(g, u, v))
    assert set(mine) == set(oracle_simple_paths(g, u, v))
    assert mine == sorted(oracle_simple_paths(g, u, v))


@given(connected_graphs_st(max_n=5), st.data())
@settings(max_examples=100, deadline=None)
def test_simple_paths_cap_selects_by_length(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    cap = data.draw(st.integers(1, g.n))
    if u == v:
        return
    mine = list(simple_paths(g, u, v, max_len=cap))
    want = {p for p in oracle_simple_paths(g, u, v) if len(p) - 1 <= cap}
    assert set(mine) == want
    assert mine == sorted(want)


def neighbour_bits(g):
    """Bit y of entry x is set exactly when y is in g.adjacency[x]."""
    return tuple(sum(1 << y for y in nbrs) for nbrs in g.adjacency)


@given(connected_graphs_st(), st.data())
@settings(max_examples=150, deadline=None)
def test_masks_match_adjacency(g, data):
    assert g.masks == neighbour_bits(g)
    drop = data.draw(st.lists(st.sampled_from(sorted(g.edges)), unique=True))
    h = remove_edges(g, drop)
    assert h.masks == neighbour_bits(h)
