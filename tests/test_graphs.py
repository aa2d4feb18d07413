import math
import pickle
from dataclasses import FrozenInstanceError, replace

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
from rvckit.rainbow import exists_rainbow_path, first_unserved_pair
from rvckit.solver import decide_rvc_le_k, rvc_exact


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
        assert g.adjacency[0] == (1, 2, 3)
        assert len(g.adjacency[0]) == 3
        assert len(g.adjacency[1]) == 1
        assert g.has_edge(3, 0) and not g.has_edge(0, 0)

    def test_tables_are_frozen_fields_outside_equality(self):
        # The neighbour tables are fields built once by the constructor:
        # they cannot be reassigned, and equality and hashing read only n
        # and the masks, so edge order does not matter.
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(FrozenInstanceError):
            g.adjacency = ()
        with pytest.raises(FrozenInstanceError):
            g.masks = ()
        h = graph_from_edges(4, [(3, 0), (3, 2), (2, 1), (1, 0)])
        assert g == h and hash(g) == hash(h)
        assert g.adjacency == h.adjacency and g.masks == h.masks

    def test_replace_rebuilds_from_edges_on_the_same_order(self):
        # Only n is an init field, so replace() passes it on with the given
        # edges; the tables the constructor builds cannot be handed in.
        g = path_graph(3)
        assert replace(g, edges=[(0, 1)]) == Graph(3, [(0, 1)])
        with pytest.raises(TypeError, match="edges"):
            replace(g, n=4)
        with pytest.raises(ValueError, match="masks"):
            replace(g, masks=(0, 0, 0))

    def test_normalize_pair(self):
        assert normalize_pair(3, 1) == (1, 3)
        with pytest.raises(ValueError):
            normalize_pair(2, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: path_graph(3).has_edge(True, 2),
            lambda: remove_edges(path_graph(3), [(True, 2)]),
            lambda: (True, 2) in pair_set([(1, 2)]),
            lambda: normalize_pair(1.0, 2),
            lambda: path_graph(3).has_edge(True, True),
            lambda: (1.0, 1.0) in pair_set([(1, 2)]),
        ],
        ids=[
            "has_edge",
            "remove_edges",
            "pair-set-contains",
            "float",
            "has_edge-diagonal",
            "pair-set-contains-diagonal",
        ],
    )
    def test_pair_ids_that_are_not_ints_are_refused(self, call):
        # True == 1, so a bool id would silently alias vertex 1.
        with pytest.raises(ValueError, match="not an int"):
            call()


class TestEdgeSet:
    """``Graph`` stores its neighbour tables; the edge set is built on first read."""

    def test_decisions_never_build_the_edge_set(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        c = coloring([1, 1, 2, 3, 1], 3)
        assert rvc_exact(g)[0] == 3
        assert decide_rvc_le_k(g, 3).decision
        assert first_unserved_pair(g, c) is None
        assert exists_rainbow_path(g, c, 0, 4) is not None
        assert "edges" not in vars(g)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
        assert "edges" in vars(g)

    def test_any_iterable_of_ordered_pairs_builds_the_same_graph(self):
        edges = [(0, 1), (1, 3), (0, 2)]
        g, h = Graph(4, edges), Graph(4, frozenset(edges))
        assert g == h and hash(g) == hash(h)
        assert g.m == h.m == 3
        assert Graph(4, iter(edges)) == g

    def test_a_repeated_edge_is_refused(self):
        with pytest.raises(ValueError, match="repeated"):
            Graph(3, [(0, 1), (1, 2), (0, 1)])

    def test_pickle_round_trips(self):
        # --jobs workers receive their graphs pickled.
        g = cycle_graph(5)
        h = pickle.loads(pickle.dumps(g))
        assert h == g and hash(h) == hash(g)
        assert h.adjacency == g.adjacency and h.m == g.m
        assert h.edges == g.edges

    def test_repr_names_the_order_and_the_edges(self):
        assert repr(path_graph(2)) == "Graph(n=2, edges=frozenset({(0, 1)}))"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_edges_equal_the_normalized_input(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        ids = st.integers(0, n - 1)
        raw = [(u, v) for u, v in data.draw(st.lists(st.tuples(ids, ids)), label="raw") if u != v]
        g = graph_from_edges(n, raw)
        want = {normalize_pair(u, v) for u, v in raw}
        assert g.edges == want and g.m == len(want)
        assert Graph(n, sorted(want)) == g
        for u in range(n):
            row = tuple(v for v in range(n) if (min(u, v), max(u, v)) in want)
            assert g.adjacency[u] == row
            assert g.masks[u] == sum(1 << v for v in row)


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

    @pytest.mark.parametrize("max_len", [True, 2.5])
    def test_rejects_a_max_len_that_is_not_an_int(self, max_len):
        with pytest.raises(ValueError, match="max_len"):
            list(simple_paths(path_graph(3), 0, 2, max_len))
        # None and a negative int stay valid: no bound, and no path.
        assert list(simple_paths(path_graph(3), 0, 2, None)) == [(0, 1, 2)]
        assert list(simple_paths(path_graph(3), 0, 2, -1)) == []

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
