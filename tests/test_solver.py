import hashlib
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_chromatic_le,
    oracle_exists_rainbow_path,
    oracle_rvc,
    oracle_simple_paths,
    oracle_subset_yes,
)
from strategies import (
    all_vertex_pairs,
    connected_graphs_of_order,
    connected_graphs_st,
    graphs_with_pairs_st,
)

from rvckit.families import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from rvckit.gadgets import build_gadget
from rvckit.graphs import adjacency_distances, graph_from_edges, pair_set
from rvckit.rainbow import is_subset_rainbow_vc
from rvckit.solver import (
    _induced_path_sets,
    chromatic_decision,
    decide_rvc_le_k,
    decide_subset_rvc,
    rvc_exact,
)


class TestSubsetDecision:
    def test_distance_beyond_cap_is_no(self):
        # Under 2 colors a rainbow path has at most 2 internal vertices,
        # so the endpoints of P5 are out of reach.
        g = path_graph(5)
        res = decide_subset_rvc(g, pair_set([(0, 4)]), 2)
        assert not res.decision and res.witness is None

    def test_three_colors_reach_across_p5(self):
        g = path_graph(5)
        res = decide_subset_rvc(g, pair_set([(0, 4)]), 3)
        assert res.decision
        inner = [res.witness.colors[v] for v in (1, 2, 3)]
        assert len(set(inner)) == 3

    def test_single_internal_pairs_need_one_color(self):
        g = path_graph(3)
        assert decide_subset_rvc(g, pair_set([(0, 2)]), 1).decision

    def test_empty_pair_set_is_yes(self):
        g = path_graph(4)
        res = decide_subset_rvc(g, pair_set([]), 1)
        assert res.decision and res.witness is not None

    def test_rejects_bad_arguments(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            decide_subset_rvc(g, pair_set([]), 0)
        with pytest.raises(ValueError):
            decide_subset_rvc(graph_from_edges(4, [(0, 1), (2, 3)]), pair_set([]), 2)
        with pytest.raises(ValueError):
            decide_subset_rvc(g, pair_set([(0, 7)]), 2)

    def test_witness_serves_requested_pairs(self):
        g = cycle_graph(6)
        p = pair_set([(0, 3), (1, 4), (2, 5)])
        res = decide_subset_rvc(g, p, 2)
        assert res.decision
        for a, b in p:
            assert oracle_exists_rainbow_path(g, res.witness, a, b)

    def test_path_longer_than_the_recursion_limit(self):
        n = 1200
        assert n > sys.getrecursionlimit()
        g = path_graph(n)
        p = pair_set([(0, n - 1)])
        res = decide_subset_rvc(g, p, n - 2)
        assert res.decision
        # The only 0 - (n-1) path uses every internal vertex.
        assert len(set(res.witness.colors[1:-1])) == n - 2
        assert is_subset_rainbow_vc(g, res.witness, p)

    def test_deterministic_witness(self):
        g = cycle_graph(6)
        p = all_vertex_pairs(g)
        first = decide_subset_rvc(g, p, 2)
        second = decide_subset_rvc(g, p, 2)
        assert first == second


@pytest.mark.parametrize("k", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda g, k: decide_subset_rvc(g, pair_set([(0, 3)]), k),
        lambda g, k: decide_rvc_le_k(g, k),
        lambda g, k: chromatic_decision(g, k),
        lambda g, k: build_gadget(g, pair_set([(0, 3)]), k),
    ],
    ids=["subset", "rvc_le_k", "chromatic", "gadget"],
)
def test_non_int_budget_is_rejected_where_it_enters(entry, k):
    # A float must not get as far as the search's arithmetic, nor a bool pass as 1.
    with pytest.raises(ValueError, match="int"):
        entry(path_graph(4), k)


class TestFullDecision:
    def test_budget_zero_is_completeness(self):
        yes = decide_rvc_le_k(complete_graph(4), 0)
        assert yes.decision and yes.witness is None
        assert not decide_rvc_le_k(path_graph(3), 0).decision

    def test_cycle_six_needs_two(self):
        assert not decide_rvc_le_k(cycle_graph(6), 1).decision
        assert decide_rvc_le_k(cycle_graph(6), 2).decision

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            decide_rvc_le_k(path_graph(3), -1)

    @pytest.mark.parametrize("decide", [decide_rvc_le_k, chromatic_decision])
    def test_budget_far_above_n_costs_no_more_than_n(self, decide):
        # At most n colors are ever opened and a simple path has at most n-2
        # internal vertices, so k = 10**6 must not allocate or power up to k.
        g = cycle_graph(6)
        tracemalloc.start()
        try:
            big = decide(g, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        small = decide(g, g.n)
        assert (big.decision, big.nodes_explored) == (small.decision, small.nodes_explored)
        assert big.witness.colors == small.witness.colors
        assert big.witness.k == 10**6

    def test_rejects_disconnected(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        for k in (0, 1, 2):
            with pytest.raises(ValueError):
                decide_rvc_le_k(g, k)

    def test_search_assigns_only_vertices_on_candidate_sets(self):
        # P4 at k = 2: the one far pair (0, 3) has the one set {1, 2}, so the
        # search tries 1 -> 1, 2 -> 1 (blocked) and 2 -> 2; 0 and 3 take 1.
        res = decide_rvc_le_k(path_graph(4), 2)
        assert res.decision and res.witness.colors == (1, 1, 2, 1)
        assert res.nodes_explored == 3

    @pytest.mark.parametrize("g", [cycle_graph(5), star_graph(6)], ids=["C5", "star"])
    def test_diameter_two_needs_no_search(self, g):
        # No pair is at distance 3 or more, so no vertex is assigned.
        res = decide_rvc_le_k(g, 1)
        assert res.decision and res.witness.colors == (1,) * g.n
        assert res.nodes_explored == 0


def test_two_triangles_are_rejected_everywhere():
    # Every pair within one triangle is near, so connectivity must not rest
    # on the far pairs alone.
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    entries = [
        lambda: rvc_exact(g),
        lambda: decide_rvc_le_k(g, 0),
        lambda: decide_rvc_le_k(g, 2),
        lambda: decide_subset_rvc(g, pair_set([(0, 1)]), 2),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="connected"):
            entry()


class TestExactValue:
    def test_known_families(self):
        assert rvc_exact(complete_graph(4))[0] == 0
        assert rvc_exact(star_graph(6))[0] == 1
        assert rvc_exact(cycle_graph(5))[0] == 1
        assert rvc_exact(cycle_graph(6))[0] == 2
        assert rvc_exact(path_graph(4))[0] == 2
        assert rvc_exact(path_graph(5))[0] == 3

    def test_witness_accompanies_positive_values(self):
        k, witness = rvc_exact(path_graph(5))
        assert k == 3 and witness is not None and witness.k == 3
        k, witness = rvc_exact(complete_graph(3))
        assert k == 0 and witness is None

    def test_agrees_with_brute_force_up_to_five(self):
        for n in range(1, 6):
            for g in connected_graphs_of_order(n):
                assert rvc_exact(g)[0] == oracle_rvc(g)

    def test_rejects_disconnected(self):
        for g in (graph_from_edges(2, []), graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])):
            with pytest.raises(ValueError):
                rvc_exact(g)

    def test_pinned_on_the_catalog(self):
        # rvc and witness on every connected graph with n <= 7 (996 graphs),
        # recorded before rvc_exact shared one distance table per graph and
        # dropped the pairs at distance <= 2 before enumerating paths.
        digest = hashlib.sha256()
        for g in connected_graphs(7):
            k, witness = rvc_exact(g)
            digest.update(repr((k, witness and witness.colors)).encode())
        assert digest.hexdigest() == "8c43172ddae991cce92f32439a566040bcd184c8b3cc65f26097cd1d157c92ab"


class TestChromaticDecision:
    def test_known_values(self):
        assert not chromatic_decision(complete_graph(4), 3).decision
        assert chromatic_decision(complete_graph(4), 4).decision
        assert not chromatic_decision(cycle_graph(5), 2).decision
        assert chromatic_decision(cycle_graph(5), 3).decision
        assert chromatic_decision(path_graph(6), 2).decision

    def test_path_longer_than_the_recursion_limit(self):
        g = path_graph(1200)
        assert g.n > sys.getrecursionlimit()
        res = chromatic_decision(g, 2)
        assert res.decision
        assert all(res.witness.colors[a] != res.witness.colors[b] for a, b in g.edges)

    def test_witness_is_proper(self):
        g = cycle_graph(5)
        res = chromatic_decision(g, 3)
        for a, b in g.edges:
            assert res.witness.colors[a] != res.witness.colors[b]

    def test_agrees_with_brute_force_up_to_five(self):
        for n in range(2, 6):
            for g in connected_graphs_of_order(n):
                for k in (1, 2, 3):
                    assert chromatic_decision(g, k).decision == oracle_chromatic_le(g, k)

    def test_isolated_vertices_are_not_searched(self):
        # Each edge is a constraint whose one set is its two ends, so a
        # vertex on no edge takes color 1 without a node: 0 -> 1, 1 -> 1
        # (blocked), 1 -> 2.
        res = chromatic_decision(graph_from_edges(3, [(0, 1)]), 2)
        assert res.decision and res.witness.colors == (1, 2, 1)
        assert res.nodes_explored == 3
        res = chromatic_decision(complete_graph(1), 1)
        assert res.decision and res.witness.colors == (1,)
        assert res.nodes_explored == 0

    def test_pinned_on_the_small_catalog(self):
        # Decision, node count and witness for k = 1..3 on every connected
        # graph with n <= 6 (429 decisions, 2,714 nodes), recorded when the
        # proper-coloring search became the decision search over one-set edge
        # constraints: every decision and witness stayed as before, and the
        # nodes fell by 3, one per decision on K1.
        digest = hashlib.sha256()
        for g in connected_graphs(6):
            for k in (1, 2, 3):
                r = chromatic_decision(g, k)
                digest.update(repr((r.decision, r.nodes_explored, r.witness and r.witness.colors)).encode())
        assert digest.hexdigest() == "b4d12550305000e74e104a589d99906737d3e3ece454e0b2350f5d8147bab6fc"


@given(graphs_with_pairs_st(), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_subset_decision_matches_coloring_enumeration(gp, k):
    g, p = gp
    assert decide_subset_rvc(g, p, k).decision == oracle_subset_yes(g, p, k)


@given(graphs_with_pairs_st(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_more_colors_never_hurt(gp, k):
    g, p = gp
    if decide_subset_rvc(g, p, k).decision:
        assert decide_subset_rvc(g, p, k + 1).decision


@given(graphs_with_pairs_st(), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_dropping_pairs_never_hurts(gp, k, data):
    g, p = gp
    kept = data.draw(st.lists(st.sampled_from(sorted(p)), unique=True)) if len(p) else []
    sub = pair_set(kept)
    if decide_subset_rvc(g, p, k).decision:
        assert decide_subset_rvc(g, sub, k).decision


def test_search_is_pinned_on_the_small_catalog():
    # Decision, node count and witness of rvc <= k for k = 1..3 on every
    # connected graph with n <= 6 (429 decisions).  Re-recorded when the
    # search stopped assigning vertices on no candidate set: every decision
    # and witness stayed as before, and the nodes fell from 2,162 to 483.
    digest = hashlib.sha256()
    for g in connected_graphs(6):
        for k in (1, 2, 3):
            r = decide_rvc_le_k(g, k)
            digest.update(repr((r.decision, r.nodes_explored, r.witness and r.witness.colors)).encode())
    assert digest.hexdigest() == "d4aaef00d38763310df4f1be5fc90c7145f0678456be80eae8468834d6663933"


def _minimal_internal_sets(g, a, b, cap):
    sets = {frozenset(path[1:-1]) for path in oracle_simple_paths(g, a, b) if len(path) - 1 <= cap}
    return {s for s in sets if not any(t < s for t in sets)}


@given(connected_graphs_st(min_n=3, max_n=7), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_candidate_sets_are_the_minimal_internal_sets(g, cap, data):
    far = [(a, b) for a, b in all_vertex_pairs(g) if not g.has_edge(a, b)]
    assume(far)
    a, b = data.draw(st.sampled_from(far))
    sets = _induced_path_sets(g, adjacency_distances(g.adjacency, b), a, b, cap)
    got = [frozenset(v for v in range(g.n) if s >> v & 1) for s in sets]
    assert len(got) == len(set(got))
    assert set(got) == _minimal_internal_sets(g, a, b, cap)
