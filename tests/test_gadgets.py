import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import all_vertex_pairs, connected_graphs_st

from rvckit.families import complete_graph, cycle_graph, path_graph
from rvckit.gadgets import (
    build_gadget,
    label_level,
    lift_coloring,
    pendant_lift,
    pendant_project,
    pendant_reduction,
    project_coloring,
)
from rvckit.graphs import coloring, graph_from_edges, normalize_pair, pair_set
from rvckit.harness import gadget_sweep_instances
from rvckit.io import emit_gadget
from rvckit.rainbow import exists_rainbow_path, is_rainbow_vertex_connected
from rvckit.solver import decide_subset_rvc

GOLDEN_TRIANGLE_GADGET = """{
  "n": 10,
  "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [1, 2], [1, 7], [2, 7], [3, 4], [3, 8], [4, 8], [5, 6], [5, 9], [6, 9], [7, 8], [7, 9], [8, 9]],
  "pairs": [[7, 8], [7, 9], [8, 9]],
  "k": 2,
  "labels": ["u", "v_{0,0}^{(1)}", "v_{0,0}^{(2)}", "v_{1,0}^{(1)}", "v_{1,0}^{(2)}", "v_{2,0}^{(1)}", "v_{2,0}^{(2)}", "v_{0,2}", "v_{1,2}", "v_{2,2}"]
}
"""


class TestPendantReduction:
    def test_triangle_instance(self):
        inst = pendant_reduction(complete_graph(3))
        assert inst.graph.n == 6
        assert inst.graph.edges == frozenset(
            {(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)}
        )
        assert set(inst.pairs) == {(3, 4), (3, 5), (4, 5)}

    def test_pairs_follow_source_edges(self):
        g = path_graph(4)
        inst = pendant_reduction(g)
        assert set(inst.pairs) == {(4, 5), (5, 6), (6, 7)}

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            pendant_reduction(graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_records_its_source_graph(self):
        g = cycle_graph(5)
        assert pendant_reduction(g).source == g

    def test_lift_copies_owner_colors(self):
        inst = pendant_reduction(cycle_graph(5))
        c = coloring([1, 2, 1, 2, 3], k=3)
        lifted = pendant_lift(inst, c)
        assert lifted.colors == (1, 2, 1, 2, 3, 1, 2, 1, 2, 3)

    def test_lift_rejects_improper_colorings(self):
        inst = pendant_reduction(path_graph(3))
        with pytest.raises(ValueError):
            pendant_lift(inst, coloring([1, 1, 2], k=3))

    def test_lift_names_the_least_monochromatic_edge(self):
        inst = pendant_reduction(cycle_graph(5))
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is monochromatic"):
            pendant_lift(inst, coloring([1, 1, 1, 1, 1], k=3))

    def test_lift_rejects_wrong_length(self):
        inst = pendant_reduction(path_graph(3))
        with pytest.raises(ValueError):
            pendant_lift(inst, coloring([1, 2], k=3))

    def test_project_inverts_lift(self):
        inst = pendant_reduction(cycle_graph(5))
        c = coloring([1, 2, 1, 2, 3], k=3)
        assert pendant_project(inst, pendant_lift(inst, c)) == c

    def test_project_rejects_non_serving_colorings(self):
        inst = pendant_reduction(path_graph(3))
        bad = coloring([1, 1, 1, 1, 1, 1], k=3)
        with pytest.raises(ValueError, match="no rainbow path"):
            pendant_project(inst, bad)

    def test_pendant_pairs_force_owner_vertices(self):
        # Any path between two pendants passes through both owners, so a
        # witness for the pendant pairs restricts to a proper coloring.
        g = cycle_graph(5)
        inst = pendant_reduction(g)
        res = decide_subset_rvc(inst.graph, inst.pairs, 3)
        assert res.decision
        back = pendant_project(inst, res.witness)
        for a, b in g.edges:
            assert back.colors[a] != back.colors[b]


class TestGadgetStructure:
    def test_golden_triangle_gadget(self):
        g = complete_graph(3)
        gg = build_gadget(g, all_vertex_pairs(g), 2)
        assert emit_gadget(gg) == GOLDEN_TRIANGLE_GADGET

    def test_known_sizes(self):
        g = complete_graph(3)
        gg = build_gadget(g, all_vertex_pairs(g), 2)
        assert (gg.graph.n, gg.graph.m) == (10, 18)
        p3 = path_graph(3)
        gg = build_gadget(p3, pair_set([(0, 2)]), 2)
        assert (gg.graph.n, gg.graph.m) == (14, 27)
        gg = build_gadget(p3, pair_set([(0, 2)]), 3)
        assert (gg.graph.n, gg.graph.m) == (23, 80)

    def test_vertex_count_recurrence(self):
        # Each level step past the explicit constructions splits the old
        # base and adds a fresh one: 2n more vertices every two levels.
        p3 = path_graph(3)
        p = pair_set([(0, 2)])
        sizes = {k: build_gadget(p3, p, k).graph.n for k in range(2, 9)}
        for k in range(4, 9):
            assert sizes[k] == sizes[k - 2] + 2 * p3.n

    def test_base_layer_mirrors_source(self):
        for g in (path_graph(4), cycle_graph(5), complete_graph(4)):
            for k in (2, 3, 4, 5):
                gg = build_gadget(g, pair_set([(0, 1)]), k)
                mapped = {
                    normalize_pair(gg.base.index(a), gg.base.index(b))
                    for a, b in gg.base_edges
                }
                assert mapped == set(g.edges)

    def test_requested_pairs_transported_to_base(self):
        g = path_graph(4)
        p = pair_set([(0, 3), (1, 2)])
        gg = build_gadget(g, p, 2)
        assert set(gg.pairs_k) == {
            normalize_pair(gg.base[a], gg.base[b]) for a, b in p
        }

    def test_ids_follow_level_order(self):
        g = path_graph(3)
        gg = build_gadget(g, pair_set([(0, 2)]), 2)
        levels = [label_level(lab, gg.k) for lab in gg.labels]
        assert levels == sorted(levels)
        assert gg.base == tuple(range(gg.graph.n - 3, gg.graph.n))

    def test_structure_is_pinned(self):
        # Every gadget of the "full" sweep (levels 2-5, n <= 4) and levels
        # 6-11 for n <= 3: 1,726 gadgets.  The digest was recorded while ids
        # still came from sorting the labels; any change of an id, an edge,
        # a label, the base map, the transported pairs or the base edges
        # changes it.
        instances = gadget_sweep_instances(4, (2, 3, 4, 5))
        instances += gadget_sweep_instances(3, range(6, 12))
        digest = hashlib.sha256()
        for g, p, k in instances:
            gg = build_gadget(g, p, k)
            digest.update(emit_gadget(gg).encode())
            digest.update(repr((gg.base, tuple(gg.pairs_k), sorted(gg.base_edges))).encode())
        assert len(instances) == 1726
        assert digest.hexdigest() == "6576dd53fd1df35c18b7e31f8aee5fd73d02a21bce8909802d9192d875327ced"

    def test_rebuild_is_identical(self):
        g = cycle_graph(4)
        p = pair_set([(0, 2), (1, 3)])
        assert build_gadget(g, p, 3) == build_gadget(g, p, 3)

    def test_rejects_bad_arguments(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            build_gadget(g, pair_set([(0, 2)]), 1)
        with pytest.raises(ValueError):
            build_gadget(graph_from_edges(4, [(0, 1), (2, 3)]), pair_set([]), 2)
        with pytest.raises(ValueError):
            build_gadget(g, pair_set([(0, 9)]), 2)


def expected_lift_color(label, k, source_colors):
    """Closed form of the lifted coloring, independent of the recursion.

    Even k: rung v_{i,j} gets colors (j+1, j+2) for even j, the hub gets
    k-1, shortcut rungs w get (1, 2).  Odd k: rung v_{i,j} gets (j+1, j+2)
    for odd j, level-0 rungs get (1, k-1), w rungs get (2, 3).  Base
    vertices always copy the source coloring.  For the smallest levels the
    formulas collapse to the explicit constructions.
    """
    kind = label[0]
    if kind == "base":
        return source_colors[label[1]]
    if kind == "hub":
        return k - 1 if k > 2 else 1
    if kind == "v":
        _, _, j, a = label
        if k % 2 == 0 or j > 0:
            return j + a
        return 1 if a == 1 else (k - 1 if k > 3 else 2)
    if kind == "u":
        return 1 if label[3] == 1 else (k - 1 if k > 3 else 2)
    if kind == "w":
        if k % 2 == 0:
            return label[3]
        return label[3] + 1
    raise AssertionError(label)


class TestLiftColoring:
    def test_matches_closed_form(self):
        cases = [
            (path_graph(3), pair_set([(0, 2)]), (1, 1, 1)),
            (complete_graph(3), all_vertex_pairs(complete_graph(3)), (1, 2, 2)),
            (path_graph(4), pair_set([(0, 2), (1, 3)]), (1, 2, 1, 2)),
        ]
        for g, p, colors in cases:
            for k in range(2, 8):
                c = coloring(list(colors), k)
                gg = build_gadget(g, p, k)
                ck = lift_coloring(gg, c)
                for vid, lab in enumerate(gg.labels):
                    assert ck.colors[vid] == expected_lift_color(lab, k, colors), (
                        k,
                        lab,
                    )

    def test_level_two_explicit_values(self):
        g = path_graph(3)
        p = pair_set([(0, 2)])
        gg = build_gadget(g, p, 2)
        ck = lift_coloring(gg, coloring([1, 1, 1], k=2))
        by_label = {lab: ck.colors[vid] for vid, lab in enumerate(gg.labels)}
        assert by_label[("hub",)] == 1
        assert by_label[("v", 0, 0, 1)] == 1 and by_label[("v", 0, 0, 2)] == 2
        assert by_label[("w", 0, 1, 1)] == 1 and by_label[("w", 0, 1, 2)] == 2
        assert by_label[("base", 0)] == 1

    def test_lifted_coloring_rainbow_connects_gadget(self):
        g = path_graph(3)
        p = pair_set([(0, 2)])
        for k in (2, 3, 4, 5):
            res = decide_subset_rvc(g, p, k)
            assert res.decision
            gg = build_gadget(g, p, k)
            ck = lift_coloring(gg, res.witness)
            assert is_rainbow_vertex_connected(gg.graph, ck)

    def test_rejects_colors_over_budget(self):
        g = path_graph(3)
        p = pair_set([(0, 2)])
        with pytest.raises(ValueError):
            lift_coloring(build_gadget(g, p, 2), coloring([1, 3, 1], k=3))

    def test_rejects_coloring_of_wrong_length(self):
        gg = build_gadget(path_graph(3), pair_set([(0, 2)]), 3)
        for colors in ([1, 1], [1, 1, 1, 1]):
            with pytest.raises(ValueError, match="entries"):
                lift_coloring(gg, coloring(colors, k=3))

    def test_project_restricts_to_base(self):
        g = path_graph(3)
        p = pair_set([(0, 2)])
        c = coloring([1, 1, 1], k=2)
        gg = build_gadget(g, p, 2)
        ck = lift_coloring(gg, c)
        assert project_coloring(gg, ck) == c

    def test_project_reads_the_coloring_at_the_gadget_level(self):
        gg = build_gadget(path_graph(3), pair_set([(0, 2)]), 4)
        ck = lift_coloring(gg, coloring([1, 2, 1], k=4))
        # A budget declared above the level is not carried over, nor one inferred below it.
        assert project_coloring(gg, coloring(ck.colors, k=9)) == coloring([1, 2, 1], k=4)
        assert project_coloring(gg, coloring([1] * gg.graph.n)) == coloring([1, 1, 1], k=4)

    def test_project_rejects_a_color_above_the_level(self):
        gg = build_gadget(path_graph(3), pair_set([(0, 2)]), 4)
        colors = list(lift_coloring(gg, coloring([1, 2, 1], k=4)).colors)
        colors[0] = 5
        with pytest.raises(ValueError, match="color 5, outside budget 4"):
            project_coloring(gg, coloring(colors, k=9))

    def test_levels_deeper_than_the_recursion_limit(self):
        # Each level step is a loop iteration, so a level far above the
        # recursion limit builds and lifts; P2 gains 4 vertices per step.
        g = path_graph(2)
        p = pair_set([(0, 1)])
        depth = sys.getrecursionlimit()
        for k, base_size in ((2 * depth + 1, 10), (2 * depth + 2, 7)):
            gg = build_gadget(g, p, k)
            assert gg.graph.n == base_size + 4 * ((k - 2) // 2)
            c = coloring([1, 2], k)
            ck = lift_coloring(gg, c)
            assert ck.colors == tuple(expected_lift_color(lab, k, c.colors) for lab in gg.labels)
            assert project_coloring(gg, ck) == c


class TestLabelLevels:
    def test_level_assignments(self):
        assert label_level(("hub",), 2) == -1
        assert label_level(("v", 0, 0, 1), 2) == 0
        assert label_level(("w", 0, 1, 2), 2) == 0
        assert label_level(("w", 0, 1, 2), 3) == 1
        assert label_level(("u", 0, 1, 1), 3) == 0
        assert label_level(("base", 2), 5) == 5
        assert label_level(("v", 1, 3, 2), 5) == 3


@given(connected_graphs_st(max_n=4), st.integers(2, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_gadget_invariants_hold_generically(g, k, data):
    universe = sorted(all_vertex_pairs(g))
    chosen = data.draw(st.lists(st.sampled_from(universe), unique=True))
    p = pair_set(chosen)
    gg = build_gadget(g, p, k)
    # one base vertex per source vertex, labels cover every id exactly once
    assert len(gg.base) == g.n
    assert len(gg.labels) == gg.graph.n
    assert len(set(gg.labels)) == gg.graph.n
    mapped = {
        normalize_pair(gg.base.index(a), gg.base.index(b)) for a, b in gg.base_edges
    }
    assert mapped == set(g.edges)
    # every requested pair exists in the base image
    for a, b in gg.pairs_k:
        assert a in gg.base and b in gg.base
    # the gadget records its instance, and base ids agree with the labels
    assert (gg.source, gg.pairs) == (g, p)
    for i, vid in enumerate(gg.base):
        assert gg.labels[vid] == ("base", i)


@given(connected_graphs_st(max_n=4), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_lift_keeps_every_gadget_pair_connected(g, k):
    p = all_vertex_pairs(g)
    res = decide_subset_rvc(g, p, k)
    if not res.decision:
        return
    gg = build_gadget(g, p, k)
    ck = lift_coloring(gg, res.witness)
    for a in range(gg.graph.n):
        for b in range(a + 1, gg.graph.n):
            assert exists_rainbow_path(gg.graph, ck, a, b) is not None
