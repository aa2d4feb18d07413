import random
from itertools import accumulate, combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_exists_rainbow_path,
    oracle_internal_sets,
    oracle_is_rainbow,
    oracle_simple_paths,
)
from strategies import colored_graphs_st, connected_graphs_st

from rvckit import rainbow
from rvckit.families import complete_graph, cycle_graph, path_graph, star_graph
from rvckit.gadgets import build_gadget
from rvckit.graphs import VertexColoring, coloring, distance, graph_from_edges, pair_set
from rvckit.harness import gadget_sweep_instances
from rvckit.rainbow import (
    PathWitness,
    _serve_from_all_sources,
    exists_rainbow_path,
    first_unserved_pair,
    is_rainbow_vertex_connected,
    is_subset_rainbow_vc,
    path_budget,
    search_stats,
)


class TestPathBudget:
    def test_small_values(self):
        # 1 + n + n**2 for k = 2
        assert path_budget(3, 2) == 13
        assert path_budget(2, 1) == 3
        assert path_budget(1, 0) == 1
        assert path_budget(1, 5) == 6
        assert path_budget(5, 0) == 1

    def test_grows_exactly_geometrically(self):
        assert path_budget(10, 3) == 1 + 10 + 100 + 1000
        assert path_budget(7, 300) == sum(7**i for i in range(301))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            path_budget(0, 2)
        with pytest.raises(ValueError):
            path_budget(3, -1)


class TestPathWitness:
    def test_accepts_real_path(self):
        w = PathWitness(path_graph(4), (0, 1, 2, 3))
        assert w.length == 3
        assert w.internal_vertices == (1, 2)

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            PathWitness(path_graph(4), (0, 2))

    def test_rejects_repeats(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            PathWitness(g, (0, 1, 0))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            PathWitness(path_graph(3), (1,))


class TestIsRainbowPath:
    """Whether one path is rainbow: on P2-P4 the end vertices are joined by
    one path only, so ``exists_rainbow_path`` returns it exactly when it is
    rainbow."""

    def test_short_paths_are_vacuously_rainbow(self):
        w = exists_rainbow_path(path_graph(2), coloring([1, 1]), 0, 1)
        assert w is not None and w.vertices == (0, 1)
        w = exists_rainbow_path(path_graph(3), coloring([1, 1, 1]), 0, 2)
        assert w is not None and w.vertices == (0, 1, 2)

    def test_repeated_internal_color_is_rejected(self):
        g = path_graph(4)
        assert exists_rainbow_path(g, coloring([1, 2, 2, 1]), 0, 3) is None
        w = exists_rainbow_path(g, coloring([1, 2, 1, 1], k=2), 0, 3)
        assert w is not None and w.vertices == (0, 1, 2, 3)

    def test_endpoint_colors_do_not_matter(self):
        w = exists_rainbow_path(path_graph(4), coloring([2, 2, 1, 1]), 0, 3)
        assert w is not None and w.vertices == (0, 1, 2, 3)


class TestExistsRainbowPath:
    def test_adjacent_pair_is_immediate(self):
        g = path_graph(2)
        w = exists_rainbow_path(g, coloring([1, 1]), 0, 1)
        assert w.vertices == (0, 1)

    def test_single_internal_always_works(self):
        g = path_graph(3)
        w = exists_rainbow_path(g, coloring([1, 1, 1]), 0, 2)
        assert w.vertices == (0, 1, 2)

    def test_monochromatic_long_path_fails(self):
        g = path_graph(4)
        assert exists_rainbow_path(g, coloring([1, 1, 1, 1]), 0, 3) is None

    def test_two_colors_open_the_long_path(self):
        g = path_graph(4)
        w = exists_rainbow_path(g, coloring([1, 1, 2, 1], k=2), 0, 3)
        assert w.vertices == (0, 1, 2, 3)

    def test_witness_is_shortest_and_lex_least(self):
        # Both 0-1-3 and 0-2-3 are rainbow; the lexicographically smaller wins.
        g = graph_from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        w = exists_rainbow_path(g, coloring([1, 1, 1, 1]), 0, 3)
        assert w.vertices == (0, 1, 3)

    @pytest.mark.parametrize("v", [2.5, True, "2", None], ids=["float", "bool", "str", "none"])
    def test_rejects_non_int_vertex_ids(self, v):
        # 2.5 must not read as an unreachable vertex (a wrong "no"), nor True as vertex 1.
        g = path_graph(4)
        with pytest.raises(ValueError, match="not an int"):
            exists_rainbow_path(g, coloring([1, 2, 3, 1]), 0, v)
        with pytest.raises(ValueError, match="not an int"):
            PathWitness(g, (0, v))
        with pytest.raises(ValueError, match="not an int"):
            distance(g, v, 0)

    @pytest.mark.parametrize("v", [4, -1])
    def test_rejects_out_of_range_vertex_ids(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
            exists_rainbow_path(path_graph(4), coloring([1, 2, 3, 1]), 0, v)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            exists_rainbow_path(path_graph(3), coloring([1, 1, 1]), 2, 2)

    def test_detour_beats_blocked_geodesic(self):
        # The short route repeats an internal color; a longer route is clean.
        g = graph_from_edges(
            6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)]
        )
        c = coloring([1, 2, 2, 1, 2, 3], k=3)
        w = exists_rainbow_path(g, c, 0, 3)
        assert w.vertices == (0, 4, 5, 3)


class TestSubsetAndFullVerification:
    def test_subset_only_checks_requested_pairs(self):
        g = path_graph(4)
        c = coloring([1, 1, 1, 1])
        assert is_subset_rainbow_vc(g, c, pair_set([(0, 2), (1, 3)]))
        assert not is_subset_rainbow_vc(g, c, pair_set([(0, 3)]))

    def test_full_verification_on_cycles(self):
        c6 = cycle_graph(6)
        assert is_rainbow_vertex_connected(c6, coloring([1, 2, 1, 2, 1, 2], k=2))
        assert not is_rainbow_vertex_connected(c6, coloring([1] * 6))

    def test_star_needs_one_color(self):
        g = star_graph(5)
        assert is_rainbow_vertex_connected(g, coloring([1] * 6))

    def test_complete_graph_under_any_coloring(self):
        g = complete_graph(4)
        assert is_rainbow_vertex_connected(g, coloring([1, 1, 1, 1]))

    def test_full_verification_rejects_disconnected(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            is_rainbow_vertex_connected(g, coloring([1, 1, 1, 1]))

    @pytest.mark.parametrize("pairs", [None, pair_set([(0, 2)])], ids=["all", "subset"])
    def test_coloring_of_the_wrong_length_is_rejected(self, pairs):
        with pytest.raises(ValueError, match="coloring has 3 entries, graph has 4 vertices"):
            first_unserved_pair(path_graph(4), coloring([1, 1, 1]), pairs)

    def test_empty_pair_set_is_vacuous(self):
        g = path_graph(5)
        assert is_subset_rainbow_vc(g, coloring([1] * 5), pair_set([]))


class TestSearchAccounting:
    def test_single_call_stays_within_budget(self):
        search_stats.reset()
        g = cycle_graph(6)
        c = coloring([1, 2, 3, 1, 2, 3], k=3)
        exists_rainbow_path(g, c, 0, 3)
        assert search_stats.calls == 1
        assert 0 < search_stats.max_expansions <= path_budget(6, 3)
        assert search_stats.violations == 0

    def test_counters_accumulate_per_call(self):
        search_stats.reset()
        g = path_graph(5)
        c = coloring([1, 1, 2, 3, 1], k=3)
        assert is_rainbow_vertex_connected(g, c)
        assert search_stats.calls >= 4
        assert search_stats.expansions >= search_stats.max_expansions
        assert search_stats.violations == 0


    def test_verification_counts_states_exactly(self):
        # P4 colored 1, 2, 3, 1, with sources 0, 1 and 2.  The pass over
        # distance 2 serves every pair but (0, 3), so only source 0 is left
        # and level 1 holds its one state (1, {2}).  That grows into
        # (0, {1, 2}) and (2, {2, 3}), which serves (0, 3).  Three states in
        # all, in either layout.
        for colors in ([1, 2, 3, 1], [7, 2, 3, 7]):
            search_stats.reset()
            assert is_rainbow_vertex_connected(path_graph(4), coloring(colors))
            assert (search_stats.calls, search_stats.expansions) == (3, 3)

    def test_witness_search_counts_states_exactly(self):
        # REENTRY from 0 to 6, colors 1, 1, 2, 3, 4, 1, 1 on vertices 0..6.
        # Each state is tested for an edge to 6 when it is queued; the FIFO
        # expands, in order:
        #   1. (0) {}: appends (0,1) {1} and (0,3) {3}.
        #   2. (0,1) {1}: 0 repeats color 1; appends (0,1,2) {1,2}.
        #   3. (0,3) {3}: (0, {1,3}) is dominated by the source's {};
        #      appends (0,3,4) {3,4}.
        #   4. (0,1,2) {1,2}: 1 and 5 repeat color 1; appends (0,1,2,4)
        #      {1,2,4}, which {3,4} at 4 does not dominate.
        #   5. (0,3,4) {3,4}: 3 repeats color 3; appends (0,3,4,2) {2,3,4},
        #      which {1,2} at 2 does not dominate.
        #   6. (0,1,2,4) {1,2,4}: 2 repeats color 2; (3, {1,2,3,4}) is
        #      dominated by {3}.
        #   7. (0,3,4,2) {2,3,4}: (1, {1,2,3,4}) is dominated by {1}, 4
        #      repeats color 4; (0,3,4,2,5) {1,2,3,4} is not dominated,
        #      and 5 is adjacent to 6, which ends the search.
        g, c = REENTRY
        search_stats.reset()
        assert exists_rainbow_path(g, c, 0, 6).vertices == (0, 3, 4, 2, 5, 6)
        assert (search_stats.calls, search_stats.expansions) == (1, 7)

    def test_adjacent_endpoints_expand_no_state(self):
        # The source is tested before the loop: an edge is the witness.
        search_stats.reset()
        assert exists_rainbow_path(path_graph(2), coloring([1, 1]), 0, 1).vertices == (0, 1)
        assert (search_stats.calls, search_stats.expansions) == (1, 0)

    def test_search_with_no_path_expands_every_state(self):
        # P4 colored 1, 1, 1, 1 from 0 to 3: (0) {} queues (0,1) {1}, whose
        # neighbours 0 and 2 both repeat color 1.  Two states, no witness.
        search_stats.reset()
        assert exists_rainbow_path(path_graph(4), coloring([1, 1, 1, 1]), 0, 3) is None
        assert (search_stats.calls, search_stats.expansions) == (1, 2)


@given(colored_graphs_st())
@settings(max_examples=200, deadline=None)
def test_existence_matches_unbounded_oracle(gc):
    g, c = gc
    for u in range(g.n):
        for v in range(u + 1, g.n):
            got = exists_rainbow_path(g, c, u, v)
            assert (got is not None) == oracle_exists_rainbow_path(g, c, u, v)


@given(colored_graphs_st())
@settings(max_examples=200, deadline=None)
def test_witnesses_are_valid_shortest_rainbow_paths(gc):
    g, c = gc
    for u in range(g.n):
        for v in range(u + 1, g.n):
            w = exists_rainbow_path(g, c, u, v)
            if w is None:
                continue
            assert w.vertices[0] == u and w.vertices[-1] == v
            inner = [c.colors[x] for x in w.internal_vertices]
            assert len(set(inner)) == len(inner)
            rainbow_lengths = [
                len(inner) + 1
                for inner in oracle_internal_sets(g, u, v)
                if len({c.colors[x] for x in inner}) == len(inner)
            ]
            assert w.length == min(rainbow_lengths)


@given(colored_graphs_st(max_k=3))
@settings(max_examples=150, deadline=None)
def test_expansion_counter_respects_budget(gc):
    g, c = gc
    budget = path_budget(g.n, c.k)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            search_stats.reset()
            exists_rainbow_path(g, c, u, v)
            assert search_stats.max_expansions <= budget
            assert search_stats.violations == 0


# Vertex 2 is first reached as 0-1-2, whose color set blocks the only way on
# (vertices 1 and 5 share a color); the later 0-3-4-2 is a different set, not
# a superset, so it must still be expanded to reach 6.
REENTRY = (
    graph_from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (2, 5), (5, 6)]),
    coloring([1, 1, 2, 3, 4, 1, 1], k=4),
)


@given(colored_graphs_st(max_n=7, max_k=4))
@example(REENTRY)
@settings(max_examples=200, deadline=None)
def test_witness_is_least_shortest_rainbow_path(gc):
    g, c = gc
    for u in range(g.n):
        for v in range(u + 1, g.n):
            rainbow = [p for p in oracle_simple_paths(g, u, v) if oracle_is_rainbow(c.colors, p)]
            want = min(rainbow, key=lambda p: (len(p), p)) if rainbow else None
            got = exists_rainbow_path(g, c, u, v)
            assert (None if got is None else got.vertices) == want


@given(colored_graphs_st(max_n=7, max_k=4), st.data())
@settings(max_examples=200, deadline=None)
def test_verifiers_match_oracle(gc, data):
    g, c = gc
    universe = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    chosen = data.draw(st.lists(st.sampled_from(universe), unique=True))
    served = {q for q in universe if oracle_exists_rainbow_path(g, c, *q)}
    assert is_subset_rainbow_vc(g, c, pair_set(chosen)) == served.issuperset(chosen)
    assert is_rainbow_vertex_connected(g, c) == (served == set(universe))
    assert first_unserved_pair(g, c, pair_set(chosen)) == min(set(chosen) - served, default=None)
    assert first_unserved_pair(g, c) == min(set(universe) - served, default=None)


def test_all_source_search_matches_per_pair_witness_search():
    # The oracle tests stop at n <= 7; gadgets reach n = 33.  Each coloring
    # draws from a random prefix 1..j of the k colors, so about half leave
    # some pair unserved.  Three pair sets: every pair, the gadget's own
    # requested pairs, and a random sample that includes far pairs.  The
    # stride thins the (g, p) sources, not the levels: odd levels carry the
    # extra ("v", i, 0, 2) rung and must meet this search too.
    rng = random.Random(6)
    sources = [(g, p) for g, p, _ in gadget_sweep_instances(3, (2,))][::2]
    for (g, p), k in product(sources, (2, 3, 4, 5)):
        gg = build_gadget(g, p, k)
        h = gg.graph
        j = rng.randint(1, k)
        c = VertexColoring(tuple(rng.randint(1, j) for _ in range(h.n)), k)
        universe = list(combinations(range(h.n), 2))
        unserved = [q for q in universe if exists_rainbow_path(h, c, *q) is None]
        sample = pair_set(rng.sample(universe, len(universe) // 3))
        budget = path_budget(h.n, k)
        for pairs in (None, gg.pairs_k, sample):
            search_stats.reset()
            got = first_unserved_pair(h, c, pairs)
            wanted = set(universe if pairs is None else pairs)
            assert got == next((q for q in unserved if q in wanted), None)
            assert search_stats.calls == len({a for a, _ in wanted})
            assert search_stats.max_expansions <= budget
            assert search_stats.violations == 0


def _missing(n, pairs):
    """The verification search's input: per target, the bitset of requested sources."""
    if pairs is None:
        return [(1 << b) - 1 for b in range(n)]
    missing = [0] * n
    for a, b in pairs:
        missing[b] |= 1 << a
    return missing


def _both_layouts(monkeypatch, g, c, pairs):
    """(missing, expansions, calls) from the dict layout and from the packed one."""
    out = []
    # A cut of 0 sends every coloring to the dict layout; 64 packs every one.
    for cut in (0, 64):
        monkeypatch.setattr(rainbow, "_DENSE_MAX_COLOR", cut)
        missing = _missing(g.n, pairs)
        search_stats.reset()
        _serve_from_all_sources(g, c, missing)
        out.append((missing, search_stats.expansions, search_stats.calls))
    return out


def test_packed_and_dict_layouts_agree_on_gadgets(monkeypatch):
    # A stride of 3 through the sweep's (graph, pairs, level) order visits
    # all four levels.
    rng = random.Random(11)
    deep = 0
    for g, p, k in gadget_sweep_instances(4, (2, 3, 4, 5))[::3]:
        gg = build_gadget(g, p, k)
        h = gg.graph
        j = rng.randint(1, k)
        c = VertexColoring(tuple(rng.randint(1, j) for _ in range(h.n)), k)
        for pairs in (None, gg.pairs_k):
            dicts, packed = _both_layouts(monkeypatch, h, c, pairs)
            assert packed == dicts
            deep += packed[1] > h.n
    # Level 1 holds at most n states, so these searches went deeper.
    assert deep > 200


@pytest.mark.parametrize("k", [6, 7])
def test_packed_and_dict_layouts_agree_on_random_graphs(monkeypatch, k):
    rng = random.Random(k)
    for _ in range(8):
        n = rng.randint(10, 24)
        g = graph_from_edges(n, [q for q in combinations(range(n), 2) if rng.random() < 0.2])
        c = VertexColoring(tuple(rng.randint(1, k) for _ in range(n)), k)
        sample = pair_set(rng.sample(list(combinations(range(n), 2)), n))
        for pairs in (None, sample):
            dicts, packed = _both_layouts(monkeypatch, g, c, pairs)
            assert packed == dicts


def test_largest_color_picks_the_layout(monkeypatch):
    taken = []
    for name in ("_dense_levels", "_sparse_levels"):
        levels = getattr(rainbow, name)

        def record(*args, name=name, levels=levels):
            taken.append(name)
            return levels(*args)

        monkeypatch.setattr(rainbow, name, record)
    g = path_graph(4)
    for colors, k in (([1, 2, 3, 1], 3), ([1, 2, 3, 1], 3000), ([1, 6, 2, 1], 6), ([1, 7, 2, 1], 7)):
        first_unserved_pair(g, VertexColoring(tuple(colors), k))
    assert taken == ["_dense_levels", "_dense_levels", "_dense_levels", "_sparse_levels"]


@st.composite
def many_colored_graphs_st(draw):
    """A colored graph whose largest color is 7 or more, past the packed layout."""
    g = draw(connected_graphs_st(max_n=7))
    k = draw(st.integers(7, 9))
    colors = [draw(st.integers(1, k)) for _ in range(g.n)]
    colors[draw(st.integers(0, g.n - 1))] = draw(st.integers(7, k))
    return g, VertexColoring(tuple(colors), k)


@given(many_colored_graphs_st(), st.data())
@settings(max_examples=100, deadline=None)
def test_dict_layout_matches_oracle(gc, data):
    g, c = gc
    assert max(c.colors) > rainbow._DENSE_MAX_COLOR
    universe = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    chosen = data.draw(st.lists(st.sampled_from(universe), unique=True))
    served = {q for q in universe if oracle_exists_rainbow_path(g, c, *q)}
    assert first_unserved_pair(g, c, pair_set(chosen)) == min(set(chosen) - served, default=None)
    assert first_unserved_pair(g, c) == min(set(universe) - served, default=None)


@st.composite
def colored_graphs_up_to_st(draw, low, high):
    """A connected colored graph whose largest color is drawn from low..high."""
    g = draw(connected_graphs_st(max_n=7))
    top = draw(st.integers(low, high))
    colors = [draw(st.integers(1, top)) for _ in range(g.n)]
    colors[draw(st.integers(0, g.n - 1))] = top
    return g, VertexColoring(tuple(colors), top)


@pytest.mark.parametrize("low, high", [(1, 6), (7, 9)], ids=["packed", "dict"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_huge_colors_answer_like_their_ranks(low, high, data):
    # Only equal colors matter, so mapping the colors in order onto values
    # above 2**64 changes no answer; the small coloring runs the layout of
    # its largest color, the mapped one the dict layout.
    g, c = data.draw(colored_graphs_up_to_st(low, high))
    used = sorted(set(c.colors))
    gaps = data.draw(st.lists(st.integers(1, 2**70), min_size=len(used), max_size=len(used)))
    image = dict(zip(used, (2**64 + s for s in accumulate(gaps))))
    big = VertexColoring(tuple(image[col] for col in c.colors), image[used[-1]])
    universe = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    chosen = pair_set(data.draw(st.lists(st.sampled_from(universe), unique=True)))
    assert first_unserved_pair(g, big) == first_unserved_pair(g, c)
    assert first_unserved_pair(g, big, chosen) == first_unserved_pair(g, c, chosen)
    for u, v in universe:
        assert exists_rainbow_path(g, big, u, v) == exists_rainbow_path(g, c, u, v)


def test_colors_go_on_bits_by_rank():
    assert rainbow._color_bits(VertexColoring((2, 1, 3), 3)) == [2, 1, 4]
    assert rainbow._color_bits(VertexColoring((1, 3, 1), 3)) == [1, 2, 1]
    assert rainbow._color_bits(VertexColoring((1, 10**8, 5), 10**8)) == [1, 4, 2]


def test_declared_budget_far_above_the_colors_used():
    # Only colors 1..3 are used, so the search ends after level 3 whatever
    # the declared budget; the answers and the states match budget 3.
    rng = random.Random(3000)
    for g, p, k in gadget_sweep_instances(3, (3,))[::7]:
        h = build_gadget(g, p, k).graph
        colors = tuple(rng.randint(1, 3) for _ in range(h.n))
        got = []
        for budget in (3, 3000):
            search_stats.reset()
            unserved = first_unserved_pair(h, VertexColoring(colors, budget))
            got.append((unserved, search_stats.expansions))
        assert got[0] == got[1]
    g = cycle_graph(7)
    for colors in ([1, 2, 3, 1, 2, 3, 1], [1, 1, 2, 2, 3, 3, 1]):
        c = VertexColoring(tuple(colors), 3000)
        universe = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        served = {q for q in universe if oracle_exists_rainbow_path(g, c, *q)}
        assert first_unserved_pair(g, c) == min(set(universe) - served, default=None)
