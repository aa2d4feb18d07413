import os
import subprocess
import sys

import networkx as nx
import pytest

from strategies import connected_graphs_of_order

from rvckit import families
from rvckit.families import (
    all_pair_sets,
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from rvckit.graphs import graph_from_edges, is_connected


class TestNamedFamilies:
    def test_path(self):
        g = path_graph(4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert path_graph(1).n == 1

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        assert complete_graph(4).m == 6

    def test_star(self):
        g = star_graph(5)
        assert g.n == 6
        assert all(e[0] == 0 for e in g.edges)


class TestEnumerations:
    def test_counts_match_the_published_tallies(self):
        # Connected graphs up to isomorphism, by order.
        assert [len(connected_graphs_of_order(n)) for n in range(1, 7)] == [
            1,
            1,
            2,
            6,
            21,
            112,
        ]

    def test_order_seven_count(self):
        assert len(connected_graphs_of_order(7)) == 853

    def test_all_results_are_connected_with_right_order(self):
        for n in range(1, 6):
            for g in connected_graphs_of_order(n):
                assert g.n == n
                assert is_connected(g)

    def test_no_duplicate_edge_sets(self):
        gs = connected_graphs_of_order(5)
        assert len({g.edges for g in gs}) == len(gs)

    def test_rejects_out_of_range_order(self):
        # The atlas's null graph is skipped, and the atlas ends at seven vertices.
        assert connected_graphs_of_order(0) == []
        with pytest.raises(ValueError):
            connected_graphs_of_order(8)

    @pytest.mark.parametrize("max_n", range(1, 8))
    def test_matches_the_networkx_atlas(self, max_n):
        # Same graphs, same order, edge for edge, as networkx's own reader.
        want = [
            graph_from_edges(ag.number_of_nodes(), ag.edges())
            for ag in nx.graph_atlas_g()
            if 1 <= ag.number_of_nodes() <= max_n
            and (ag.number_of_nodes() == 1 or nx.is_connected(ag))
        ]
        got = connected_graphs(max_n)
        assert [(g.n, g.edges) for g in got] == [(g.n, g.edges) for g in want]

    def test_atlas_file_is_the_one_networkx_reads(self):
        from networkx.generators.atlas import ATLAS_FILE

        assert os.path.samefile(families._atlas_file(), ATLAS_FILE)

    def test_missing_networkx_names_the_package(self, monkeypatch):
        monkeypatch.setattr(families, "find_spec", lambda name: None)
        with pytest.raises(FileNotFoundError, match="networkx"):
            connected_graphs(3)

    def test_connected_graphs_rejects_orders_beyond_the_atlas(self):
        with pytest.raises(ValueError):
            connected_graphs(8)

    def test_connected_graphs_flattens(self):
        assert len(connected_graphs(4)) == 1 + 1 + 2 + 6

    def test_pair_set_enumeration_is_a_power_set(self):
        g = path_graph(3)
        sets = list(all_pair_sets(g))
        assert len(sets) == 8
        assert len({frozenset(p) for p in sets}) == 8
        assert len(sets[0]) == 0

    def test_pair_set_enumeration_scales(self):
        g = path_graph(4)
        assert sum(1 for _ in all_pair_sets(g)) == 2**6


# A prelude that makes networkx's spec lookup fail, as if it were not installed.
HIDE_NETWORKX = (
    "import importlib.util; real = importlib.util.find_spec; "
    "importlib.util.find_spec = lambda name, *a: None if name == 'networkx' else real(name, *a); "
)


@pytest.mark.parametrize("prelude", ["", HIDE_NETWORKX], ids=["installed", "spec-missing"])
def test_import_does_not_load_networkx(prelude):
    # A fresh interpreter: this test process has networkx loaded already.
    code = prelude + "import sys, rvckit, rvckit.cli; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
