"""Hypothesis strategies and small graph helpers shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from rvckit.families import connected_graphs
from rvckit.graphs import Graph, PairSet, VertexColoring, pair_set


def all_vertex_pairs(g: Graph) -> PairSet:
    """Every pair of distinct vertices of g."""
    return PairSet(frozenset(combinations(range(g.n), 2)))


def connected_graphs_of_order(n: int) -> list:
    """Connected graphs on exactly n vertices, one per isomorphism class."""
    return [g for g in connected_graphs(n) if g.n == n]


@st.composite
def connected_graphs_st(draw, min_n=2, max_n=6):
    """A connected graph: a random spanning tree plus optional extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    rest = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    )
    extras = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return Graph(n, frozenset(edges) | frozenset(extras))


@st.composite
def colored_graphs_st(draw, min_n=2, max_n=6, max_k=3):
    g = draw(connected_graphs_st(min_n=min_n, max_n=max_n))
    k = draw(st.integers(1, max_k))
    colors = tuple(draw(st.integers(1, k)) for _ in range(g.n))
    return g, VertexColoring(colors, k)


@st.composite
def graphs_with_pairs_st(draw, min_n=2, max_n=5):
    g = draw(connected_graphs_st(min_n=min_n, max_n=max_n))
    universe = sorted(all_vertex_pairs(g))
    chosen = draw(st.lists(st.sampled_from(universe), unique=True))
    return g, pair_set(chosen)
