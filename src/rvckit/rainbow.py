"""Rainbow vertex-connection checks.

A path is rainbow when its internal vertices all carry distinct colors; the
endpoints are unconstrained.  With a budget of k colors a rainbow path has at
most k internal vertices, so every search below caps path length at k+1 edges.

The search state is (current vertex, set of internal colors used so far).
Because internal colors must stay distinct, two internal vertices can never
coincide, so the color set captures a partial path exactly.  Each step adds
one color, so a state's color set has as many colors as its path has edges.

States are pruned by subset dominance: a new state (y, m2) is dropped when y
already holds a color set m with m a subset of m2.  Any continuation from
(y, m2) is also a valid continuation from (y, m): its colors avoid m2 and so
avoid m, which keeps its vertices off the internal vertices of the shorter
prefix.  A strict subset was reached by a strictly shorter path, so a
dominated state is never on a shortest path; m = m2 is plain duplicate
removal.  The source holds the empty set, which dominates every state that
would re-enter it (its color is not charged, so re-entry must be barred).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, PairSet, VertexColoring, check_total_coloring, is_connected


@dataclass
class SearchStats:
    """Cumulative counters for the rainbow path search engine."""

    calls: int = 0
    expansions: int = 0
    max_expansions: int = 0
    violations: int = 0

    def reset(self) -> None:
        self.calls = 0
        self.expansions = 0
        self.max_expansions = 0
        self.violations = 0


search_stats = SearchStats()


def path_budget(n: int, k: int) -> int:
    """Upper bound on u-v paths of length <= k+1 in a graph of order n.

    There are at most n choices for each of the ell-1 internal vertices of a
    length-ell path, so the count is bounded by the sum of n**(ell-1) over
    ell = 1..k+1.  Python integers are exact at any size, so the sum never
    overflows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be at least 0")
    return sum(n**i for i in range(k + 1))


@dataclass(frozen=True)
class PathWitness:
    """A concrete path in a graph, validated at construction.

    ``vertices`` lists the path in order; every consecutive pair must be an
    edge of ``graph`` and no vertex may repeat.
    """

    graph: Graph = field(repr=False)
    vertices: tuple

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 2:
            raise ValueError("a path witness needs at least two vertices")
        seen = set()
        for v in vs:
            self.graph.check_vertex(v)
            if v in seen:
                raise ValueError(f"not a path: vertex {v} repeats")
            seen.add(v)
        for a, b in zip(vs, vs[1:]):
            if not self.graph.has_edge(a, b):
                raise ValueError(f"not a path: ({a}, {b}) is not an edge")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def internal_vertices(self) -> tuple:
        return self.vertices[1:-1]


def is_rainbow_path(c: VertexColoring, p: PathWitness) -> bool:
    """True when the internal vertices of p carry pairwise distinct colors."""
    check_total_coloring(p.graph, c)
    internal = p.internal_vertices
    return len({c.colors[v] for v in internal}) == len(internal)


def _color_bits(c: VertexColoring) -> list:
    """Per-vertex bitmask of its color: color j maps to bit j-1."""
    return [1 << (col - 1) for col in c.colors]


def _rainbow_search(g: Graph, bit: list, budget: int, source: int, targets) -> dict:
    """The one search engine: rainbow paths from source to the given targets.

    ``bit`` is the coloring as per-vertex bitmasks (:func:`_color_bits`) and
    ``budget`` is path_budget(n, k); callers that search from many sources
    build both once.

    Runs a level-synchronized BFS over states (vertex, mask, parent state),
    expanding them in lexicographic order of the underlying path, so the
    first path reaching a target is the shortest one and lexicographically
    least among the shortest.  Expanding the source state first reaches
    every neighbour, since an edge has no internal vertices.  Returns a dict
    that maps each reached target to the state whose expansion reached it;
    :func:`_path_to` reads the witness back.  The search stops once every
    target is reached.

    A generated state (y, m2) is dropped when some color set m already held
    at y is a subset of m2 (``m & m2 == m``).  Set sizes equal path lengths,
    so a strict subset was held from an earlier level, and any path through
    (y, m2) has a strictly shorter counterpart through (y, m); an equal set
    was held from an earlier, lexicographically smaller path of the same
    length.  Hence every frontier is the frontier of the search without
    pruning minus dominated states, in the same order and with the same
    parents, and both the reached targets and the witnesses are unchanged.

    Every call asserts that the number of expanded states stays within
    budget; expanded states are distinct partial paths, so the bound is never
    exceeded by a correct search.
    """
    expansions = 0
    remaining = set(targets)
    reached = {}
    # seen[y] lists the masks accepted at y, in the order they were reached.
    seen = [[] for _ in range(g.n)]
    seen[source].append(0)
    frontier = [(source, 0, None)]
    while frontier and remaining:
        next_frontier = []
        for state in frontier:
            x, mask, _ = state
            expansions += 1
            if expansions > budget:
                search_stats.violations += 1
                raise RuntimeError(
                    f"path search expanded {expansions} states, over budget {budget}"
                )
            for y in g.neighbors(x):
                if y in remaining:
                    reached[y] = state
                    remaining.discard(y)
                    if not remaining:
                        break
                b = bit[y]
                if mask & b:
                    continue
                m2 = mask | b
                masks = seen[y]
                for m in masks:
                    if m & m2 == m:
                        break
                else:
                    masks.append(m2)
                    next_frontier.append((y, m2, state))
            if not remaining:
                break
        frontier = next_frontier

    search_stats.calls += 1
    search_stats.expansions += expansions
    search_stats.max_expansions = max(search_stats.max_expansions, expansions)
    return reached


def _path_to(state) -> list:
    """The vertices of the partial path that ends in state, source first."""
    path = []
    while state is not None:
        path.append(state[0])
        state = state[2]
    path.reverse()
    return path


def exists_rainbow_path(g: Graph, c: VertexColoring, u: int, v: int) -> PathWitness | None:
    """Shortest rainbow u-v path under c, or None.

    Only paths of length at most k+1 can be rainbow under k colors, so the
    search never looks further.  Ties between shortest witnesses break to the
    lexicographically least vertex sequence.
    """
    check_total_coloring(g, c)
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("rainbow path endpoints must differ")
    reached = _rainbow_search(g, _color_bits(c), path_budget(g.n, c.k), u, {v})
    if v not in reached:
        return None
    return PathWitness(g, (*_path_to(reached[v]), v))


def first_unserved_pair(g: Graph, c: VertexColoring, p: PairSet | None = None) -> tuple | None:
    """The least pair of p without a rainbow path under c, or None.

    With p None every vertex pair is checked, which is defined only for
    connected graphs.  Pairs are grouped by their smaller endpoint and each
    source is searched once, in ascending order (a PairSet iterates sorted),
    so the pair returned is the least one in sorted order.
    """
    check_total_coloring(g, c)
    if p is None:
        if not is_connected(g):
            raise ValueError("rainbow vertex-connection is defined for connected graphs")
        by_source = {a: range(a + 1, g.n) for a in range(g.n - 1)}
    else:
        p.check_in_range(g)
        by_source = {}
        for a, b in p:
            by_source.setdefault(a, []).append(b)
    bit = _color_bits(c)
    budget = path_budget(g.n, c.k)
    for source, targets in by_source.items():
        reached = _rainbow_search(g, bit, budget, source, targets)
        if len(reached) < len(targets):
            return next((source, b) for b in targets if b not in reached)
    return None


def is_subset_rainbow_vc(g: Graph, c: VertexColoring, p: PairSet) -> bool:
    """True when every requested pair has a rainbow path under c."""
    return first_unserved_pair(g, c, p) is None


def is_rainbow_vertex_connected(g: Graph, c: VertexColoring) -> bool:
    """True when every vertex pair has a rainbow path under c."""
    return first_unserved_pair(g, c) is None
