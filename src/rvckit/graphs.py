"""Immutable simple graphs plus the small value types shared by every module.

Vertices are dense integers 0..n-1.  Edges and vertex pairs are (i, j)
tuples with i < j, so every set comparison and every emitted file sees one
canonical form.

A ``Graph`` stores its neighbour tables, the only ones the searches and
verifiers read: each vertex's neighbour bitmask (``masks``) and sorted
neighbour tuple (``adjacency``), plus the edge count ``m``.  Its edge set
``edges`` is built from ``adjacency`` the first time something reads it, so
a graph that is only decided never holds its edges twice.

:func:`check_int` is the one check of every order, budget, level and job
count passed to the package's functions, here or in any other module.  The
instance-file parser, the atlas's two-sided range and the CLI's ``--jobs`` flag
keep their own texts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

INFINITY = math.inf


def check_int(name: str, x, lo: int) -> None:
    """Refuse ``x`` with a ``ValueError`` unless it is an int of at least ``lo``.

    type() rather than isinstance(): bool is an int subclass, so True would
    pass as 1, and a float such as 2.0 would reach range() or the searches'
    bit arithmetic.
    """
    if type(x) is not int or x < lo:
        raise ValueError(f"{name} must be an int of at least {lo}, got {x!r}")


def _check_ids(u, v) -> None:
    # type() rather than isinstance(): bool is an int subclass, and True
    # would silently alias vertex 1.
    if type(u) is not int or type(v) is not int:
        raise ValueError(f"pair ({u!r}, {v!r}) has a vertex id that is not an int")


def normalize_pair(u: int, v: int) -> tuple[int, int]:
    """Order an unordered pair; rejects the diagonal and ids that are not ints."""
    _check_ids(u, v)
    if u == v:
        raise ValueError(f"pair ({u}, {v}) repeats a vertex")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, init=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``Graph(n, edges)`` takes any iterable of ordered int pairs (i, j),
    0 <= i < j < n, each at most once; :func:`graph_from_edges` orders and
    dedupes a raw edge list first.  Instances are immutable; every mutation
    helper returns a new graph.  ``n`` is the only init field, so
    ``dataclasses.replace(g, edges=...)`` builds a new graph of the same
    order, and the tables the constructor builds cannot be handed in.
    """

    # masks[x]: x's neighbour bitmask, bit y set when xy is an edge; with n
    # it is all that equality and hashing read.  adjacency[v]: v's sorted
    # neighbour tuple.  m: the edge count.  All three are built once, here.
    n: int
    masks: tuple = field(init=False)
    adjacency: tuple = field(init=False, compare=False)
    m: int = field(init=False, compare=False)

    def __init__(self, n: int, edges: Iterable):
        check_int("graph order", n, 1)
        adj = [[] for _ in range(n)]
        masks = [0] * n
        for e in edges:
            u, v = e
            # type() rather than isinstance(): bool is an int subclass, and
            # True would silently alias vertex 1.
            if type(u) is not int or type(v) is not int or not 0 <= u < v < n:
                raise ValueError(_edge_fault(u, v, n))
            if masks[u] >> v & 1:
                raise ValueError(f"edge ({u}, {v}) is repeated")
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "m", sum(map(len, adj)) // 2)

    @cached_property
    def edges(self) -> frozenset:
        """The (i, j), i < j, edge set, built from adjacency on first read."""
        return frozenset((u, v) for u, a in enumerate(self.adjacency) for v in a if u < v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    def has_edge(self, u: int, v: int) -> bool:
        _check_ids(u, v)
        return 0 <= u < self.n and 0 <= v < self.n and self.masks[u] >> v & 1 == 1

    def check_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise ValueError(f"vertex {v!r} is not an int")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def _edge_fault(u, v, n: int) -> str:
    """Why (u, v) is not a normalized in-range edge of a graph on n vertices."""
    if type(u) is not int or type(v) is not int:
        return f"edge ({u!r}, {v!r}) has a vertex id that is not an int"
    if u == v:
        return f"edge ({u}, {v}) repeats a vertex"
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u}, {v}) out of range for n={n}"
    return f"edge ({u}, {v}) is not normalized (i < j)"


def graph_from_edges(n: int, edges: Iterable) -> Graph:
    """Build a graph from an edge list: orders each pair and dedupes.

    Validation (loops, bad or out-of-range ids) is left to ``Graph``, so
    every edge is checked exactly once.
    """
    norm = set()
    for u, v in edges:
        try:
            norm.add((u, v) if u < v else (v, u))
        except TypeError:
            # Ids that do not compare, such as a str against an int.
            raise ValueError(_edge_fault(u, v, n)) from None
    return Graph(n, norm)


@dataclass(frozen=True)
class PairSet:
    """A set of unordered, distinct vertex pairs.

    Iteration is always in sorted order so downstream reports and files are
    deterministic.
    """

    pairs: frozenset

    def __post_init__(self):
        for p in self.pairs:
            u, v = p
            # type() rather than isinstance(): bool is an int subclass, and
            # True would silently alias vertex 1.
            if type(u) is not int or type(v) is not int or not 0 <= u < v:
                raise ValueError(f"pair {p} is not a normalized (i, j) with 0 <= i < j")

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        u, v = pair
        _check_ids(u, v)
        return (u, v) in self.pairs or (v, u) in self.pairs

    def check_in_range(self, g: Graph) -> None:
        for u, v in self.pairs:
            if v >= g.n:
                raise ValueError(f"pair ({u}, {v}) references a vertex outside n={g.n}")


def pair_set(pairs: Iterable) -> PairSet:
    """Normalize an iterable of vertex pairs into a PairSet."""
    return PairSet(frozenset(normalize_pair(u, v) for u, v in pairs))


@dataclass(frozen=True)
class VertexColoring:
    """A total assignment of colors 1..k to vertices 0..n-1.

    ``k`` is the declared budget; a coloring may use fewer distinct colors
    than it declares, never more.
    """

    colors: tuple
    k: int

    def __post_init__(self):
        check_int("color budget", self.k, 1)
        # type() rather than isinstance(), as for vertex ids: a bool or a
        # float color would reach the searches' bit arithmetic.
        for v, c in enumerate(self.colors):
            if type(c) is not int or not 1 <= c <= self.k:
                raise ValueError(f"vertex {v} has color {c!r}, not an int in 1..{self.k}")

    def __len__(self) -> int:
        return len(self.colors)


def coloring(colors: Iterable[int], k: int | None = None) -> VertexColoring:
    """Build a VertexColoring, inferring the budget from the colors if absent."""
    cols = tuple(colors)
    if k is None:
        k = max(cols) if cols else 1
    return VertexColoring(cols, k)


def check_total_coloring(g: Graph, c: VertexColoring) -> None:
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries, graph has {g.n} vertices")


def distance(g: Graph, u: int, v: int):
    """BFS distance between u and v; INFINITY when v is unreachable."""
    g.check_vertex(u)
    g.check_vertex(v)
    d = adjacency_distances(g.adjacency, u)[v]
    return INFINITY if d is None else d


def adjacency_distances(adj, s: int) -> list:
    """BFS distance from s over neighbour lists ``adj[v]``; None where unreachable.

    ``queue`` is read while it grows, so it is the BFS's FIFO: every vertex
    is appended once, when first reached, one step past the vertex it was
    reached from.
    """
    dist: list = [None] * len(adj)
    dist[s] = 0
    queue = [s]
    for x in queue:
        for y in adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_connected(g: Graph) -> bool:
    return None not in adjacency_distances(g.adjacency, 0)


def diameter(g: Graph) -> int:
    rows = [adjacency_distances(g.adjacency, u) for u in range(g.n)]
    if None in rows[0]:
        raise ValueError("diameter is undefined for a disconnected graph")
    return max(map(max, rows))


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def remove_edges(g: Graph, drop: Iterable) -> Graph:
    """Return g without the given edges; every dropped edge must be present."""
    dropped = set()
    for e in drop:
        u, v = e
        ne = normalize_pair(u, v)
        if ne not in g.edges:
            raise ValueError(f"edge ({u}, {v}) is not present in the graph")
        dropped.add(ne)
    return Graph(g.n, g.edges - dropped)


def simple_paths(g: Graph, u: int, v: int, max_len: int | None = None) -> Iterator[tuple]:
    """Yield every simple u-v path with at most max_len edges.

    The walk pops whole partial paths from a stack and pushes each one's
    extensions in descending order of the new vertex, so they come back
    ascending: paths come out in DFS prefix order, which is sorted order.
    A partial path is extended to y only when its edges plus the exact
    distance from y to v stay within max_len, which prunes nothing that
    could still complete.  Every vertex in u's component has a distance to
    v once u has one, and u != v puts that distance at 1 or more, so a
    max_len below 1 yields nothing.  max_len is None for no bound beyond
    n - 1, or an int; type() rather than isinstance(), so True is refused.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("path endpoints must differ")
    if max_len is None:
        max_len = g.n - 1
    elif type(max_len) is not int:
        raise ValueError(f"max_len must be an int or None, got {max_len!r}")

    dist = adjacency_distances(g.adjacency, v)
    if dist[u] is None or dist[u] > max_len:
        return
    stack = [(u,)]
    while stack:
        path = stack.pop()
        x = path[-1]
        if x == v:
            yield path
            continue
        for y in reversed(g.adjacency[x]):
            if len(path) + dist[y] <= max_len and y not in path:
                stack.append(path + (y,))
