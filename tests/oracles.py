"""Reference implementations the tests trust instead of the package.

Everything here is deliberately naive: distances by edge relaxation instead
of BFS, path enumeration with no length cap and no pruning, decisions by
enumerating every coloring.  Slow is fine; these only ever see tiny graphs.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from strategies import all_vertex_pairs

from rvckit.graphs import Graph, PairSet, VertexColoring


def oracle_distance(g: Graph, u: int, v: int):
    """Shortest-path distance by repeated relaxation over the edge list."""
    dist = [math.inf] * g.n
    dist[u] = 0
    for _ in range(g.n):
        changed = False
        for a, b in g.edges:
            if dist[a] + 1 < dist[b]:
                dist[b] = dist[a] + 1
                changed = True
            if dist[b] + 1 < dist[a]:
                dist[a] = dist[b] + 1
                changed = True
        if not changed:
            break
    return dist[v]


@lru_cache(maxsize=None)
def oracle_simple_paths(g: Graph, u: int, v: int) -> tuple:
    """Every simple u-v path, any length, in no particular order."""
    out = []

    def grow(path, seen):
        here = path[-1]
        if here == v:
            out.append(tuple(path))
            return
        for y in g.adjacency[here]:
            if y not in seen:
                path.append(y)
                seen.add(y)
                grow(path, seen)
                path.pop()
                seen.remove(y)

    grow([u], {u})
    return tuple(out)


@lru_cache(maxsize=None)
def oracle_internal_sets(g: Graph, u: int, v: int) -> tuple:
    return tuple(p[1:-1] for p in oracle_simple_paths(g, u, v))


def oracle_is_rainbow(colors, path) -> bool:
    inner = [colors[x] for x in path[1:-1]]
    return len(set(inner)) == len(inner)


def oracle_exists_rainbow_path(g: Graph, c: VertexColoring, u: int, v: int) -> bool:
    for inner in oracle_internal_sets(g, u, v):
        seen = [c.colors[x] for x in inner]
        if len(set(seen)) == len(seen):
            return True
    return False


def oracle_subset_yes(g: Graph, p: PairSet, k: int) -> bool:
    """Enumerate all k**n colorings; accept when one serves every pair."""
    pairs = list(p)
    for colors in itertools.product(range(1, k + 1), repeat=g.n):
        c = VertexColoring(colors, k)
        if all(oracle_exists_rainbow_path(g, c, a, b) for a, b in pairs):
            return True
    return False


def oracle_rvc(g: Graph) -> int:
    if all(g.has_edge(a, b) for a, b in all_vertex_pairs(g)):
        return 0
    for k in range(1, g.n + 1):
        if oracle_subset_yes(g, all_vertex_pairs(g), k):
            return k
    raise AssertionError("no budget worked, which cannot happen on a connected graph")


def oracle_chromatic_le(g: Graph, k: int) -> bool:
    for colors in itertools.product(range(1, k + 1), repeat=g.n):
        if all(colors[a] != colors[b] for a, b in g.edges):
            return True
    return False


def oracle_pair_mask_table(g: Graph, k: int):
    """All satisfiable pair sets at budget k, as a closed bitmask table.

    Returns (pairs, sat) where pairs is the sorted pair list and sat[m] says
    whether some single coloring serves every pair whose bit is set in m.
    One k**n enumeration answers every subset query for this (g, k).
    """
    pairs = sorted(all_vertex_pairs(g))
    nbits = len(pairs)
    sat = [False] * (1 << nbits)
    for colors in itertools.product(range(1, k + 1), repeat=g.n):
        c = VertexColoring(colors, k)
        m = 0
        for i, (a, b) in enumerate(pairs):
            if oracle_exists_rainbow_path(g, c, a, b):
                m |= 1 << i
        sat[m] = True
    for b in range(nbits):
        bit = 1 << b
        for m in range(1 << nbits):
            if not (m & bit) and sat[m | bit]:
                sat[m] = True
    return pairs, sat
