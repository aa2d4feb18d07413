"""Small graph families: named constructors and exhaustive enumeration.

Enumeration of connected graphs up to isomorphism reads the graph atlas
data file that ships with networkx (``networkx/generators/atlas.dat.gz``).
It lists every graph on at most seven vertices exactly once per isomorphism
class, sorted by vertex count; networkx supplies only that file, and the
graphs are built and tested for connectivity here.

The file is found from networkx's import spec, which locates the package
without running it, and only when an enumeration reads the atlas.
Importing networkx would load the whole package, most of rvckit's start-up
time and memory, in every process, including those that never enumerate.
"""

from __future__ import annotations

import gzip
import os
from importlib.util import find_spec
from itertools import combinations
from typing import Iterator

from .graphs import Graph, PairSet, check_int, graph_from_edges, is_connected, pair_set


def path_graph(n: int) -> Graph:
    check_int("order", n, 1)
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    check_int("cycle order", n, 3)
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    check_int("order", n, 1)
    return graph_from_edges(n, combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the hub at vertex 0."""
    check_int("leaf count", leaves, 0)
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


_ATLAS_LIMIT = 7


def _atlas_file() -> str:
    """Path of networkx's atlas data file, found without importing networkx."""
    spec = find_spec("networkx")
    if spec is None or not spec.submodule_search_locations:
        raise FileNotFoundError(
            "graph atlas enumeration needs the networkx package, which ships "
            "atlas.dat.gz; install networkx"
        )
    return os.path.join(spec.submodule_search_locations[0], "generators", "atlas.dat.gz")


def _atlas_entries(max_n: int) -> Iterator[tuple]:
    """(n, edges) for each atlas graph on 1..max_n vertices, in atlas order.

    An entry is a "GRAPH i" line, a "NODES n" line and one "u v" line per
    edge.  The file is sorted by n, so reading stops at the first larger graph.
    n stays 0 before the first entry and for the atlas's null graph, which
    is skipped.
    """
    n, edges = 0, []
    with gzip.open(_atlas_file(), "rt") as fh:
        for line in fh:
            if line.startswith("GRAPH"):
                if n:
                    yield n, edges
                n, edges = 0, []
            elif line.startswith("NODES"):
                n = int(line[6:])
                if n > max_n:
                    return
            else:
                u, v = line.split()
                edges.append((int(u), int(v)))
    if n:
        yield n, edges


def connected_graphs(max_n: int) -> list:
    """Connected graphs on 1..max_n vertices, one per isomorphism class."""
    # type() rather than isinstance(): True would enumerate the one-vertex graphs.
    if type(max_n) is not int or not 1 <= max_n <= _ATLAS_LIMIT:
        raise ValueError(f"atlas enumeration covers orders 1..{_ATLAS_LIMIT}, got {max_n!r}")
    graphs = (graph_from_edges(n, edges) for n, edges in _atlas_entries(max_n))
    return [g for g in graphs if is_connected(g)]


def all_pair_sets(g: Graph) -> Iterator[PairSet]:
    """Every subset of vertex pairs of g, in a fixed subset-mask order."""
    pairs = list(combinations(range(g.n), 2))
    for mask in range(1 << len(pairs)):
        yield pair_set(p for bit, p in enumerate(pairs) if mask >> bit & 1)
