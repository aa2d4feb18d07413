"""Reduction constructions: pendant instances and layered level-k gadgets.

The pendant reduction turns proper k-colorability of G into a subset rainbow
question: attach a pendant x_v to every vertex v and request exactly the
pairs (x_u, x_v) for edges (u, v).  Any x_u-x_v path must pass u and v as
internal vertices, so a k-coloring works iff the underlying coloring is
proper.

The level-k gadget turns the subset question for (G, P) into plain rainbow
vertex-connection of a larger graph G_k with the same budget k.  Its base
layer is a copy of G; requested pairs keep their distance-k+2 detour outside
the base, while every non-requested pair gets a private length-k+1 shortcut
through a two-vertex rung.  Levels are chained so that the detour burns more
colors than the budget allows, which confines rainbow routes for requested
pairs to the base layer.

Vertex labels are structured tuples:

    ("hub",)               apex vertex, even levels only
    ("v", i, lvl, a)       half a of the rung for source vertex i at lvl
    ("u", i, j, a)         level-0 rung for the non-requested pair (i, j), odd levels
    ("w", i, j, a)         shortcut rung for the non-requested pair (i, j)
    ("base", i)            base-layer copy of source vertex i

Construction for levels 2 and 3 is explicit; every higher level is built in
a loop that splits the previous base layer in two, two levels per step.
That loop in ``_structure`` is the only level loop.  It appends each block
of vertices after the blocks below it, so it emits the labels in id order
(level by level: hub first, then rungs by index, shortcut rungs by pair,
base last), which keeps emitted files and golden tests stable.  Everything
else about a vertex is a closed form of its label and k: its level
(``label_level``) and its color in the lift of a source coloring
(``_lift_color``).

A ``GadgetGraph`` records the source instance (G, P) and the level k it was
built from.  Since the base layer comes last, the copy of source vertex i is
vertex ``graph.n - G.n + i``: lifting reads G's size off the gadget,
projecting is a slice, and a check names its instance without being told.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .graphs import (
    Graph,
    PairSet,
    VertexColoring,
    adjacency_distances,
    check_int,
    check_total_coloring,
    graph_from_edges,
    is_connected,
    pair_set,
)
from .rainbow import first_unserved_pair


@dataclass(frozen=True)
class PendantInstance:
    """The pendant graph of the source graph, plus the requested pairs."""

    source: Graph
    graph: Graph
    pairs: PairSet


def pendant_reduction(g: Graph) -> PendantInstance:
    """Attach pendant n+v to each vertex v; pairs mirror the edges of g."""
    if not is_connected(g):
        raise ValueError("pendant reduction expects a connected graph")
    n = g.n
    edges = set(g.edges)
    edges.update((v, n + v) for v in range(n))
    gp = graph_from_edges(2 * n, edges)
    pairs = pair_set((n + u, n + v) for u, v in g.edges)
    return PendantInstance(g, gp, pairs)


def pendant_lift(inst: PendantInstance, c: VertexColoring) -> VertexColoring:
    """Copy each vertex color onto its pendant; c must be proper on the source.

    An improper c is refused with the least monochromatic source edge.
    """
    check_total_coloring(inst.source, c)
    for u, v in sorted(inst.source.edges):
        if c.colors[u] == c.colors[v]:
            raise ValueError(f"coloring is not proper: edge ({u}, {v}) is monochromatic")
    return VertexColoring(c.colors + c.colors, c.k)


def pendant_project(inst: PendantInstance, cprime: VertexColoring) -> VertexColoring:
    """Restrict a pendant-graph coloring back to the source vertices.

    The coloring must rainbow-connect every requested pair; the first failing
    pair is reported otherwise.  Those pairs force both pendant owners as
    internal vertices, so the restriction is proper on the source graph.
    """
    unserved = first_unserved_pair(inst.graph, cprime, inst.pairs)
    if unserved is not None:
        raise ValueError(f"pair {unserved} has no rainbow path under this coloring")
    return VertexColoring(cprime.colors[: inst.source.n], cprime.k)


# ---------------------------------------------------------------------------
# Level-k gadgets


def describe_instance(g: Graph, p: PairSet | None, k: int) -> str:
    """The text that names the instance (g, p, k) in a check report; p None prints as "-"."""
    ptxt = "-" if p is None else str(list(p))
    return f"n={g.n} edges={sorted(g.edges)} P={ptxt} k={k}"


@dataclass(frozen=True)
class GadgetGraph:
    """The level-k gadget of the source instance (source, pairs), one label per vertex.

    ``labels[vid]`` is the label of vertex vid.  ``_structure`` writes the
    base layer last, so its ids are a closed form of the two graphs' sizes:
    ``base[i]`` is the id of the copy of source vertex i, ``pairs_k`` are the
    requested pairs moved onto those copies, and ``base_edges`` are the
    edges with both ends in the base.
    """

    source: Graph
    pairs: PairSet
    k: int
    graph: Graph
    labels: tuple
    base: tuple = field(init=False, repr=False, compare=False)
    pairs_k: PairSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.graph.n - self.source.n
        object.__setattr__(self, "base", tuple(range(s, self.graph.n)))
        object.__setattr__(self, "pairs_k", pair_set((s + i, s + j) for i, j in self.pairs))

    @property
    def base_edges(self) -> frozenset:
        """The base-layer copy of the source graph's edges, in gadget ids."""
        adj = self.graph.adjacency
        return frozenset((x, y) for x in self.base for y in adj[x] if x < y)

    # The cached properties below are kept per gadget object, outside the
    # fields: a corrupted copy made with ``dataclasses.replace`` starts
    # without them.

    @cached_property
    def instance(self) -> str:
        """``describe_instance`` of the source instance, formatted once per gadget."""
        return describe_instance(self.source, self.pairs, self.k)

    @cached_property
    def stripped_rows(self) -> list:
        """BFS rows of the gadget without its base edges, from base copies 0..n-2.

        ``stripped_rows[i][y]`` is the distance from ``base[i]`` to y, None
        where unreachable.  A base copy keeps its neighbours below
        ``base[0]``, the ones outside the base.  Every base pair (i, j),
        i < j, is requested or not, so the two distance checks read exactly
        these rows.
        """
        adj = list(self.graph.adjacency)
        s = self.base[0]
        for x in self.base:
            adj[x] = [y for y in adj[x] if y < s]
        return [adjacency_distances(adj, x) for x in self.base[:-1]]


def nonrequested_pairs(n: int, p: PairSet) -> list:
    """Unordered distinct pairs over 0..n-1 that are not requested."""
    return [q for q in combinations(range(n), 2) if q not in p]


def _structure(g: Graph, p: PairSet, k: int):
    """Labels in id order and the edges (i, j), i < j, of the level-k gadget.

    Built up from the level-2 or level-3 base case, two levels per step.
    Every block of vertices is appended after the blocks below it, so ids
    follow the levels.  A block of rungs that starts at id s holds the two
    halves of its rung t at s + 2*t and s + 2*t + 1 (labels ending in 1 and
    2), and every edge is written from those offsets.  Until the end the
    base layer is kept apart: ``attach`` lists the (id, i) edges from the
    other vertices to base copy i, and base-base edges are the source
    graph's edges.  Each step splits base copy i into the rung
    ("v", i, level - 2, 1 | 2), which takes over its attachments, and
    stacks a new base copy on the rung.
    """
    n = g.n
    nonpairs = nonrequested_pairs(n, p)
    labels = []
    edges = []

    def rungs(kind: str, keys: list) -> int:
        """Append the rungs (kind, *key, 1 | 2) of one block; return its start."""
        start = len(labels)
        labels.extend((kind, *key, a) for key in keys for a in (1, 2))
        return start

    def joined(s: int, count: int) -> list:
        """The edge between the two halves of each rung of the block at s."""
        return [(s + 2 * t, s + 2 * t + 1) for t in range(count)]

    def across(s: int, s2: int, count: int) -> list:
        """Every edge from a half of rung t at s to a half of rung t at s2 > s."""
        return [
            (s + 2 * t + a, s2 + 2 * t + b)
            for t in range(count)
            for a in (0, 1)
            for b in (0, 1)
        ]

    m = len(nonpairs)
    if k % 2 == 0:
        labels.append(("hub",))
        top = rungs("v", [(i, 0) for i in range(n)])
        w = rungs("w", nonpairs)
        edges += [(0, x) for x in range(1, len(labels))]
        edges += joined(top, n) + joined(w, m)
        level = 2
    else:
        v0 = rungs("v", [(i, 0) for i in range(n)])
        u = rungs("u", nonpairs)
        edges += combinations(range(len(labels)), 2)
        top = rungs("v", [(i, 1) for i in range(n)])
        w = rungs("w", nonpairs)
        edges += across(v0, top, n) + across(u, w, m) + joined(top, n)
        level = 3
    attach = [(top + x, x >> 1) for x in range(2 * n)]
    attach += [(w + 2 * q + a, pair[a]) for q, pair in enumerate(nonpairs) for a in (0, 1)]

    while level < k:
        level += 2
        s = rungs("v", [(i, level - 2) for i in range(n)])
        edges += [(x, s + 2 * i + a) for x, i in attach for a in (0, 1)]
        edges += joined(s, n)
        attach = [(s + x, x >> 1) for x in range(2 * n)]

    s = len(labels)
    labels.extend(("base", i) for i in range(n))
    edges += [(x, s + i) for x, i in attach]
    edges += [(s + i, s + j) for i, j in g.edges]
    return labels, edges


def label_level(label, k: int) -> int:
    """Layer of a labelled vertex; the hub sits below every layer at -1."""
    kind = label[0]
    if kind == "hub":
        return -1
    if kind == "v":
        return label[2]
    if kind == "u":
        return 0
    if kind == "w":
        return 0 if k % 2 == 0 else 1
    return k  # base


def _lift_color(label, k: int, c: VertexColoring) -> int:
    """Color of a labelled vertex in the level-k lift of c.

    The rung ("v", i, lvl, a) takes lvl + a, the two highest colors of the
    level lvl + 2 that added it; the shortcut rung ("w", i, j, a) takes
    a + k % 2.  The hub, and at odd k the second half of each level-0 rung,
    take k - 1; the first half of a "u" rung takes 1.  The base layer
    copies c.
    """
    kind = label[0]
    if kind == "base":
        return c.colors[label[1]]
    if kind == "hub":
        return k - 1
    if kind == "w":
        return label[3] + k % 2
    if kind == "u":
        return 1 if label[3] == 1 else k - 1
    if k % 2 == 1 and label[2:] == (0, 2):
        return k - 1
    return label[2] + label[3]


def build_gadget(g: Graph, p: PairSet, k: int) -> GadgetGraph:
    """Build the level-k gadget for (g, p)."""
    check_int("gadget level", k, 2)
    if not is_connected(g):
        raise ValueError("gadget construction expects a connected graph")
    p.check_in_range(g)
    labels, edges = _structure(g, p, k)
    # Graph validates every edge; _structure emits each once, already ordered.
    graph = Graph(len(labels), edges)
    return GadgetGraph(g, p, k, graph, tuple(labels))


def lift_coloring(gg: GadgetGraph, c: VertexColoring) -> VertexColoring:
    """Lift a coloring of the source graph onto the gadget gg.

    When c makes every requested pair rainbow connected in the source graph,
    the lift makes the whole gadget rainbow vertex-connected with the same
    budget gg.k.  Every vertex's color follows from its label alone.
    """
    check_total_coloring(gg.source, c)
    if max(c.colors) > gg.k:
        raise ValueError(f"coloring uses color {max(c.colors)}, outside budget {gg.k}")
    return VertexColoring(tuple(_lift_color(lab, gg.k, c) for lab in gg.labels), gg.k)


def project_coloring(gg: GadgetGraph, ck: VertexColoring) -> VertexColoring:
    """Read the base-layer colors of a gadget coloring back onto the source, at budget gg.k."""
    check_total_coloring(gg.graph, ck)
    if max(ck.colors) > gg.k:
        raise ValueError(f"coloring uses color {max(ck.colors)}, outside budget {gg.k}")
    return VertexColoring(ck.colors[gg.base[0]:], gg.k)
