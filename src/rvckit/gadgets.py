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
a loop that splits the previous base layer in two, two levels per step, so
that step is the only code path above 3.  Vertex ids are assigned level by
level (hub first, then rungs by index, shortcut rungs by pair, base last),
which keeps emitted files and golden tests stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    Graph,
    PairSet,
    VertexColoring,
    check_total_coloring,
    graph_from_edges,
    is_connected,
    normalize_pair,
    pair_set,
)
from .rainbow import first_unserved_pair


@dataclass(frozen=True)
class PendantInstance:
    """Graph with one pendant per original vertex plus the requested pairs."""

    graph: Graph
    pairs: PairSet
    source_n: int

    @property
    def pendant_of(self) -> tuple:
        return tuple(range(self.source_n, 2 * self.source_n))


def pendant_reduction(g: Graph) -> PendantInstance:
    """Attach pendant n+v to each vertex v; pairs mirror the edges of g."""
    if not is_connected(g):
        raise ValueError("pendant reduction expects a connected graph")
    n = g.n
    edges = set(g.edges)
    edges.update((v, n + v) for v in range(n))
    gp = graph_from_edges(2 * n, edges)
    pairs = pair_set((n + u, n + v) for u, v in g.edges)
    return PendantInstance(gp, pairs, n)


def pendant_lift(inst: PendantInstance, c: VertexColoring) -> VertexColoring:
    """Copy each vertex color onto its pendant; c must be proper on the source."""
    n = inst.source_n
    if len(c.colors) != n:
        raise ValueError(f"coloring has {len(c.colors)} entries, source graph has {n}")
    for u, v in inst.graph.edges:
        if v < n and c.colors[u] == c.colors[v]:
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
    return VertexColoring(cprime.colors[: inst.source_n], cprime.k)


# ---------------------------------------------------------------------------
# Level-k gadgets


@dataclass(frozen=True)
class GadgetGraph:
    """A built level-k gadget with its bookkeeping maps.

    ``labels[vid]`` is the structured label of vertex vid; ``base[i]`` is the
    id of the base-layer copy of source vertex i; ``pairs_k`` transports the
    requested pairs to the base layer; ``base_edges`` is the edge set of the
    base-layer copy of the source graph.
    """

    graph: Graph
    k: int
    labels: tuple
    base: tuple
    pairs_k: PairSet
    base_edges: frozenset

    @property
    def source_n(self) -> int:
        return len(self.base)


def nonrequested_pairs(n: int, p: PairSet) -> list:
    """Unordered distinct pairs over 0..n-1 that are not requested."""
    return [q for q in combinations(range(n), 2) if q not in p]


def _ledge(a, b) -> tuple:
    return (a, b) if a < b else (b, a)


def _structure(g: Graph, p: PairSet, k: int):
    """Labels and label-space edges of the level-k gadget.

    Built up from the level-2 or level-3 base case, two levels per step.
    Until the end the base layer is kept apart: ``attach`` lists the
    (vertex, i) edges from the other labels to base copy i, and base-base
    edges are the source graph's edges.  Each step splits base copy i into
    the rung ("v", i, level - 2, 1 | 2), which takes over its attachments,
    and stacks a new base copy on the rung.
    """
    n = g.n
    nonpairs = nonrequested_pairs(n, p)
    if k % 2 == 0:
        hub = ("hub",)
        level0 = [("v", i, 0, a) for i in range(n) for a in (1, 2)]
        level0 += [("w", i, j, a) for i, j in nonpairs for a in (1, 2)]
        labels = set([hub] + level0)
        edges = set()
        edges.update(_ledge(hub, x) for x in level0)
        edges.update(_ledge(("v", i, 0, 1), ("v", i, 0, 2)) for i in range(n))
        edges.update(_ledge(("w", i, j, 1), ("w", i, j, 2)) for i, j in nonpairs)
        attach = [(("v", i, 0, a), i) for i in range(n) for a in (1, 2)]
        level = 2
    else:
        level0 = [("v", i, 0, a) for i in range(n) for a in (1, 2)]
        level0 += [("u", i, j, a) for i, j in nonpairs for a in (1, 2)]
        level1 = [("v", i, 1, a) for i in range(n) for a in (1, 2)]
        level1 += [("w", i, j, a) for i, j in nonpairs for a in (1, 2)]
        labels = set(level0 + level1)
        edges = set()
        edges.update(_ledge(x, y) for x, y in combinations(sorted(level0), 2))
        for i in range(n):
            for a in (1, 2):
                for b in (1, 2):
                    edges.add(_ledge(("v", i, 0, a), ("v", i, 1, b)))
        for i, j in nonpairs:
            for a in (1, 2):
                for b in (1, 2):
                    edges.add(_ledge(("u", i, j, a), ("w", i, j, b)))
        edges.update(_ledge(("v", i, 1, 1), ("v", i, 1, 2)) for i in range(n))
        attach = [(("v", i, 1, a), i) for i in range(n) for a in (1, 2)]
        level = 3
    attach += [(("w", i, j, 1), i) for i, j in nonpairs]
    attach += [(("w", i, j, 2), j) for i, j in nonpairs]

    while level < k:
        level += 2
        split = [(("v", i, level - 2, 1), ("v", i, level - 2, 2)) for i in range(n)]
        for x, i in attach:
            edges.add(_ledge(x, split[i][0]))
            edges.add(_ledge(x, split[i][1]))
        for s1, s2 in split:
            labels.update((s1, s2))
            edges.add(_ledge(s1, s2))
        attach = [(s, i) for i, pair in enumerate(split) for s in pair]

    labels.update(("base", i) for i in range(n))
    edges.update(_ledge(("base", i), x) for x, i in attach)
    edges.update(_ledge(("base", u), ("base", v)) for u, v in g.edges)
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


def _label_sort_key(label, k: int):
    kind = label[0]
    if kind == "hub":
        return (-1, 0, 0, 0, 0)
    if kind == "v":
        return (label[2], 0, label[1], 0, label[3])
    if kind in ("u", "w"):
        return (label_level(label, k), 1, label[1], label[2], label[3])
    return (k, 0, label[1], 0, 0)


def build_gadget(g: Graph, p: PairSet, k: int) -> GadgetGraph:
    """Build the level-k gadget for (g, p)."""
    if k < 2:
        raise ValueError("gadget levels start at k = 2")
    if not is_connected(g):
        raise ValueError("gadget construction expects a connected graph")
    p.check_in_range(g)
    labels, ledges = _structure(g, p, k)
    ordered = sorted(labels, key=lambda lab: _label_sort_key(lab, k))
    index = {lab: vid for vid, lab in enumerate(ordered)}
    graph = graph_from_edges(len(ordered), ((index[a], index[b]) for a, b in ledges))
    base = tuple(index[("base", i)] for i in range(g.n))
    pairs_k = pair_set((base[i], base[j]) for i, j in p)
    base_edges = frozenset(normalize_pair(base[u], base[v]) for u, v in g.edges)
    return GadgetGraph(graph, k, tuple(ordered), base, pairs_k, base_edges)


def _label_colors(g: Graph, p: PairSet, k: int, c: VertexColoring) -> dict:
    """Color of every labelled vertex for the level-k lift of c.

    Built up from the level-2 or level-3 base case, two levels per step;
    each step keeps the colors below it and gives the new rung the two
    highest colors of its level.  The base layer copies c.
    """
    n = g.n
    nonpairs = nonrequested_pairs(n, p)
    if k % 2 == 0:
        out = {("hub",): 1}
        for i in range(n):
            out[("v", i, 0, 1)] = 1
            out[("v", i, 0, 2)] = 2
        for i, j in nonpairs:
            out[("w", i, j, 1)] = 1
            out[("w", i, j, 2)] = 2
        level = 2
    else:
        out = {}
        for i in range(n):
            out[("v", i, 0, 1)] = 1
            out[("v", i, 0, 2)] = 2
            out[("v", i, 1, 1)] = 2
            out[("v", i, 1, 2)] = 3
        for i, j in nonpairs:
            out[("u", i, j, 1)] = 1
            out[("u", i, j, 2)] = 2
            out[("w", i, j, 1)] = 2
            out[("w", i, j, 2)] = 3
        level = 3
    while level < k:
        level += 2
        if level % 2 == 0:
            out[("hub",)] = level - 1
        else:
            for i in range(n):
                out[("v", i, 0, 2)] = level - 1
            for i, j in nonpairs:
                out[("u", i, j, 2)] = level - 1
        for i in range(n):
            out[("v", i, level - 2, 1)] = level - 1
            out[("v", i, level - 2, 2)] = level
    for i in range(n):
        out[("base", i)] = c.colors[i]
    return out


def lift_coloring(
    g: Graph, p: PairSet, k: int, c: VertexColoring, gadget: GadgetGraph | None = None
) -> VertexColoring:
    """Lift a coloring of g onto the level-k gadget.

    When c makes every pair in p rainbow connected in g, the lift makes the
    whole gadget rainbow vertex-connected with the same budget.  Rungs get the
    two highest colors of their level, lower levels keep their colors from
    the previous lift, and the base layer copies c.
    """
    check_total_coloring(g, c)
    if k < 2:
        raise ValueError("gadget levels start at k = 2")
    if max(c.colors) > k:
        raise ValueError(f"coloring uses color {max(c.colors)}, outside budget {k}")
    if gadget is None:
        gadget = build_gadget(g, p, k)
    elif gadget.k != k:
        raise ValueError(f"gadget was built for level {gadget.k}, not {k}")
    by_label = _label_colors(g, p, k, c)
    return VertexColoring(tuple(by_label[lab] for lab in gadget.labels), k)


def project_coloring(gg: GadgetGraph, ck: VertexColoring) -> VertexColoring:
    """Read the base-layer colors of a gadget coloring back onto the source."""
    check_total_coloring(gg.graph, ck)
    return VertexColoring(tuple(ck.colors[b] for b in gg.base), ck.k)
