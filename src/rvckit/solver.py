"""Exact decision procedures built on one backtracking color assignment.

Every decision runs on one search, ``_search``, over a list of constraints.
A constraint is a list of candidate sets of vertices, and a coloring serves
it when some set holds no color twice.  The rainbow decisions give one
constraint per requested pair, whose sets are the pair's candidate paths
below.  ``chromatic_decision`` gives one constraint per edge, whose one set
is the edge's two ends.  This is Lemma 1's view: every path between the
pendants of an edge's ends passes through both ends, and the path over the
edge itself has no other internal vertex, so the pendant pair is served
exactly when the ends differ, and a proper coloring serves every edge.

The search enumerates colorings in a canonical order: vertices are assigned
by descending degree (ties by index), the first vertex is pinned to color 1,
and a color new to the partial assignment must be the smallest unused index.
Every coloring has exactly one canonical renaming, and whether it serves a
constraint is invariant under renaming, so the restriction loses nothing.
The walk is a loop, so its depth is not bounded by Python's recursion limit.
A vertex on no candidate set never blocks one, so the search assigns only the
vertices that lie on some set and gives every other vertex color 1, such as
an isolated vertex under ``chromatic_decision``; the witness is the one the
search over all vertices would find first, in fewer nodes.

Pruning works off candidate paths.  Under k colors only a path of length at
most k+1 can be rainbow, and if one internal vertex set is rainbow, so is any
subset of it, so each requested pair needs just its inclusion-minimal
internal sets among those paths.  These are exactly the internal sets of the
induced (chordless) paths of length at most k+1.  A path with a chord, even
one at an endpoint, has a shortcut: shorter, so still within the cap, and
with a strictly smaller internal set.  On an induced path's vertex set the
graph is that path alone, so no other path's internal set lies inside it, and
no two induced paths share one.  The solver therefore enumerates induced paths
directly, with no minimality filter.  Each candidate set is a pair
``(mask, vertices)``: its vertex bitmask and the tuple of the same vertices,
both made by the walk that found the set.  The search reads the tuple once,
to list the sets through each vertex, and keeps one bitmask per color of the
vertices holding it, so a set is color-blocked when it meets the mask of the
color just placed.  A pair whose candidate sets are all blocked by the
partial assignment can never be satisfied, and the branch is abandoned.

Every rainbow decision runs on one private core, ``_decide``, after its
public entry point has validated the input once.  Only pairs at distance at
least 3 constrain a coloring: a pair at distance at most 2 has a path with at
most one internal vertex, rainbow under every coloring.  ``_far_pairs`` finds the far pairs
with one bitmask 2-ball per vertex, built from the neighbour masks, and runs
a BFS only from the second endpoint of a far pair, once per endpoint.  Those
rows answer connectivity, the diameter lower bound where ``rvc_exact`` starts
its scan, and the exact-distance prune of the path enumeration; a far pair
beyond k+1 is a no.

Yes-answers are never trusted from search state: a rainbow witness is
re-verified with the independent rainbow checker, and a chromatic one edge
by edge, before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    Graph,
    PairSet,
    VertexColoring,
    adjacency_distances,
    is_complete,
    is_connected,
)
from .rainbow import first_unserved_pair

_DISCONNECTED = "rainbow vertex-connection needs a connected graph"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a decision run.

    ``witness`` is present on every yes-decision that needs a coloring; the
    k = 0 rainbow decision is the one yes-case without a witness, since it
    holds exactly for complete graphs where no coloring is consulted.
    ``nodes_explored`` counts vertex-color assignments tried.
    """

    decision: bool
    witness: VertexColoring | None
    nodes_explored: int


def _induced_path_sets(g: Graph, dist: list, a: int, b: int, max_len: int) -> list:
    """Candidate sets ``(mask, vertices)`` of the induced a-b paths of at most max_len edges.

    ``vertices`` are a path's internal vertices in path order, from a's
    neighbour to b's, and ``mask`` is their bitmask.  The walk reads the
    neighbour bitmasks ``g.masks`` and carries ``banned``, the closed
    neighbourhoods of every path vertex but the last, and extends only
    outside it, so no path gets a chord.  Once the last vertex touches b,
    the path must end there.  A partial path has used one edge per internal
    vertex; those that cannot reach b within the budget are cut using
    ``dist``, the exact distances to b, which ``_far_pairs`` has checked
    hold no ``None``.
    """
    masks = g.masks
    out = []
    bit_b = 1 << b
    stack = [(a, 0, 0, ())]  # (last vertex, banned, internal set, internal vertices)
    while stack:
        here, banned, inner, verts = stack.pop()
        if masks[here] & bit_b:
            out.append((inner, verts))
            continue
        reach = len(verts) + 1
        banned_next = banned | masks[here] | (1 << here)
        for y in g.adjacency[here]:
            if reach + dist[y] <= max_len and not banned >> y & 1:
                stack.append((y, banned_next, inner | (1 << y), verts + (y,)))
    return out


def _far_pairs(g: Graph, p: PairSet | None) -> list:
    """(a, b, row_b) for each pair of p at distance at least 3, in p's order.

    p is None for every pair.  ``near[b]`` is the bitmask of b, its
    neighbours and theirs, so a pair is far exactly when a is outside it.
    ``row_b`` is the BFS distance row from b, computed at most once per b;
    raises unless g is connected, which a row shows as soon as one is needed.
    """
    masks = g.masks
    adj = g.adjacency
    near = []
    for b in range(g.n):
        ball = masks[b] | 1 << b
        for y in adj[b]:
            ball |= masks[y]
        near.append(ball)
    rows: list = [None] * g.n
    far = []
    for a, b in combinations(range(g.n), 2) if p is None else p:
        if near[b] >> a & 1:
            continue
        row = rows[b]
        if row is None:
            row = rows[b] = adjacency_distances(adj, b)
            if None in row:
                raise ValueError(_DISCONNECTED)
        far.append((a, b, row))
    return far


def _search(g: Graph, k: int, constraints: list):
    """The first canonical k-coloring that serves every constraint, and the nodes tried.

    A constraint is a list of candidate sets ``(mask, vertices)``, a vertex
    bitmask and the tuple of its vertices, and is served when some set holds
    no color twice.  Only the vertices on some set are searched, by
    descending degree, ties by index; every other vertex takes color 1.
    Colors are tried in ascending order, and a color new to the branch must
    be the smallest unused one.  The walk is a loop, so its depth is not
    bounded by Python's recursion limit.  Returns the coloring, or None when
    no k-coloring serves every constraint.
    """
    # blocked flag per candidate set, alive count per constraint, and
    # vertex -> (constraint, set index, set mask) for the sets through it.
    blocked = []
    alive = [len(sets) for sets in constraints]
    touching: list = [[] for _ in range(g.n)]
    for ci, sets in enumerate(constraints):
        for s, verts in sets:
            for v in verts:
                touching[v].append((ci, len(blocked), s))
            blocked.append(False)
    order = sorted((v for v in range(g.n) if touching[v]), key=lambda v: (-len(g.adjacency[v]), v))
    # masks[col]: the vertices that currently hold color col.  The canonical
    # search opens at most n colors, so a budget k above n needs no more.
    masks = [0] * (min(k, g.n) + 1)
    chosen: list = []  # color per assigned position
    journals: list = []  # the sets each assigned position blocked
    # tops[i]: the largest color position i may take.  A color new to the
    # branch is the smallest unused one, so the top grows by one past a
    # position that took its own top.
    tops = [1]
    top = 1
    pos = col = nodes = 0  # col: the last color tried at pos
    while pos < len(order):
        if col < top:
            col += 1
            nodes += 1
            v = order[pos]
            taken = masks[col]
            journal = []
            for ci, si, s in touching[v]:
                if blocked[si] or not s & taken:
                    continue
                blocked[si] = True
                alive[ci] -= 1
                journal.append((ci, si))
                if not alive[ci]:
                    break
            else:
                masks[col] = taken | 1 << v
                chosen.append(col)
                journals.append(journal)
                if col == top < k:
                    top += 1
                tops.append(top)
                pos += 1
                col = 0
                continue
        elif pos == 0:
            return None, nodes
        else:
            tops.pop()
            pos -= 1
            top = tops[pos]
            col = chosen.pop()
            masks[col] ^= 1 << order[pos]
            journal = journals.pop()
        # Unblock the sets of a placement that killed a constraint, or of
        # the placement just taken back.
        for ci, si in journal:
            blocked[si] = False
            alive[ci] += 1
    colors = [1] * g.n
    for v, c in zip(order, chosen):
        colors[v] = c
    return VertexColoring(tuple(colors), k), nodes


def _decide(g: Graph, k: int, p: PairSet | None, far: list) -> SolveResult:
    """Decide a validated instance: g connected, k >= 1, p in range or None for all pairs.

    ``far`` is ``_far_pairs(g, p)``: the pairs of p at distance at least 3,
    whose induced paths have at least two internal vertices.  Every other
    pair is rainbow under every coloring.  A pair beyond k+1 has no path a
    k-coloring can make rainbow.
    """
    constraints = []
    for a, b, dist in far:
        if dist[a] > k + 1:
            return SolveResult(False, None, 0)
        constraints.append(_induced_path_sets(g, dist, a, b, k + 1))
    witness, nodes = _search(g, k, constraints)
    if witness is None:
        return SolveResult(False, None, nodes)
    if first_unserved_pair(g, witness, p) is not None:
        raise RuntimeError("solver produced a witness the independent checker rejects")
    return SolveResult(True, witness, nodes)


def decide_subset_rvc(g: Graph, p: PairSet, k: int) -> SolveResult:
    """Decide whether some k-coloring makes every pair in p rainbow connected."""
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int of at least 1, got {k!r}")
    if not is_connected(g):
        raise ValueError(_DISCONNECTED)
    p.check_in_range(g)
    return _decide(g, k, p, _far_pairs(g, p))


def decide_rvc_le_k(g: Graph, k: int) -> SolveResult:
    """Decide whether k colors suffice to rainbow vertex-connect g.

    k = 0 holds exactly for complete graphs (every pair is an edge), where no
    coloring is needed and none is reported.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be an int of at least 0, got {k!r}")
    far = _far_pairs(g, None)
    if k == 0:
        return SolveResult(is_complete(g), None, 0)
    return _decide(g, k, None, far)


def rvc_exact(g: Graph):
    """Smallest k that rainbow vertex-connects g, with a witness coloring.

    A complete graph needs no colors.  Otherwise one far-pair list serves the
    connectivity check, the diameter and every decision.  The scan starts at
    the diameter - 1 lower bound, which is 1 when no pair is at distance 3 or
    more.  n-2 colors always suffice (color the internal vertices of a
    spanning tree distinctly), so the scan terminates.
    """
    if is_complete(g):
        return 0, None
    far = _far_pairs(g, None)
    start = max((row[a] for a, _, row in far), default=2) - 1
    for k in range(start, g.n - 1):
        result = _decide(g, k, None, far)
        if result.decision:
            return k, result.witness
    raise RuntimeError(f"no decision up to the n-2 bound for n={g.n}")


def chromatic_decision(g: Graph, k: int) -> SolveResult:
    """Decide whether g has a proper k-coloring.

    Each edge is a constraint whose one candidate set is its two ends.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int of at least 1, got {k!r}")
    witness, nodes = _search(g, k, [[(1 << u | 1 << v, (u, v))] for u, v in sorted(g.edges)])
    if witness is None:
        return SolveResult(False, None, nodes)
    for u, v in g.edges:
        if witness.colors[u] == witness.colors[v]:
            raise RuntimeError("proper-coloring search returned an improper coloring")
    return SolveResult(True, witness, nodes)
