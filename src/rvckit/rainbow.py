"""Rainbow vertex-connection checks.

A path is rainbow when its internal vertices all carry distinct colors; the
endpoints are unconstrained.  With a budget of k colors a rainbow path has at
most k internal vertices, so every search below caps path length at k+1 edges.

Both searches run over states (current vertex, set of colors on the path's
vertices after the source); the witness search keeps the whole path, which
ends at the current vertex.  Because internal colors must stay distinct, two
internal vertices can never coincide, so the color set captures a partial
path exactly.  Each step adds one color, so a state's color set has as many
colors as its path has edges.  There are two searches:

- the verification search behind :func:`first_unserved_pair` and the two
  boolean verifiers answers every requested pair in one pass from all
  sources, each state carrying a bitset of the sources that reach it.  It
  is the table of the colorful-path dynamic program of color-coding (Alon,
  Yuster and Zwick, J. ACM 42(4), 1995).  One pass over the neighbour
  bitmasks serves every pair within distance 2, which is rainbow under any
  coloring; then one loop grows levels 2..k, checks the state count
  against the budget after each and serves from it.  The states of a level
  are held in one of two layouts, which supply only the storage and the
  two steps, grow and serve.  With at most 6 colors in use a level is held
  densely: one int per vertex packs the source bitset of every color set,
  so a level step is one big-int OR per edge; with more colors it is a
  dict of the live states;
- the witness search behind :func:`exists_rainbow_path` runs from one
  source to one target over one FIFO list of (path, color set) states,
  read while it grows.  A FIFO finishes level l, in append order, before
  it starts level l+1, so it expands the same states in the same order as
  a level-by-level search.  It prunes states by subset dominance and tests
  each state for an edge to the target when it queues it, so it ends at
  the first path that reaches the target, the shortest, lexicographically
  least rainbow path, without expanding the states queued ahead of it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

from .graphs import (
    Graph,
    PairSet,
    VertexColoring,
    check_total_coloring,
    is_connected,
)


@dataclass
class SearchStats:
    """Cumulative counters for the rainbow path searches."""

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
    ell = 1..k+1.  The geometric sum is taken in closed form, so a budget
    declared far above the colors in use costs one power, not k+1 of them.
    Python integers are exact at any size, so it never overflows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be at least 0")
    if n == 1:
        return k + 1
    return (n ** (k + 1) - 1) // (n - 1)


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


def _color_bits(c: VertexColoring) -> list:
    """The bit of each vertex's color in a search's color sets.

    The colors in use take bits by rank: a search only asks whether two
    colors are equal, and a color's value must never size an int.
    """
    rank = {col: 1 << j for j, col in enumerate(sorted(set(c.colors)))}
    return [rank[col] for col in c.colors]


def _rainbow_search(g: Graph, c: VertexColoring, source: int, target: int):
    """The witness search: the shortest, least rainbow source-target path, or None.

    One FIFO list of states (path, color set) is read while it grows,
    starting from the source's state ((source,), empty set).  Expanding a
    state (path, M) with last vertex x appends (path + (y,), M | bit(y))
    for each neighbour y of x, ascending, whose color is not in M.  The
    list holds every state of level l, in append order, before any state
    of level l+1, so it expands the states of a level-synchronized BFS in
    the same order and makes the same decisions: in lexicographic order of
    their paths, so the first state whose last vertex is adjacent to the
    target gives the shortest path and the lexicographically least among
    the shortest (the path plus the target: an edge adds no internal
    vertex).

    That state is found when it is queued, not when it is popped: the
    source is tested before the loop, and every state that survives the
    dominance test just before it is appended.  The FIFO pops states in
    append order, so the first state queued with an edge to the target is
    the first one popped with it, and the search appends the same states
    in the same order up to it.  The witness is
    the same as a test on pop would give, but the states queued ahead of
    the winner (the rest of its parent's level and its earlier level-mates)
    are never expanded.  A search that finds no path expands every state
    either way.  ``expansions`` counts the states popped and expanded.

    A generated state (y, m2) is dropped when some color set m already held
    at y is a subset of m2 (``m & m2 == m``).  Any continuation from (y, m2)
    is also a valid continuation from (y, m): its colors avoid m2 and so
    avoid m, which keeps its vertices off the prefix.  Set sizes equal path
    lengths, so a strict subset was held from an earlier level and any path
    through (y, m2) has a strictly shorter counterpart through (y, m); an
    equal set was held from an earlier, lexicographically smaller path of
    the same length.  Hence every level is the level of the search without
    pruning minus dominated states, in the same order, and the witness is
    unchanged.  The source holds the empty set, which dominates every state
    that would re-enter it.  A dropped state is never tested for an edge to
    the target: its dominator ends at the same vertex and was queued, and
    tested, before it.

    Every call asserts that the number of expanded states stays within
    path_budget(n, min(k, n)); expanded states are distinct partial paths of
    at most n-2 internal vertices, so the bound is never exceeded by a
    correct search, and a k far above n costs no more than k = n.
    """
    bit = _color_bits(c)
    budget = path_budget(g.n, min(c.k, g.n))
    masks = g.masks
    # seen[y] lists the masks accepted at y, in the order they were reached.
    seen = [[] for _ in range(g.n)]
    seen[source].append(0)
    queue = [((source,), 0)]
    path = (source, target) if masks[source] >> target & 1 else None
    # States are expanded in queue order, so the count is the next index.
    expansions = 0
    while path is None and expansions < len(queue):
        prefix, mask = queue[expansions]
        expansions += 1
        _check_budget(expansions, budget)
        for y in g.neighbors(prefix[-1]):
            b = bit[y]
            if mask & b:
                continue
            m2 = mask | b
            for m in seen[y]:
                if m & m2 == m:
                    break
            else:
                if masks[y] >> target & 1:
                    path = prefix + (y, target)
                    break
                seen[y].append(m2)
                queue.append((prefix + (y,), m2))

    search_stats.calls += 1
    search_stats.expansions += expansions
    search_stats.max_expansions = max(search_stats.max_expansions, expansions)
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
    path = _rainbow_search(g, c, u, v)
    return None if path is None else PathWitness(g, path)


# The largest color at which the verification search packs each level into
# one int per vertex instead of a dict of states; _serve_from_all_sources
# gives the measurements behind it.
_DENSE_MAX_COLOR = 6


def _serve_from_all_sources(g: Graph, c: VertexColoring, missing: list) -> None:
    """The verification search: clear each served source from missing.

    ``missing[y]`` is an int bitset of the sources whose pair with y is
    requested; on return it holds those without a rainbow path to y.  One
    level-by-level search runs from all sources at once.  A state is (x, M):
    the vertices after the source of some partial path ending at x carry
    exactly the colors M, one each, so a level-l state has |M| = l.  Each
    state holds the bitset of the sources that reach it.  Level l's states
    serve every neighbour y of x for their sources, since the path's
    internal vertices are those carrying M.  A state expands to
    (y, M | bit(y)) for each neighbour y whose color is not in M, and states
    with equal keys merge by OR.  Sources whose pairs are all served are
    masked out.

    A path of at most two edges has at most one internal vertex, so it is
    rainbow under every coloring.  One pass over ``g.masks`` serves every
    pair within distance 2: b is within distance 2 of y when it is in
    ``masks[y]`` or in ``masks[x]`` for a neighbour x of y.  Only when
    k > 1 and some source still lacks a farther pair is level 1 built:
    (x, {c(x)}) holds the still-active sources among x's neighbours.  Then
    one loop runs levels 2..k.  Each pass grows one level from the active
    sources, counts its states against the budget and serves from it.  The
    loop stops when nothing grows, when nothing is missing, or after level
    k, where M holds every color.

    Merging per (x, M) is exact.  Repeated colors are barred, so the
    vertices after the source never repeat, and every walk a source's bit
    travels along is rainbow up to its last vertex.  Such a walk may
    re-enter its own source; then its part after the last visit to the
    source is a shorter rainbow path to the same vertex, so serving from it
    is still sound.  Conversely every rainbow path s, v1, ..., vl, y puts s
    into state (vl, colors of v1..vl), which serves y.

    The layout of the states is chosen by K, the largest color the coloring
    uses (at most ``c.k``).  With K <= 6 (``_DENSE_MAX_COLOR``) each level
    is one packed int per vertex, :func:`_dense_levels`; above it the states
    are a dict keyed by (x, M), :func:`_sparse_levels`.  Each builds its
    storage from the level-1 seeds and returns two steps: ``grow(active)``
    makes the next level for the active sources and returns its number of
    states, and ``serve(missing)`` clears the sources that level serves and
    returns the sources still missing.  Both hold the same states with the
    same source bitsets.  The packed table costs 2**K * (n+1) bits per
    vertex whatever the number of live states.  On ten seeded G(60, 0.06)
    with random colorings, all pairs, it took 0.84-0.96x the dict's process
    time at k = 5 and 6, 0.89-0.99x at k = 7 and 8, 1.1x at k = 9, 1.7x at
    k = 10 and 2.5x at k = 12; on the gadgets of levels 2..5 it took about
    0.7x.  Past 6 colors the gain is gone while the table keeps doubling
    with each color, so the cut is a constant there.

    The states stay within path_budget(n, min(k, n)): a level-l state is
    fixed by the l vertices after the source, so level l holds at most n**l
    distinct (x, M), and levels 1..min(k, n-1) sum to less than the
    budget.  Going over it means the search is wrong; it is counted in
    ``search_stats.violations`` and raised as a RuntimeError.

    Counters: ``search_stats.calls`` grows by the number of distinct
    sources, so it still counts source searches and matches a search per
    source on every yes-answer.  ``expansions`` counts the states of levels
    1..k, which exist only for sources still missing a pair beyond distance
    2, and ``max_expansions`` is the largest such count of one verification.
    """
    n = g.n
    nbrs = g.masks
    adj = g.adjacency
    searched = 0
    active = 0
    for y, m in enumerate(missing):
        if m:
            searched |= m
            near = nbrs[y]
            for x in adj[y]:
                near |= nbrs[x]
            m &= ~near
            missing[y] = m
            active |= m
    expansions = 0
    if active and c.k > 1:
        seeds = [nb & active for nb in nbrs]
        expansions = n - seeds.count(0)
        budget = path_budget(n, min(c.k, n))
        _check_budget(expansions, budget)
        levels = _dense_levels if max(c.colors) <= _DENSE_MAX_COLOR else _sparse_levels
        grow, serve = levels(c, adj, seeds)
        for _ in range(2, c.k + 1):
            grown = grow(active)
            if not grown:
                break
            expansions += grown
            _check_budget(expansions, budget)
            active = serve(missing)
            if not active:
                break

    search_stats.calls += searched.bit_count()
    search_stats.expansions += expansions
    search_stats.max_expansions = max(search_stats.max_expansions, expansions)


def _check_budget(expansions: int, budget: int) -> None:
    if expansions > budget:
        search_stats.violations += 1
        raise RuntimeError(f"path search expanded {expansions} states, over budget {budget}")


def _repeat(pattern: int, span: int, count: int) -> int:
    """count copies of pattern, span bits apart; count is a power of two."""
    while count > 1:
        pattern |= pattern << span
        span <<= 1
        count >>= 1
    return pattern


def _spread(adj: tuple, T: list) -> list:
    """U[y]: the OR of T[x] over the neighbours x of y with T[x] nonzero."""
    U = [0] * len(T)
    for x, t in enumerate(T):
        if t:
            for y in adj[x]:
                U[y] |= t
    return U


@lru_cache(maxsize=256)
def _dense_tables(n: int, colors: int) -> tuple:
    """The masks of the packed layout for n vertices and colors 1..colors.

    They depend on nothing else, and building them costs as much as the
    whole search on a graph of 7 vertices, so they are kept per (n, colors).
    """
    width = n + 1
    blocks = 1 << colors
    R = _repeat(1, width, blocks)
    # full[i]: the n source bits in each of the first 2**i blocks.
    full = [(1 << n) - 1]
    for i in range(colors):
        full.append(_repeat(full[i], width << i, 2))
    # The blocks whose set lacks color j come in runs of 2**(j-1), on then
    # off, and adding j moves a block up by bit(j) blocks.
    by_color = (None,) + tuple(
        (_repeat(full[j - 1], width << j, blocks >> j), width << (j - 1))
        for j in range(1, colors + 1)
    )
    folds = tuple((width << i, (1 << (width << i)) - 1) for i in reversed(range(colors)))
    return R, full[colors], R << n, by_color, folds


def _dense_levels(c: VertexColoring, adj: tuple, seeds: list) -> tuple:
    """The two steps of the verification search over one packed int per vertex.

    With K the largest color, ``T[x]`` holds the level's states at x in
    2**K blocks of n+1 bits: block M, bits M*(n+1) to M*(n+1) + n - 1, is
    the source bitset of (x, M), with color j on bit j-1 of M.  The top bit
    of each block is a guard that stays zero.  The storage is ``U[y]``, the
    OR of ``T[x]`` over the neighbours x with live states, which costs one
    big-int OR per edge (:func:`_spread`); level 1 puts ``seeds[x]`` in
    block {c(x)}.

    - ``grow`` makes the next ``T[y]``: it keeps the blocks of ``U[y]``
      whose set lacks c(y), moves block M to block M | bit(c(y)) by a left
      shift of bit(c(y)) blocks, and keeps the active sources in every block
      (``active * R``, R holding bit 0 of every block); then it spreads T.
    - ``serve`` clears from ``missing[y]`` the sources in any block of
      ``U[y]``, found by folding the upper half of the blocks onto the lower
      half K times.

    ORing two tables merges the states of each color set, as the dict
    merges equal keys, so the tables hold exactly the dict's states.  A
    block is a live state when it is nonzero.  Adding L, the n source
    bits of every block, carries exactly those blocks into their guard bit
    (H) without touching the next block, so ``((t + L) & H).bit_count()``
    counts the states at a vertex.
    """
    n = len(adj)
    width = n + 1
    R, L, H, by_color, folds = _dense_tables(n, max(c.colors))
    move = [by_color[col] for col in c.colors]
    U = _spread(adj, [s << (width << (col - 1)) for s, col in zip(seeds, c.colors)])

    def grow(active: int) -> int:
        nonlocal U
        keep = active * R
        grown = 0
        for y, u in enumerate(U):
            if u:
                lack, shift = move[y]
                u = (u & lack) << shift & keep
                if u:
                    grown += ((u + L) & H).bit_count()
                U[y] = u
        U = _spread(adj, U)
        return grown

    def serve(missing: list) -> int:
        active = 0
        for y, m in enumerate(missing):
            if m:
                u = U[y]
                for half, lower in folds:
                    u = u >> half | u & lower
                m &= ~u
                missing[y] = m
                active |= m
        return active

    return grow, serve


def _sparse_levels(c: VertexColoring, adj: tuple, seeds: list) -> tuple:
    """The two steps of the verification search over a dict of live states.

    A state key packs (x, M) as M << shift | x.  Moving to a neighbour y
    ORs step[y] = bit(y) << shift | y into M << shift, and their AND is
    nonzero exactly when the color of y is already in M.  ``grow`` replaces
    the frontier by the next level's states from the active sources;
    ``serve`` clears from ``missing[y]`` the sources of the states at y's
    neighbours.
    """
    n = len(adj)
    shift = n.bit_length()
    low = (1 << shift) - 1
    step = [b << shift | y for y, b in enumerate(_color_bits(c))]
    moves = [[step[y] for y in ys] for ys in adj]
    frontier = {step[y]: s for y, s in enumerate(seeds) if s}

    def grow(active: int) -> int:
        nonlocal frontier
        grown = defaultdict(int)
        for key, sources in frontier.items():
            sources &= active
            if sources:
                x = key & low
                mask = key ^ x
                for t in moves[x]:
                    if not mask & t:
                        grown[mask | t] |= sources
        frontier = grown
        return len(grown)

    def serve(missing: list) -> int:
        reach = [0] * n
        for key, sources in frontier.items():
            reach[key & low] |= sources
        active = 0
        for y, m in enumerate(missing):
            if m:
                served = 0
                for x in adj[y]:
                    served |= reach[x]
                m &= ~served
                missing[y] = m
                active |= m
        return active

    return grow, serve


def first_unserved_pair(g: Graph, c: VertexColoring, p: PairSet | None = None) -> tuple | None:
    """The least pair of p without a rainbow path under c, or None.

    With p None every vertex pair is checked, which is defined only for
    connected graphs.  A disconnected graph always leaves a pair across two
    components unserved, so connectivity is tested only after a no.  All
    pairs are checked in one search from all sources
    (:func:`_serve_from_all_sources`); the least pair is then read off the
    bitsets of the requested sources each vertex still lacks.
    """
    check_total_coloring(g, c)
    if p is None:
        missing = [(1 << b) - 1 for b in range(g.n)]
    else:
        p.check_in_range(g)
        missing = [0] * g.n
        for a, b in p.pairs:
            missing[b] |= 1 << a
    _serve_from_all_sources(g, c, missing)
    # The least source still missing at y is its lowest set bit.
    unserved = min(
        (((m & -m).bit_length() - 1, y) for y, m in enumerate(missing) if m), default=None
    )
    if unserved is not None and p is None and not is_connected(g):
        raise ValueError("rainbow vertex-connection is defined for connected graphs")
    return unserved


def is_subset_rainbow_vc(g: Graph, c: VertexColoring, p: PairSet) -> bool:
    """True when every requested pair has a rainbow path under c."""
    return first_unserved_pair(g, c, p) is None


def is_rainbow_vertex_connected(g: Graph, c: VertexColoring) -> bool:
    """True when every vertex pair has a rainbow path under c."""
    return first_unserved_pair(g, c) is None
