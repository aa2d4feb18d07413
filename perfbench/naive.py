"""Independent answers the benchmark trusts instead of the solver.

Nothing here imports rvckit: graphs arrive as (n, edge list) and colorings
as plain tuples, so a fault in rvckit.rainbow or rvckit.solver cannot hide
itself by agreeing with its own checker.  The searches are the plainest ones
that stay affordable on the benchmark's inputs.
"""

from __future__ import annotations

from collections import deque


def adjacency(n: int, edges) -> list:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def diameter(adj: list) -> int:
    """Largest BFS distance; the graph must be connected."""
    worst = 0
    for s in range(len(adj)):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if len(dist) != len(adj):
            raise ValueError("graph is not connected")
        worst = max(worst, max(dist.values()))
    return worst


def rainbow_reach(adj: list, colors, source: int) -> set:
    """Vertices joined to source by a path whose internal colors are distinct.

    Depth-first over (last vertex, internal colors used): distinct internal
    colors force distinct internal vertices, and the source is never
    re-entered, so every state is a simple path prefix.
    """
    reached = set()
    start = (source, frozenset())
    stack = [start]
    seen = {start}
    while stack:
        x, used = stack.pop()
        for y in adj[x]:
            if y == source:
                continue
            reached.add(y)
            if colors[y] in used:
                continue
            state = (y, used | {colors[y]})
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return reached


def serves_pairs(adj: list, colors, pairs) -> bool:
    """True when every (u, v) in pairs has a rainbow path under colors."""
    by_source: dict = {}
    for u, v in pairs:
        by_source.setdefault(u, set()).add(v)
    return all(targets <= rainbow_reach(adj, colors, u) for u, targets in by_source.items())


def is_rainbow_connected(adj: list, colors) -> bool:
    n = len(adj)
    return all(len(rainbow_reach(adj, colors, s)) == n - 1 for s in range(n))


def is_rainbow_path(adj: list, colors, u: int, v: int, path) -> bool:
    """True when path is a simple u-v path in adj with distinct internal colors."""
    path = tuple(path)
    if len(path) < 2 or path[0] != u or path[-1] != v or len(set(path)) != len(path):
        return False
    if any(b not in adj[a] for a, b in zip(path, path[1:])):
        return False
    internal = [colors[x] for x in path[1:-1]]
    return len(set(internal)) == len(internal)


def _partitions(n: int, blocks: int):
    """Colorings of 0..n-1 with at most `blocks` colors, one per renaming class."""
    colors = [0] * n

    def grow(i: int, used: int):
        if i == n:
            yield tuple(colors)
            return
        for c in range(min(used + 1, blocks)):
            colors[i] = c
            yield from grow(i + 1, max(used, c + 1))

    if n and blocks:
        yield from grow(0, 0)


def brute_force_rvc(n: int, edges) -> int:
    """Smallest k such that some k-coloring rainbow-connects the graph."""
    adj = adjacency(n, edges)
    if all(len(a) == n - 1 for a in adj):
        return 0
    k = 1
    while not any(is_rainbow_connected(adj, c) for c in _partitions(n, k)):
        k += 1
    return k
