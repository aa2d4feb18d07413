"""JSON instance files and DOT export.

An instance file is a single JSON object with keys, in this order:

    n         vertex count (required)
    edges     sorted list of [u, v] with u < v (required)
    pairs     sorted list of requested [a, b] pairs (optional)
    coloring  list of n colors in 1..k (optional)
    k         color budget, or gadget level in gadget files (optional)
    labels    per-vertex label strings, gadget files only (optional)

``k`` is read by one parser for every file, coloring or not: when present
it must be an integer >= 0 (``solve -o`` writes ``"k": 0`` when there is
no witness coloring).  With a coloring it must be at least 1 and defaults
to the largest color; in a gadget file it is required and at least 2.

Emission is deterministic: fixed key order, sorted lists, two-space indent,
trailing newline.  ``pairs: []`` means "an explicitly empty pair set" and is
distinct from omitting the key.
"""

from __future__ import annotations

import json

from .gadgets import GadgetGraph, build_gadget, label_level
from .graphs import (
    Graph,
    PairSet,
    VertexColoring,
    graph_from_edges,
    pair_set,
)


class InstanceFormatError(ValueError):
    """Raised when an instance file cannot be parsed or fails validation."""


def _load_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance file must be a JSON object")
    return obj


def _is_int(x) -> bool:
    """True for JSON integers; json.loads turns true/false into bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_pair_list(raw, name: str) -> list:
    """Check a JSON list of [a, b] integer pairs and return it as tuples."""
    if not isinstance(raw, list):
        raise InstanceFormatError(f"field '{name}' must be a list of [a, b] pairs")
    out = []
    for idx, p in enumerate(raw):
        if not isinstance(p, list) or len(p) != 2 or not all(_is_int(x) for x in p):
            raise InstanceFormatError(f"{name}[{idx}] must be a two-integer list")
        out.append((p[0], p[1]))
    return out


def _parse_graph(obj: dict) -> Graph:
    n = obj.get("n")
    if not _is_int(n) or n < 1:
        raise InstanceFormatError("field 'n' must be a positive integer")
    edges = _parse_pair_list(obj.get("edges"), "edges")
    try:
        return graph_from_edges(n, edges)
    except ValueError as e:
        raise InstanceFormatError(f"bad edge list: {e}") from None


def _parse_pairs(obj: dict, g: Graph) -> PairSet | None:
    raw = obj.get("pairs")
    if raw is None:
        return None
    out = _parse_pair_list(raw, "pairs")
    try:
        ps = pair_set(out)
        ps.check_in_range(g)
    except ValueError as e:
        raise InstanceFormatError(f"bad pair list: {e}") from None
    return ps


def _parse_k(obj: dict) -> int | None:
    """The file's ``k`` as an int >= 0, or None when the key is absent."""
    if "k" not in obj:
        return None
    k = obj["k"]
    if not _is_int(k) or k < 0:
        raise InstanceFormatError("field 'k' must be a non-negative integer")
    return k


def _parse_coloring(obj: dict, g: Graph) -> VertexColoring | None:
    """The coloring, with budget ``k`` (at least 1; the largest color when absent), or None.

    ``k`` is checked whether or not a coloring is given.
    """
    k = _parse_k(obj)
    raw = obj.get("coloring")
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(_is_int(x) for x in raw):
        raise InstanceFormatError("field 'coloring' must be a list of integers")
    if len(raw) != g.n:
        raise InstanceFormatError(
            f"coloring has {len(raw)} entries, graph has {g.n} vertices"
        )
    k = max(raw) if k is None else k
    if k < 1:
        raise InstanceFormatError("field 'k' must be a positive integer")
    try:
        return VertexColoring(tuple(raw), k)
    except ValueError as e:
        raise InstanceFormatError(f"bad coloring: {e}") from None


def parse_instance(text: str):
    """Parse an instance file into (graph, pairs, coloring).

    ``pairs`` and ``coloring`` are None when the corresponding key is absent.
    """
    obj = _load_object(text)
    g = _parse_graph(obj)
    return g, _parse_pairs(obj, g), _parse_coloring(obj, g)


def emit_instance(
    g: Graph,
    pairs: PairSet | None = None,
    coloring: VertexColoring | None = None,
    k: int | None = None,
    labels=None,
) -> str:
    """Serialize an instance deterministically; see the module docstring."""
    if coloring is not None and k is not None and coloring.k != k:
        raise ValueError(f"coloring declares k={coloring.k} but k={k} was requested")
    obj: dict = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    if pairs is not None:
        obj["pairs"] = [list(p) for p in pairs]
    if coloring is not None:
        obj["coloring"] = list(coloring.colors)
        obj["k"] = coloring.k
    elif k is not None:
        obj["k"] = k
    if labels is not None:
        obj["labels"] = list(labels)
    lines = [f'  "{key}": {json.dumps(value)}' for key, value in obj.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


# ---------------------------------------------------------------------------
# Gadget files: instances plus per-vertex labels and the level k.


def label_text(label: tuple, k: int) -> str:
    """Human-readable form of a gadget vertex label."""
    kind = label[0]
    if kind == "hub":
        return "u"
    if kind == "base":
        return f"v_{{{label[1]},{k}}}"
    if kind == "v":
        _, i, lvl, a = label
        return f"v_{{{i},{lvl}}}^{{({a})}}"
    if kind in ("u", "w"):
        _, i, j, a = label
        return f"{kind}_{{{i},{j}}}^{{({a})}}"
    raise ValueError(f"unknown label {label!r}")


def emit_gadget(gg: GadgetGraph, coloring: VertexColoring | None = None) -> str:
    """Serialize a gadget, with a coloring of it (a lifted one, say) when given."""
    labels = [label_text(lab, gg.k) for lab in gg.labels]
    return emit_instance(gg.graph, gg.pairs_k, coloring, k=gg.k, labels=labels)


def parse_gadget(text: str) -> tuple[GadgetGraph, VertexColoring | None]:
    """Read a gadget file into (gadget, coloring): the gadget is rebuilt from its base layer.

    The source graph is read off the edges between base copies and the source
    pairs off ``pairs``; the file must equal ``build_gadget`` of them, ids
    included.  ``coloring`` is None without a ``coloring`` key and is read
    with the gadget level ``k`` as its budget.
    """
    obj = _load_object(text)
    g = _parse_graph(obj)
    pairs = _parse_pairs(obj, g)
    if pairs is None:
        raise InstanceFormatError("gadget file must carry a 'pairs' key")
    k = _parse_k(obj)
    if k is None or k < 2:
        raise InstanceFormatError("gadget file must carry an integer 'k' >= 2")
    labels = obj.get("labels")
    if not isinstance(labels, list):
        raise InstanceFormatError("gadget file must carry a list of vertex labels")
    if len(labels) != g.n:
        raise InstanceFormatError(f"bad gadget labels: {len(labels)} labels for {g.n} vertices")
    names = {label_text(("base", i), k): i for i in range(g.n)}
    index = {vid: names[s] for vid, s in enumerate(labels) if isinstance(s, str) and s in names}
    n = len(index)
    if not index or set(index.values()) != set(range(n)):
        raise InstanceFormatError(
            "bad gadget labels: base labels must name source vertices 0..n-1 once each"
        )
    if any(a not in index or b not in index for a, b in pairs):
        raise InstanceFormatError("every gadget pair must join two base copies")
    # A level-k gadget has k + 1 vertices per source vertex, a rung per
    # non-requested pair and, at odd k, a clique of level-0 rungs: a file
    # smaller than that is refused before a rebuild that could dwarf it.
    m = n * (n - 1) // 2 - len(pairs)
    not_gadget = f"file is not the level-{k} gadget of its base layer"
    if n * (k + 1) + 2 * m > g.n or k % 2 and (n + m) * (2 * n + 2 * m - 1) > g.m:
        raise InstanceFormatError(not_gadget)
    edges = ((index[u], index[v]) for u, v in g.edges if u in index and v in index)
    source_pairs = pair_set((index[a], index[b]) for a, b in pairs)
    try:
        gg = build_gadget(graph_from_edges(n, edges), source_pairs, k)
    except ValueError as e:
        raise InstanceFormatError(f"base layer admits no gadget: {e}") from None
    if (gg.graph, gg.pairs_k) != (g, pairs) or labels != [label_text(x, k) for x in gg.labels]:
        raise InstanceFormatError(not_gadget)
    return gg, _parse_coloring(obj, g)


def emit_gadget_dot(gg: GadgetGraph) -> str:
    """Render a gadget as Graphviz DOT text, clustered by level.

    Base vertices are doubled, base edges bold and requested pairs dashed red.
    """
    by_level: dict = {}
    for vid, lab in enumerate(gg.labels):
        by_level.setdefault(label_level(lab, gg.k), []).append(vid)
    lines = ["graph gadget {", "  node [shape=circle];"]
    for idx, lvl in enumerate(sorted(by_level)):
        name = "hub" if lvl < 0 else f"level {lvl}"
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="{name}";')
        for vid in sorted(by_level[lvl]):
            text = label_text(gg.labels[vid], gg.k)
            shape = ", shape=doublecircle" if gg.labels[vid][0] == "base" else ""
            lines.append(f'    {vid} [label="{text}"{shape}];')
        lines.append("  }")
    base_edges = gg.base_edges
    for u, v in sorted(gg.graph.edges):
        style = " [penwidth=2]" if (u, v) in base_edges else ""
        lines.append(f"  {u} -- {v}{style};")
    lines += _pair_edge_lines(gg.pairs_k)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def emit_dot(g: Graph, pairs: PairSet | None = None) -> str:
    """Render a graph as Graphviz DOT text, requested pairs dashed and red."""
    lines = ["graph G {", "  node [shape=circle];"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines += _pair_edge_lines(pairs)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _pair_edge_lines(pairs: PairSet | None) -> list:
    return [f"  {a} -- {b} [style=dashed, color=red, constraint=false];" for a, b in pairs or ()]
