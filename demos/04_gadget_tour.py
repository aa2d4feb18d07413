"""A tour of the layered gadgets behind the hardness reductions.

For a source graph with requested pairs, build_gadget(g, p, k) produces a
graph whose "is k colors enough for every pair" question encodes the
requested-pairs question on the source.  The base layer mirrors the source;
rungs of split vertices stack below it, level by level, and detours keep
requested base pairs far apart while every other base pair gets a shortcut.
"""

import tempfile
from pathlib import Path

from rvckit import (
    build_gadget,
    decide_subset_rvc,
    distance,
    emit_gadget,
    emit_gadget_dot,
    lift_coloring,
    is_rainbow_vertex_connected,
    pair_set,
    path_graph,
    project_coloring,
    remove_edges,
)
from rvckit.io import label_text

p3 = path_graph(3)
p = pair_set([(0, 2)])

# Sizes across levels: two fresh rows of vertices per level step.
for k in range(2, 8):
    gg = build_gadget(p3, p, k)
    print(f"level {k}: {gg.graph.n} vertices, {gg.graph.m} edges")

gg = build_gadget(p3, p, 2)
print("\nbase vertices:", gg.base)
print("labels:", [label_text(lab, gg.k) for lab in gg.labels])

# The distance split that drives the construction: strip the base edges and
# requested base pairs sit at distance >= k+2, all other base pairs at k+1.
stripped = remove_edges(gg.graph, gg.base_edges)
for i in range(3):
    for j in range(i + 1, 3):
        a, b = gg.base[i], gg.base[j]
        tag = "requested" if (a, b) in gg.pairs_k else "other"
        print(f"base pair ({i}, {j}) [{tag}]: detour distance {distance(stripped, a, b)}")

# A witness for the source lifts to rainbow-connect the whole gadget, and
# restricting the lift to the base recovers the witness.
res = decide_subset_rvc(p3, p, 2)
ck = lift_coloring(gg, res.witness)
print("\nlift rainbow-connects the gadget:", is_rainbow_vertex_connected(gg.graph, ck))
print("projected back:", list(project_coloring(gg, ck).colors))

# Files for inspection: the JSON instance and a Graphviz rendering.  Nothing
# is written to the working directory; the files stay in a fresh temporary
# directory, whose path is printed, until you remove it.
out_dir = Path(tempfile.mkdtemp(prefix="rvckit-gadget-"))
(out_dir / "gadget_p3_k2.json").write_text(emit_gadget(gg))
(out_dir / "gadget_p3_k2.dot").write_text(emit_gadget_dot(gg))
print(f"\nwrote gadget_p3_k2.json and gadget_p3_k2.dot to {out_dir} (render with: dot -Tsvg)")
