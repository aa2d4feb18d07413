"""Executable checks for the reduction constructions, with seeded corruptions.

Every check returns a ClaimReport rather than raising: sweeps over hundreds
of instances want to keep going and aggregate.  A failing report always
carries a concrete counterexample that can be re-checked by hand from the
instance description.

Each gadget check takes the gadget it inspects, so a corrupted gadget is
checked like a built one, and its report names the source instance the
gadget records.  ``run_suite`` is the one runner: it passes the
(check, g, p, k) jobs of ``suite_jobs`` to ``run_check``, which builds what
each named check takes from the source instance.

The corruption helpers exist so the checks themselves stay honest: each check
must fail when the gadget it inspects is broken in a targeted way, otherwise
it is testing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

from .families import all_pair_sets, connected_graphs, cycle_graph, path_graph
from .gadgets import (
    GadgetGraph,
    build_gadget,
    label_level,
    lift_coloring,
    nonrequested_pairs,
    pendant_reduction,
    project_coloring,
)
from .graphs import (
    INFINITY,
    Graph,
    PairSet,
    VertexColoring,
    adjacency_distances,
    graph_from_edges,
    normalize_pair,
    pair_set,
    remove_edges,
    simple_paths,
)
from .rainbow import first_unserved_pair, is_subset_rainbow_vc
from .solver import chromatic_decision, decide_subset_rvc, decide_rvc_le_k


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one check on one instance."""

    check: str
    instance: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def describe_instance(g: Graph, p: PairSet | None, k: int) -> str:
    ptxt = "-" if p is None else str(list(p))
    return f"n={g.n} edges={sorted(g.edges)} P={ptxt} k={k}"


@lru_cache(maxsize=256)
def _cached_gadget(g: Graph, p: PairSet, k: int) -> GadgetGraph:
    return build_gadget(g, p, k)


def _stripped_distance(gg: GadgetGraph):
    """Distances in the gadget once its base edges are removed.

    Returns ``dist(a, b)``, INFINITY when b is unreachable from a.  The
    neighbour tuples of the graph are shared, except that each base vertex
    gets a filtered list without its base neighbours; each source gets one
    BFS row, computed on first use.
    """
    adj = list(gg.graph.adjacency)
    s = gg.base[0]
    for x in gg.base:
        adj[x] = [y for y in adj[x] if y < s]
    rows = {}

    def dist(a: int, b: int):
        row = rows.get(a)
        if row is None:
            row = rows[a] = adjacency_distances(adj, a)
        d = row[b]
        return INFINITY if d is None else d

    return dist


def check_pair_distances(gg: GadgetGraph) -> ClaimReport:
    """Requested base pairs sit at distance >= k+2 once base edges are removed."""
    instance = describe_instance(gg.source, gg.pairs, gg.k)
    dist = _stripped_distance(gg)
    bound = gg.k + 2
    for a, b in gg.pairs_k:
        d = dist(a, b)
        if d < bound:
            return ClaimReport(
                "pair-distance",
                instance,
                "fail",
                f"pair ({a}, {b}) at distance {d}, expected >= {bound}",
            )
    return ClaimReport("pair-distance", instance, "pass")


def check_nonpair_distances(gg: GadgetGraph) -> ClaimReport:
    """Non-requested base pairs sit at distance exactly k+1 without base edges."""
    instance = describe_instance(gg.source, gg.pairs, gg.k)
    dist = _stripped_distance(gg)
    want = gg.k + 1
    for i, j in nonrequested_pairs(gg.source.n, gg.pairs):
        a, b = gg.base[i], gg.base[j]
        d = dist(a, b)
        if d != want:
            return ClaimReport(
                "nonpair-distance",
                instance,
                "fail",
                f"pair ({a}, {b}) at distance {d}, expected exactly {want}",
            )
    return ClaimReport("nonpair-distance", instance, "pass")


def check_path_confinement(gg: GadgetGraph) -> ClaimReport:
    """Short paths between requested base pairs never leave the base layer."""
    instance = describe_instance(gg.source, gg.pairs, gg.k)
    s = gg.base[0]
    for a, b in gg.pairs_k:
        for path in simple_paths(gg.graph, a, b, gg.k + 1):
            if any(v < s for v in path):
                return ClaimReport(
                    "confinement",
                    instance,
                    "fail",
                    f"path {list(path)} between ({a}, {b}) leaves the base layer",
                )
    return ClaimReport("confinement", instance, "pass")


def check_lift_validity(gg: GadgetGraph, witness: VertexColoring | None) -> ClaimReport:
    """A source witness coloring, lifted onto the gadget, rainbow-connects it.

    ``witness`` colors the source graph the gadget was built from; None means
    the source instance has no witness at all, and the check is skipped.
    """
    instance = describe_instance(gg.source, gg.pairs, gg.k)
    if witness is None:
        return ClaimReport("lift-validity", instance, "skip", "no witness coloring exists")
    unserved = first_unserved_pair(gg.graph, lift_coloring(gg, witness))
    if unserved is None:
        return ClaimReport("lift-validity", instance, "pass")
    return ClaimReport(
        "lift-validity",
        instance,
        "fail",
        f"lifted coloring leaves pair {unserved} without a rainbow path",
    )


def check_reduction_equivalence(g: Graph, p: PairSet, k: int) -> ClaimReport:
    """The gadget needs k colors exactly when (g, p) does.

    The gadget side is decided by exhaustive search over its own colorings.
    On a yes the gadget witness must project back to a coloring that serves
    (g, p).
    """
    instance = describe_instance(g, p, k)
    gg = _cached_gadget(g, p, k)
    lhs = decide_subset_rvc(g, p, k)
    rhs = decide_rvc_le_k(gg.graph, k)
    if lhs.decision != rhs.decision:
        return ClaimReport(
            "equivalence",
            instance,
            "fail",
            f"subset decision {lhs.decision} but gadget decision {rhs.decision}",
        )
    if rhs.decision:
        projected = project_coloring(gg, rhs.witness)
        if not is_subset_rainbow_vc(g, projected, p):
            return ClaimReport(
                "equivalence", instance, "fail", "gadget witness projects to a failing coloring"
            )
    return ClaimReport("equivalence", instance, "pass")


def check_pendant_equivalence(g: Graph, k: int) -> ClaimReport:
    """Proper k-colorability matches the pendant subset instance, k >= 3."""
    if k < 3:
        raise ValueError("pendant equivalence holds for k >= 3")
    instance = describe_instance(g, None, k)
    inst = pendant_reduction(g)
    lhs = chromatic_decision(g, k)
    rhs = decide_subset_rvc(inst.graph, inst.pairs, k)
    if lhs.decision != rhs.decision:
        return ClaimReport(
            "pendant-equivalence",
            instance,
            "fail",
            f"chromatic decision {lhs.decision} but subset decision {rhs.decision}",
        )
    return ClaimReport("pendant-equivalence", instance, "pass")


# ---------------------------------------------------------------------------
# Seeded corruptions: targeted ways to break a gadget.


def corrupt_shortcut(gg: GadgetGraph) -> GadgetGraph | None:
    """Add an edge that undercuts the detour of the first requested pair."""
    pairs = list(gg.pairs)
    if not pairs:
        return None
    i, j = pairs[0]
    b = gg.base[j]
    rung = gg.labels.index(("v", i, gg.k - 2, 1))
    edges = set(gg.graph.edges)
    edges.add(normalize_pair(rung, b))
    return replace(gg, graph=graph_from_edges(gg.graph.n, edges))


def corrupt_unhook(gg: GadgetGraph) -> GadgetGraph | None:
    """Detach the shortcut rung of the first non-requested pair from the levels above it."""
    nonpairs = nonrequested_pairs(gg.source.n, gg.pairs)
    if not nonpairs:
        return None
    i, j = nonpairs[0]
    drop = []
    for a in (1, 2):
        x = gg.labels.index(("w", i, j, a))
        level = label_level(gg.labels[x], gg.k)
        drop += [
            (x, y)
            for y in gg.graph.neighbors(x)
            if label_level(gg.labels[y], gg.k) > level
        ]
    return replace(gg, graph=remove_edges(gg.graph, drop))


def corrupt_base_cut(gg: GadgetGraph) -> GadgetGraph | None:
    """Remove a base edge whose endpoints form a requested pair.

    The cut does not always break lift-validity.  The lifted coloring still
    serves the cut pair when another rainbow path of length <= k+1 joins it
    through the base, and then the check passes.  On the n <= 3 gadget sweep
    at levels 2 and 3 that happens for 14 of the 28 cut gadgets.
    """
    for e in sorted(gg.base_edges):
        if e in gg.pairs_k:
            return replace(gg, graph=remove_edges(gg.graph, [e]))
    return None


# ---------------------------------------------------------------------------
# Sweeps


_CHECKS = (
    "pair-distance",
    "nonpair-distance",
    "confinement",
    "lift-validity",
    "equivalence",
    "pendant-equivalence",
)


def run_check(check: str, g: Graph, p: PairSet | None, k: int) -> ClaimReport:
    """Run one named check on one instance."""
    gadget_checks = {
        "pair-distance": check_pair_distances,
        "nonpair-distance": check_nonpair_distances,
        "confinement": check_path_confinement,
    }
    if check in gadget_checks:
        return gadget_checks[check](_cached_gadget(g, p, k))
    if check == "lift-validity":
        witness = decide_subset_rvc(g, p, k).witness
        return check_lift_validity(_cached_gadget(g, p, k), witness)
    if check == "equivalence":
        return check_reduction_equivalence(g, p, k)
    if check == "pendant-equivalence":
        return check_pendant_equivalence(g, k)
    raise ValueError(f"unknown check {check!r}; expected one of {', '.join(_CHECKS)}")


def gadget_sweep_instances(max_n: int, ks) -> list:
    """Every connected graph up to max_n, every pair subset, every level in ks."""
    out = []
    for g in connected_graphs(max_n):
        for p in all_pair_sets(g):
            for k in ks:
                out.append((g, p, k))
    return out


def equivalence_fixture_instances() -> list:
    """Three small instances whose gadgets stay within exhaustive reach."""
    c5 = cycle_graph(5)
    p5 = path_graph(5)
    p3 = path_graph(3)
    return [
        (c5, pair_set(combinations(range(5), 2)), 2),
        (p5, pair_set(combinations(range(5), 2)), 2),
        (p3, pair_set([(0, 2)]), 2),
    ]


def pendant_sweep_instances(max_n: int) -> list:
    return [(g, None, 3) for g in connected_graphs(max_n)]


def _gadget_jobs(max_n: int, lift_max_k: int) -> list:
    """Distance, confinement and lift checks over the gadget sweep at levels 2..5.

    Each instance's checks sit back to back, so the gadget the first one
    builds is still in the cache for the rest.  Confinement runs at k <= 3
    and lift-validity at k <= lift_max_k.
    """
    jobs = []
    for g, p, k in gadget_sweep_instances(max_n, (2, 3, 4, 5)):
        jobs += [("pair-distance", g, p, k), ("nonpair-distance", g, p, k)]
        if k <= 3:
            jobs.append(("confinement", g, p, k))
        if k <= lift_max_k:
            jobs.append(("lift-validity", g, p, k))
    return jobs


def suite_jobs(name: str) -> list:
    """Instances and checks for a named sweep suite.

    Returns (check, g, p, k) tuples.  "core" is a fast smoke pass; "full" is
    the complete sweep the acceptance tests run.  The other suites are parts
    of "full": "distances", "confinement" and "lift" keep its gadget jobs of
    those checks, in order, and "equivalence" and "pendant" are its tail.
    """
    def expand(instances, check):
        return [(check, g, p, k) for g, p, k in instances]

    parts = {
        "distances": ("pair-distance", "nonpair-distance"),
        "confinement": ("confinement",),
        "lift": ("lift-validity",),
    }
    if name in parts:
        return [job for job in _gadget_jobs(4, lift_max_k=5) if job[0] in parts[name]]
    if name == "equivalence":
        return expand(equivalence_fixture_instances(), "equivalence")
    if name == "pendant":
        return expand(pendant_sweep_instances(5), "pendant-equivalence")
    if name == "core":
        return (
            _gadget_jobs(3, lift_max_k=3)
            + suite_jobs("equivalence")
            + expand(pendant_sweep_instances(4), "pendant-equivalence")
        )
    if name == "full":
        return _gadget_jobs(4, lift_max_k=5) + suite_jobs("equivalence") + suite_jobs("pendant")
    raise ValueError(f"unknown suite {name!r}")


SUITE_NAMES = ("core", "full", "distances", "confinement", "lift", "equivalence", "pendant")


def run_suite(name: str, jobs: int = 1) -> list:
    """Run a named suite and return its reports, sorted.

    Checks run over a process pool when jobs > 1.  The serial path looks
    ``run_check`` up in this module on every job, so a wrapper installed on
    the module attribute sees each check.
    """
    work = suite_jobs(name)
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            reports = pool.starmap(run_check, work, chunksize=16)
    else:
        reports = [run_check(*job) for job in work]
    return sorted(reports, key=lambda r: (r.check, r.instance, r.status))
