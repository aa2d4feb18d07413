"""Executable checks for the reduction constructions, with seeded corruptions.

Every check returns a ClaimReport rather than raising: sweeps over hundreds
of instances want to keep going and aggregate.  A failing report always
carries a concrete counterexample that can be re-checked by hand from the
instance description.

Each gadget check takes the gadget it inspects, so a corrupted gadget is
checked like a built one, and its report names the source instance the
gadget records.  A gadget object formats that text once (``gg.instance``),
and both distance checks of one gadget object read one table,
``gg.stripped_rows``: the BFS rows of the gadget without its base edges,
built on first use.  ``CHECKS`` names each check once and maps it to a
function of the source instance (g, p, k); ``run_check`` looks the name up
there.  ``_full_jobs`` lists the (check, g, p, k) jobs of the full sweep,
and each suite of ``SUITES`` is a filter of that list, so every suite keeps
the full sweep's order.  ``run_suite`` is the one runner: it passes the jobs
of ``suite_jobs`` to ``run_check``.

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
    describe_instance,
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


@lru_cache(maxsize=256)
def _cached_gadget(g: Graph, p: PairSet, k: int) -> GadgetGraph:
    return build_gadget(g, p, k)


def _distance_report(gg: GadgetGraph, check: str, pairs, holds, expected: str) -> ClaimReport:
    """Fail on the first base pair whose distance without base edges fails ``holds``.

    The distances are read off ``gg.stripped_rows``, which one gadget object
    computes once for both distance checks; INFINITY where b is unreachable.
    """
    s = gg.base[0]
    for a, b in pairs:
        d = gg.stripped_rows[a - s][b]
        d = INFINITY if d is None else d
        if not holds(d):
            return ClaimReport(
                check, gg.instance, "fail", f"pair ({a}, {b}) at distance {d}, expected {expected}"
            )
    return ClaimReport(check, gg.instance, "pass")


def check_pair_distances(gg: GadgetGraph) -> ClaimReport:
    """Requested base pairs sit at distance >= k+2 once base edges are removed."""
    bound = gg.k + 2
    return _distance_report(gg, "pair-distance", gg.pairs_k, lambda d: d >= bound, f">= {bound}")


def check_nonpair_distances(gg: GadgetGraph) -> ClaimReport:
    """Non-requested base pairs sit at distance exactly k+1 without base edges."""
    want = gg.k + 1
    pairs = [(gg.base[i], gg.base[j]) for i, j in nonrequested_pairs(gg.source.n, gg.pairs)]
    return _distance_report(gg, "nonpair-distance", pairs, lambda d: d == want, f"exactly {want}")


def check_path_confinement(gg: GadgetGraph) -> ClaimReport:
    """Short paths between requested base pairs never leave the base layer."""
    s = gg.base[0]
    for a, b in gg.pairs_k:
        for path in simple_paths(gg.graph, a, b, gg.k + 1):
            if any(v < s for v in path):
                return ClaimReport(
                    "confinement",
                    gg.instance,
                    "fail",
                    f"path {list(path)} between ({a}, {b}) leaves the base layer",
                )
    return ClaimReport("confinement", gg.instance, "pass")


def check_lift_validity(gg: GadgetGraph, witness: VertexColoring | None) -> ClaimReport:
    """A source witness coloring, lifted onto the gadget, rainbow-connects it.

    ``witness`` colors the source graph the gadget was built from; None means
    the source instance has no witness at all, and the check is skipped.
    """
    if witness is None:
        return ClaimReport("lift-validity", gg.instance, "skip", "no witness coloring exists")
    unserved = first_unserved_pair(gg.graph, lift_coloring(gg, witness))
    if unserved is None:
        return ClaimReport("lift-validity", gg.instance, "pass")
    return ClaimReport(
        "lift-validity",
        gg.instance,
        "fail",
        f"lifted coloring leaves pair {unserved} without a rainbow path",
    )


def check_reduction_equivalence(g: Graph, p: PairSet, k: int) -> ClaimReport:
    """The gadget needs k colors exactly when (g, p) does.

    The gadget side is decided by exhaustive search over its own colorings.
    On a yes the gadget witness must project back to a coloring that serves
    (g, p).
    """
    gg = _cached_gadget(g, p, k)
    instance = gg.instance
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
    """Proper k-colorability matches the pendant subset instance, k >= 3.

    On a yes the subset witness, restricted to g (the slice
    ``pendant_project`` returns), must give every edge of g two colors:
    Lemma 1's direction from a pendant witness to a proper coloring.
    """
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
    if rhs.decision:
        colors = rhs.witness.colors[: g.n]
        for u, v in sorted(g.edges):
            if colors[u] == colors[v]:
                return ClaimReport(
                    "pendant-equivalence",
                    instance,
                    "fail",
                    f"subset witness restricted to the source gives edge ({u}, {v}) one color",
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
            for y in gg.graph.adjacency[x]
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


CHECKS = {
    "pair-distance": lambda g, p, k: check_pair_distances(_cached_gadget(g, p, k)),
    "nonpair-distance": lambda g, p, k: check_nonpair_distances(_cached_gadget(g, p, k)),
    "confinement": lambda g, p, k: check_path_confinement(_cached_gadget(g, p, k)),
    "lift-validity": lambda g, p, k: check_lift_validity(
        _cached_gadget(g, p, k), decide_subset_rvc(g, p, k).witness
    ),
    "equivalence": check_reduction_equivalence,
    "pendant-equivalence": lambda g, p, k: check_pendant_equivalence(g, k),
}


def run_check(check: str, g: Graph, p: PairSet | None, k: int) -> ClaimReport:
    """Run one named check of ``CHECKS`` on one instance."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {', '.join(CHECKS)}")
    return CHECKS[check](g, p, k)


def gadget_sweep_instances(max_n: int, ks) -> list:
    """Every connected graph up to max_n, every pair subset, every level in ks."""
    out = []
    for g in connected_graphs(max_n):
        for p in all_pair_sets(g):
            for k in ks:
                out.append((g, p, k))
    return out


def _full_jobs() -> list:
    """The (check, g, p, k) jobs of the full sweep, in order.

    First the gadget checks over the n <= 4 sweep at levels 2..5, with
    confinement at k <= 3 only.  Each instance's checks sit back to back, so
    the gadget the first one builds is still in the cache for the rest.  Then
    level-2 equivalence on three instances whose gadgets stay within
    exhaustive reach, and pendant equivalence at k = 3 for n <= 5.
    """
    jobs = []
    for g, p, k in gadget_sweep_instances(4, (2, 3, 4, 5)):
        for check in ("pair-distance", "nonpair-distance", "confinement", "lift-validity"):
            if check != "confinement" or k <= 3:
                jobs.append((check, g, p, k))
    every = pair_set(combinations(range(5), 2))
    fixtures = [
        (cycle_graph(5), every),
        (path_graph(5), every),
        (path_graph(3), pair_set([(0, 2)])),
    ]
    jobs += [("equivalence", g, p, 2) for g, p in fixtures]
    jobs += [("pendant-equivalence", g, None, 3) for g in connected_graphs(5)]
    return jobs


def _core(check: str, g: Graph, k: int) -> bool:
    """The smoke pass: every equivalence job, pendants with n <= 4, gadgets with n <= 3.

    Of the gadget checks, lift-validity runs only at k <= 3.
    """
    if check == "equivalence":
        return True
    if check == "pendant-equivalence":
        return g.n <= 4
    return g.n <= 3 and (check != "lift-validity" or k <= 3)


SUITES = {
    "core": _core,
    "full": lambda check, g, k: True,
    "distances": lambda check, g, k: check in ("pair-distance", "nonpair-distance"),
    "confinement": lambda check, g, k: check == "confinement",
    "lift": lambda check, g, k: check == "lift-validity",
    "equivalence": lambda check, g, k: check == "equivalence",
    "pendant": lambda check, g, k: check == "pendant-equivalence",
}


def suite_jobs(name: str) -> list:
    """The jobs of ``_full_jobs`` that the named suite of ``SUITES`` keeps, in order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    keep = SUITES[name]
    return [job for job in _full_jobs() if keep(job[0], job[1], job[3])]


def run_suite(name: str, jobs: int = 1) -> list:
    """Run a named suite and return its reports, sorted.

    Checks run over a process pool when jobs > 1.  The serial path looks
    ``run_check`` up in this module on every job, so a wrapper installed on
    the module attribute sees each check.
    """
    # type() rather than isinstance(): True would run serially as 1.
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int of at least 1, got {jobs!r}")
    work = suite_jobs(name)
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            reports = pool.starmap(run_check, work, chunksize=16)
    else:
        reports = [run_check(*job) for job in work]
    return sorted(reports, key=lambda r: (r.check, r.instance, r.status))
