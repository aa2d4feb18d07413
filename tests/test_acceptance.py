"""Acceptance suite: the headline guarantees, one test per guarantee.

Each test prints a single PASS/FAIL line (past pytest's capture) so a full
run reads as a checklist.  Scales and time limits are fixed here on purpose;
loosening them is a behavior change, not a tweak.
"""

import time
from itertools import combinations

from oracles import oracle_pair_mask_table

from rvckit.families import connected_graphs_of_order, cycle_graph, path_graph
from rvckit.gadgets import build_gadget, project_coloring
from rvckit.graphs import diameter, is_complete, pair_set
from rvckit.harness import (
    check_lift_validity,
    check_nonpair_distances,
    check_pair_distances,
    check_pendant_equivalence,
    corrupt_base_cut,
    corrupt_shortcut,
    corrupt_unhook,
    run_suite,
)
from rvckit.rainbow import (
    is_rainbow_vertex_connected,
    is_subset_rainbow_vc,
    path_budget,
    search_stats,
)
from rvckit.solver import decide_rvc_le_k, decide_subset_rvc, rvc_exact

_sweep_cache = {}


def rvc_sweep_upto_six():
    """(graph, rvc) over all connected graphs with n <= 6, computed once."""
    if "six" not in _sweep_cache:
        values = []
        for n in range(1, 7):
            for g in connected_graphs_of_order(n):
                values.append((g, rvc_exact(g)[0]))
        _sweep_cache["six"] = values
    return _sweep_cache["six"]


def announce(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_color_count_characterizations_up_to_six(capsys):
    t0 = time.perf_counter()
    bad = []
    for g, value in rvc_sweep_upto_six():
        d = diameter(g)
        if (value == 0) != is_complete(g):
            bad.append((g, value, "zero means complete"))
        if (value == 1) != (d == 2):
            bad.append((g, value, "one means diameter two"))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 120
    announce(
        capsys,
        "accept 01",
        ok,
        f"rvc 0/1 characterizations over {len(rvc_sweep_upto_six())} graphs, {dt:.1f}s",
    )
    assert not bad, bad[:3]
    assert dt < 120


def test_diameter_and_order_bounds_up_to_six(capsys):
    bad = []
    for g, value in rvc_sweep_upto_six():
        d = diameter(g)
        if not (d - 1 <= value <= max(g.n - 2, 0)):
            bad.append((g, value, d))
    ok = not bad
    announce(
        capsys,
        "accept 02",
        ok,
        f"diam-1 <= rvc <= n-2 over {len(rvc_sweep_upto_six())} graphs, 0 violations"
        if ok
        else f"{len(bad)} violations",
    )
    assert not bad, bad[:3]


def test_path_graphs_need_all_internals(capsys):
    t0 = time.perf_counter()
    values = {n: rvc_exact(path_graph(n))[0] for n in range(3, 8)}
    dt = time.perf_counter() - t0
    ok = all(values[n] == n - 2 for n in values) and dt < 10
    announce(capsys, "accept 03", ok, f"rvc(P_n) = n-2 for n in 3..7, {dt:.1f}s")
    assert values == {n: n - 2 for n in range(3, 8)}
    assert dt < 10


def test_pendant_instances_mirror_three_colorability(capsys):
    t0 = time.perf_counter()
    reports = []
    for n in range(1, 6):
        for g in connected_graphs_of_order(n):
            reports.append(check_pendant_equivalence(g, 3))
    dt = time.perf_counter() - t0
    bad = [r for r in reports if r.status != "pass"]
    ok = not bad and dt < 300
    announce(
        capsys,
        "accept 04",
        ok,
        f"3-colorability equals pendant-pair decision on {len(reports)} graphs, {dt:.1f}s",
    )
    assert not bad, bad[:3]
    assert dt < 300


def test_gadget_detour_distances(capsys):
    t0 = time.perf_counter()
    reports = run_suite("distances")
    dt = time.perf_counter() - t0
    bad = [r for r in reports if r.status != "pass"]
    ok = not bad and dt < 300
    announce(
        capsys,
        "accept 05",
        ok,
        f"requested >= k+2 and others == k+1 across {len(reports)} checks, {dt:.1f}s",
    )
    assert not bad, bad[:3]
    assert dt < 300


def test_short_paths_stay_in_the_base_layer(capsys):
    t0 = time.perf_counter()
    reports = run_suite("confinement")
    dt = time.perf_counter() - t0
    bad = [r for r in reports if r.status != "pass"]
    ok = not bad and dt < 300
    announce(
        capsys,
        "accept 06",
        ok,
        f"length <= k+1 confinement across {len(reports)} checks, {dt:.1f}s",
    )
    assert not bad, bad[:3]
    assert dt < 300


def test_lifted_witnesses_rainbow_connect_gadgets(capsys):
    t0 = time.perf_counter()
    reports = run_suite("lift")
    dt = time.perf_counter() - t0
    bad = [r for r in reports if r.status == "fail"]
    lifted = [r for r in reports if r.status == "pass"]
    ok = not bad and len(lifted) > 0
    announce(
        capsys,
        "accept 07",
        ok,
        f"every witness lift verified, {len(lifted)} lifts, 0 failures, {dt:.1f}s",
    )
    assert not bad, bad[:3]
    assert lifted


def test_level_two_equivalence_on_fixed_instances(capsys):
    c5 = cycle_graph(5)
    p5 = path_graph(5)
    p3 = path_graph(3)
    fixtures = [
        (c5, pair_set(combinations(range(5), 2)), True),
        (p5, pair_set(combinations(range(5), 2)), False),
        (p3, pair_set([(0, 2)]), True),
    ]
    times = []
    for g, p, expected in fixtures:
        t0 = time.perf_counter()
        gg = build_gadget(g, p, 2)
        assert gg.graph.n <= 16
        lhs = decide_subset_rvc(g, p, 2)
        rhs = decide_rvc_le_k(gg.graph, 2)
        dt = time.perf_counter() - t0
        times.append(dt)
        assert lhs.decision == rhs.decision == expected, (g, expected)
        if rhs.decision:
            back = project_coloring(gg, rhs.witness)
            assert is_subset_rainbow_vc(g, back, p)
        assert dt < 300
    ok = True
    announce(
        capsys,
        "accept 08",
        ok,
        "level-2 equivalence: yes/no/yes as expected, "
        + ", ".join(f"{t:.1f}s" for t in times),
    )


def test_search_expansion_budget_never_exceeded(capsys):
    # Cumulative first: everything the earlier tests ran stayed in budget.
    assert search_stats.violations == 0
    calls_before = search_stats.calls

    # Then a measured demonstration on one concrete search.
    search_stats.reset()
    g = cycle_graph(6)
    res = decide_rvc_le_k(g, 2)
    assert res.decision
    assert is_rainbow_vertex_connected(g, res.witness)
    demo_calls = search_stats.calls
    demo_max = search_stats.max_expansions
    ok = (
        search_stats.violations == 0
        and demo_calls > 0
        and demo_max <= path_budget(6, 2)
    )
    announce(
        capsys,
        "accept 09",
        ok,
        f"expansions within budget: {calls_before} prior calls clean, "
        f"demo max {demo_max} <= {path_budget(6, 2)}",
    )
    assert ok


def test_solver_agrees_with_full_enumeration(capsys):
    t0 = time.perf_counter()
    total = 0
    mismatches = []
    for n in range(2, 6):
        for g in connected_graphs_of_order(n):
            for k in (1, 2, 3):
                pairs, sat = oracle_pair_mask_table(g, k)
                nbits = len(pairs)
                for bits in range(1 << nbits):
                    p = pair_set(pairs[i] for i in range(nbits) if bits >> i & 1)
                    got = decide_subset_rvc(g, p, k).decision
                    total += 1
                    if got != sat[bits]:
                        mismatches.append((g, sorted(p), k))
    dt = time.perf_counter() - t0
    ok = not mismatches
    announce(
        capsys,
        "accept 10",
        ok,
        f"pruned solver equals coloring enumeration on {total} instances, {dt:.1f}s",
    )
    assert not mismatches, mismatches[:3]


def test_checks_catch_seeded_corruptions(capsys):
    g = path_graph(3)
    p = pair_set([(0, 1)])
    caught = []
    for k in (2, 3):
        gg = build_gadget(g, p, k)
        caught.append(check_pair_distances(corrupt_shortcut(gg)).status == "fail")
        caught.append(check_nonpair_distances(corrupt_unhook(gg)).status == "fail")
        witness = decide_subset_rvc(g, p, k).witness
        caught.append(check_lift_validity(corrupt_base_cut(gg), witness).status == "fail")
    ok = all(caught)
    announce(
        capsys,
        "accept 11",
        ok,
        f"{sum(caught)}/6 corruptions caught across k in {{2, 3}}",
    )
    assert ok, caught
