import hashlib
from collections import Counter
from itertools import combinations, permutations

import pytest

from strategies import all_vertex_pairs

from rvckit import harness
from rvckit.families import complete_graph, cycle_graph, path_graph
from rvckit import gadgets
from rvckit.gadgets import build_gadget, lift_coloring
from rvckit.graphs import VertexColoring, pair_set
from rvckit.harness import (
    CHECKS,
    SUITES,
    ClaimReport,
    check_lift_validity,
    check_nonpair_distances,
    check_pair_distances,
    check_path_confinement,
    check_pendant_equivalence,
    check_reduction_equivalence,
    corrupt_base_cut,
    corrupt_shortcut,
    corrupt_unhook,
    describe_instance,
    gadget_sweep_instances,
    run_check,
    run_suite,
    suite_jobs,
)
from rvckit.solver import SolveResult, decide_subset_rvc

P3 = path_graph(3)
P3_PAIR = pair_set([(0, 1)])

# Job count and sha256 of the "<check> <instance>" lines of each suite, in order.
SUITE_JOBS = {
    "core": (241, "275ef2ef9e353c060b98ecf499503e33b407a7612c0f747c5f6ad94a1d74c7ea"),
    "full": (5676, "20fe6766fabe3858c19df6711dd1430d984b775ac2636221d99c59ecacdc44be"),
    "distances": (3224, "14595b50dbfe71856da9e2e2223a1d9cd866fe6c4ee35516830da2fbf48bc022"),
    "confinement": (806, "82d0f8da7529ff4829e2871d67bbb6fbabf7e32072b6e946927d6cbbbdedb7ef"),
    "lift": (1612, "f2cbc9d7ebd3df27b4176e3b6a0417eeb4f00c41967141bdb52104977e45fadd"),
    "equivalence": (3, "0762e6f5397c4cf63cc57319c7d88c281ca003b83aeed67f6f9b832bf588339d"),
    "pendant": (31, "6043e66581dbc007bba5d415244cbfff1d0f1a68128a076424051ecf3c7e0d38"),
}

# One small passing instance per named check.
CHECK_INSTANCES = {
    "pair-distance": (P3, P3_PAIR, 2),
    "nonpair-distance": (P3, P3_PAIR, 2),
    "confinement": (P3, P3_PAIR, 2),
    "lift-validity": (P3, P3_PAIR, 2),
    "equivalence": (P3, pair_set([(0, 2)]), 2),
    "pendant-equivalence": (complete_graph(3), None, 3),
}


def small_gadget(k):
    return build_gadget(P3, P3_PAIR, k)


def least_unserved_pair(g, c):
    """Brute force: the least pair joined by no path with k distinct internal colors.

    A rainbow path has at most k internal vertices, so trying every sequence
    of at most k vertices stays small where enumerating all simple paths of
    a gadget does not.
    """
    for a, b in combinations(range(g.n), 2):
        inner_pool = [x for x in range(g.n) if x not in (a, b)]
        if not any(
            all(g.has_edge(x, y) for x, y in zip((a, *inner), (*inner, b)))
            and len({c.colors[x] for x in inner}) == len(inner)
            for r in range(c.k + 1)
            for inner in permutations(inner_pool, r)
        ):
            return a, b
    return None


class TestChecksOnHealthyGadgets:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_distance_checks_pass(self, k):
        gg = small_gadget(k)
        assert check_pair_distances(gg).status == "pass"
        assert check_nonpair_distances(gg).status == "pass"

    @pytest.mark.parametrize("k", [2, 3])
    def test_confinement_passes(self, k):
        assert check_path_confinement(small_gadget(k)).status == "pass"

    def test_lift_validity_passes(self):
        witness = decide_subset_rvc(P3, P3_PAIR, 2).witness
        assert check_lift_validity(small_gadget(2), witness).status == "pass"

    def test_lift_validity_skips_without_witness(self):
        r = check_lift_validity(small_gadget(2), None)
        instance = describe_instance(P3, P3_PAIR, 2)
        assert r == ClaimReport("lift-validity", instance, "skip", "no witness coloring exists")
        # Through the sweep: P5 with every pair requested needs more than 2 colors.
        g = path_graph(5)
        r = run_check("lift-validity", g, all_vertex_pairs(g), 2)
        assert r.status == "skip"
        assert r.instance == describe_instance(g, all_vertex_pairs(g), 2)
        assert r.detail == "no witness coloring exists"

    def test_equivalence_passes(self):
        assert check_reduction_equivalence(P3, pair_set([(0, 2)]), 2).status == "pass"

    def test_pendant_equivalence(self):
        assert check_pendant_equivalence(cycle_graph(5), 3).status == "pass"
        assert check_pendant_equivalence(complete_graph(4), 3).status == "pass"
        with pytest.raises(ValueError):
            check_pendant_equivalence(P3, 2)

    @pytest.mark.parametrize(
        "name, fake, check, detail",
        [
            (
                "decide_rvc_le_k",
                lambda g, k: SolveResult(False, None, 0),
                lambda: check_reduction_equivalence(P3, pair_set([(0, 2)]), 2),
                "subset decision True but gadget decision False",
            ),
            (
                "is_subset_rainbow_vc",
                lambda g, c, p: False,
                lambda: check_reduction_equivalence(P3, pair_set([(0, 2)]), 2),
                "gadget witness projects to a failing coloring",
            ),
            (
                "chromatic_decision",
                lambda g, k: SolveResult(False, None, 0),
                lambda: check_pendant_equivalence(cycle_graph(5), 3),
                "chromatic decision False but subset decision True",
            ),
            (
                "decide_subset_rvc",
                lambda g, p, k: SolveResult(True, VertexColoring((1,) * g.n, k), 0),
                lambda: check_pendant_equivalence(cycle_graph(5), 3),
                "subset witness restricted to the source gives edge (0, 1) one color",
            ),
        ],
        ids=["gadget-side", "projection", "chromatic-side", "pendant-witness"],
    )
    def test_equivalence_checks_report_a_disagreement(self, monkeypatch, name, fake, check, detail):
        # Each side is decided on its own, so making one side lie must fail
        # the check with the detail that names it.
        monkeypatch.setattr(harness, name, fake)
        r = check()
        assert (r.status, r.detail) == ("fail", detail)


class TestCorruptions:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_shortcut_breaks_pair_distance(self, k):
        bad = corrupt_shortcut(small_gadget(k))
        r = check_pair_distances(bad)
        assert r.status == "fail"
        assert "distance" in r.detail

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_unhook_breaks_nonpair_distance(self, k):
        bad = corrupt_unhook(small_gadget(k))
        r = check_nonpair_distances(bad)
        assert r.status == "fail"

    @pytest.mark.parametrize("corrupt", [corrupt_shortcut, corrupt_unhook])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_corrupted_graphs_carry_fresh_masks(self, corrupt, k):
        g = corrupt(small_gadget(k)).graph
        assert g.masks == tuple(sum(1 << y for y in nbrs) for nbrs in g.adjacency)

    @pytest.mark.parametrize("k", [2, 3])
    def test_base_cut_breaks_lift_validity(self, k):
        # Every base-cut gadget of the n <= 3 sweep at level k.  The cut does
        # not always break lift-validity: the cut pair may keep another
        # rainbow path through the base.  Status and detail must match the
        # brute force either way.
        statuses = Counter()
        for g, p, _ in gadget_sweep_instances(3, (k,)):
            bad = corrupt_base_cut(build_gadget(g, p, k))
            if bad is None:
                continue
            witness = decide_subset_rvc(g, p, k).witness
            r = check_lift_validity(bad, witness)
            ck = lift_coloring(bad, witness)
            least = least_unserved_pair(bad.graph, ck)
            if least is None:
                assert r.status == "pass"
            else:
                assert r.status == "fail"
                assert r.detail == f"lifted coloring leaves pair {least} without a rainbow path"
            statuses[r.status] += 1
        assert statuses == {"fail": 7, "pass": 7}

    def test_corruptions_need_material(self):
        g = complete_graph(3)
        full = build_gadget(g, all_vertex_pairs(g), 2)
        assert corrupt_unhook(full) is None  # every pair requested
        empty = build_gadget(g, pair_set([]), 2)
        assert corrupt_shortcut(empty) is None
        assert corrupt_base_cut(empty) is None

    @pytest.mark.parametrize("k", [2, 3])
    def test_reports_name_the_source_instance(self, k):
        # A corrupted gadget keeps its source and pairs, so every gadget
        # check names the instance the gadget was built from.
        want = describe_instance(P3, P3_PAIR, k)
        witness = decide_subset_rvc(P3, P3_PAIR, k).witness
        for gg in (small_gadget(k), corrupt_shortcut(small_gadget(k))):
            reports = [
                check_pair_distances(gg),
                check_nonpair_distances(gg),
                check_path_confinement(gg),
                check_lift_validity(gg, witness),
            ]
            assert {r.instance for r in reports} == {want}

    def test_corruption_does_not_mutate_the_original(self):
        gg = small_gadget(2)
        m = gg.graph.m
        corrupt_shortcut(gg)
        corrupt_unhook(gg)
        corrupt_base_cut(gg)
        assert gg.graph.m == m


class TestSharedGadgetWork:
    def test_distance_checks_share_one_bfs_per_source(self, monkeypatch):
        sources = []
        bfs = gadgets.adjacency_distances

        def counted_bfs(adj, s):
            sources.append(s)
            return bfs(adj, s)

        monkeypatch.setattr(gadgets, "adjacency_distances", counted_bfs)
        g, p = cycle_graph(4), pair_set([(0, 2)])
        gg = build_gadget(g, p, 3)
        assert check_pair_distances(gg).status == "pass"
        assert check_nonpair_distances(gg).status == "pass"
        # The pair (0, 2) reads from base copy 0; the non-requested pairs
        # (0, 1), (0, 3), (1, 2), (1, 3), (2, 3) from copies 0, 1 and 2.
        # Copy 0 serves both checks, yet gets one row.
        assert sources == list(gg.base[:3])
        # A corrupted copy is a new object: it builds its own 3 rows, so the
        # shortcut is seen although gg's rows were already computed.
        bad = corrupt_shortcut(gg)
        assert check_pair_distances(bad).status == "fail"
        assert len(sources) == 6
        assert check_pair_distances(gg).status == "pass"
        assert len(sources) == 6

    def test_instance_text_is_formatted_once_per_gadget(self, monkeypatch):
        calls = []
        describe = gadgets.describe_instance

        def counted_describe(g, p, k):
            calls.append((g, p, k))
            return describe(g, p, k)

        monkeypatch.setattr(gadgets, "describe_instance", counted_describe)
        gg = small_gadget(2)
        witness = decide_subset_rvc(P3, P3_PAIR, 2).witness
        for check in (check_pair_distances, check_nonpair_distances, check_path_confinement):
            check(gg)
        check_lift_validity(gg, witness)
        check_pair_distances(corrupt_shortcut(gg))
        assert calls == [(P3, P3_PAIR, 2)] * 2


class TestSweeps:
    def test_run_check_dispatches_by_name(self):
        r = run_check("pair-distance", P3, P3_PAIR, 2)
        assert r.check == "pair-distance" and r.status == "pass"
        with pytest.raises(ValueError) as err:
            run_check("no-such-check", P3, P3_PAIR, 2)
        assert str(err.value) == (
            "unknown check 'no-such-check'; expected one of pair-distance, nonpair-distance, "
            "confinement, lift-validity, equivalence, pendant-equivalence"
        )

    @pytest.mark.parametrize("check", CHECKS)
    def test_every_check_reports_under_its_name(self, check):
        g, p, k = CHECK_INSTANCES[check]
        assert run_check(check, g, p, k) == ClaimReport(check, describe_instance(g, p, k), "pass")

    def test_instance_description_is_reconstructible(self):
        text = describe_instance(P3, P3_PAIR, 4)
        assert text == "n=3 edges=[(0, 1), (1, 2)] P=[(0, 1)] k=4"

    def test_suites_are_named_and_nonempty(self):
        for name in SUITES:
            assert len(suite_jobs(name)) > 0
        with pytest.raises(ValueError):
            suite_jobs("bogus")

    @pytest.mark.parametrize("name", SUITES)
    def test_suite_jobs_are_pinned(self, name):
        jobs = suite_jobs(name)
        text = "".join(f"{check} {describe_instance(g, p, k)}\n" for check, g, p, k in jobs)
        assert (len(jobs), hashlib.sha256(text.encode()).hexdigest()) == SUITE_JOBS[name]

    @pytest.mark.parametrize("name", SUITES)
    def test_each_suite_is_an_in_order_filter_of_full(self, name):
        full = iter(suite_jobs("full"))
        assert all(job in full for job in suite_jobs(name))

    def test_full_suite_combines_the_five_suites(self):
        parts = ("distances", "confinement", "lift", "equivalence", "pendant")
        want = Counter(job for name in parts for job in suite_jobs(name))
        assert Counter(suite_jobs("full")) == want

    @pytest.mark.parametrize("name", ["core", "full"])
    def test_each_gadget_instance_has_its_checks_back_to_back(self, name):
        runs = []
        for check, g, p, k in suite_jobs(name):
            if check in ("equivalence", "pendant-equivalence"):
                continue
            if not runs or runs[-1] != (g, p, k):
                runs.append((g, p, k))
        assert len(runs) == len(set(runs))

    def test_core_suite_builds_each_gadget_once(self, monkeypatch):
        calls = Counter()
        inner = harness.build_gadget

        def counting_build(g, p, k):
            calls[(g, p, k)] += 1
            return inner(g, p, k)

        monkeypatch.setattr(harness, "build_gadget", counting_build)
        harness._cached_gadget.cache_clear()
        try:
            run_suite("core")
        finally:
            harness._cached_gadget.cache_clear()
        distinct = {(g, p, k) for check, g, p, k in suite_jobs("core") if check != "pendant-equivalence"}
        assert set(calls) == distinct
        assert set(calls.values()) == {1}

    def test_core_suite_is_green(self):
        reports = run_suite("core")
        assert reports
        assert all(r.status == "pass" for r in reports)
        keys = [(r.check, r.instance) for r in reports]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("jobs", [2.5, 0, True])
    def test_jobs_must_be_an_int_of_at_least_one(self, jobs):
        # Each is refused before any check runs or any worker starts; 0 and
        # True used to run serially, 2.5 to fail inside the pool.
        with pytest.raises(ValueError, match="jobs"):
            run_suite("core", jobs=jobs)

    def test_parallel_matches_serial(self):
        serial = run_suite("equivalence", jobs=1)
        parallel = run_suite("equivalence", jobs=2)
        assert serial == parallel
