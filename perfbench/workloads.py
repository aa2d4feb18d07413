"""The benchmark's workloads: inputs from a seed, a timed phase, checks.

Each workload is a class with three methods, called in one fresh
interpreter per repetition:

- ``setup(rk, seed)`` builds the inputs.  It is the part of ``setup_s``
  after the interpreter start and the rvckit import.
- ``run(rk, gauge)`` is the timed phase.  It returns one (seconds, result,
  search calls, search expansions, start time) record per operation, with
  the calls and expansions taken as a delta of ``rk.search_stats`` around
  the operation.  Between operations it lets the gauge sample the
  machine's speed; a run with ``--trace 1`` passes no gauge.
- ``check(rk, records, expected, full)`` counts the operations that failed
  and returns the counts that must repeat exactly between repetitions.
  ``full`` adds the expensive naive cross-checks; the first repetition of a
  run sets it.

All rvckit calls go through module attributes (``rk.rvc_exact``), so the
wrappers installed by tracing.py see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import random
import statistics
from itertools import combinations
from time import perf_counter

import naive

DEFAULT_SEED = 0


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Gauge:
    """Samples of the machine's current speed, taken between operations.

    A sample is the time of a fixed pure-Python search that shares no code
    with rvckit.  On a shared machine the speed of a CPU changes by up to
    1.5x in phases that last seconds, and the sample time changes with it,
    so an operation's time divided by the samples around it stays steady.
    """

    EVERY_S = 0.1
    NEAREST = 5

    def __init__(self):
        rng = random.Random(12345)
        edges = [(a, b) for a in range(24) for b in range(a + 1, 24) if rng.random() < 0.2]
        self.adj = naive.adjacency(24, edges)
        self.colors = [rng.randint(1, 7) for _ in range(24)]
        self.samples: list = []
        self.spent = 0.0
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        for v in range(6):
            naive.rainbow_reach(self.adj, self.colors, v)
        end = perf_counter()
        self.samples.append((start, end - start))
        self.spent += end - start
        self.last = end

    def tick(self) -> None:
        if perf_counter() - self.last >= self.EVERY_S:
            self.sample()

    def around(self, t: float) -> float:
        """Median sample time among the samples nearest to time t."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - t))[: self.NEAREST]
        return statistics.median(s[1] for s in nearest)


def run_timed(rk, items, call, gauge=None) -> list:
    """Time call(item) for each item; an exception is recorded as the result."""
    stats = rk.search_stats
    out = []
    for item in items:
        calls, expansions = stats.calls, stats.expansions
        start = perf_counter()
        try:
            result = call(item)
        except Exception as exc:  # a failed operation, counted by check()
            result = exc
        seconds = perf_counter() - start
        out.append((seconds, result, stats.calls - calls, stats.expansions - expansions, start))
        if gauge is not None:
            gauge.tick()
    return out


def catalog_digest(graphs) -> str:
    return digest([(g.n, sorted(g.edges)) for g in graphs])


def search_counts(records) -> dict:
    return {
        "rainbow.search_calls": sum(r[2] for r in records),
        "rainbow.expansions": sum(r[3] for r in records),
    }


def relabel(rk, g, perm):
    return rk.graph_from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


class Catalog:
    """rvc_exact on every connected graph with n <= 7, under seeded relabelings."""

    RELABELINGS = 12

    def setup(self, rk, seed):
        self.graphs = rk.families.connected_graphs(7)
        rng = random.Random(seed)
        self.items = []
        for _ in range(self.RELABELINGS):
            for i, g in enumerate(self.graphs):
                perm = list(range(g.n))
                rng.shuffle(perm)
                self.items.append((i, relabel(rk, g, perm)))

    def run(self, rk, gauge):
        return run_timed(rk, self.items, lambda item: rk.rvc_exact(item[1]), gauge)

    def check(self, rk, records, expected, full, inject=False):
        want = [int(ch) for ch in expected["rvc"]]
        notes = []
        if catalog_digest(self.graphs) != expected["catalog_sha256"]:
            return len(records), ["catalog enumeration changed"], {}
        if inject:
            want[0] += 1
        bad_graphs = set()
        if full:
            for i, g in enumerate(self.graphs):
                if g.n <= 5 and naive.brute_force_rvc(g.n, g.edges) != want[i]:
                    bad_graphs.add(i)
                    notes.append(f"graph {i}: brute force disagrees with the stored rvc")
        bounds = {}
        failed = 0
        answers = []
        corrupt = inject
        for (i, g), (_, result, _, _, _) in zip(self.items, records):
            if isinstance(result, Exception):
                failed += 1
                notes.append(f"graph {i}: {result!r}")
                answers.append(None)
                continue
            k, witness = result
            answers.append((k, None if witness is None else witness.colors))
            if i not in bounds:
                adj = naive.adjacency(g.n, g.edges)
                bounds[i] = (max(0, naive.diameter(adj) - 1), max(0, g.n - 2))
            lo, hi = bounds[i]
            problem = None
            if k != want[i] or not lo <= k <= hi or i in bad_graphs:
                problem = f"rvc {k}, expected {want[i]}, bounds {lo}..{hi}"
            elif full:
                if corrupt and k >= 2:
                    witness, corrupt = rk.VertexColoring((1,) * g.n, k), False
                if not self._witness_ok(g, k, witness):
                    problem = "witness rejected by the naive checker"
            if problem:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"graph {i} (n={g.n}): {problem}")
        counts = {"ops": len(records), "answers": digest(answers), **search_counts(records)}
        return failed, notes, counts

    @staticmethod
    def _witness_ok(g, k, witness):
        adj = naive.adjacency(g.n, g.edges)
        if k == 0:
            return witness is None and all(len(a) == g.n - 1 for a in adj)
        colors = witness.colors
        return (
            len(colors) == g.n
            and all(1 <= c <= k for c in colors)
            and naive.is_rainbow_connected(adj, colors)
        )


def gnp(rk, n, p):
    """The tail recipe: G(n, p) from random.Random(1), redrawn until connected."""
    rng = random.Random(1)
    while True:
        g = rk.graph_from_edges(n, [q for q in combinations(range(n), 2) if rng.random() < p])
        if rk.is_connected(g):
            return g


class Tail:
    """Four fixed hard decisions of rvc <= k.

    The seed does not touch these inputs.  Relabeling the vertices changes
    the solver's tie-breaks: g18_k4 then takes 64k to 257k nodes, and even a
    relabeling that keeps every node count moves g16_k6 between 3.5 s and
    6.5 s, so seeded relabelings would measure the labeling, not the code.
    """

    def setup(self, rk, seed):
        g16 = gnp(rk, 16, 0.18)
        g18 = gnp(rk, 18, 0.16)
        p4 = rk.build_gadget(rk.path_graph(4), rk.pair_set([(0, 3)]), 3).graph
        self.items = [("g16_k6", g16, 6), ("g18_k4", g18, 4), ("g16_k7", g16, 7), ("p4gadget_k3", p4, 3)]

    def run(self, rk, gauge):
        return run_timed(rk, self.items, lambda item: rk.decide_rvc_le_k(item[1], item[2]), gauge)

    def check(self, rk, records, expected, full, inject=False):
        failed = 0
        notes = []
        counts = search_counts(records)
        for (name, g, k), (_, result, _, _, _) in zip(self.items, records):
            want = expected[name]["decision"]
            if isinstance(result, Exception):
                failed += 1
                notes.append(f"{name}: {result!r}")
                continue
            counts[f"{name}.nodes"] = result.nodes_explored
            ok = result.decision == want
            if ok and want:
                c = result.witness.colors
                adj = naive.adjacency(g.n, g.edges)
                ok = len(c) == g.n and max(c) <= k and naive.is_rainbow_connected(adj, c)
            if not ok:
                failed += 1
                notes.append(f"{name}: decision {result.decision}, expected {want}")
        return failed, notes, counts

    def tail_layers(self, records) -> dict:
        return {
            name: (0 if isinstance(r, Exception) else r.nodes_explored, s)
            for (name, _, _), (s, r, _, _, _) in zip(self.items, records)
        }


class Sweep:
    """rvckit claims --suite full -o <report> through cli_main, stdout discarded."""

    ARGS = ("claims", "--suite", "full")

    def setup(self, rk, seed):
        self.cli = importlib.import_module("rvckit.cli")
        self.harness = importlib.import_module("rvckit.harness")
        self.report = os.path.join(os.environ["PERFBENCH_OUT"], f"sweep-{os.getpid()}.json")

    def run(self, rk, gauge):
        checks = []
        inner = self.harness.run_check

        def timed_check(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                checks.append((perf_counter() - start, None, 0, 0, start))
                if gauge is not None:
                    gauge.tick()

        self.harness.run_check = timed_check
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                [(_, self.rc, calls, expansions, _)] = run_timed(
                    rk, [None], lambda _: self.cli.cli_main([*self.ARGS, "-o", self.report])
                )
        finally:
            self.harness.run_check = inner
        self.search = {"rainbow.search_calls": calls, "rainbow.expansions": expansions}
        return checks

    def check(self, rk, records, expected, full, inject=False):
        if self.rc != 0 or not os.path.exists(self.report):
            return max(len(records), 1), [f"claims exited {self.rc!r}"], {}
        with open(self.report, encoding="utf-8") as fh:
            reports = json.load(fh)
        os.remove(self.report)
        keys = sorted(f"{r['check']}\t{r['instance']}" for r in reports)
        if len(reports) != expected["checks"] or digest(keys) != expected["keys_sha256"]:
            return len(records), [f"{len(reports)} checks, not the stored {expected['checks']}"], {}
        not_pass = expected["not_pass"]
        wrong = [r for r in reports if r["status"] != not_pass.get(f"{r['check']}\t{r['instance']}", "pass")]
        notes = [f"{r['check']} {r['instance']}: {r['status']} {r['detail']}" for r in wrong[:20]]
        if len(records) != len(reports):
            notes.append(f"timed {len(records)} checks but the report has {len(reports)}")
            wrong = reports
        statuses = digest(sorted(f"{r['status']}\t{r['check']}\t{r['instance']}" for r in reports))
        return len(wrong), notes, {"checks": len(reports), "statuses": statuses, **self.search}


class Verify:
    """Seeded random k-colorings of the lift suite's gadgets, checked three ways."""

    PATHS_PER_COLORING = 2

    def setup(self, rk, seed):
        instances = importlib.import_module("rvckit.harness").gadget_sweep_instances(4, (2, 3, 4, 5))
        self.gadgets = [rk.build_gadget(g, p, k) for g, p, k in instances]
        rng = random.Random(seed)
        self.colorings = [
            rk.VertexColoring(tuple(rng.randint(1, gg.k) for _ in range(gg.graph.n)), gg.k)
            for gg in self.gadgets
        ]
        rng = random.Random(f"{seed}-pairs")
        self.pairs = []
        for gg in self.gadgets:
            g = gg.graph
            far = [q for q in combinations(range(g.n), 2) if q not in g.edges]
            self.pairs.append(rng.sample(far, min(len(far), self.PATHS_PER_COLORING)))
        self.seed = seed

    def run(self, rk, gauge):
        def verify(item):
            gg, c, pairs = item
            g = gg.graph
            return (
                rk.is_rainbow_vertex_connected(g, c),
                rk.is_subset_rainbow_vc(g, c, gg.pairs_k),
                [rk.exists_rainbow_path(g, c, u, v) for u, v in pairs],
            )

        return run_timed(rk, list(zip(self.gadgets, self.colorings, self.pairs)), verify, gauge)

    def check(self, rk, records, expected, full, inject=False):
        stored = expected if self.seed == DEFAULT_SEED else None
        stored_paths = stored["paths"].split(",") if stored else None
        failed = 0
        notes = []
        verdicts = []
        for i, (gg, c, pairs, (_, result, _, _, _)) in enumerate(
            zip(self.gadgets, self.colorings, self.pairs, records)
        ):
            if isinstance(result, Exception):
                failed += 1
                notes.append(f"gadget {i}: {result!r}")
                verdicts.append(None)
                continue
            connected, served, paths = result
            got = (bool(connected), bool(served), [p is not None for p in paths])
            verdicts.append(got)
            adj = naive.adjacency(gg.graph.n, gg.graph.edges)
            ok = served or not connected
            for (u, v), path in zip(pairs, paths):
                if path is None:
                    ok = ok and not connected and v not in naive.rainbow_reach(adj, c.colors, u)
                else:
                    ok = ok and naive.is_rainbow_path(adj, c.colors, u, v, path.vertices)
            if stored is not None:
                ok = ok and got == (
                    stored["connected"][i] == "1",
                    stored["served"][i] == "1",
                    [b == "1" for b in stored_paths[i]],
                )
            if ok and full:
                ok = served == naive.serves_pairs(adj, c.colors, gg.pairs_k)
                if ok and i % 8 == self.seed % 8:
                    ok = connected == naive.is_rainbow_connected(adj, c.colors)
            if not ok:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"gadget {i} (k={gg.k}, n={gg.graph.n}): verdicts {got}")
        counts = {
            "ops": len(records),
            "verdicts": digest(verdicts),
            "connected": sum(bool(v and v[0]) for v in verdicts),
            **search_counts(records),
        }
        return failed, notes, counts


WORKLOADS = {"catalog": Catalog, "tail": Tail, "sweep": Sweep, "verify": Verify}
