"""Regenerate the answers the benchmark checks against, in perfbench/expected/.

    python3 perfbench/make_expected.py [catalog] [tail] [sweep] [verify]

Each file records where its answers come from in a "provenance" field.
Answers that the naive checker (perfbench/naive.py) can afford to compute
come from it, and rvckit must agree; the rest come from rvckit and are
re-checked by the naive checker where a witness exists.  Run this only when
a workload's inputs change, never to make a failing run pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

from worker import ROOT, import_rvckit

import naive
import workloads

EXPECTED = Path(__file__).resolve().parent / "expected"


def catalog(rk) -> dict:
    graphs = rk.families.connected_graphs(7)
    rvc = []
    for i, g in enumerate(graphs):
        value = naive.brute_force_rvc(g.n, g.edges)
        if rk.rvc_exact(g)[0] != value:
            raise SystemExit(f"graph {i}: rvckit disagrees with brute force ({value})")
        rvc.append(str(value))
    return {
        "provenance": "rvc of each graph of rvckit.families.connected_graphs(7), in order, "
        "by naive.brute_force_rvc over every coloring up to renaming; rvckit.rvc_exact agrees",
        "catalog_sha256": workloads.catalog_digest(graphs),
        "rvc": "".join(rvc),
    }


def tail(rk) -> dict:
    t = workloads.Tail()
    t.setup(rk, workloads.DEFAULT_SEED)
    out = {
        "provenance": "decide_rvc_le_k on the fixed tail instances; yes witnesses re-checked by "
        "naive.py, no answers rest on the solver's exhaustive search. nodes is the node count "
        "at the commit that defined the benchmark, for reference; runs enforce only the decision"
    }
    for name, g, k in t.items:
        r = rk.decide_rvc_le_k(g, k)
        if r.decision and not naive.is_rainbow_connected(naive.adjacency(g.n, g.edges), r.witness.colors):
            raise SystemExit(f"{name}: witness rejected by the naive checker")
        out[name] = {"decision": r.decision, "nodes": r.nodes_explored, "n": g.n, "m": g.m, "k": k}
    return out


def sweep(rk) -> dict:
    cli = __import__("rvckit.cli").cli
    report = ROOT / ".perfbench_out" / "expected-sweep.json"
    report.parent.mkdir(exist_ok=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.cli_main([*workloads.Sweep.ARGS, "-o", str(report)])
    reports = json.loads(report.read_text(encoding="utf-8"))
    report.unlink()
    if code != 0:
        raise SystemExit(f"claims --suite full exited {code}")
    by_check: dict = {}
    for r in reports:
        by_check.setdefault(r["check"], {}).setdefault(r["status"], 0)
        by_check[r["check"]][r["status"]] += 1
    return {
        "provenance": "statuses of rvckit claims --suite full; every check passes, so not_pass "
        "lists the (check, instance) keys whose stored status is not 'pass'",
        "checks": len(reports),
        "by_check": by_check,
        "keys_sha256": workloads.digest(sorted(f"{r['check']}\t{r['instance']}" for r in reports)),
        "not_pass": {f"{r['check']}\t{r['instance']}": r["status"] for r in reports if r["status"] != "pass"},
    }


def verify(rk) -> dict:
    v = workloads.Verify()
    v.setup(rk, workloads.DEFAULT_SEED)
    connected, served, paths = [], [], []
    for gg, c, pairs in zip(v.gadgets, v.colorings, v.pairs):
        adj = naive.adjacency(gg.graph.n, gg.graph.edges)
        got = (
            naive.is_rainbow_connected(adj, c.colors),
            naive.serves_pairs(adj, c.colors, gg.pairs_k),
            [b in naive.rainbow_reach(adj, c.colors, a) for a, b in pairs],
        )
        mine = (
            rk.is_rainbow_vertex_connected(gg.graph, c),
            rk.is_subset_rainbow_vc(gg.graph, c, gg.pairs_k),
            [rk.exists_rainbow_path(gg.graph, c, a, b) is not None for a, b in pairs],
        )
        if got != mine:
            raise SystemExit(f"rvckit {mine} disagrees with the naive checker {got}")
        connected.append("01"[got[0]])
        served.append("01"[got[1]])
        paths.append("".join("01"[b] for b in got[2]))
    return {
        "provenance": "verdicts for the default seed's colorings and pairs, one character per "
        "gadget in lift-suite order, from naive.py; rvckit agrees",
        "connected": "".join(connected),
        "served": "".join(served),
        "paths": ",".join(paths),
    }


def main() -> int:
    rk = import_rvckit()
    makers = {"catalog": catalog, "tail": tail, "sweep": sweep, "verify": verify}
    for name in sys.argv[1:] or makers:
        data = makers[name](rk)
        (EXPECTED / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"wrote expected/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
