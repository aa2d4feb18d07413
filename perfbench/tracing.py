"""Spans around the public functions of each rvckit layer.

rvckit modules import each other's functions by name, so a wrapper only
takes effect where it replaces the attribute the caller looks up.
``install`` therefore swaps the function in every rvckit module that holds
it, except ``simple_paths``, which is traced only where the solver calls it.

Spans stay in memory as lists [name, parent, start, end, busy, info].  A
span's busy time is end - start, except for the generator ``simple_paths``,
whose span is charged only the time spent inside its ``next()`` calls.  A
span's self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "L1": ("is_rainbow_vertex_connected", "is_subset_rainbow_vc", "exists_rainbow_path"),
    "L2": ("simple_paths",),
    "L3": ("decide_subset_rvc", "decide_rvc_le_k", "rvc_exact", "chromatic_decision"),
    "L4": ("build_gadget", "lift_coloring", "project_coloring"),
    "L5": ("run_suite", "run_check", "connected_graphs", "cli_main"),
}

HOME = {
    "rvckit.rainbow": LAYERS["L1"],
    "rvckit.graphs": LAYERS["L2"],
    "rvckit.solver": LAYERS["L3"],
    "rvckit.gadgets": LAYERS["L4"],
    "rvckit.harness": ("run_suite", "run_check"),
    "rvckit.families": ("connected_graphs",),
    "rvckit.cli": ("cli_main",),
}

CALLERS = (
    "rvckit",
    "rvckit.rainbow",
    "rvckit.solver",
    "rvckit.gadgets",
    "rvckit.families",
    "rvckit.harness",
    "rvckit.cli",
)

CHECKS = (
    "pair-distance",
    "nonpair-distance",
    "confinement",
    "lift-validity",
    "equivalence",
    "pendant-equivalence",
)


def _said_no(args, kwargs, result):
    return 0 if result else 1


INFO = {
    "is_rainbow_vertex_connected": _said_no,
    "is_subset_rainbow_vc": _said_no,
    "exists_rainbow_path": _said_no,
    "decide_subset_rvc": lambda a, kw, r: (r.decision, r.nodes_explored),
    "chromatic_decision": lambda a, kw, r: r.nodes_explored,
    "build_gadget": lambda a, kw, r: r.graph.n,
    "run_check": lambda a, kw, r: a[0] if a else kw["check"],
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[2], span[3], span[4] = start, end, end - start
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, None, 0.0, 0.0, 0]
            spans.append(span)
            gen = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    if span[2] is None:
                        span[2] = start
                    span[3] = end
                    span[4] += end - start
                span[5] += 1
                yield item

        return traced

    def write(self, path) -> None:
        """One span per line: index, parent, name, start, end, busy."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, busy, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start or 0.0:.9f},{end:.9f},{busy:.9f}\n")


def install() -> Tracer:
    """Wrap every traced function wherever an rvckit module refers to it."""
    tracer = Tracer()
    callers = [importlib.import_module(m) for m in CALLERS]
    for home, names in HOME.items():
        module = importlib.import_module(home)
        for name in names:
            original = getattr(module, name)
            if name == "simple_paths":
                wrapper = tracer.wrap_generator(name, original)
                targets = [importlib.import_module("rvckit.solver")]
            else:
                wrapper = tracer.wrap(name, original)
                targets = [module] + callers
            for m in targets:
                if getattr(m, name, None) is original:
                    setattr(m, name, wrapper)
    return tracer


def layer_metrics(spans: list, tail: dict) -> dict:
    """Per-layer counts and self times from the spans of one run.

    ``tail`` maps a tail instance name to (nodes, seconds) for the tail
    workload; every other workload passes an empty dict.
    """
    child_busy = [0.0] * len(spans)
    for _, parent, _, _, busy, _ in spans:
        if parent >= 0:
            child_busy[parent] += busy
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    check_calls: Counter = Counter()
    check_self: dict = defaultdict(float)
    rvc_steps = l1_no = nodes = no_decisions = chromatic_nodes = paths = vertices = 0
    for i, (name, parent, _, _, busy, info) in enumerate(spans):
        own = busy - child_busy[i]
        self_s[name] += own
        calls[name] += 1
        if info is None:  # the call raised, or its span carries no detail
            continue
        if name in LAYERS["L1"]:
            l1_no += info
        elif name == "simple_paths":
            paths += info
        elif name == "decide_subset_rvc":
            no_decisions += not info[0]
            nodes += info[1]
        elif name == "chromatic_decision":
            chromatic_nodes += info
        elif name == "decide_rvc_le_k" and parent >= 0 and spans[parent][0] == "rvc_exact":
            rvc_steps += 1
        elif name == "build_gadget":
            vertices += info
        elif name == "run_check":
            check_calls[info] += 1
            check_self[info] += own

    def layer_self(layer):
        return sum(self_s[n] for n in LAYERS[layer])

    verify_calls = sum(calls[n] for n in LAYERS["L1"])
    search_s = layer_self("L3")
    out = {
        "rainbow.verify_s": layer_self("L1"),
        "rainbow.verify_calls": verify_calls,
        "rainbow.no_ratio": l1_no / verify_calls if verify_calls else 0.0,
        "solver.paths_enumerated": paths,
        "solver.enumerate_s": layer_self("L2"),
        "solver.decisions": calls["decide_subset_rvc"],
        "solver.nodes": nodes,
        "solver.search_s": search_s,
        "solver.nodes_per_s": (nodes + chromatic_nodes) / search_s if search_s else 0.0,
        "solver.no_ratio": no_decisions / calls["decide_subset_rvc"] if calls["decide_subset_rvc"] else 0.0,
        "solver.rvc_steps": rvc_steps / calls["rvc_exact"] if calls["rvc_exact"] else 0.0,
        "chromatic.nodes": chromatic_nodes,
        "gadgets.build_calls": calls["build_gadget"],
        "gadgets.build_s": self_s["build_gadget"],
        "gadgets.vertices_built": vertices,
        "gadgets.lift_s": self_s["lift_coloring"],
        "gadgets.project_s": self_s["project_coloring"],
        "harness.suite_s": self_s["run_suite"],
        "families.catalog_calls": calls["connected_graphs"],
        "families.catalog_s": self_s["connected_graphs"],
        "cli.self_s": self_s["cli_main"],
    }
    for check in CHECKS:
        out[f"harness.checks.{check}"] = check_calls[check]
        out[f"harness.{check}_s"] = check_self[check]
    for name, (nodes, seconds) in tail.items():
        out[f"tail.{name}.nodes"], out[f"tail.{name}.s"] = nodes, seconds
    return out
