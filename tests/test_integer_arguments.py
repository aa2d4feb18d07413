"""Every order, budget, level and job count is checked by ``graphs.check_int``.

Each entry point below takes one integer argument with a lower bound.  A
bool, a float or a value one below the bound must be refused where it
enters, with the one message form ``<name> must be an int of at least <lo>,
got <x!r>``.
"""

import re

import pytest

from rvckit.families import complete_graph, cycle_graph, path_graph, star_graph
from rvckit.gadgets import build_gadget
from rvckit.graphs import Graph, VertexColoring, check_int, pair_set
from rvckit.harness import run_suite
from rvckit.rainbow import path_budget
from rvckit.solver import chromatic_decision, decide_rvc_le_k, decide_subset_rvc

P4 = path_graph(4)
ENDS = pair_set([(0, 3)])

# (id, call, name, lo): call(x) passes x as the checked argument.
SITES = [
    ("Graph", lambda x: Graph(x, []), "graph order", 1),
    ("VertexColoring", lambda x: VertexColoring((1,), x), "color budget", 1),
    ("path_budget-n", lambda x: path_budget(x, 1), "n", 1),
    ("path_budget-k", lambda x: path_budget(3, x), "k", 0),
    ("decide_subset_rvc", lambda x: decide_subset_rvc(P4, ENDS, x), "k", 1),
    ("decide_rvc_le_k", lambda x: decide_rvc_le_k(P4, x), "k", 0),
    ("chromatic_decision", lambda x: chromatic_decision(P4, x), "k", 1),
    ("build_gadget", lambda x: build_gadget(P4, ENDS, x), "gadget level", 2),
    ("run_suite", lambda x: run_suite("core", jobs=x), "jobs", 1),
    ("path_graph", path_graph, "order", 1),
    ("complete_graph", complete_graph, "order", 1),
    ("cycle_graph", cycle_graph, "cycle order", 3),
    ("star_graph", star_graph, "leaf count", 0),
]

CASES = [
    pytest.param(call, name, lo, x, id=f"{site}-{kind}")
    for site, call, name, lo in SITES
    for kind, x in (("bool", True), ("float", float(lo)), ("below", lo - 1))
]


@pytest.mark.parametrize("call, name, lo, x", CASES)
def test_each_site_refuses_with_the_one_message(call, name, lo, x):
    message = f"{name} must be an int of at least {lo}, got {x!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(x)


@pytest.mark.parametrize("x, lo", [(0, 0), (3, 2), (2**80, 1)])
def test_check_int_accepts_an_int_at_or_above_the_bound(x, lo):
    assert check_int("x", x, lo) is None


@pytest.mark.parametrize(
    "x, lo, shown",
    [
        (True, 0, "True"),
        (False, 0, "False"),
        (2.0, 1, "2.0"),
        ("3", 1, "'3'"),
        (None, 0, "None"),
        (-1, 0, "-1"),
    ],
)
def test_check_int_refuses_anything_else(x, lo, shown):
    with pytest.raises(ValueError) as info:
        check_int("size", x, lo)
    assert str(info.value) == f"size must be an int of at least {lo}, got {shown}"
