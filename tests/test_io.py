import json

import pytest

from strategies import all_vertex_pairs

from rvckit.families import complete_graph, path_graph
from rvckit.gadgets import build_gadget, lift_coloring
from rvckit.graphs import coloring, pair_set
from rvckit.harness import gadget_sweep_instances
from rvckit.io import (
    InstanceFormatError,
    emit_dot,
    emit_gadget,
    emit_gadget_dot,
    emit_instance,
    label_text,
    parse_gadget,
    parse_instance,
)


class TestParseInstance:
    def test_minimal(self):
        g, pairs, col = parse_instance('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})
        assert pairs is None and col is None

    def test_full(self):
        text = (
            '{"n": 3, "edges": [[0, 1], [1, 2]],'
            ' "pairs": [[0, 2]], "coloring": [1, 2, 1], "k": 3}'
        )
        g, pairs, col = parse_instance(text)
        assert list(pairs) == [(0, 2)]
        assert col.colors == (1, 2, 1) and col.k == 3

    def test_budget_inferred_without_k(self):
        _, _, col = parse_instance('{"n": 2, "edges": [[0, 1]], "coloring": [2, 1]}')
        assert col.k == 2

    def test_k_is_checked_without_a_coloring(self):
        # solve -o writes "k": 0 when there is no witness coloring.
        _, _, col = parse_instance('{"n": 3, "edges": [[0, 1], [1, 2]], "k": 0}')
        assert col is None
        for k in ('"banana"', "-4", "true", "2.0", "null"):
            with pytest.raises(InstanceFormatError, match="field 'k' must be a non-negative"):
                parse_instance('{"n": 3, "edges": [[0, 1], [1, 2]], "k": %s}' % k)

    def test_empty_pairs_differ_from_absent(self):
        _, pairs, _ = parse_instance('{"n": 2, "edges": [[0, 1]], "pairs": []}')
        assert pairs is not None and len(pairs) == 0

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("not json", "invalid JSON at line 1"),
            ("[1, 2]", "must be a JSON object"),
            ('{"edges": []}', "'n'"),
            ('{"n": 0, "edges": []}', "'n'"),
            ('{"n": true, "edges": []}', "'n'"),
            ('{"n": 2}', "'edges'"),
            ('{"n": 2, "edges": [[0]]}', "edges[0]"),
            ('{"n": 2, "edges": [[0, 9]]}', "bad edge list"),
            ('{"n": 2, "edges": [[0, 0]]}', "bad edge list"),
            ('{"n": 4, "edges": [[0, true], [1, 2]]}', "edges[0]"),
            ('{"n": 2, "edges": [], "pairs": [[0, 0]]}', "bad pair list"),
            ('{"n": 3, "edges": [], "pairs": [[-1, 2]]}', "bad pair list"),
            ('{"n": 2, "edges": [], "pairs": [3]}', "pairs[0]"),
            ('{"n": 3, "edges": [], "pairs": [[false, 2]]}', "pairs[0]"),
            ('{"n": 2, "edges": [], "coloring": [1]}', "2 vertices"),
            ('{"n": 2, "edges": [], "coloring": [1, "x"]}', "list of integers"),
            ('{"n": 2, "edges": [], "coloring": [1, 5], "k": 2}', "bad coloring"),
        ],
    )
    def test_diagnostics(self, text, needle):
        with pytest.raises(InstanceFormatError, match=None) as err:
            parse_instance(text)
        assert needle in str(err.value)


class TestEmitInstance:
    def test_round_trip(self):
        g = path_graph(4)
        p = pair_set([(0, 3)])
        c = coloring([1, 2, 2, 1], k=2)
        g2, p2, c2 = parse_instance(emit_instance(g, pairs=p, coloring=c))
        assert (g2, p2, c2) == (g, p, c)

    def test_key_order_and_layout(self):
        text = emit_instance(path_graph(3), pairs=pair_set([]), k=2)
        assert text == '{\n  "n": 3,\n  "edges": [[0, 1], [1, 2]],\n  "pairs": [],\n  "k": 2\n}\n'

    def test_absent_keys_stay_absent(self):
        text = emit_instance(path_graph(3))
        assert '"pairs"' not in text and '"coloring"' not in text

    def test_deterministic(self):
        g = complete_graph(4)
        assert emit_instance(g) == emit_instance(g)

    def test_conflicting_budgets_rejected(self):
        with pytest.raises(ValueError):
            emit_instance(path_graph(2), coloring=coloring([1, 1], k=2), k=3)


class TestLabels:
    @pytest.mark.parametrize(
        "label,k,text",
        [
            (("hub",), 2, "u"),
            (("v", 0, 0, 1), 2, "v_{0,0}^{(1)}"),
            (("v", 2, 3, 2), 5, "v_{2,3}^{(2)}"),
            (("u", 0, 1, 2), 3, "u_{0,1}^{(2)}"),
            (("w", 1, 2, 1), 3, "w_{1,2}^{(1)}"),
            (("base", 4), 3, "v_{4,3}"),
        ],
    )
    def test_text_and_parse_are_inverse(self, label, k, text):
        assert label_text(label, k) == text

    def test_parse_rejects_garbage(self):
        text = emit_gadget(build_gadget(path_graph(3), pair_set([(0, 2)]), 2))
        assert text.count('"v_{0,0}^{(1)}"') == 1 and text.count('"v_{0,2}"') == 1
        with pytest.raises(InstanceFormatError):
            parse_gadget(text.replace('"v_{0,0}^{(1)}"', '"x_{0,0}"'))
        with pytest.raises(InstanceFormatError):
            parse_gadget(text.replace('"v_{0,2}"', '"v_{0,3}"'))  # base label at the wrong level


class TestGadgetFiles:
    def test_round_trip(self):
        g = path_graph(3)
        gg = build_gadget(g, pair_set([(0, 2)]), 3)
        assert parse_gadget(emit_gadget(gg)) == (gg, None)

    def test_round_trip_with_hub(self):
        g = complete_graph(3)
        gg = build_gadget(g, all_vertex_pairs(g), 2)
        assert parse_gadget(emit_gadget(gg)) == (gg, None)

    def test_reads_a_lifted_coloring(self):
        gg = build_gadget(path_graph(3), pair_set([(0, 2)]), 3)
        ck = lift_coloring(gg, coloring([1, 2, 1], k=3))
        assert parse_gadget(emit_gadget(gg, coloring=ck)) == (gg, ck)

    def test_rejects_a_repeated_base_label(self):
        # Vertex 13 is v_{2,2}; a second v_{1,2} leaves source vertex 2 unnamed.
        text = emit_gadget(build_gadget(path_graph(3), pair_set([(0, 2)]), 2))
        assert text.count('"v_{2,2}"') == 1
        with pytest.raises(InstanceFormatError, match="base labels"):
            parse_gadget(text.replace('"v_{2,2}"', '"v_{1,2}"'))

    def test_rejects_a_label_count_other_than_n(self):
        text = '{"n": 2, "edges": [[0, 1]], "pairs": [], "k": 2, "labels": ["v_{0,2}"]}'
        with pytest.raises(InstanceFormatError, match="1 labels for 2 vertices"):
            parse_gadget(text)

    def test_requires_gadget_keys(self):
        with pytest.raises(InstanceFormatError, match="pairs"):
            parse_gadget('{"n": 2, "edges": [[0, 1]], "k": 2, "labels": ["u", "u"]}')
        with pytest.raises(InstanceFormatError, match="'k'"):
            parse_gadget('{"n": 2, "edges": [[0, 1]], "pairs": [], "labels": ["u", "u"]}')
        with pytest.raises(InstanceFormatError, match="label"):
            parse_gadget('{"n": 2, "edges": [[0, 1]], "pairs": [], "k": 2}')

    def test_requires_contiguous_base(self):
        text = (
            '{"n": 2, "edges": [[0, 1]], "pairs": [], "k": 2,'
            ' "labels": ["v_{1,2}", "v_{2,2}"]}'
        )
        with pytest.raises(InstanceFormatError, match="base"):
            parse_gadget(text)



def lifted_p3() -> dict:
    """The P3 gadget at k = 3 for the pair (0, 2), with the lift of [1, 2, 1]."""
    gg = build_gadget(path_graph(3), pair_set([(0, 2)]), 3)
    return json.loads(emit_gadget(gg, coloring=lift_coloring(gg, coloring([1, 2, 1], k=3))))


def swap_vertex_0_and_last_base(obj):
    labels = obj["labels"]
    labels[0], labels[-1] = labels[-1], labels[0]


def all_hubs_but_one_base(obj):
    obj["labels"] = ["u"] * (obj["n"] - 1) + ["v_{0,3}"]


def pair_off_the_base(obj):
    obj["pairs"] = [[0, 1]] + obj["pairs"]


class TestGadgetFilesAreRebuilt:
    """A gadget file must be build_gadget of its own base layer, ids included."""

    def test_reads_the_unedited_file(self):
        gg, ck = parse_gadget(json.dumps(lifted_p3()))
        assert (gg.k, gg.source.n, ck.colors[-3:]) == (3, 3, (1, 2, 1))

    @pytest.mark.parametrize(
        "edit", [swap_vertex_0_and_last_base, all_hubs_but_one_base, pair_off_the_base]
    )
    def test_edited_files_are_rejected(self, edit):
        obj = lifted_p3()
        edit(obj)
        with pytest.raises(InstanceFormatError):
            parse_gadget(json.dumps(obj))

    def test_permuted_ids_are_rejected(self):
        # Reversed vertex ids give the same gadget up to isomorphism only.
        obj = lifted_p3()
        last = obj["n"] - 1
        obj["edges"] = sorted(sorted([last - u, last - v]) for u, v in obj["edges"])
        obj["pairs"] = [sorted([last - a, last - b]) for a, b in obj["pairs"]]
        obj["labels"].reverse()
        obj["coloring"].reverse()
        with pytest.raises(InstanceFormatError, match="not the level-3 gadget"):
            parse_gadget(json.dumps(obj))

    def test_a_file_too_small_for_its_level_is_never_rebuilt(self, monkeypatch):
        # At k = 10**9 a rebuild would not fit in memory; the size bound refuses it first.
        monkeypatch.setattr("rvckit.io.build_gadget", None)
        k = 10**9
        labels = [label_text(("base", 0), k), label_text(("base", 1), k)]
        obj = {"n": 2, "edges": [[0, 1]], "pairs": [], "k": k, "labels": labels}
        with pytest.raises(InstanceFormatError, match=f"not the level-{k} gadget"):
            parse_gadget(json.dumps(obj))

    def test_every_sweep_gadget_round_trips_and_a_label_swap_does_not(self):
        for g, p, k in gadget_sweep_instances(4, (2, 3, 4, 5)):
            gg = build_gadget(g, p, k)
            obj = json.loads(emit_gadget(gg))
            assert parse_gadget(json.dumps(obj)) == (gg, None)
            labels = obj["labels"]
            labels[0], labels[-1] = labels[-1], labels[0]
            with pytest.raises(InstanceFormatError):
                parse_gadget(json.dumps(obj))


class TestDot:
    def test_plain_graph(self):
        text = emit_dot(path_graph(3), pairs=pair_set([(0, 2)]))
        assert "graph G {" in text
        assert "  0 -- 1;" in text
        assert "0 -- 2 [style=dashed, color=red, constraint=false];" in text
        assert text == emit_dot(path_graph(3), pairs=pair_set([(0, 2)]))

    def test_gadget_rendering(self):
        g = complete_graph(3)
        gg = build_gadget(g, all_vertex_pairs(g), 2)
        text = emit_gadget_dot(gg)
        assert 'label="hub"' in text
        assert 'label="level 0"' in text
        assert 'label="level 2"' in text
        assert "shape=doublecircle" in text
        assert "[penwidth=2]" in text
        assert "style=dashed" in text
