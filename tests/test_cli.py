import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvckit import io as rvckit_io
from rvckit.cli import _field_arg, build_parser, cli_main
from rvckit.families import cycle_graph, path_graph
from rvckit.gadgets import build_gadget, lift_coloring
from rvckit.graphs import coloring, graph_from_edges, pair_set
from rvckit.harness import ClaimReport, run_suite
from rvckit.io import emit_gadget, emit_instance, parse_gadget, parse_instance
from test_io import (
    all_hubs_but_one_base,
    lifted_p3,
    pair_off_the_base,
    swap_vertex_0_and_last_base,
)

P5 = '{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}\n'
P3_WITH_PAIR = '{"n": 3, "edges": [[0, 1], [1, 2]], "pairs": [[0, 2]]}\n'
P5_WITH_PAIR = '{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "pairs": [[0, 2]]}\n'


def _arg(name, text, g):
    """The CLI's reading of --<name> given as text, with nothing from the file."""
    return _field_arg(argparse.Namespace(**{name: text}), name, g, None)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.json"
    path.write_text(P5)
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(P3_WITH_PAIR)
    return str(path)


class TestSolve:
    def test_prints_value_and_witness(self, p5_file, capsys):
        assert cli_main(["solve", "-i", p5_file]) == 0
        out = capsys.readouterr().out
        assert "rvc = 3" in out
        assert "coloring = [" in out

    def test_complete_graph_has_no_witness(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
        assert cli_main(["solve", "-i", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rvc = 0" in out and "coloring = none" in out
        # The -o file records k = 0 and carries no coloring.
        written = tmp_path / "k3-out.json"
        assert cli_main(["solve", "-i", str(path), "-o", str(written)]) == 0
        capsys.readouterr()
        assert json.loads(written.read_text()) == {
            "n": 3,
            "edges": [[0, 1], [0, 2], [1, 2]],
            "k": 0,
        }

    def test_out_file_round_trips(self, p5_file, tmp_path, capsys):
        out = tmp_path / "witness.json"
        assert cli_main(["solve", "-i", p5_file, "-o", str(out)]) == 0
        g, _, col = parse_instance(out.read_text())
        assert g.n == 5 and col is not None and col.k == 3


class TestDecide:
    def test_exit_codes_follow_the_answer(self, p5_file, capsys):
        assert cli_main(["decide", "-i", p5_file, "-k", "3"]) == 0
        assert "yes" in capsys.readouterr().out
        assert cli_main(["decide", "-i", p5_file, "-k", "2"]) == 1
        assert "no" in capsys.readouterr().out

    def test_expect_no_inverts(self, p5_file, capsys):
        assert cli_main(["decide", "-i", p5_file, "-k", "2", "--expect-no"]) == 0
        assert cli_main(["decide", "-i", p5_file, "-k", "3", "--expect-no"]) == 1
        capsys.readouterr()


class TestSubset:
    def test_pairs_from_file(self, p3_file, capsys):
        assert cli_main(["subset", "-i", p3_file, "-k", "1"]) == 0
        capsys.readouterr()

    def test_pairs_inline_override(self, p5_file, capsys):
        code = cli_main(["subset", "-i", p5_file, "-k", "2", "--pairs", "[[0, 4]]"])
        assert code == 1
        assert "no" in capsys.readouterr().out

    def test_missing_pairs_is_usage_error(self, p5_file, capsys):
        assert cli_main(["subset", "-i", p5_file, "-k", "2"]) == 2
        assert "pairs" in capsys.readouterr().err


class TestVerify:
    def test_accepts_good_coloring(self, p5_file, capsys):
        code = cli_main(
            ["verify", "-i", p5_file, "--coloring", "[1, 1, 2, 3, 1]"]
        )
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_rejects_bad_coloring(self, p5_file, capsys):
        code = cli_main(["verify", "-i", p5_file, "--coloring", "[1, 1, 1, 1, 1]"])
        assert code == 1
        assert capsys.readouterr().out == "no\nunserved pair: (0, 3)\n"

    def test_subset_scope(self, p5_file, capsys):
        code = cli_main(
            [
                "verify",
                "-i",
                p5_file,
                "--coloring",
                "[1, 1, 1, 1, 1]",
                "--pairs",
                "[[0, 2]]",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_missing_coloring_is_usage_error(self, p5_file, capsys):
        assert cli_main(["verify", "-i", p5_file]) == 2
        capsys.readouterr()

    def test_unparsable_inline_coloring_is_usage_error(self, p5_file, capsys):
        # "[1, 2" names no file, so it is read as JSON and cannot be.
        assert cli_main(["verify", "-i", p5_file, "--coloring", "[1, 2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expected a file path or inline JSON: ")

    @pytest.mark.parametrize("pairs", ["[[-1, 2]]", "[[0, true]]", '{"pairs": [[false, 2]]}'])
    def test_bad_vertex_ids_in_pairs_are_usage_errors(self, p5_file, pairs, capsys):
        code = cli_main(["verify", "-i", p5_file, "--pairs", pairs, "--coloring", "[1, 1, 1, 1, 1]"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ['"x"', "0", "true"])
    def test_invalid_declared_k_is_usage_error(self, p3_file, k, capsys):
        coloring = '{"coloring": [1, 1, 1], "k": %s}' % k
        assert cli_main(["verify", "-i", p3_file, "--coloring", coloring]) == 2
        assert "field 'k'" in capsys.readouterr().err

    def test_coloring_arg_keeps_a_declared_k(self):
        g = path_graph(3)
        assert _arg("coloring", '{"coloring": [1, 2, 1], "k": 3}', g).k == 3
        assert _arg("coloring", "[1, 2, 1]", g).k == 2

    def test_boolean_vertex_id_in_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"n": 4, "edges": [[0, true], [1, 2], [2, 3]], "coloring": [1, 1, 1, 1]}')
        assert cli_main(["verify", "-i", str(path)]) == 2
        assert "edges[0]" in capsys.readouterr().err

    def test_colors_far_above_n_are_verified(self, p5_file, capsys):
        # Only equal colors matter; a color's value never sizes an int.
        big = 2**72
        coloring = json.dumps({"coloring": [1, 3, 2, 1, big], "k": big})
        assert cli_main(["verify", "-i", p5_file, "--coloring", coloring]) == 0
        assert capsys.readouterr() == ("yes\n", "")


class TestArguments:
    @pytest.mark.parametrize(
        "command",
        [["subset", "-k", "1"], ["verify", "--coloring", "[1, 1, 1, 1, 1]"]],
        ids=["subset", "verify"],
    )
    @pytest.mark.parametrize(
        "content", ["[[0, 2]]\n", P5_WITH_PAIR], ids=["bare-list", "instance"]
    )
    def test_pairs_file_path_reads_like_inline(self, p5_file, tmp_path, command, content, capsys):
        # Without --pairs, subset has no pairs (exit 2) and verify checks
        # every pair (no), so the answer comes from the file.
        path = tmp_path / "pairs.json"
        path.write_text(content)

        def run(pairs):
            code = cli_main([command[0], "-i", p5_file, *command[1:], "--pairs", pairs])
            return code, capsys.readouterr()

        inline = run("[[0, 2]]")
        assert inline[0] == 0 and inline[1].out.startswith("yes\n")
        assert run(str(path)) == inline

    @pytest.mark.parametrize(
        "command",
        [["subset", "-k", "1"], ["verify", "--coloring", "[1, 1, 1]"]],
        ids=["subset", "verify"],
    )
    def test_pairs_file_with_a_malformed_k_exits_two(self, p3_file, tmp_path, command, capsys):
        # An instance file given as --pairs is checked for k as it is under -i.
        path = tmp_path / "badk.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]], "pairs": [[0, 2]], "k": "banana"}\n')
        assert cli_main([command[0], "-i", p3_file, *command[1:], "--pairs", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'k' must be a non-negative integer\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["subset", "-k", "1", "--pairs", "[[0, 2]]"], 1),
            (["subset", "-k", "1", "--pairs", "[[0, 3]]"], 0),
            (["verify", "--coloring", "[1, 1, 2, 3, 1]"], 1),
            (["verify", "--coloring", "[1, 1, 1, 1, 1]"], 0),
        ],
    )
    def test_expect_no_inverts(self, p5_file, argv, code, capsys):
        assert cli_main([argv[0], "-i", p5_file, *argv[1:], "--expect-no"]) == code
        assert cli_main([argv[0], "-i", p5_file, *argv[1:]]) == 1 - code
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "-k", "3"],
            ["subset", "-k", "1", "--pairs", "[[0, 2]]"],
            ["verify", "--coloring", "[1, 1, 2, 3, 1]"],
        ],
    )
    def test_expect_yes_is_not_an_option(self, p5_file, argv, capsys):
        # A yes already exits 0, so --expect-yes would set nothing.
        assert cli_main([argv[0], "-i", p5_file, *argv[1:], "--expect-yes"]) == 2
        assert "unrecognized arguments: --expect-yes" in capsys.readouterr().err


class TestGadgetLiftProject:
    def test_gadget_writes_instance_and_dot(self, p3_file, tmp_path, capsys):
        out = tmp_path / "gadget.json"
        dot = tmp_path / "gadget.dot"
        code = cli_main(
            ["gadget", "-i", p3_file, "-k", "2", "-o", str(out), "--dot", str(dot)]
        )
        assert code == 0
        gg, col = parse_gadget(out.read_text())
        assert col is None
        assert (gg.graph.n, gg.graph.m) == (14, 27)
        assert "penwidth" in dot.read_text()
        capsys.readouterr()

    def test_lift_then_project_round_trips(self, p3_file, tmp_path, capsys):
        lifted = tmp_path / "lifted.json"
        code = cli_main(
            [
                "lift",
                "-i",
                p3_file,
                "-k",
                "2",
                "--coloring",
                "[1, 1, 1]",
                "-o",
                str(lifted),
            ]
        )
        assert code == 0
        _, _, ck = parse_instance(lifted.read_text())
        assert ck is not None and ck.k == 2

        back = tmp_path / "back.json"
        code = cli_main(["project", "-i", str(lifted), "-o", str(back)])
        assert code == 0
        g, _, col = parse_instance(back.read_text())
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert col.colors == (1, 1, 1)
        capsys.readouterr()

    def test_project_decodes_its_input_once(self, p3_file, tmp_path, capsys, monkeypatch):
        lifted = tmp_path / "lifted.json"
        args = ["lift", "-i", p3_file, "-k", "2", "--coloring", "[1, 2, 1]", "-o", str(lifted)]
        assert cli_main(args) == 0
        decoded = []
        load = rvckit_io._load_object

        def counted_load(text):
            decoded.append(text)
            return load(text)

        monkeypatch.setattr(rvckit_io, "_load_object", counted_load)
        back = tmp_path / "back.json"
        assert cli_main(["project", "-i", str(lifted), "-o", str(back)]) == 0
        assert decoded == [lifted.read_text()]
        _, _, col = parse_instance(back.read_text())
        assert col.colors == (1, 2, 1)
        capsys.readouterr()

    def test_project_rejects_a_repeated_base_label(self, p3_file, tmp_path, capsys):
        lifted = tmp_path / "lifted.json"
        args = ["lift", "-i", p3_file, "-k", "2", "--coloring", "[1, 2, 1]", "-o", str(lifted)]
        assert cli_main(args) == 0
        obj = json.loads(lifted.read_text())
        assert obj["labels"][13] == "v_{2,2}"
        obj["labels"][13] = "v_{1,2}"
        lifted.write_text(json.dumps(obj))
        assert cli_main(["project", "-i", str(lifted)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "base labels must name source vertices 0..n-1 once each" in captured.err

    @pytest.mark.parametrize(
        "edit", [swap_vertex_0_and_last_base, all_hubs_but_one_base, pair_off_the_base]
    )
    def test_project_rejects_an_edited_gadget_file(self, edit, tmp_path, capsys):
        path = tmp_path / "edited.json"
        obj = lifted_p3()
        path.write_text(json.dumps(obj))
        assert cli_main(["project", "-i", str(path)]) == 0
        edit(obj)
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["project", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_project_reads_a_base_chord_as_a_source_edge(self, tmp_path, capsys):
        # A chord between two base copies leaves a genuine gadget: the
        # gadget of the source graph with that chord added.
        c4, pairs = cycle_graph(4), pair_set([(0, 2), (1, 3)])
        gg = build_gadget(c4, pairs, 2)
        obj = json.loads(emit_gadget(gg))
        assert gg.base[0] == 17
        obj["edges"] = sorted(obj["edges"] + [[17, 19]])
        path, lifted = tmp_path / "chorded.json", tmp_path / "lifted.json"
        path.write_text(json.dumps(obj))
        lifted.write_text(emit_gadget(gg, coloring=lift_coloring(gg, coloring([1, 2, 1, 2], 2))))
        chorded = graph_from_edges(4, [*c4.edges, (0, 2)])
        assert parse_gadget(path.read_text())[0] == build_gadget(chorded, pairs, 2)
        assert cli_main(["project", "-i", str(path), "--coloring", str(lifted)]) == 0
        assert capsys.readouterr().out == emit_instance(chorded, coloring=coloring([1, 2, 1, 2], 2))

    def test_project_reads_a_coloring_file_at_the_gadget_level(self, p3_file, tmp_path, capsys):
        gadget, lifted = tmp_path / "gadget.json", tmp_path / "lifted.json"
        assert cli_main(["gadget", "-i", p3_file, "-k", "4", "-o", str(gadget)]) == 0
        args = ["lift", "-i", p3_file, "-k", "4", "--coloring", "[1, 2, 1]", "-o", str(lifted)]
        assert cli_main(args) == 0
        obj = json.loads(lifted.read_text())
        obj["k"] = 9
        lifted.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["project", "-i", str(gadget), "--coloring", str(lifted)]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 4

    def test_project_rejects_an_inline_color_above_the_level(self, p3_file, tmp_path, capsys):
        gadget = tmp_path / "gadget.json"
        assert cli_main(["gadget", "-i", p3_file, "-k", "2", "-o", str(gadget)]) == 0
        capsys.readouterr()
        n = json.loads(gadget.read_text())["n"]
        assert cli_main(["project", "-i", str(gadget), "--coloring", json.dumps([3] * n)]) == 2
        assert "color 3, outside budget 2" in capsys.readouterr().err

    def test_project_without_any_coloring_fails(self, p3_file, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        assert cli_main(["gadget", "-i", p3_file, "-k", "2", "-o", str(bare)]) == 0
        assert cli_main(["project", "-i", str(bare)]) == 2
        err = capsys.readouterr().err
        assert err == "error: no coloring: give 'coloring' in the file or --coloring\n"


class TestReduceLemma1:
    def test_emits_pendant_instance(self, p5_file, capsys):
        assert cli_main(["reduce-lemma1", "-i", p5_file]) == 0
        g, pairs, _ = parse_instance(capsys.readouterr().out)
        assert g.n == 10
        assert len(pairs) == 4

    def test_dot_export(self, p5_file, tmp_path, capsys):
        dot = tmp_path / "pendant.dot"
        assert cli_main(["reduce-lemma1", "-i", p5_file, "--dot", str(dot)]) == 0
        assert "style=dashed" in dot.read_text()


@pytest.mark.parametrize(
    "argv",
    [["reduce-lemma1"], ["reduce-lemma1", "-o", "{out}"], ["gadget", "-k", "2", "-o", "{out}"]],
    ids=["reduce-lemma1", "reduce-lemma1-out", "gadget-out"],
)
def test_unopenable_dot_path_writes_nothing(argv, p3_file, tmp_path, capsys):
    # The main output must not go out before the --dot path is known to open.
    out = tmp_path / "out.json"
    argv = [a.format(out=out) for a in argv]
    bad_dot = str(tmp_path / "nodir" / "x.dot")
    assert cli_main(argv + ["-i", p3_file, "--dot", bad_dot]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["decide", "-k", "3"], ["subset", "-k", "3", "--pairs", "[[0, 4]]"]],
    ids=["solve", "decide", "subset"],
)
def test_unopenable_out_path_prints_no_answer(argv, p5_file, tmp_path, capsys):
    # The answer on stdout must not go out before the -o path is known to open.
    bad_out = str(tmp_path / "nodir" / "w.json")
    assert cli_main(argv + ["-i", p5_file, "-o", bad_out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err


def test_unopenable_dot_path_leaves_an_existing_out_file(p3_file, tmp_path, capsys):
    # An -o file that already exists keeps its contents when --dot cannot open.
    out = tmp_path / "old.json"
    out.write_text("old\n")
    bad_dot = str(tmp_path / "nodir" / "g.dot")
    argv = ["gadget", "-i", p3_file, "-k", "2", "-o", str(out), "--dot", bad_dot]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == ""
    assert out.read_text() == "old\n"


def test_decide_at_zero_writes_the_file_solve_writes(tmp_path, capsys):
    # rvc = 0 holds exactly for complete graphs, and both commands say so in one file.
    k3 = tmp_path / "k3.json"
    k3.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}\n')
    decided, solved = tmp_path / "d.json", tmp_path / "s.json"
    assert cli_main(["decide", "-i", str(k3), "-k", "0", "-o", str(decided)]) == 0
    assert capsys.readouterr().out == "yes\ncoloring = none\n"
    assert cli_main(["solve", "-i", str(k3), "-o", str(solved)]) == 0
    assert capsys.readouterr().out == "rvc = 0\ncoloring = none\n"
    assert decided.read_bytes() == solved.read_bytes()


class _BrokenStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (["solve", "-i", "{p5}", "-o", "{path}"], "new.json"),
        (["decide", "-i", "{p5}", "-k", "3", "-o", "{path}"], "new.json"),
        (["gadget", "-i", "{p3}", "-k", "3", "--dot", "{path}"], "g.dot"),
    ],
    ids=["solve", "decide", "gadget"],
)
def test_failed_stdout_removes_only_the_files_it_created(
    argv, name, existed, p5_file, p3_file, tmp_path, monkeypatch, capsys
):
    # Each command writes stdout first; when that write fails, an output
    # file its probe made is removed, and one that was there stays as it was.
    path = tmp_path / name
    if existed:
        path.write_text("old\n")
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    argv = [a.format(p5=p5_file, p3=p3_file, path=path) for a in argv]
    assert cli_main(argv) == 2
    assert "Broken pipe" in capsys.readouterr().err
    assert path.exists() == existed
    if existed:
        assert path.read_text() == "old\n"


class TestClaims:
    def test_equivalence_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        code = cli_main(["claims", "--suite", "equivalence", "-o", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3 checks: 3 pass, 0 fail, 0 skip" in stdout
        reports = json.loads(out.read_text())
        assert [r["status"] for r in reports] == ["pass", "pass", "pass"]

    def test_parallel_smoke(self, capsys):
        assert cli_main(["claims", "--suite", "equivalence", "--jobs", "2"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs, capsys):
        assert cli_main(["claims", "--suite", "equivalence", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cap_is_not_an_option(self, capsys):
        # Every equivalence job is checked; no size cap can turn one into a skip.
        assert cli_main(["claims", "--suite", "equivalence", "--cap", "5"]) == 2
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err

    def test_missing_networkx_is_an_error_not_a_crash(self, p5_file, monkeypatch, capsys):
        # Only atlas enumeration needs networkx, for the data file it ships.
        monkeypatch.setattr("rvckit.families.find_spec", lambda name: None)
        assert cli_main(["verify", "-i", p5_file, "--coloring", "[1, 1, 2, 3, 1]"]) == 0
        capsys.readouterr()
        assert cli_main(["claims", "--suite", "core"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "networkx" in err

    def test_jobs_is_clamped_to_the_cpu_count(self, monkeypatch, capsys):
        seen = []

        def fake_run_suite(name, jobs=1):
            seen.append(jobs)
            return []

        # The fake returns no reports, so no worker is ever started.
        monkeypatch.setattr("rvckit.cli.run_suite", fake_run_suite)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert cli_main(["claims", "--jobs", "100000"]) == 0
        assert cli_main(["claims", "--jobs", "1"]) == 0
        assert seen == [2, 1]
        capsys.readouterr()

    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli_main(["claims", "--suite", "bogus"]) == 2
        capsys.readouterr()

    def test_a_failed_check_prints_its_detail_and_exits_one(self, monkeypatch, tmp_path, capsys):
        # No suite fails today, so the sweep is replaced by one failing report.
        report = ClaimReport("equivalence", "n=3", "fail", "sides disagree")
        monkeypatch.setattr("rvckit.cli.run_suite", lambda name, jobs=1: [report])
        out = tmp_path / "c.json"
        assert cli_main(["claims", "--suite", "equivalence", "-o", str(out)]) == 1
        assert capsys.readouterr().out == (
            "FAIL  equivalence         n=3  (sides disagree)\n"
            "1 checks: 0 pass, 1 fail, 0 skip\n"
        )
        assert json.loads(out.read_text()) == [
            {"check": "equivalence", "instance": "n=3", "status": "fail", "detail": "sides disagree"}
        ]

    @pytest.mark.parametrize(
        "reports",
        [
            None,
            [
                ClaimReport("equivalence", 'n=3 "P" \\ k', "fail", "caf\u00e9 \u2260 \"cafe\""),
                ClaimReport("pendant-equivalence", "n=2 \u2205", "pass", ""),
            ],
            [],
        ],
        ids=["equivalence", "escapes", "empty"],
    )
    def test_report_file_is_the_indented_json_of_the_reports(
        self, reports, monkeypatch, tmp_path, capsys
    ):
        # The report is written row by row; its bytes must be those of
        # json.dumps(payload, indent=2), escapes and the empty list included.
        if reports is None:
            reports = run_suite("equivalence")
        else:
            monkeypatch.setattr("rvckit.cli.run_suite", lambda name, jobs=1: reports)
        out = tmp_path / "c.json"
        code = cli_main(["claims", "--suite", "equivalence", "-o", str(out)])
        assert code == (1 if any(r.status == "fail" for r in reports) else 0)
        capsys.readouterr()
        payload = [dataclasses.asdict(r) for r in reports]
        assert out.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"

    def test_unopenable_out_path_runs_no_sweep(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr("rvckit.cli.run_suite", lambda name, jobs=1: calls.append(name) or [])
        bad_out = tmp_path / "nodir" / "c.json"
        assert cli_main(["claims", "--suite", "equivalence", "-o", str(bad_out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "No such file or directory" in captured.err
        assert not bad_out.exists()
        assert calls == []

    @pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
    def test_crashed_sweep_removes_only_an_out_file_it_created(
        self, monkeypatch, tmp_path, capsys, existed
    ):
        def crash(name, jobs=1):
            raise RuntimeError("boom")

        monkeypatch.setattr("rvckit.cli.run_suite", crash)
        out = tmp_path / "c.json"
        if existed:
            out.write_text("old\n")
        assert cli_main(["claims", "--suite", "equivalence", "-o", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert out.exists() == existed
        if existed:
            assert out.read_text() == "old\n"


class TestUsageAndErrors:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert cli_main(["solve", "-i", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_malformed_instance(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert cli_main(["solve", "-i", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["subset", "-k", "2"],
            ["gadget", "-k", "2"],
            ["lift", "-k", "2", "--coloring", "[1, 1, 1, 1, 1]"],
        ],
        ids=["subset", "gadget", "lift"],
    )
    def test_missing_pairs_exits_two(self, p5_file, args, capsys):
        assert cli_main([args[0], "-i", p5_file] + args[1:]) == 2
        err = capsys.readouterr().err
        assert err == "error: no requested pairs: give 'pairs' in the file or --pairs\n"

    @pytest.mark.parametrize("args", [["verify"], ["lift", "-k", "2"]], ids=["verify", "lift"])
    def test_missing_coloring_exits_two(self, p3_file, args, capsys):
        assert cli_main([args[0], "-i", p3_file] + args[1:]) == 2
        err = capsys.readouterr().err
        assert err == "error: no coloring: give 'coloring' in the file or --coloring\n"

    @pytest.mark.parametrize("k", ['"banana"', "-4"])
    @pytest.mark.parametrize(
        "args",
        [
            ["solve"],
            ["decide", "-k", "1"],
            ["reduce-lemma1"],
            ["subset", "-k", "1", "--pairs", "[[0, 2]]"],
            ["gadget", "-k", "2", "--pairs", "[[0, 2]]"],
            ["verify", "--coloring", "[1, 1, 1]"],
            ["lift", "-k", "2", "--pairs", "[[0, 2]]", "--coloring", "[1, 1, 1]"],
        ],
        ids=["solve", "decide", "reduce-lemma1", "subset", "gadget", "verify", "lift"],
    )
    def test_malformed_k_without_a_coloring_exits_two(self, tmp_path, k, args, capsys):
        # The file carries no coloring, so only the one k parser sees k.
        path = tmp_path / "p3.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]], "k": %s}' % k)
        assert cli_main([args[0], "-i", str(path), *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'k' must be a non-negative integer\n"

    def test_semantic_errors_exit_two(self, tmp_path, capsys):
        path = tmp_path / "split.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        assert cli_main(["solve", "-i", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["decide", "-k", "2", "--expect-no"], ["decide", "-k", "2"]),
            (
                ["verify", "--pairs", "[[0, 2]]", "--coloring", "[1, 1, 1, 1, 1]"],
                ["verify", "--coloring", "[1, 1, 1, 1, 1]"],
            ),
            (["subset", "--pairs", "[[0, 4]]", "-k", "3"], ["solve"]),
        ],
    )
    def test_reused_parser_keeps_no_state(self, p5_file, first, second, capsys):
        # The parser is built once per process; a flag of one call must not
        # leak into the next.
        def run(args):
            code = cli_main([args[0], "-i", p5_file, *args[1:]])
            return code, capsys.readouterr().out

        alone = []
        for args in (first, second):
            build_parser.cache_clear()
            alone.append(run(args))
        assert [run(first), run(second)] == alone

    def test_internal_error_exits_three_not_one(self, p5_file, monkeypatch, capsys):
        def crash(g, k):
            raise RuntimeError("boom")

        monkeypatch.setattr("rvckit.cli.decide_rvc_le_k", crash)
        assert cli_main(["decide", "-i", p5_file, "-k", "2", "--expect-no"]) == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_console_script_entry_point(p5_file):
    run = subprocess.run(
        [sys.executable, "-m", "rvckit", "decide", "-i", p5_file, "-k", "3"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert "yes" in run.stdout


# Fuzzing: arbitrary JSON objects through every file-reading subcommand.

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_LABELS = [
    "u", "x", "v_{0,2}", "v_{1,2}", "v_{2,3}", "v_{0,1}^{(1)}", "u_{0,1}^{(2)}", "w_{0,2}^{(1)}"
]


def _gadget_object(g, pairs, colors):
    """A lifted gadget file as a JSON object, and the id of its first base copy."""
    gg = build_gadget(g, pair_set(pairs), 2)
    obj = json.loads(emit_gadget(gg))
    obj["coloring"] = list(lift_coloring(gg, coloring(colors, 2)).colors)
    return obj, gg.base[0]


# Real gadget files, so that mutations of them reach past parse_gadget.
_GADGET_OBJECTS = [
    _gadget_object(path_graph(3), [(0, 2)], [1, 1, 1]),
    _gadget_object(cycle_graph(4), [(0, 2), (1, 3)], [1, 2, 1, 2]),
]


def _edit_gadget(draw, obj, base) -> None:
    """One edit that keeps the JSON well-formed but leaves no gadget behind.

    An edge added or dropped between two base copies (ids >= base) would
    leave the gadget of another source graph, so edited edges have an end
    below base.
    """
    n = obj["n"]
    edit = draw(st.sampled_from(["swap labels", "add edge", "drop edge", "add pair"]))
    if edit == "swap labels":
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        labels = obj["labels"] = list(obj["labels"])
        labels[a], labels[b] = labels[b], labels[a]
    elif edit == "drop edge":
        obj["edges"] = list(obj["edges"])
        obj["edges"].remove(draw(st.sampled_from([e for e in obj["edges"] if e[0] < base])))
    else:
        key = "edges" if edit == "add edge" else "pairs"
        top = base if key == "edges" else n
        absent = [[a, b] for a in range(top) for b in range(a + 1, n) if [a, b] not in obj[key]]
        obj[key] = sorted(obj[key] + [draw(st.sampled_from(absent))])


@st.composite
def _instance_objects(draw):
    """An instance or gadget object, mostly well-formed, and whether it is an edited gadget.

    A gadget is either given one edit that leaves no gadget behind (the
    object is then returned with True) or treated like an instance: each
    field is kept, dropped or swapped for arbitrary JSON, so the parsers'
    checks are passed about as often as they are tripped.
    """
    if draw(st.booleans()):
        obj, base = draw(st.sampled_from(_GADGET_OBJECTS))
        obj = dict(obj)
        if draw(st.booleans()):
            _edit_gadget(draw, obj, base)
            return obj, True
    else:
        n = draw(st.integers(1, 6))
        pairs = st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=8)
        obj = {"n": n, "edges": draw(pairs), "pairs": draw(pairs)}
        obj["coloring"] = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n + 1))
        obj["k"] = draw(st.integers(0, 4))
        obj["labels"] = draw(st.lists(st.sampled_from(_LABELS), min_size=n, max_size=n))
    for key in ("n", "edges", "pairs", "coloring", "k", "labels"):
        action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "junk"]))
        if action == "drop":
            obj.pop(key, None)
        elif action == "junk":
            obj[key] = draw(_json)
    obj.update(draw(st.dictionaries(st.text(max_size=3), _json, max_size=2)))
    return obj, False


_FILE_COMMANDS = [
    ("solve", parse_instance),
    ("decide", parse_instance, "-k", "2"),
    ("subset", parse_instance, "-k", "2"),
    ("verify", parse_instance),
    ("gadget", parse_instance, "-k", "2"),
    ("lift", parse_instance, "-k", "2"),
    ("project", parse_gadget),
    ("reduce-lemma1", parse_instance),
]


@settings(max_examples=200, deadline=None)
@given(drawn=_instance_objects())
def test_fuzzed_files_never_crash_the_cli(tmp_path_factory, drawn):
    """Exit 2 whenever the file does not parse, and never exit 3 (a crash).

    An edited gadget file must not parse, so ``project`` exits 2 on it.
    """
    obj, edited = drawn
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    text = json.dumps(obj)
    path.write_text(text)
    for command, parse, *flags in _FILE_COMMANDS:
        try:
            parse(text)
            malformed = False
        except ValueError:
            malformed = True
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            code = cli_main([command, "-i", str(path), *flags])
        assert code != 3, f"{command} crashed on {text}:\n{err.getvalue()}"
        if malformed:
            assert code == 2, f"{command} exited {code} on malformed {text}"
        if edited and command == "project":
            assert malformed, f"an edited gadget parsed: {text}"


# Fuzzing: inline JSON for --pairs and --coloring, and integers for -k.

_K_MINIMUM = {"decide": 0, "subset": 1, "gadget": 2, "lift": 2}


def _pairs_json(n):
    pairs = st.lists(st.lists(st.integers(-1, n), min_size=2, max_size=2), max_size=4)
    return pairs | st.fixed_dictionaries({"pairs": pairs}) | _json


def _coloring_json(n, top):
    colorings = st.lists(st.integers(-1, top), min_size=n - 1, max_size=n + 1)
    declared = st.fixed_dictionaries({"coloring": colorings, "k": st.integers(-1, top + 2)})
    return colorings | declared | _json


@st.composite
def _argument_cases(draw):
    """A subcommand with drawn --pairs, --coloring and -k arguments, each given or left out.

    Arguments are drawn mostly well-formed.  ``decide`` and ``subset`` also
    get budgets far above n; ``gadget`` and ``lift`` get levels in -2..8.
    """
    command = draw(st.sampled_from(["subset", "verify", "decide", "gadget", "lift", "project"]))
    n = 23 if command == "project" else 3  # the P3 gadget at k = 3 has 23 vertices
    args = {}
    if command in ("subset", "verify", "gadget", "lift") and draw(st.booleans()):
        args["--pairs"] = draw(_pairs_json(n))
    if command in ("verify", "lift", "project") and draw(st.booleans()):
        args["--coloring"] = draw(_coloring_json(n, 4))
    if command in ("decide", "subset"):
        args["-k"] = draw(st.integers(-2, 8) | st.integers(10**3, 10**18))
    elif command in ("gadget", "lift"):
        args["-k"] = draw(st.integers(-2, 8))
    return command, args


@settings(max_examples=200, deadline=None)
@given(case=_argument_cases())
def test_fuzzed_arguments_never_crash_the_cli(tmp_path_factory, case):
    """Exit 2 whenever an argument is rejected, and never exit 3 (a crash)."""
    command, args = case
    base = tmp_path_factory.getbasetemp()
    source = base / "p3-args.json"
    source.write_text('{"n": 3, "edges": [[0, 1], [1, 2]], "pairs": [[0, 2]], "coloring": [1, 2, 1]}\n')
    gadget = base / "p3-lifted-args.json"
    gadget.write_text(json.dumps(lifted_p3()))
    path = gadget if command == "project" else source
    g = parse_gadget(gadget.read_text())[0].graph if command == "project" else path_graph(3)
    argv = [command, "-i", str(path)]
    rejected = False
    for flag, value in args.items():
        text = json.dumps(value) if flag != "-k" else str(value)
        argv += [flag, text]
        try:
            if flag in ("--pairs", "--coloring"):
                _arg(flag[2:], text, g)
            elif value < _K_MINIMUM[command]:
                rejected = True
        except ValueError:
            rejected = True
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        code = cli_main(argv)
    assert code != 3, f"{argv} crashed:\n{err.getvalue()}"
    if rejected:
        assert code == 2, f"{argv} exited {code} on a rejected argument"
