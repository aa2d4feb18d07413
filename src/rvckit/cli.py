"""Command-line front end.

Exit codes are uniform across subcommands: 0 for success or a yes decision,
1 for a no decision or a failed check, 2 for usage and input-format errors,
3 for an internal error (an unexpected exception, which is a bug).
A decision exits 0 on yes and 1 on no; decision subcommands take
--expect-no to flip that, so shell scripts can assert either polarity
without inspecting stdout.

Every command writes its outputs inside one block, ``_output_files``: each
output path is opened for append before anything is written, which leaves
an existing file as it is, so a path that cannot be opened stops the command
before it prints anything, and if the command then fails, the files it
created are removed again while a file that existed before stays.  Stdout is
flushed inside the block, so a stdout reader that has gone fails the command
too (exit 2).  ``claims`` streams its report inside that block; every other
command writes through ``_write_outputs``.
``solve``, ``decide`` and ``subset`` have one answer writer,
``_write_answer``: the answer line (``rvc = K`` or ``yes``), then
``coloring = ...``, and with -o the instance with the witness coloring, or
with ``"k": 0`` when no coloring is needed, so ``decide -k 0 -o`` on a
complete graph writes the file ``solve -o`` writes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback

from .gadgets import build_gadget, lift_coloring, pendant_reduction, project_coloring
from .graphs import Graph, PairSet
from .harness import SUITES, run_suite
from .io import (
    InstanceFormatError,
    _parse_coloring,
    _parse_k,
    _parse_pairs,
    emit_dot,
    emit_gadget,
    emit_gadget_dot,
    emit_instance,
    parse_gadget,
    parse_instance,
)
from .rainbow import first_unserved_pair
from .solver import decide_rvc_le_k, decide_subset_rvc, rvc_exact


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@contextlib.contextmanager
def _output_files(*paths):
    """Open each path for append, which leaves an existing file as it is, then run the block.

    If a path cannot be opened or the block raises, the files this created
    are removed again; a file that existed before is left in place.  Stdout
    is flushed inside the block, so a reader that has gone fails the block
    too, even when stdout is block-buffered, as it is on a pipe.
    """
    created = []
    try:
        for path in paths:
            new = not os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if new:
                created.append(path)
        yield
        sys.stdout.flush()
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _write_outputs(*outputs) -> None:
    """Write each (text, path) in order, to stdout where path is None.

    Every path is probed first, so a path that cannot be opened stops the
    call before anything is written, and a failed write removes the files
    the probe created.
    """
    with _output_files(*(path for _, path in outputs if path is not None)):
        for text, path in outputs:
            if path is None:
                sys.stdout.write(text)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)


# Each field a user may give as an argument: its parser, the shape the
# argument must supply and what the field is called when it is missing.
_ARG_FIELDS = {
    "pairs": (_parse_pairs, "a list of [a, b] pairs", "requested pairs"),
    "coloring": (_parse_coloring, "a list of integers", "coloring"),
}


def _field_arg(args, name: str, g: Graph, value):
    """--<name> when given, else the file's value; one of them must be there.

    The argument is a file path when one exists, else inline JSON; either
    holds an object with the field or a bare value that stands for it alone.
    """
    parse, shape, noun = _ARG_FIELDS[name]
    text = getattr(args, name)
    if text is not None:
        if os.path.exists(text):
            text = _read_file(text)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise InstanceFormatError(f"expected a file path or inline JSON: {e.msg}") from None
        if not isinstance(obj, dict):
            obj = {name: obj}
        _parse_k(obj)  # an object's k is checked as an instance file's is
        value = parse(obj, g)
        if value is None:
            raise InstanceFormatError(f"--{name} must supply {shape}")
    if value is None:
        raise InstanceFormatError(f"no {noun}: give '{name}' in the file or --{name}")
    return value


def _write_answer(answer: str, args, g: Graph, witness, pairs: PairSet | None = None) -> None:
    """Print the answer line and the coloring; with -o, also write the instance there.

    The file carries the witness, or ``"k": 0`` when there is none, which
    only a complete graph's rvc = 0 has.
    """
    colors = "none" if witness is None else list(witness.colors)
    outputs = [(f"{answer}\ncoloring = {colors}\n", None)]
    if args.out:
        # Without a witness the file records k = 0; with one, k is the coloring's.
        outputs.append((emit_instance(g, pairs, witness, 0 if witness is None else None), args.out))
    _write_outputs(*outputs)


def _decision_exit(decision: bool, args) -> int:
    return 0 if decision != args.expect_no else 1


def _report_decision(result, args, g: Graph, pairs: PairSet | None = None) -> int:
    """Print yes and the witness, or no; -o is written on a yes only."""
    if result.decision:
        _write_answer("yes", args, g, result.witness, pairs)
    else:
        print("no")
    return _decision_exit(result.decision, args)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_solve(args) -> int:
    g, _, _ = parse_instance(_read_file(args.input))
    k, witness = rvc_exact(g)
    _write_answer(f"rvc = {k}", args, g, witness)
    return 0


def _cmd_decide(args) -> int:
    g, _, _ = parse_instance(_read_file(args.input))
    return _report_decision(decide_rvc_le_k(g, args.k), args, g)


def _cmd_subset(args) -> int:
    g, pairs, _ = parse_instance(_read_file(args.input))
    pairs = _field_arg(args, "pairs", g, pairs)
    return _report_decision(decide_subset_rvc(g, pairs, args.k), args, g, pairs)


def _cmd_verify(args) -> int:
    g, pairs, col = parse_instance(_read_file(args.input))
    if args.pairs is not None:
        pairs = _field_arg(args, "pairs", g, None)
    col = _field_arg(args, "coloring", g, col)
    unserved = first_unserved_pair(g, col, pairs)
    if unserved is None:
        print("yes")
    else:
        print("no")
        print(f"unserved pair: {unserved}")
    return _decision_exit(unserved is None, args)


def _cmd_gadget(args) -> int:
    g, pairs, _ = parse_instance(_read_file(args.input))
    pairs = _field_arg(args, "pairs", g, pairs)
    gg = build_gadget(g, pairs, args.k)
    outputs = [(emit_gadget(gg), args.out)]
    if args.dot:
        outputs.append((emit_gadget_dot(gg), args.dot))
    _write_outputs(*outputs)
    return 0


def _cmd_lift(args) -> int:
    g, pairs, col = parse_instance(_read_file(args.input))
    pairs = _field_arg(args, "pairs", g, pairs)
    col = _field_arg(args, "coloring", g, col)
    gg = build_gadget(g, pairs, args.k)
    _write_outputs((emit_gadget(gg, coloring=lift_coloring(gg, col)), args.out))
    return 0


def _cmd_project(args) -> int:
    gg, ck = parse_gadget(_read_file(args.input))
    ck = _field_arg(args, "coloring", gg.graph, ck)
    _write_outputs((emit_instance(gg.source, coloring=project_coloring(gg, ck)), args.out))
    return 0


def _cmd_reduce_lemma1(args) -> int:
    g, _, _ = parse_instance(_read_file(args.input))
    inst = pendant_reduction(g)
    outputs = [(emit_instance(inst.graph, pairs=inst.pairs), args.out)]
    if args.dot:
        outputs.append((emit_dot(inst.graph, pairs=inst.pairs), args.dot))
    _write_outputs(*outputs)
    return 0


def _cmd_claims(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # More workers than CPUs only adds processes; never start more.
    jobs = min(args.jobs, os.cpu_count() or 1)
    # The -o path is probed before the sweep, so a path that cannot be
    # opened costs no sweep and prints nothing.  One pass over the sorted
    # reports writes each stdout line and each JSON row, laid out as
    # json.dumps(payload, indent=2) would; the rows are streamed, since
    # holding the full report as text would raise the sweep's peak memory.
    with _output_files(*([args.out] if args.out else [])):
        reports = run_suite(args.suite, jobs=jobs)
        counts = {"pass": 0, "fail": 0, "skip": 0}
        write = sys.stdout.write
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext() as fh:
            sep = "[\n"
            for r in reports:
                counts[r.status] += 1
                line = f"{r.status.upper():<5} {r.check:<19} {r.instance}"
                write(f"{line}  ({r.detail})\n" if r.detail else f"{line}\n")
                if fh:
                    fh.write(
                        f'{sep}  {{\n    "check": {json.dumps(r.check)},\n'
                        f'    "instance": {json.dumps(r.instance)},\n'
                        f'    "status": {json.dumps(r.status)},\n'
                        f'    "detail": {json.dumps(r.detail)}\n  }}'
                    )
                    sep = ",\n"
            npass, nfail, nskip = counts.values()
            write(f"{len(reports)} checks: {npass} pass, {nfail} fail, {nskip} skip\n")
            if fh:
                fh.write("[]\n" if sep == "[\n" else "\n]\n")
    return 1 if nfail else 0


# ---------------------------------------------------------------------------
# Parser


# The -o help of the commands whose file is their output, and of solve and
# decide, which print their answer and also write a file (subset's is inline).
_RESULT_FILE = "write the result file here instead of stdout"
_WITNESS_FILE = "also write the instance with its witness coloring here (k = 0 if none is needed)"


def _add_io_flags(p, pairs=False, coloring=False, out=_RESULT_FILE, dot=False):
    p.add_argument("-i", "--input", required=True, help="instance file (JSON)")
    if pairs:
        p.add_argument("--pairs", help="requested pairs: file path or inline JSON")
    if coloring:
        p.add_argument("--coloring", help="vertex coloring: file path or inline JSON")
    if out:
        p.add_argument("-o", "--out", help=out)
    if dot:
        p.add_argument("--dot", help="also write a Graphviz DOT rendering here")


def _add_expect_flag(p):
    p.add_argument("--expect-no", action="store_true", help="exit 0 on no, 1 on yes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rvckit parser, built once per process; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="rvckit",
        description="Rainbow vertex-connection: solve, verify, and build reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the exact rainbow vertex-connection number")
    _add_io_flags(p, out=_WITNESS_FILE)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="decide whether k colors rainbow-connect all pairs")
    _add_io_flags(p, out="on a yes, " + _WITNESS_FILE)
    p.add_argument("-k", type=int, required=True, help="color budget")
    _add_expect_flag(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("subset", help="decide the requested-pairs variant under k colors")
    _add_io_flags(p, pairs=True, out="on a yes, also write the instance with its witness here")
    p.add_argument("-k", type=int, required=True, help="color budget")
    _add_expect_flag(p)
    p.set_defaults(func=_cmd_subset)

    p = sub.add_parser("verify", help="check a given coloring against all or requested pairs")
    _add_io_flags(p, pairs=True, coloring=True, out=None)
    _add_expect_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gadget", help="build the level-k reduction gadget for (graph, pairs)")
    _add_io_flags(p, pairs=True, dot=True)
    p.add_argument("-k", type=int, required=True, help="gadget level, at least 2")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("lift", help="lift a witness coloring onto the level-k gadget")
    _add_io_flags(p, pairs=True, coloring=True)
    p.add_argument("-k", type=int, required=True, help="gadget level, at least 2")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("project", help="restrict a gadget coloring back to the source graph")
    _add_io_flags(p, coloring=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser(
        "reduce-lemma1", help="attach pendants and request their pairs along source edges"
    )
    _add_io_flags(p, dot=True)
    p.set_defaults(func=_cmd_reduce_lemma1)

    p = sub.add_parser("claims", help="run a sweep of construction checks")
    p.add_argument("--suite", choices=SUITES, default="core")
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes, at most one per CPU"
    )
    p.add_argument("-o", "--out", help="also write the reports as JSON here")
    p.set_defaults(func=_cmd_claims)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # InstanceFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # Python's own exit code for an uncaught exception is 1, which here
        # means "no"; a crash must never read as an answer.
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main() -> None:
    code = cli_main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone and the unwritten text stays buffered: point
        # stdout at the null device, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
