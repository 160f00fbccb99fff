"""Every command prints one canonical JSON report to stdout. Exit status is
0 for a verified property or successful construction, 2 when a check
produced a counterexample or a search came up empty, and 1 for usage or
input errors. Sampled checks require an explicit --seed.

That paragraph, the user's contract, is the description `--help` prints;
the rest of this docstring is for readers of the code. Each subcommand's
parser names its handler with set_defaults(run=...). main calls
args.run(args, phase), and the handler returns its report's own keys,
holding the library's values as they are (JSON writes a tuple as an
array), with the exit status. It calls phase(name) as each of its phases
ends: load_s then check_s where it reads input, else build_s then
write_s. It reads each input file once, through _read, which records the
file's path and digest under "inputs". main adds what every report
shares: "command", the command and its subcommand; "timings", the
phases, each timed from the previous mark and the first from the
handler's call, then report_s for assembly and digest, and wall_s, their
sum; and "report_sha256", the digest of the report without its top-level
timings.

Each handler imports the modules its command runs, at call time, so a
call loads only those: `import sparsehg.cli` loads core and jsonio, and
e.g. `ramsey qquad` adds only ramsey. Only the verify handlers import
sparsehg.niceness.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Optional

from sparsehg import jsonio
from sparsehg.core import HypergraphError

if TYPE_CHECKING:
    from sparsehg.families import LabeledConfiguration

PROG = "sparsehg"
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for refutations.

    Errors name the root program, not the subcommand, like every other error.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{PROG}: error: {message}\n")


def _witness_arg(text: str) -> tuple[str, ...]:
    labels = tuple(part for part in text.split(",") if part)
    if not labels:
        raise argparse.ArgumentTypeError("witness must be a comma-separated label list")
    return labels


def _tower(base: str, ell: int) -> LabeledConfiguration:
    from sparsehg.families import f14, geometric_tower, single_edge

    if base == "f14":
        return geometric_tower(f14(), ell)
    if base == "edge":
        return geometric_tower(single_edge(), ell, allow_edge_base=True)
    raise HypergraphError(f"unknown tower base {base!r}")


def _read(inputs: dict, name: str, path: str):
    """The document at `path`; its path and the sha256 of the bytes parsed go to inputs[name]."""
    doc, digest = jsonio.read_json(path)
    inputs[name] = {"path": path, "sha256": digest}
    return doc


def _config_summary(config: LabeledConfiguration) -> dict:
    return {
        "family": config.family,
        "v": config.graph.vertex_count,
        "e": config.graph.edge_count,
        "delta": config.graph.delta,
    }


def _emit(report: dict, key: str, obj, out: Optional[str]) -> None:
    """Write `obj` to `out` and name the file in the report, or embed it under `key`."""
    if out is None:
        report[key] = obj
    else:
        jsonio.write_json(out, obj)
        report["output"] = out


def _cmd_build(args, phase) -> tuple[dict, int]:
    from sparsehg.families import f14, factorial_family, linear_three_cycle

    if args.subcommand == "cycle":
        config = linear_three_cycle()
    elif args.subcommand == "f14":
        config = f14()
    elif args.subcommand == "f-k":
        config = factorial_family(args.k)
    else:
        config = _tower(args.base, args.ell)
    phase("build_s")
    report = _config_summary(config)
    _emit(report, "configuration", jsonio.config_to_obj(config), args.output)
    phase("write_s")
    return report, EXIT_OK


def _cmd_verify_scan(args, phase) -> tuple[dict, int]:
    """verify nice and verify gl-props: one report over either subset scan."""
    from sparsehg.niceness import NOT_NICE, sample_nice, verify_nice, verify_tower_bounds

    method = "exhaustive" if args.samples is None else "sampled"
    inputs: dict = {}
    config = jsonio.load_any(_read(inputs, "input", args.input))
    if method == "sampled" and args.seed is None:
        raise HypergraphError("--samples requires --seed")
    if method == "exhaustive" and args.seed is not None:
        raise HypergraphError("--seed requires --samples")
    phase("load_s")
    if args.subcommand == "gl-props":
        result = verify_tower_bounds(
            config, exhaustive=method == "exhaustive", samples=args.samples, seed=args.seed
        )
    elif method == "exhaustive":
        result = verify_nice(config, args.witness)
    else:
        result = sample_nice(config, args.witness, samples=args.samples, seed=args.seed)
    phase("check_s")
    ce = result.counterexample
    report = {
        "inputs": inputs,
        "method": method,
        **result._asdict(),
        "counterexample": None if ce is None else ce._asdict(),
    }
    return report, EXIT_REFUTED if result.verdict == NOT_NICE else EXIT_OK


def _cmd_verify_claim63(args, phase) -> tuple[dict, int]:
    from sparsehg.families import linear_three_cycle
    from sparsehg.niceness import check_cycle_bounds

    config = linear_three_cycle()
    phase("load_s")
    holds, scans = check_cycle_bounds(config)
    phase("check_s")
    report = {"holds": holds, "method": "exhaustive", "passes": len(scans),
              "checked_subsets": scans[-1].checked_subsets}
    return report, EXIT_OK if holds else EXIT_REFUTED


def _cmd_extract(args, phase) -> tuple[dict, int]:
    from sparsehg.extraction import extract

    result = extract(_tower(args.base, args.ell), args.t)
    phase("build_s")
    report = {
        "base": args.base,
        "ell": args.ell,
        "t": args.t,
        "v": result.subgraph.vertex_count,
        "e": result.subgraph.edge_count,
        "delta": result.verified.delta,
        "trace": result.trace,
    }
    if args.output is not None:
        jsonio.write_json(args.output, jsonio.graph_to_obj(result.subgraph))
        report["output"] = args.output
    if args.trace_out is not None:
        jsonio.write_json(args.trace_out, report["trace"])
        report["trace_output"] = args.trace_out
    phase("write_s")
    return report, EXIT_OK


def _cmd_project(args, phase) -> tuple[dict, int]:
    from sparsehg.projection import project

    inputs: dict = {}
    graph = jsonio.graph_from_obj(_read(inputs, "input", args.input))
    phase("load_s")
    result = project(graph, args.k, args.e)
    report = {
        "inputs": inputs,
        "case": result.case_tag,
        "anchors": result.anchors,
        "kept_links": None if result.projected is None else len(result.projected.pairs),
        "heavy_edges": None if result.heavy_config is None else result.heavy_config.edge_count,
    }
    _emit(report, "projection", jsonio.projection_to_obj(result), args.output)
    phase("check_s")
    return report, EXIT_OK


def _cmd_lift(args, phase) -> tuple[dict, int]:
    from sparsehg.projection import lift

    inputs: dict = {}
    result = jsonio.projection_from_obj(_read(inputs, "proj", args.proj))
    config3 = jsonio.graph_from_obj(_read(inputs, "config", args.config))
    phase("load_s")
    lifted = lift(result, config3)
    report = {"inputs": inputs, "v": lifted.vertex_count, "e": lifted.edge_count}
    _emit(report, "lifted", jsonio.graph_to_obj(lifted), args.output)
    phase("check_s")
    return report, EXIT_OK


def _cmd_ramsey(args, phase) -> tuple[dict, int]:
    from sparsehg.ramsey import check_coloring, coloring_to_4graph, q_quad, verify_implication

    if args.subcommand == "qquad":
        report = {"p": args.p, "q_quad": q_quad(args.p)}
        phase("build_s")
        phase("write_s")
        return report, EXIT_OK
    inputs: dict = {}
    coloring = jsonio.coloring_from_obj(_read(inputs, "input", args.input))
    phase("load_s")
    if args.subcommand == "check":
        result = check_coloring(coloring, args.p, args.q)
        phase("check_s")
        report = {"inputs": inputs, "p": result.p, "q": result.q, "q_quad": result.q_quad_value,
                  "min_colors_on_some_kp": result.min_colors_on_some_kp,
                  "valid": result.valid, "witness_kp": result.witness_kp}
        return report, EXIT_OK if result.valid else EXIT_REFUTED
    if args.subcommand == "to4":
        shadow, log = coloring_to_4graph(coloring)
        report = {"inputs": inputs, "v": shadow.vertex_count, "e": shadow.edge_count,
                  "collisions": sum(1 for entry in log if not entry["fresh"]), "log": log}
        _emit(report, "graph", jsonio.graph_to_obj(shadow), args.output)
        phase("check_s")
        return report, EXIT_OK
    holds = verify_implication(coloring, args.p, args.q)
    phase("check_s")
    report = {"inputs": inputs, "p": args.p, "q": args.q, "implication_holds": holds}
    return report, EXIT_OK if holds else EXIT_REFUTED


def _cmd_search(args, phase) -> tuple[dict, int]:
    from sparsehg.search import count_copies, find_configuration

    inputs: dict = {}
    graph = jsonio.graph_from_obj(_read(inputs, "input", args.input))
    if args.subcommand == "config":
        phase("load_s")
        result = find_configuration(graph, args.v, args.e)
        phase("check_s")
        report = {"inputs": inputs, "v": args.v, "e": args.e, **result._asdict()}
        return report, EXIT_OK if result.found else EXIT_REFUTED
    pattern = jsonio.graph_from_obj(_read(inputs, "pattern", args.pattern))
    phase("load_s")
    result = count_copies(graph, pattern, induced=args.induced)
    phase("check_s")
    report = {"inputs": inputs, "induced": args.induced, **result._asdict()}
    return report, EXIT_OK


def _add_output(parser: _Parser) -> None:
    # only the commands that write a file take -o
    parser.add_argument("-o", "--output", default=None, help="write the result here")


def _add_scan(parser: _Parser) -> None:
    # only the subset scans sample
    parser.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="scan every subset (default)")
    group.add_argument("--samples", type=int, default=None, help="sampled scan size")


def _add_build(p_build: _Parser) -> None:
    p_build.set_defaults(run=_cmd_build)
    sb = p_build.add_subparsers(dest="subcommand", required=True)
    _add_output(sb.add_parser("cycle"))
    _add_output(sb.add_parser("f14"))
    p_fk = sb.add_parser("f-k")
    _add_output(p_fk)
    p_fk.add_argument("--k", type=int, required=True, help="witness size, 4..8")
    p_gl = sb.add_parser("g-ell")
    _add_output(p_gl)
    p_gl.add_argument("--base", default="f14", help="tower base: f14 or edge")
    p_gl.add_argument("--ell", type=int, required=True, help="tower height, >= 0")


def _add_verify(p_verify: _Parser) -> None:
    sv = p_verify.add_subparsers(dest="subcommand", required=True)
    p_nice = sv.add_parser("nice")
    _add_scan(p_nice)
    p_nice.set_defaults(run=_cmd_verify_scan)
    p_nice.add_argument("--input", required=True, help="graph or configuration JSON")
    p_nice.add_argument(
        "--witness", type=_witness_arg, default=None,
        help="comma-separated witness labels (default: role A)",
    )
    sv.add_parser("claim63").set_defaults(run=_cmd_verify_claim63)
    p_glp = sv.add_parser("gl-props")
    _add_scan(p_glp)
    p_glp.set_defaults(run=_cmd_verify_scan)
    p_glp.add_argument("--input", required=True, help="tower configuration JSON")


def _add_extract(p_extract: _Parser) -> None:
    _add_output(p_extract)
    p_extract.set_defaults(run=_cmd_extract)
    p_extract.add_argument("--base", default="f14", help="tower base: f14 or edge")
    p_extract.add_argument("--ell", type=int, required=True, help="tower height")
    p_extract.add_argument("--t", type=int, required=True, help="edge multiple")
    p_extract.add_argument("--trace", dest="trace_out", default=None, help="write the descent trace here")


def _add_project(p_project: _Parser) -> None:
    _add_output(p_project)
    p_project.set_defaults(run=_cmd_project)
    p_project.add_argument("--input", required=True, help="r-uniform graph JSON")
    p_project.add_argument("--k", type=int, required=True)
    p_project.add_argument("--e", type=int, required=True)


def _add_lift(p_lift: _Parser) -> None:
    _add_output(p_lift)
    p_lift.set_defaults(run=_cmd_lift)
    p_lift.add_argument("--proj", required=True, help="projection JSON from `project`")
    p_lift.add_argument("--config", required=True, help="3-uniform configuration JSON")


def _add_ramsey(p_ramsey: _Parser) -> None:
    p_ramsey.set_defaults(run=_cmd_ramsey)
    sr = p_ramsey.add_subparsers(dest="subcommand", required=True)
    p_qq = sr.add_parser("qquad")
    p_qq.add_argument("--p", type=int, required=True)
    p_check = sr.add_parser("check")
    p_check.add_argument("--input", required=True, help="coloring JSON")
    p_check.add_argument("--p", type=int, required=True)
    p_check.add_argument("--q", type=int, required=True)
    p_to4 = sr.add_parser("to4")
    _add_output(p_to4)
    p_to4.add_argument("--input", required=True, help="coloring JSON")
    p_impl = sr.add_parser("implication")
    p_impl.add_argument("--input", required=True, help="coloring JSON")
    p_impl.add_argument("--p", type=int, required=True)
    p_impl.add_argument("--q", type=int, required=True)


def _add_search(p_search: _Parser) -> None:
    p_search.set_defaults(run=_cmd_search)
    ss = p_search.add_subparsers(dest="subcommand", required=True)
    p_cfg = ss.add_parser("config")
    p_cfg.add_argument("--input", required=True, help="graph JSON")
    p_cfg.add_argument("--v", type=int, required=True)
    p_cfg.add_argument("--e", type=int, required=True)
    p_cp = ss.add_parser("copies")
    p_cp.add_argument("--input", required=True, help="host graph JSON")
    p_cp.add_argument("--pattern", required=True, help="pattern graph JSON")
    p_cp.add_argument("--induced", action="store_true")


# command -> (its help line, the function that fills in its parser), in
# the order usage and --help list them
_COMMANDS = {
    "build": ("construct a named configuration", _add_build),
    "verify": ("check a structural property", _add_verify),
    "extract": ("subgraph with 10t edges", _add_extract),
    "project": ("anchor and reduce to 3-uniform", _add_project),
    "lift": ("pull a 3-uniform hit back up", _add_lift),
    "ramsey": ("edge colorings and the 4-graph shadow", _add_ramsey),
    "search": ("exact configuration search and copy counting", _add_search),
}


def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every command, or of `command` alone.

    The one-command parser parses that command's arguments to the same
    Namespace and prints the same help and usage errors; it only rejects the
    other commands. main builds it for a call that names its command first.
    """
    # the docstring's first paragraph; none under -OO, which strips it
    parser = _Parser(prog=PROG, description=__doc__ and __doc__.partition("\n\n")[0])
    # the usage line of a one-command parser still names every command
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name, (help_line, add) in _COMMANDS.items():
        if command is None or name == command:
            add(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals both --help and usage errors this way
        return int(exc.code or 0)
    marks = [time.perf_counter()]
    timings: dict[str, float] = {}

    def phase(name: str) -> None:
        marks.append(time.perf_counter())
        timings[name] = round(marks[-1] - marks[-2], 6)

    try:
        body, code = args.run(args, phase)
    except (HypergraphError, OSError) as exc:
        print(f"sparsehg: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    subcommand = getattr(args, "subcommand", None)
    command = args.cmd if subcommand is None else f"{args.cmd} {subcommand}"
    report = {"command": command, **body, "timings": timings}
    report["report_sha256"] = jsonio.report_digest(report)
    phase("report_s")
    timings["wall_s"] = round(marks[-1] - marks[0], 6)
    sys.stdout.write(jsonio.canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
