"""Command line interface.

Every command prints one canonical JSON report to stdout. Exit status is
0 for a verified property or successful construction, 2 when a check
produced a counterexample or a search came up empty, and 1 for usage or
input errors. Sampled checks require an explicit --seed.

Each handler imports the modules its command runs, at call time, so a
call loads only those: `import sparsehg.cli` loads core and jsonio, and
e.g. `ramsey qquad` adds only ramsey. Only the verify handlers import
sparsehg.niceness, and of those only sampled checks import numpy. main
sets OPENBLAS_NUM_THREADS to 1 unless it is already set, so that numpy
starts no BLAS worker threads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Optional

from sparsehg import jsonio
from sparsehg.core import Hypergraph, HypergraphError

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


def _tower_base(name: str) -> LabeledConfiguration:
    from sparsehg.families import f14, single_edge

    if name == "f14":
        return f14()
    if name == "edge":
        return single_edge()
    raise HypergraphError(f"unknown tower base {name!r}")


def _load_config(path: str) -> LabeledConfiguration:
    loaded = jsonio.load_any(jsonio.read_json(path))
    if isinstance(loaded, Hypergraph):
        raise HypergraphError(f"{path}: expected a configuration with roles")
    return loaded


def _counterexample_obj(counterexample) -> Optional[dict]:
    if counterexample is None:
        return None
    return {
        "subset": list(counterexample.subset),
        "condition": counterexample.condition,
        "observed_delta": counterexample.observed_delta,
        "required_bound": counterexample.required_bound,
    }


def _inputs_obj(**paths: Optional[str]) -> dict:
    return {
        name: {"path": path, "sha256": jsonio.file_digest(path)}
        for name, path in paths.items()
        if path is not None
    }


def _config_summary(config: LabeledConfiguration) -> dict:
    return {
        "family": dict(config.family),
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


def _cmd_build(args) -> tuple[dict, int]:
    from sparsehg.families import f14, factorial_family, geometric_tower, linear_three_cycle

    if args.what == "cycle":
        config = linear_three_cycle()
    elif args.what == "f14":
        config = f14()
    elif args.what == "f-k":
        config = factorial_family(args.k)
    else:
        config = geometric_tower(
            _tower_base(args.base),
            args.ell,
            allow_edge_base=args.base == "edge",
        )
    report = {"command": f"build {args.what}", **_config_summary(config)}
    _emit(report, "configuration", jsonio.config_to_obj(config), args.output)
    return report, EXIT_OK


def _phase_timings(started: float, loaded: float) -> dict:
    """load_s from `started` to `loaded` (read and build the input), check_s
    from `loaded` to now; main adds wall_s."""
    return {
        "load_s": round(loaded - started, 6),
        "check_s": round(time.perf_counter() - loaded, 6),
    }


def _cmd_verify_scan(args) -> tuple[dict, int]:
    """verify nice and verify gl-props: one report over either subset scan."""
    from sparsehg.niceness import NOT_NICE, sample_nice, verify_nice, verify_tower_bounds

    sampled = args.samples is not None
    started = time.perf_counter()
    if args.verify_cmd == "nice":
        config = jsonio.load_any(jsonio.read_json(args.input))
    else:
        config = _load_config(args.input)
    if sampled and args.seed is None:
        raise HypergraphError("--samples requires --seed")
    if not sampled and args.seed is not None:
        raise HypergraphError("--seed requires --samples")
    loaded = time.perf_counter()
    if args.verify_cmd == "gl-props":
        result = verify_tower_bounds(
            config, exhaustive=not sampled, samples=args.samples, seed=args.seed
        )
    elif sampled:
        result = sample_nice(config, args.witness, samples=args.samples, seed=args.seed)
    else:
        result = verify_nice(config, args.witness)
    report = {
        "command": f"verify {args.verify_cmd}",
        "inputs": _inputs_obj(input=args.input),
        "method": "sampled" if sampled else "exhaustive",
        "verdict": result.verdict,
        "checked_subsets": result.checked_subsets,
        "counterexample": _counterexample_obj(result.counterexample),
        "seed": result.seed,
        "timings": _phase_timings(started, loaded),
    }
    code = EXIT_REFUTED if result.verdict == NOT_NICE else EXIT_OK
    return report, code


def _cmd_verify_claim63(args) -> tuple[dict, int]:
    from sparsehg.families import linear_three_cycle
    from sparsehg.niceness import verify_cycle_bounds

    started = time.perf_counter()
    config = linear_three_cycle()
    loaded = time.perf_counter()
    holds = verify_cycle_bounds(config)
    report = {
        "command": "verify claim63",
        "holds": holds,
        "method": "exhaustive",
        # verify_cycle_bounds scans all 2^v subsets once per X role split
        "passes": 2,
        "checked_subsets": 1 << config.graph.vertex_count,
        "timings": _phase_timings(started, loaded),
    }
    return report, EXIT_OK if holds else EXIT_REFUTED


def _cmd_extract(args) -> tuple[dict, int]:
    from sparsehg.extraction import extract
    from sparsehg.families import geometric_tower

    chain = geometric_tower(
        _tower_base(args.base),
        args.ell,
        allow_edge_base=args.base == "edge",
    )
    result = extract(chain, args.t)
    report = {
        "command": "extract",
        "base": args.base,
        "ell": args.ell,
        "t": args.t,
        "v": result.subgraph.vertex_count,
        "e": result.subgraph.edge_count,
        "delta": result.verified.delta,
        "trace": [dict(step) for step in result.trace],
    }
    if args.output is not None:
        jsonio.write_json(args.output, jsonio.graph_to_obj(result.subgraph))
        report["output"] = args.output
    if args.trace_out is not None:
        jsonio.write_json(args.trace_out, report["trace"])
        report["trace_output"] = args.trace_out
    return report, EXIT_OK


def _cmd_project(args) -> tuple[dict, int]:
    from sparsehg.projection import project

    graph = jsonio.graph_from_obj(jsonio.read_json(args.input))
    result = project(graph, args.k, args.e)
    report = {
        "command": "project",
        "inputs": _inputs_obj(input=args.input),
        "case": result.case_tag,
        "anchors": list(result.anchors),
        "kept_links": None if result.projected is None else len(result.projected.pairs),
        "heavy_edges": None
        if result.heavy_config is None
        else result.heavy_config.edge_count,
    }
    _emit(report, "projection", jsonio.projection_to_obj(result), args.output)
    return report, EXIT_OK


def _cmd_lift(args) -> tuple[dict, int]:
    from sparsehg.projection import lift

    result = jsonio.projection_from_obj(jsonio.read_json(args.proj))
    config3 = jsonio.graph_from_obj(jsonio.read_json(args.config))
    lifted = lift(result, config3)
    report = {
        "command": "lift",
        "inputs": _inputs_obj(proj=args.proj, config=args.config),
        "v": lifted.vertex_count,
        "e": lifted.edge_count,
    }
    _emit(report, "lifted", jsonio.graph_to_obj(lifted), args.output)
    return report, EXIT_OK


def _cmd_ramsey(args) -> tuple[dict, int]:
    from sparsehg.ramsey import check_coloring, coloring_to_4graph, q_quad, verify_implication

    if args.ramsey_cmd == "qquad":
        return {
            "command": "ramsey qquad",
            "p": args.p,
            "q_quad": q_quad(args.p),
        }, EXIT_OK
    coloring = jsonio.coloring_from_obj(jsonio.read_json(args.input))
    inputs = _inputs_obj(input=args.input)
    if args.ramsey_cmd == "check":
        result = check_coloring(coloring, args.p, args.q)
        report = {
            "command": "ramsey check",
            "inputs": inputs,
            "p": result.p,
            "q": result.q,
            "q_quad": result.q_quad_value,
            "min_colors_on_some_kp": result.min_colors_on_some_kp,
            "valid": result.valid,
            "witness_kp": list(result.witness_kp),
        }
        return report, EXIT_OK if result.valid else EXIT_REFUTED
    if args.ramsey_cmd == "to4":
        shadow, log = coloring_to_4graph(coloring)
        report = {
            "command": "ramsey to4",
            "inputs": inputs,
            "v": shadow.vertex_count,
            "e": shadow.edge_count,
            "collisions": sum(1 for entry in log if not entry["fresh"]),
            "log": [
                {
                    "color": entry["color"],
                    "pair1": list(entry["pair1"]),
                    "pair2": list(entry["pair2"]),
                    "edge": list(entry["edge"]),
                    "fresh": entry["fresh"],
                }
                for entry in log
            ],
        }
        _emit(report, "graph", jsonio.graph_to_obj(shadow), args.output)
        return report, EXIT_OK
    holds = verify_implication(coloring, args.p, args.q)
    report = {
        "command": "ramsey implication",
        "inputs": inputs,
        "p": args.p,
        "q": args.q,
        "implication_holds": holds,
    }
    return report, EXIT_OK if holds else EXIT_REFUTED


def _cmd_search(args) -> tuple[dict, int]:
    from sparsehg.search import count_copies, find_configuration

    started = time.perf_counter()
    graph = jsonio.graph_from_obj(jsonio.read_json(args.input))
    if args.search_cmd == "config":
        loaded = time.perf_counter()
        result = find_configuration(graph, args.v, args.e)
        report = {
            "command": "search config",
            "inputs": _inputs_obj(input=args.input),
            "v": args.v,
            "e": args.e,
            "found": result.found,
            "witness": None
            if result.witness is None
            else [list(edge) for edge in result.witness],
            "nodes_explored": result.nodes_explored,
            "timings": _phase_timings(started, loaded),
        }
        return report, EXIT_OK if result.found else EXIT_REFUTED
    pattern = jsonio.graph_from_obj(jsonio.read_json(args.pattern))
    loaded = time.perf_counter()
    result = count_copies(graph, pattern, induced=args.induced)
    report = {
        "command": "search copies",
        "inputs": _inputs_obj(input=args.input, pattern=args.pattern),
        "embeddings": result.embeddings,
        "copies": result.copies,
        "induced": args.induced,
        "nodes_explored": result.nodes_explored,
        "timings": _phase_timings(started, loaded),
    }
    return report, EXIT_OK


def build_parser() -> _Parser:
    # only the commands that write a file take -o
    output = _Parser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="write the result here")
    # only the subset scans sample
    scan = _Parser(add_help=False)
    scan.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    group = scan.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="scan every subset (default)")
    group.add_argument("--samples", type=int, default=None, help="sampled scan size")

    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_build = sub.add_parser("build", help="construct a named configuration")
    sb = p_build.add_subparsers(dest="what", required=True)
    sb.add_parser("cycle", parents=[output])
    sb.add_parser("f14", parents=[output])
    p_fk = sb.add_parser("f-k", parents=[output])
    p_fk.add_argument("--k", type=int, required=True, help="witness size, 4..8")
    p_gl = sb.add_parser("g-ell", parents=[output])
    p_gl.add_argument("--base", default="f14", help="tower base: f14 or edge")
    p_gl.add_argument("--ell", type=int, required=True, help="tower height, >= 0")

    p_verify = sub.add_parser("verify", help="check a structural property")
    sv = p_verify.add_subparsers(dest="verify_cmd", required=True)
    p_nice = sv.add_parser("nice", parents=[scan])
    p_nice.add_argument("--input", required=True, help="graph or configuration JSON")
    p_nice.add_argument(
        "--witness", type=_witness_arg, default=None,
        help="comma-separated witness labels (default: role A)",
    )
    sv.add_parser("claim63")
    p_glp = sv.add_parser("gl-props", parents=[scan])
    p_glp.add_argument("--input", required=True, help="tower configuration JSON")

    p_extract = sub.add_parser("extract", parents=[output], help="subgraph with 10t edges")
    p_extract.add_argument("--base", default="f14", help="tower base: f14 or edge")
    p_extract.add_argument("--ell", type=int, required=True, help="tower height")
    p_extract.add_argument("--t", type=int, required=True, help="edge multiple")
    p_extract.add_argument("--trace", dest="trace_out", default=None, help="write the descent trace here")

    p_project = sub.add_parser("project", parents=[output], help="anchor and reduce to 3-uniform")
    p_project.add_argument("--input", required=True, help="r-uniform graph JSON")
    p_project.add_argument("--k", type=int, required=True)
    p_project.add_argument("--e", type=int, required=True)

    p_lift = sub.add_parser("lift", parents=[output], help="pull a 3-uniform hit back up")
    p_lift.add_argument("--proj", required=True, help="projection JSON from `project`")
    p_lift.add_argument("--config", required=True, help="3-uniform configuration JSON")

    p_ramsey = sub.add_parser("ramsey", help="edge colorings and the 4-graph shadow")
    sr = p_ramsey.add_subparsers(dest="ramsey_cmd", required=True)
    p_qq = sr.add_parser("qquad")
    p_qq.add_argument("--p", type=int, required=True)
    p_check = sr.add_parser("check")
    p_check.add_argument("--input", required=True, help="coloring JSON")
    p_check.add_argument("--p", type=int, required=True)
    p_check.add_argument("--q", type=int, required=True)
    p_to4 = sr.add_parser("to4", parents=[output])
    p_to4.add_argument("--input", required=True, help="coloring JSON")
    p_impl = sr.add_parser("implication")
    p_impl.add_argument("--input", required=True, help="coloring JSON")
    p_impl.add_argument("--p", type=int, required=True)
    p_impl.add_argument("--q", type=int, required=True)

    p_search = sub.add_parser("search", help="brute-force oracles")
    ss = p_search.add_subparsers(dest="search_cmd", required=True)
    p_cfg = ss.add_parser("config")
    p_cfg.add_argument("--input", required=True, help="graph JSON")
    p_cfg.add_argument("--v", type=int, required=True)
    p_cfg.add_argument("--e", type=int, required=True)
    p_cp = ss.add_parser("copies")
    p_cp.add_argument("--input", required=True, help="host graph JSON")
    p_cp.add_argument("--pattern", required=True, help="pattern graph JSON")
    p_cp.add_argument("--induced", action="store_true")

    return parser


_DISPATCH = {
    "build": _cmd_build,
    "extract": _cmd_extract,
    "project": _cmd_project,
    "lift": _cmd_lift,
    "ramsey": _cmd_ramsey,
    "search": _cmd_search,
}


def main(argv: Optional[list[str]] = None) -> int:
    # The sampled draws (kernels._draw, _transpose and _draws) use only ufuncs
    # and array reshaping, never BLAS, so OpenBLAS worker threads are pure
    # start-up cost. Set here, not in kernels, to leave a library user's BLAS
    # alone; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals both --help and usage errors this way
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.cmd == "verify":
            handler = {
                "nice": _cmd_verify_scan,
                "claim63": _cmd_verify_claim63,
                "gl-props": _cmd_verify_scan,
            }[args.verify_cmd]
        else:
            handler = _DISPATCH[args.cmd]
        report, code = handler(args)
    except HypergraphError as exc:
        print(f"sparsehg: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"sparsehg: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report.setdefault("timings", {})["wall_s"] = round(time.perf_counter() - started, 6)
    report["report_sha256"] = jsonio.report_digest(
        {k: v for k, v in report.items() if k != "report_sha256"}
    )
    sys.stdout.write(jsonio.canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
