"""End-to-end CLI coverage: every command path, exit codes, and the
stability of emitted reports. Runs in process through main(argv)."""

from __future__ import annotations

import argparse
import builtins
import collections
import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparsehg
from sparsehg import jsonio
import sparsehg.cli as cli
from sparsehg.cli import build_parser, main
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import f14, factorial_family, geometric_tower
from sparsehg.niceness import verify_tower_bounds
from sparsehg.projection import project
from sparsehg.ramsey import packed_coloring, random_coloring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def error_lines(capsys):
    err = capsys.readouterr().err
    return [line for line in err.splitlines() if line.startswith("sparsehg: error:")]


@pytest.fixture()
def f14_file(tmp_path, capsys):
    path = tmp_path / "f14.json"
    code, _ = run(capsys, "build", "f14", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def cycle_file(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    assert run(capsys, "build", "cycle", "-o", str(path))[0] == 0
    return str(path)


def test_build_f14_report(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, report = run(capsys, "build", "f14", "-o", str(out))
    assert code == 0
    assert (report["v"], report["e"], report["delta"]) == (14, 10, 4)
    assert report["family"] == {"name": "f14"}
    assert jsonio.load_any(jsonio.read_json(out)[0]).graph.edge_count == 10


def test_build_without_output_embeds_configuration(capsys):
    code, report = run(capsys, "build", "cycle")
    assert code == 0
    assert report["configuration"]["r"] == 3
    assert len(report["configuration"]["edges"]) == 3


def test_build_fk_guard_exit_code(capsys):
    code = main(["build", "f-k", "--k", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert "must be an integer in [4, 8]" in err


def test_build_fk_and_tower(capsys, tmp_path):
    code, report = run(capsys, "build", "f-k", "--k", "5", "-o", str(tmp_path / "f5.json"))
    assert code == 0 and report["e"] == 50
    code, report = run(
        capsys, "build", "g-ell", "--ell", "2", "-o", str(tmp_path / "g2.json")
    )
    assert code == 0 and report["e"] == 210 and report["delta"] == 6
    code, report = run(
        capsys, "build", "g-ell", "--base", "edge", "--ell", "2",
        "-o", str(tmp_path / "eg2.json"),
    )
    assert code == 0 and (report["v"], report["e"]) == (11, 7)


def test_unknown_subcommand_exits_one(capsys):
    assert main(["build", "whatever"]) == 1
    assert main(["frobnicate"]) == 1
    # the full parser's errors name the command argument `cmd`
    assert error_lines(capsys)[-1].startswith(
        "sparsehg: error: argument cmd: invalid choice: 'frobnicate'")
    assert main([]) == 1
    assert error_lines(capsys) == ["sparsehg: error: the following arguments are required: cmd"]


@pytest.mark.parametrize("argv", [
    ["verify", "nice"],
    ["build", "f-k", "--k", "x"],
    ["verify", "nice", "--input", "f14.json", "--witness", ","],
], ids=" ".join)
def test_subcommand_usage_errors_name_the_program(capsys, argv):
    # errors raised by a subcommand's own parser, not the top-level one
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = [line for line in err.splitlines() if ": error:" in line]
    assert len(lines) == 1 and lines[0].startswith("sparsehg: error:")


def test_verify_nice_pass(capsys, f14_file):
    code, report = run(capsys, "verify", "nice", "--input", f14_file)
    assert code == 0
    assert report["verdict"] == "NICE"
    assert report["checked_subsets"] == 16384
    assert report["counterexample"] is None
    assert report["inputs"]["input"]["sha256"] == _sha256_of(f14_file)
    assert report["method"] == "exhaustive" and "backend" not in report


def test_verify_nice_counterexample_exit_two(capsys, cycle_file):
    code, report = run(capsys, "verify", "nice", "--input", cycle_file)
    assert code == 2
    assert report["verdict"] == "NOT_NICE"
    assert report["counterexample"]["subset"] == ["v1", "v2", "v5"]
    assert report["counterexample"]["condition"] == "Cond2"


def test_verify_nice_explicit_witness(capsys, f14_file):
    code, report = run(
        capsys, "verify", "nice", "--input", f14_file,
        "--witness", "w4,wp1,wp2,wp3,wp4",
    )
    assert code == 0 and report["verdict"] == "NICE"


def test_verify_nice_sampled_needs_seed(capsys, f14_file):
    code = main(["verify", "nice", "--input", f14_file, "--samples", "100"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_seed_without_samples_exits_one(capsys, f14_file, tmp_path):
    g0 = str(tmp_path / "g0.json")
    assert run(capsys, "build", "g-ell", "--ell", "0", "-o", g0)[0] == 0
    for argv in (
        ["verify", "nice", "--input", f14_file, "--seed", "3"],
        ["verify", "nice", "--input", f14_file, "--exhaustive", "--seed", "3"],
        ["verify", "gl-props", "--input", g0, "--seed", "3"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if ": error:" in line]
        assert len(lines) == 1 and lines[0].startswith("sparsehg: error:")
        assert "--seed requires --samples" in lines[0]


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 63)])
@pytest.mark.parametrize("command", ["nice", "gl-props"])
def test_seed_outside_64_bits_exits_one(capsys, tmp_path, command, seed):
    # the stream reads seeds mod 2^64: -1 would draw what 2^64 - 1 draws
    g0 = str(tmp_path / "g0.json")
    assert run(capsys, "build", "g-ell", "--ell", "0", "-o", g0)[0] == 0
    argv = ["verify", command, "--input", g0, "--samples", "10"]
    assert main(argv + ["--seed", str(seed)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"sparsehg: error: seed must be in [0, 2^64), got {seed}"]
    for edge in (0, (1 << 64) - 1):
        code, report = run(capsys, *argv, "--seed", str(edge))
        assert code == 0 and report["seed"] == edge


def test_verify_nice_sampled(capsys, f14_file):
    code, report = run(
        capsys, "verify", "nice", "--input", f14_file,
        "--samples", "2000", "--seed", "5",
    )
    assert code == 0
    assert report["verdict"] == "SAMPLED_NO_VIOLATION"
    assert report["seed"] == 5


def test_verify_nice_exclusive_flags(capsys, f14_file):
    code = main(
        ["verify", "nice", "--input", f14_file, "--exhaustive", "--samples", "5"]
    )
    assert code == 1


def test_verify_claim63(capsys):
    code, report = run(capsys, "verify", "claim63")
    assert code == 0
    assert report["holds"] is True
    assert report["checked_subsets"] == 64


def test_verify_claim63_reports_the_scans_that_ran(capsys, monkeypatch):
    # with the extra edge v1,v2,v3 the first scan (X = {v1}) finds that
    # triple, of difference 2 against Item 1's bound 3, as its 8th subset,
    # and no second scan runs
    import sparsehg.families as families

    cycle = families.linear_three_cycle()
    graph = Hypergraph(3, cycle.graph.vertices, [*cycle.graph.edges, ("v1", "v2", "v3")])
    extended = families.LabeledConfiguration(graph=graph, roles=cycle.roles, family=cycle.family)
    monkeypatch.setattr(families, "linear_three_cycle", lambda: extended)
    code, report = run(capsys, "verify", "claim63")
    assert code == 2
    assert (report["holds"], report["passes"], report["checked_subsets"]) == (False, 1, 8)


def test_verify_gl_props_exhaustive_and_sampled(capsys, tmp_path):
    g0 = tmp_path / "g0.json"
    assert run(capsys, "build", "g-ell", "--ell", "0", "-o", str(g0))[0] == 0
    code, report = run(capsys, "verify", "gl-props", "--input", str(g0))
    assert code == 0 and report["verdict"] == "NICE"
    g1 = tmp_path / "g1.json"
    assert run(capsys, "build", "g-ell", "--ell", "1", "-o", str(g1))[0] == 0
    code, report = run(
        capsys, "verify", "gl-props", "--input", str(g1),
        "--samples", "3000", "--seed", "2",
    )
    assert code == 0 and report["verdict"] == "SAMPLED_NO_VIOLATION"


def test_workers_is_a_usage_error_everywhere(capsys, f14_file):
    # every scan runs in one thread; no command takes a worker count
    for argv in (
        ["build", "f14"],
        ["verify", "claim63"],
        ["verify", "nice", "--input", f14_file],
        ["verify", "gl-props", "--input", f14_file],
        ["search", "config", "--input", f14_file, "--v", "3", "--e", "1"],
    ):
        assert main(argv + ["--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if ": error:" in line]
        assert len(lines) == 1 and lines[0].startswith("sparsehg: error:")
        assert "--workers" in lines[0]


# One call per leaf of build_parser(), in order (lift reads project's
# output), run where _write_report_inputs wrote its inputs, with its exit
# code, the keys of its report besides "timings" and "report_sha256", and
# its phases under "timings" besides "wall_s": load_s and check_s where the
# call reads input, else build_s and write_s, then report_s.
_SUMMARY = {"command", "family", "v", "e", "delta"}
_SCAN = {"command", "inputs", "method", "verdict", "checked_subsets", "counterexample", "seed"}
_EXTRACT = {"command", "base", "ell", "t", "v", "e", "delta", "trace"}
_COLORING = ["--input", "coloring.json", "--p", "8", "--q", "27"]
_READS = {"load_s", "check_s", "report_s"}
_BUILDS = {"build_s", "write_s", "report_s"}
_REPORT_KEYS = [
    (("build", "cycle"), 0, [], _SUMMARY | {"configuration"}, _BUILDS),
    (("build", "f14"), 0, ["-o", "out.json"], _SUMMARY | {"output"}, _BUILDS),
    (("build", "f-k"), 0, ["--k", "5"], _SUMMARY | {"configuration"}, _BUILDS),
    (("build", "g-ell"), 0, ["--ell", "0", "-o", "out.json"], _SUMMARY | {"output"}, _BUILDS),
    (("verify", "nice"), 0, ["--input", "f14.json"], _SCAN, _READS),
    (("verify", "nice"), 0, ["--input", "f14.json", "--samples", "100", "--seed", "1"], _SCAN,
     _READS),
    (("verify", "nice"), 2, ["--input", "cycle.json"], _SCAN, _READS),
    (("verify", "claim63"), 0, [], {"command", "holds", "method", "passes", "checked_subsets"},
     _READS),
    (("verify", "gl-props"), 0, ["--input", "g0.json"], _SCAN, _READS),
    (("verify", "gl-props"), 0, ["--input", "g0.json", "--samples", "100", "--seed", "1"], _SCAN,
     _READS),
    (("extract",), 0, ["--ell", "1", "--t", "1"], _EXTRACT, _BUILDS),
    (("extract",), 0, ["--ell", "1", "--t", "1", "-o", "sub.json", "--trace", "trace.json"],
     _EXTRACT | {"output", "trace_output"}, _BUILDS),
    (("project",), 0, ["--input", "h4.json", "--k", "2", "--e", "3", "-o", "proj.json"],
     {"command", "inputs", "case", "anchors", "kept_links", "heavy_edges", "output"}, _READS),
    (("project",), 0, ["--input", "h4.json", "--k", "2", "--e", "3"],
     {"command", "inputs", "case", "anchors", "kept_links", "heavy_edges", "projection"}, _READS),
    (("lift",), 0, ["--proj", "proj.json", "--config", "cfg3.json"],
     {"command", "inputs", "v", "e", "lifted"}, _READS),
    (("ramsey", "qquad"), 0, ["--p", "8"], {"command", "p", "q_quad"}, _BUILDS),
    (("ramsey", "check"), 2, _COLORING,
     {"command", "inputs", "p", "q", "q_quad", "min_colors_on_some_kp", "valid", "witness_kp"},
     _READS),
    (("ramsey", "to4"), 0, ["--input", "coloring.json"],
     {"command", "inputs", "v", "e", "collisions", "log", "graph"}, _READS),
    (("ramsey", "implication"), 0, _COLORING, {"command", "inputs", "p", "q", "implication_holds"},
     _READS),
    (("search", "config"), 0, ["--input", "f14.json", "--v", "9", "--e", "5"],
     {"command", "inputs", "v", "e", "found", "witness", "nodes_explored"}, _READS),
    (("search", "copies"), 0, ["--input", "f14.json", "--pattern", "cycle.json"],
     {"command", "inputs", "embeddings", "copies", "induced", "nodes_explored"}, _READS),
]


def _write_report_inputs(capsys):
    for name, argv in (("f14.json", ["f14"]), ("cycle.json", ["cycle"]),
                       ("g0.json", ["g-ell", "--ell", "0"])):
        assert run(capsys, "build", *argv, "-o", name)[0] == 0
    jsonio.write_json("coloring.json", jsonio.coloring_to_obj(packed_coloring(8, 8)))
    labels = [f"u{i}" for i in range(9)]
    jsonio.write_json("h4.json", {"r": 4, "vertices": labels, "edges": [
        ["u0", "u1", "u2", "u3"], ["u3", "u4", "u5", "u6"], ["u0", "u4", "u7", "u8"]]})
    # the first triple the projection of h4.json records
    jsonio.write_json("cfg3.json", {"r": 3, "vertices": labels, "edges": [["u0", "u1", "u2"]]})


def test_verify_reports_name_their_method(capsys, tmp_path, monkeypatch):
    """Every command's report keys and timing phases, with the method of
    each verify report, the nested shapes of counterexamples, logs, traces
    and witnesses, and a report_sha256 that digests the rest of the report."""
    assert {leaf for leaf, *_ in _REPORT_KEYS} == set(_leaf_commands(build_parser()))
    monkeypatch.chdir(tmp_path)
    _write_report_inputs(capsys)
    reports = {}
    for leaf, expected, extra, keys, phases in _REPORT_KEYS:
        code, report = run(capsys, *leaf, *extra)
        assert code == expected, (leaf, extra)
        assert set(report) == keys | {"timings", "report_sha256"}, (leaf, extra)
        timings = report["timings"]
        assert set(timings) == phases | {"wall_s"}, (leaf, extra)
        assert 0 <= sum(timings[p] for p in phases) <= timings["wall_s"] + 1e-5
        rest = {k: v for k, v in report.items() if k != "report_sha256"}
        assert report["report_sha256"] == jsonio.report_digest(rest)
        if "method" in keys:
            sampled = "--samples" in extra
            assert report["method"] == ("sampled" if sampled else "exhaustive")
        reports[" ".join((*leaf, *extra))] = report

    claim63 = reports["verify claim63"]
    assert (claim63["passes"], claim63["checked_subsets"]) == (2, 64)
    assert reports["verify nice --input f14.json"]["counterexample"] is None
    refuted = reports["verify nice --input cycle.json"]
    assert set(refuted["counterexample"]) == {
        "subset", "condition", "observed_delta", "required_bound"}
    assert all(isinstance(v, str) for v in refuted["counterexample"]["subset"])
    log = reports["ramsey to4 --input coloring.json"]["log"]
    assert log and all(
        set(entry) == {"color", "pair1", "pair2", "edge", "fresh"}
        and len(entry["pair1"]) == len(entry["pair2"]) == 2 and len(entry["edge"]) == 4
        for entry in log)
    trace = reports["extract --ell 1 --t 1"]["trace"]
    assert trace and all(
        set(step) == {"level", "t", "branch", "d", "t_residual", "descent_level"}
        for step in trace)
    assert jsonio.read_json("trace.json")[0] == trace
    labels, edges = reports["search config --input f14.json --v 9 --e 5"]["witness"]
    assert (len(labels), len(edges)) == (9, 5)
    assert all(isinstance(v, str) for v in labels)
    assert all(len(edge) == 3 and set(edge) <= set(labels) for edge in edges)
    copies = reports["search copies --input f14.json --pattern cycle.json"]
    assert (copies["copies"], copies["embeddings"], copies["nodes_explored"]) == (5, 30, 3247)


def test_phases_cover_the_whole_call(capsys, tmp_path, monkeypatch):
    # a clock that advances one tick per read: time read outside every phase
    # would leave the phases short of wall_s
    monkeypatch.chdir(tmp_path)
    _write_report_inputs(capsys)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=itertools.count().__next__))
    for leaf, expected, extra, _, phases in _REPORT_KEYS:
        code, report = run(capsys, *leaf, *extra)
        assert code == expected, (leaf, extra)
        timings = report["timings"]
        assert sum(timings[p] for p in phases) == timings["wall_s"] > 0, (leaf, extra)


def _sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the report's name of each option that names an input file
_INPUT_OPTIONS = {"--input": "input", "--proj": "proj", "--config": "config",
                  "--pattern": "pattern"}


def test_inputs_are_read_once_and_digested_as_read(capsys, tmp_path, monkeypatch):
    """Every leaf that reads input opens each input file once and reports
    the sha256 of its bytes, for both inputs of lift and search copies."""
    monkeypatch.chdir(tmp_path)
    _write_report_inputs(capsys)
    opened: collections.Counter = collections.Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[os.path.abspath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    readers = set()
    for leaf, expected, extra, keys, _ in _REPORT_KEYS:
        given = {_INPUT_OPTIONS[opt]: path for opt, path in zip(extra, extra[1:])
                 if opt in _INPUT_OPTIONS}
        assert ("inputs" in keys) == bool(given), (leaf, extra)
        opened.clear()
        code, report = run(capsys, *leaf, *extra)
        assert code == expected, (leaf, extra)
        reads = {path: opened[os.path.abspath(path)] for path in given.values()}
        assert reads == dict.fromkeys(given.values(), 1), (leaf, extra)
        if given:
            readers.add(leaf)
            assert report["inputs"] == {
                name: {"path": path, "sha256": _sha256_of(path)} for name, path in given.items()
            }, (leaf, extra)
    assert readers == {
        ("verify", "nice"), ("verify", "gl-props"), ("project",), ("lift",),
        ("ramsey", "check"), ("ramsey", "to4"), ("ramsey", "implication"),
        ("search", "config"), ("search", "copies"),
    }


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("redirected", [False, True], ids=["piped", "redirected"])
def test_piped_input_reports_the_digest_of_its_bytes(f14_file, redirected):
    # a pipe gives its bytes once, so a digest taken by a second read would
    # be that of the empty string; a redirected file is read through the
    # same /dev/stdin
    data = Path(f14_file).read_bytes()
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "sparsehg.cli", "verify", "nice", "--input", "/dev/stdin"]
    env = dict(os.environ, PYTHONPATH=path)
    if redirected:
        with open(f14_file, "rb") as stdin:
            proc = subprocess.run(argv, stdin=stdin, capture_output=True, env=env)
    else:
        proc = subprocess.run(argv, input=data, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["inputs"]["input"]["sha256"] == hashlib.sha256(data).hexdigest()
    assert report["verdict"] == "NICE"


def test_repeated_witness_label_exits_one(capsys, f14_file, tmp_path):
    # four distinct vertices would otherwise pass as a five-vertex witness
    assert main(["verify", "nice", "--input", f14_file,
                 "--witness", "w4,w4,wp1,wp2,wp3"]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and "witness repeats label 'w4'" in lines[0]
    doc = jsonio.read_json(f14_file)[0]
    doc["roles"]["A"] = ["w4", "w4", "wp1", "wp2", "wp3"]
    doubled = tmp_path / "doubled.json"
    jsonio.write_json(doubled, doc)
    assert main(["verify", "nice", "--input", str(doubled)]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and "witness repeats label 'w4'" in lines[0]


# the required arguments of every subcommand; parsing reads no file
_REQUIRED = {
    ("build", "cycle"): [],
    ("build", "f14"): [],
    ("build", "f-k"): ["--k", "5"],
    ("build", "g-ell"): ["--ell", "0"],
    ("verify", "nice"): ["--input", "g.json"],
    ("verify", "claim63"): [],
    ("verify", "gl-props"): ["--input", "g.json"],
    ("extract",): ["--ell", "1", "--t", "1"],
    ("project",): ["--input", "g.json", "--k", "2", "--e", "3"],
    ("lift",): ["--proj", "p.json", "--config", "c.json"],
    ("ramsey", "qquad"): ["--p", "8"],
    ("ramsey", "check"): ["--input", "c.json", "--p", "8", "--q", "27"],
    ("ramsey", "to4"): ["--input", "c.json"],
    ("ramsey", "implication"): ["--input", "c.json", "--p", "8", "--q", "27"],
    ("search", "config"): ["--input", "g.json", "--v", "3", "--e", "1"],
    ("search", "copies"): ["--input", "g.json", "--pattern", "p.json"],
}
# the commands that read each option
_READERS = {
    "--seed": {("verify", "nice"), ("verify", "gl-props")},
    "-o": {
        ("build", "cycle"), ("build", "f14"), ("build", "f-k"), ("build", "g-ell"),
        ("extract",), ("project",), ("lift",), ("ramsey", "to4"),
    },
}


def _leaf_commands(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for a in subs for name, child in a.choices.items()
            for leaf in _leaf_commands(child, prefix + (name,))]


def test_required_arguments_cover_every_subcommand():
    assert sorted(_leaf_commands(build_parser())) == sorted(_REQUIRED)


@pytest.mark.parametrize("command", sorted(_REQUIRED), ids=" ".join)
@pytest.mark.parametrize("option", ["--seed", "-o"])
def test_options_only_on_commands_that_read_them(capsys, tmp_path, monkeypatch, command, option):
    monkeypatch.chdir(tmp_path)
    value = "7" if option == "--seed" else "out.json"
    argv = [*command, *_REQUIRED[command], option, value]
    if command in _READERS[option]:
        args = build_parser().parse_args(argv)
        assert (args.seed if option == "--seed" else args.output) == (7 if option == "--seed" else value)
        return
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = [line for line in err.splitlines() if line.startswith("sparsehg: error:")]
    assert len(lines) == 1 and "unrecognized arguments" in lines[0]
    assert not (tmp_path / "out.json").exists()


def _parse(parser, argv):
    """The Namespace parser.parse_args(argv) returns, or the exit code it
    raises; with what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_PREFIXES = sorted({leaf[:i] for leaf in _REQUIRED for i in range(1, len(leaf) + 1)})


@pytest.mark.parametrize("argv", [
    *([*leaf, *_REQUIRED[leaf]] for leaf in sorted(_REQUIRED)),
    *([*leaf, *_REQUIRED[leaf], "--bogus"] for leaf in sorted(_REQUIRED)),
    *(list(prefix) for prefix in _PREFIXES),
    *([*prefix, "--help"] for prefix in _PREFIXES),
    *([command, "frobnicate"] for command in sorted({leaf[0] for leaf in _REQUIRED if leaf[1:]})),
], ids=" ".join)
def test_one_command_parser_matches_the_full_parser(argv):
    # the same Namespace, or the same help or usage error byte for byte
    full = _parse(build_parser(), argv)
    assert _parse(build_parser(argv[0]), argv) == full
    assert full[0] != 0 or full[1]


def test_help_states_the_contract_without_the_implementation_notes(capsys):
    # --help describes what a user gets, not how main dispatches
    assert main(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "2 when a check produced a counterexample or a search came up empty" in out
    assert "Sampled checks require an explicit --seed" in out
    for note in ("set_defaults", "args.run", "phase("):
        assert note not in out


def test_main_builds_the_parser_of_the_named_command_only(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    for argv in (["ramsey", "qquad", "--p", "8"], ["--help"], ["frobnicate"], []):
        main(argv)
    assert built == ["ramsey", None, None, None]
    assert {leaf[0] for leaf in _leaf_commands(real("ramsey"))} == {"ramsey"}


# the options whose value names a file the command reads
_READ_OPTIONS = ("--input", "--pattern", "--proj", "--config")


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # every sparsehg line of the README's CLI block, in order, but for those
    # that read a file no earlier line writes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.splitlines():
        if not line.startswith("sparsehg "):
            continue
        argv = shlex.split(line)[1:]
        if any(opt in _READ_OPTIONS and not os.path.exists(value)
               for opt, value in zip(argv, argv[1:])):
            continue
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
        ran.append(argv[0])
    assert len(ran) >= 9 and {"build", "verify", "extract", "ramsey"} <= set(ran), ran


def _write(path, obj):
    jsonio.write_json(path, obj)
    return str(path)


def _triples(n, m):
    labels = [f"t{i}" for i in range(n)]
    return {"r": 3, "vertices": labels,
            "edges": [list(e) for e in itertools.islice(itertools.combinations(labels, 3), m)]}


# each size guard the CLI reaches: files to write, then the command
_GUARDS = {
    "exhaustive-nice": (
        {"f6.json": lambda: jsonio.config_to_obj(factorial_family(6))},
        ["verify", "nice", "--input", "f6.json"], "free vertices"),
    "exhaustive-gl-props": (
        {"g1.json": lambda: jsonio.config_to_obj(geometric_tower(f14(), 1))},
        ["verify", "gl-props", "--input", "g1.json"], "free vertices"),
    "tower-size": ({}, ["build", "g-ell", "--ell", "5"], "size guard"),
    "tower-huge-ell": ({}, ["build", "g-ell", "--ell", "1000000"], "size guard"),
    "extract-huge-ell": ({}, ["extract", "--ell", "1000000", "--t", "1"], "size guard"),
    "factorial-k": ({}, ["build", "f-k", "--k", "9"], "[4, 8]"),
    "search": (
        {"host.json": lambda: _triples(21, 61)},
        ["search", "config", "--input", "host.json", "--v", "6", "--e", "3"], "search limited"),
    "pattern": (
        {"host.json": lambda: _triples(6, 4), "pat.json": lambda: _triples(15, 1)},
        ["search", "copies", "--input", "host.json", "--pattern", "pat.json"],
        "pattern limited"),
    "ramsey-check": (
        {"c.json": lambda: jsonio.coloring_to_obj(random_coloring(15, 0))},
        ["ramsey", "check", "--input", "c.json", "--p", "4", "--q", "5"],
        "exact clique scan limited to 14 vertices; got 15"),
    "ramsey-implication": (
        {"c.json": lambda: jsonio.coloring_to_obj(random_coloring(13, 0))},
        ["ramsey", "implication", "--input", "c.json", "--p", "4", "--q", "5"],
        "implication check limited to 12 vertices; got 13"),
    "project": (
        {"h.json": lambda: {"r": 4, "vertices": [f"u{i}" for i in range(41)],
                            "edges": [["u0", "u1", "u2", "u3"]]}},
        ["project", "--input", "h.json", "--k", "2", "--e", "3"], "projection limited"),
    "project-one-vertex": (
        {"h.json": lambda: {"r": 5, "vertices": ["a"], "edges": []}},
        ["project", "--input", "h.json", "--k", "4", "--e", "2"], "anchor vertices"),
    "project-no-vertex": (
        {"h.json": lambda: {"r": 4, "vertices": [], "edges": []}},
        ["project", "--input", "h.json", "--k", "3", "--e", "2"], "anchor vertices"),
}


@pytest.mark.parametrize("guard", sorted(_GUARDS))
def test_size_guards_exit_one(capsys, tmp_path, monkeypatch, guard):
    files, argv, message = _GUARDS[guard]
    monkeypatch.chdir(tmp_path)
    for name, make in files.items():
        _write(name, make())
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("sparsehg: error:") and message in err


def test_extract_writes_subgraph_and_trace(capsys, tmp_path):
    sub = tmp_path / "sub.json"
    trace = tmp_path / "trace.json"
    code, report = run(
        capsys, "extract", "--ell", "2", "--t", "13",
        "-o", str(sub), "--trace", str(trace),
    )
    assert code == 0
    assert report["e"] == 130
    assert report["delta"] <= 6
    g = jsonio.graph_from_obj(jsonio.read_json(sub)[0])
    assert g.edge_count == 130
    steps = jsonio.read_json(trace)[0]
    assert steps == report["trace"]
    assert steps[0]["branch"] == "claim"


def test_extract_out_of_range_exits_one(capsys):
    assert main(["extract", "--ell", "1", "--t", "99"]) == 1


def test_project_and_lift_files(capsys, tmp_path):
    h = Hypergraph(
        4,
        [f"u{i}" for i in range(9)],
        [("u0", "u1", "u2", "u3"), ("u3", "u4", "u5", "u6"), ("u0", "u4", "u7", "u8")],
    )
    hpath = tmp_path / "h.json"
    jsonio.write_json(hpath, jsonio.graph_to_obj(h))
    ppath = tmp_path / "proj.json"
    code, report = run(
        capsys, "project", "--input", str(hpath), "--k", "2", "--e", "3",
        "-o", str(ppath),
    )
    assert code == 0
    assert report["case"] == "Projected"
    assert report["kept_links"] == 3
    proj = jsonio.projection_from_obj(jsonio.read_json(ppath)[0])
    cpath = tmp_path / "cfg3.json"
    jsonio.write_json(
        cpath,
        {
            "r": 3,
            "vertices": list(proj.projected.graph3.vertices),
            "edges": [list(proj.projected.pairs[0][0])],
        },
    )
    lpath = tmp_path / "lifted.json"
    code, report = run(
        capsys, "lift", "--proj", str(ppath), "--config", str(cpath),
        "-o", str(lpath),
    )
    assert code == 0
    lifted = jsonio.graph_from_obj(jsonio.read_json(lpath)[0])
    assert lifted.edges == (("u0", "u1", "u2", "u3"),)


def test_ramsey_qquad(capsys):
    code, report = run(capsys, "ramsey", "qquad", "--p", "10")
    assert code == 0 and report["q_quad"] == 42


def test_ramsey_check_and_implication(capsys, tmp_path):
    packed = tmp_path / "packed.json"
    jsonio.write_json(packed, jsonio.coloring_to_obj(packed_coloring(8, 8)))
    code, report = run(
        capsys, "ramsey", "check", "--input", str(packed), "--p", "8", "--q", "27"
    )
    assert code == 2
    assert report["min_colors_on_some_kp"] == 26
    assert report["witness_kp"] == list(range(1, 9))
    code, report = run(
        capsys, "ramsey", "implication", "--input", str(packed),
        "--p", "8", "--q", "27",
    )
    assert code == 0 and report["implication_holds"] is True
    good = tmp_path / "rainbow.json"
    pairs = itertools.combinations(range(1, 9), 2)
    jsonio.write_json(good, {"n": 8, "colors": {f"{i},{j}": n for n, (i, j) in enumerate(pairs)}})
    code, report = run(
        capsys, "ramsey", "check", "--input", str(good), "--p", "8", "--q", "27"
    )
    assert code == 0 and report["valid"] is True


def test_ramsey_to4(capsys, tmp_path):
    packed = tmp_path / "packed.json"
    jsonio.write_json(packed, jsonio.coloring_to_obj(packed_coloring(8, 8)))
    out = tmp_path / "shadow.json"
    code, report = run(
        capsys, "ramsey", "to4", "--input", str(packed), "-o", str(out)
    )
    assert code == 0
    assert report["e"] == 2 and report["collisions"] == 0
    shadow = jsonio.graph_from_obj(jsonio.read_json(out)[0])
    assert shadow.edges == (("1", "2", "3", "4"), ("5", "6", "7", "8"))


def test_search_config_exit_codes(capsys, tmp_path):
    packed = tmp_path / "packed.json"
    jsonio.write_json(packed, jsonio.coloring_to_obj(packed_coloring(8, 8)))
    shadow = tmp_path / "shadow.json"
    assert run(capsys, "ramsey", "to4", "--input", str(packed), "-o", str(shadow))[0] == 0
    code, report = run(
        capsys, "search", "config", "--input", str(shadow), "--v", "8", "--e", "2"
    )
    assert code == 0 and report["found"] is True
    code, report = run(
        capsys, "search", "config", "--input", str(shadow), "--v", "7", "--e", "2"
    )
    assert code == 2 and report["found"] is False
    assert "workers" not in report


def test_search_copies(capsys, tmp_path, cycle_file):
    verts = [f"k{i}" for i in range(1, 7)]
    host = tmp_path / "k6.json"
    jsonio.write_json(
        host,
        {"r": 3, "vertices": verts,
         "edges": [list(t) for t in itertools.combinations(verts, 3)]},
    )
    code, report = run(
        capsys, "search", "copies", "--input", str(host), "--pattern", cycle_file
    )
    assert code == 0
    assert report["copies"] == 120
    assert report["embeddings"] == 720
    assert report["nodes_explored"] == 1957


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["search", "config", "--v", "3", "--e", "1"],
         {"r": True, "vertices": ["a", "b"], "edges": []}, "key 'r' must be int, got bool"),
        (["ramsey", "to4"], {"n": True, "colors": {}}, "key 'n' must be int, got bool"),
        (["ramsey", "check", "--p", "2", "--q", "1"],
         {"n": 3, "colors": {"1,2": True, "1,3": 1, "2,3": 2}}, "must be an integer"),
    ],
    ids=["graph-r", "coloring-n", "coloring-color"],
)
def test_json_booleans_are_not_integers(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(argv + ["--input", str(path)]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and message in lines[0]


@pytest.mark.parametrize("subcopies", [[], None, 1, "s", True])
@pytest.mark.parametrize("command", ["nice", "gl-props"])
def test_non_object_subcopies_exit_one(capsys, f14_file, command, subcopies):
    with open(f14_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["subcopies"] = subcopies
    with open(f14_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["verify", command, "--input", f14_file]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and "'subcopies' must be an object" in lines[0]


@pytest.mark.parametrize("command", ["nice", "gl-props"])
def test_non_utf8_input_exits_one(capsys, f14_file, command):
    with open(f14_file, "rb") as fh:
        data = fh.read()
    with open(f14_file, "wb") as fh:
        fh.write(b"\xff\xfe" + data)
    assert main(["verify", command, "--input", f14_file]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and "not UTF-8" in lines[0]


# json.loads raises RecursionError on the first and a ValueError that is not
# a JSONDecodeError on the second: 5,000 digits exceed the int conversion limit
@pytest.mark.parametrize("text", ["[" * 200_000, '{"r": ' + "9" * 5000 + "}"], ids=["deep", "bigint"])
@pytest.mark.parametrize(
    "argv",
    [
        ["search", "config", "--v", "9", "--e", "5"],
        ["verify", "nice"],
        ["ramsey", "check", "--p", "8", "--q", "27"],
    ],
    ids=["search", "verify", "ramsey"],
)
def test_hostile_json_exits_one(capsys, tmp_path, argv, text):
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    assert main(argv + ["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if line.startswith("sparsehg: error:")]
    assert len(lines) == 1 and "not valid JSON" in lines[0]


# JSON values of every type; a mutation sets a key to one whose type differs
# from the valid value's, so every mutated document is invalid
_JSON_VALUES = [None, True, False, 0, 7, 1.5, "s", [], ["x"], [1], {}, {"k": "x"}]
_F14_DOC = jsonio.config_to_obj(f14())
_MUTABLE_PATHS = [
    ("r",), ("vertices",), ("edges",), ("roles",), ("family",), ("subcopies",),
    ("vertices", 0), ("edges", 0), ("roles", "A"),
    ("subcopies", next(iter(_F14_DOC["subcopies"]))),
]
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["r", "vertices", "edges", "roles"])),
    st.tuples(st.just("set"), st.sampled_from(_MUTABLE_PATHS), st.sampled_from(_JSON_VALUES)),
    st.tuples(st.just("bytes"), st.integers(min_value=0, max_value=4000), st.binary(max_size=8)),
)


@settings(max_examples=50, deadline=None)
@given(_MUTATIONS, st.sampled_from(["nice", "gl-props"]))
def test_mutated_f14_documents_exit_one(mutation, command):
    doc = copy.deepcopy(_F14_DOC)
    if mutation[0] == "drop":
        del doc[mutation[1]]
    elif mutation[0] == "set":
        _, path, value = mutation
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        # type(), not isinstance: bool is a subclass of int
        assume(type(value) is not type(target[last]))
        target[last] = value
    text = json.dumps(doc).encode()
    if mutation[0] == "bytes":
        # 0xff never occurs in UTF-8
        _, at, junk = mutation
        text = text[:at] + b"\xff" + junk + text[at:]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", command, "--input", path])
    assert code == 1
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("sparsehg: error:")


_G0_DOC = jsonio.config_to_obj(geometric_tower(f14(), 0))


@pytest.mark.parametrize(
    "role,labels",
    [("x1", []), ("y0", []), ("x1", _G0_DOC["roles"]["x1"] + _G0_DOC["roles"]["x2"])],
    ids=["empty-x1", "empty-y0", "two-label-x1"],
)
def test_malformed_tower_roles_exit_one(capsys, tmp_path, role, labels):
    # each tower role x1..xk, y0..y(ell) names exactly one vertex
    doc = copy.deepcopy(_G0_DOC)
    doc["roles"][role] = labels
    path = tmp_path / "g0.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "gl-props", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sparsehg: error:")
    assert f"tower role {role!r}" in lines[0]


def _mutated(doc, mutate):
    doc = copy.deepcopy(doc)
    mutate(doc)
    return doc


# G^0 role files whose x or y roles leave A_ell, against the precondition
# of the tower bounds; w1 is a vertex of G^0 outside A_ell
_OUTSIDE_A_ELL = {
    "x1-off-A_ell": lambda d: d["roles"].update(x1=["w1"]),
    "x1-dropped-from-A_ell": lambda d: d["roles"].update(
        A_ell=[v for v in d["roles"]["A_ell"] if v not in d["roles"]["x1"]]),
    "y0-off-A_ell": lambda d: d["roles"].update(y0=["w1"]),
}


@pytest.mark.parametrize(
    "method", [["--exhaustive"], ["--samples", "100", "--seed", "1"]],
    ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("mutate", _OUTSIDE_A_ELL.values(), ids=_OUTSIDE_A_ELL)
def test_tower_roles_outside_a_ell_exit_one(capsys, tmp_path, mutate, method):
    assert "w1" not in _G0_DOC["roles"]["A_ell"]
    path = tmp_path / "g0.json"
    path.write_text(json.dumps(_mutated(_G0_DOC, mutate)), encoding="utf-8")
    assert main(["verify", "gl-props", "--input", str(path), *method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sparsehg: error: bounds need ")
    assert lines[0].endswith("a tower's x and y roles must all lie in A_ell")


@pytest.mark.parametrize("mutate", _OUTSIDE_A_ELL.values(), ids=_OUTSIDE_A_ELL)
def test_verify_tower_bounds_refuses_roles_outside_a_ell(mutate):
    config = jsonio.config_from_obj(_mutated(_G0_DOC, mutate))
    with pytest.raises(HypergraphError, match="inside A_ell"):
        verify_tower_bounds(config)


# (exit status, report_sha256) of one call down each kernel path: the
# exhaustive scan (scan_range), the uniform sampled pass (sample_scan) and
# the stratified pass (check_masks), clean and refuting
_PINNED_REPORTS = {
    "verify nice --input f14.json":
        (0, "9245d811dd7fdfed1b2b62bb2cfaa748e3d055f3fcac812cd2b4593899dd65aa"),
    "verify gl-props --input g0.json":
        (0, "57c5b34c21d6db475de96766708aedac8d7a88992c35241eacb173347c4b6d09"),
    "verify gl-props --input g1.json --samples 2000 --seed 11":
        (0, "961421a44d072004d41494760efd5ab004ed99441dd2ad9ab6fc4ed625549360"),
    "verify claim63":
        (0, "b2883bafa472b274840eb50d2a80111de231b9093d99cfc02bd0cfcf7886dcf9"),
    "verify nice --input f5.json --samples 2000 --seed 5":
        (0, "bb45264746a81d3434a841986ffdb70e297249d5caee5a53f682e4a0018b1e5c"),
    # NOT_NICE from the exhaustive scan, the uniform pass (3 subsets) and,
    # past one clean uniform draw, the stratified pass (25 subsets)
    "verify nice --input cycle.json":
        (2, "55e0bc384f1310b445f11d7f2a8ac986d3cb42ce17c2fbb2ff5a5b9b08c0b017"),
    "verify nice --input cycle.json --samples 100 --seed 1":
        (2, "97a41d89f3f7e413ae2e5623a603f903991e92b0e1ebfedddf9437046225761c"),
    "verify nice --input cycle.json --samples 1 --seed 0":
        (2, "475a20ca09f3d872e03a153a2d7dc8019076d34e64191c454487d0ceae18534d"),
}


def test_report_digests_are_pinned(capsys, tmp_path, monkeypatch):
    # run where the inputs are, so that each report's inputs.path is the
    # relative name given
    monkeypatch.chdir(tmp_path)
    for build in ("f14 -o f14.json", "g-ell --ell 0 -o g0.json", "g-ell --ell 1 -o g1.json",
                  "f-k --k 5 -o f5.json", "cycle -o cycle.json"):
        assert main(["build", *build.split()]) == 0
    capsys.readouterr()
    got, checked = {}, {}
    for call in _PINNED_REPORTS:
        code = main(shlex.split(call))
        report = json.loads(capsys.readouterr().out)
        got[call] = (code, report["report_sha256"])
        checked[call] = report.get("checked_subsets")
    assert got == _PINNED_REPORTS
    # each sampled refutation comes from the pass it pins: the uniform pass
    # checks at most its samples, the stratified pass comes after them
    assert checked["verify nice --input cycle.json --samples 100 --seed 1"] <= 100
    assert checked["verify nice --input cycle.json --samples 1 --seed 0"] > 1


def _projection_of_4graph():
    h = Hypergraph(4, [f"u{i}" for i in range(5)], [("u0", "u1", "u2", "u3")])
    return jsonio.projection_to_obj(project(h, 2, 2))


def _projection_file(pairs, edges):
    """A Projected result over labels a..g with these (triple, link) pairs."""
    graph3 = {"r": 3, "vertices": list("abcdefg"), "edges": [list(e) for e in edges]}
    return {"r": 4, "k": 2, "e": 2, "anchors": [], "case": "Projected", "projected": {
        "graph3": graph3, "pairs": [{"triple": list(t), "link": list(y)} for t, y in pairs]}}


_LIFT_ABC = {"cfg3.json": lambda: {"r": 3, "vertices": list("abcdefg"), "edges": [list("abc")]}}
_LIFT = ["lift", "--proj", "proj.json", "--config", "cfg3.json"]


_F14_SUBCOPY = next(iter(_F14_DOC["subcopies"]))
_G_PROPS = ["verify", "gl-props", "--input", "g0.json"]
_RAMSEY_CHECK = ["ramsey", "check", "--input", "c.json", "--p", "2", "--q", "1"]

# each malformed-input guard the CLI reaches: files to write, the command, the message
_INPUT_GUARDS = {
    "graph-array": (
        {"g.json": lambda: [1, 2]},
        ["search", "config", "--input", "g.json", "--v", "3", "--e", "1"],
        "expected a JSON object, got list"),
    "subcopy-non-string": (
        {"f14.json": lambda: _mutated(
            _F14_DOC, lambda d: d["subcopies"][_F14_SUBCOPY].update(v1=3))},
        ["verify", "nice", "--input", "f14.json"], "must map strings to strings"),
    "coloring-float-color": (
        {"c.json": lambda: {"n": 3, "colors": {"1,2": 1.5, "1,3": 1, "2,3": 2}}},
        _RAMSEY_CHECK, "color of '1,2' must be an integer"),
    "coloring-aliased-key": (
        {"c.json": lambda: {"n": 3, "colors": {"1,2": 0, "01,2": 5, "1,3": 1, "2,3": 2}}},
        ["ramsey", "check", "--input", "c.json", "--p", "3", "--q", "2"],
        "bad pair key '01,2', want '1,2'"),
    # without the check, lift sent the edge a,b,c to d,e,f,g, the last link listed
    "lift-triple-outside-link": (
        {"proj.json": lambda: _projection_file([("abc", "abcd"), ("abc", "defg")], ["abc"]),
         **_LIFT_ABC},
        _LIFT, "triple ('a', 'b', 'c') is not inside its link ('d', 'e', 'f', 'g')"),
    "lift-repeated-triple": (
        {"proj.json": lambda: _projection_file([("abc", "abcd"), ("abc", "abce")], ["abc"]),
         **_LIFT_ABC},
        _LIFT, "triple ('a', 'b', 'c') stands for two links"),
    "lift-triples-not-graph3-edges": (
        {"proj.json": lambda: _projection_file([("abc", "abcd")], ["abc", "def"]), **_LIFT_ABC},
        _LIFT, "the triples, sorted, must be graph3's edges"),
    "coloring-one-vertex": (
        {"c.json": lambda: {"n": 1, "colors": {}}}, _RAMSEY_CHECK, "integer >= 2, got 1"),
    "lift-4-uniform": (
        {"proj.json": _projection_of_4graph,
         "h.json": lambda: {"r": 4, "vertices": list("abcd"), "edges": [list("abcd")]}},
        ["lift", "--proj", "proj.json", "--config", "h.json"], "must be 3-uniform, got 4"),
    "build-base": (
        {}, ["build", "g-ell", "--base", "foo", "--ell", "0"], "unknown tower base 'foo'"),
    "extract-base": (
        {}, ["extract", "--base", "foo", "--ell", "1", "--t", "1"], "unknown tower base 'foo'"),
    "tower-without-A_ell": (
        {"g0.json": lambda: _mutated(_G0_DOC, lambda d: d["roles"].pop("A_ell"))},
        _G_PROPS, "missing role 'A_ell'"),
    "tower-without-subcopy": (
        {"g0.json": lambda: _mutated(_G0_DOC, lambda d: d["subcopies"].pop("G^0"))},
        _G_PROPS, "missing subcopy 'G^0'"),
    "tower-without-xy-roles": (
        {"g0.json": lambda: _mutated(
            _G0_DOC, lambda d: d.update(roles={"A_ell": d["roles"]["A_ell"]}))},
        _G_PROPS, "missing x/y roles"),
    "tower-isolated-vertex": (
        {"g0.json": lambda: _mutated(_G0_DOC, lambda d: d["vertices"].append("iso"))},
        _G_PROPS, "(k=4, ell=0) disagrees with difference 5"),
    "tower-without-child-copy": (
        {"g1.json": lambda: _mutated(
            jsonio.config_to_obj(geometric_tower(f14(), 1)), lambda d: d["subcopies"].pop("G_0^4"))},
        ["verify", "gl-props", "--input", "g1.json"], "missing subcopy 'G_0^4'"),
    "search-negative-v": (
        {"f14.json": lambda: _F14_DOC},
        ["search", "config", "--input", "f14.json", "--v", "-1", "--e", "3"],
        "v must be an integer >= 0, got -1"),
    "nice-on-a-tower-without-witness": (
        {"g1.json": lambda: jsonio.config_to_obj(geometric_tower(f14(), 1))},
        ["verify", "nice", "--input", "g1.json"],
        "no witness given and the configuration has no role 'A'"),
    "gl-props-bare-graph": (
        {"g0.json": lambda: jsonio.graph_to_obj(f14().graph)},
        _G_PROPS, "expected a tower configuration (family 'g-ell')"),
}


@pytest.mark.parametrize("guard", sorted(_INPUT_GUARDS))
def test_input_guards_exit_one(capsys, tmp_path, monkeypatch, guard):
    files, argv, message = _INPUT_GUARDS[guard]
    monkeypatch.chdir(tmp_path)
    for name, make in files.items():
        _write(name, make())
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("sparsehg: error:") and message in err


def test_missing_input_file_exits_one(capsys):
    assert main(["verify", "nice", "--input", "/nonexistent/g.json"]) == 1


def test_report_digest_stable_across_runs(capsys):
    _, a = run(capsys, "verify", "claim63")
    _, b = run(capsys, "verify", "claim63")
    assert a["report_sha256"] == b["report_sha256"]
    without = {k: v for k, v in a.items() if k != "timings"}
    without_b = {k: v for k, v in b.items() if k != "timings"}
    assert without == without_b


def test_verify_phase_timings_leave_the_digest_alone(capsys, f14_file, cycle_file, tmp_path):
    # the phase timings (load_s and check_s; build_s and write_s for a
    # build; then report_s) sit under "timings" next to wall_s, which the
    # digest drops: the digest is that of the report without them
    g0 = str(tmp_path / "g0.json")
    assert run(capsys, "build", "g-ell", "--ell", "0", "-o", g0)[0] == 0
    checks = ("load_s", "check_s", "report_s")
    for argv, phases in (
        (["verify", "nice", "--input", f14_file], checks),
        (["verify", "nice", "--input", f14_file, "--samples", "100", "--seed", "1"], checks),
        (["verify", "gl-props", "--input", g0], checks),
        (["verify", "claim63"], checks),
        (["search", "config", "--input", f14_file, "--v", "9", "--e", "5"], checks),
        (["search", "copies", "--input", f14_file, "--pattern", cycle_file], checks),
        (["build", "f-k", "--k", "5", "-o", str(tmp_path / "f5.json")],
         ("build_s", "write_s", "report_s")),
    ):
        code, report = run(capsys, *argv)
        assert code == 0
        timings = report["timings"]
        assert set(timings) == {*phases, "wall_s"}
        assert 0 <= sum(timings[p] for p in phases) <= timings["wall_s"] + 1e-5
        digest = report.pop("report_sha256")
        assert digest == jsonio.report_digest({k: v for k, v in report.items() if k != "timings"})
        report["timings"] = {"wall_s": 0.0}
        assert digest == jsonio.report_digest(report)


def test_unknown_label_error_does_not_depend_on_the_hash_seed(tmp_path):
    # the edge's labels are checked in the given order, so 'b' is named first
    # whatever order a set of the labels would take
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 3, "vertices": ["a"], "edges": [["a", "b", "c"]]}),
                   encoding="utf-8")
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    errors = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "sparsehg.cli", "search", "config",
             "--input", str(bad), "--v", "3", "--e", "1"],
            capture_output=True, text=True, encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = [line for line in proc.stderr.splitlines() if line.startswith("sparsehg: error:")]
        assert len(lines) == 1
        errors.add(lines[0])
    assert errors == {"sparsehg: error: edge uses unknown label 'b'"}


def test_console_script_entry_point():
    # the child imports the same sparsehg as this process, installed or not
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "sparsehg.cli", "ramsey", "qquad", "--p", "4"],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q_quad"] == 6
