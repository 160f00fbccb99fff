"""End-to-end CLI coverage: every command path, exit codes, and the
stability of emitted reports. Runs in process through main(argv)."""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparsehg
from sparsehg import jsonio
from sparsehg.cli import build_parser, main
from sparsehg.core import Hypergraph
from sparsehg.families import f14, factorial_family, geometric_tower
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
    assert jsonio.load_any(jsonio.read_json(out)).graph.edge_count == 10


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


@pytest.mark.parametrize("argv", [
    ["verify", "nice"],
    ["build", "f-k", "--k", "x"],
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
    assert report["inputs"]["input"]["sha256"] == jsonio.file_digest(f14_file)
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


def test_verify_reports_name_their_method(capsys, f14_file, tmp_path):
    scan_keys = {"command", "inputs", "method", "verdict", "checked_subsets",
                 "counterexample", "seed", "timings", "report_sha256"}
    code, report = run(capsys, "verify", "nice", "--input", f14_file)
    assert code == 0 and set(report) == scan_keys
    assert report["method"] == "exhaustive"
    code, report = run(capsys, "verify", "nice", "--input", f14_file,
                       "--samples", "100", "--seed", "1")
    assert code == 0 and set(report) == scan_keys
    assert report["method"] == "sampled"
    g0 = str(tmp_path / "g0.json")
    assert run(capsys, "build", "g-ell", "--ell", "0", "-o", g0)[0] == 0
    for extra, method in (([], "exhaustive"), (["--samples", "100", "--seed", "1"], "sampled")):
        code, report = run(capsys, "verify", "gl-props", "--input", g0, *extra)
        assert code == 0 and set(report) == scan_keys
        assert report["method"] == method
    code, report = run(capsys, "verify", "claim63")
    assert code == 0
    assert set(report) == {"command", "holds", "method", "passes", "checked_subsets",
                           "timings", "report_sha256"}
    assert (report["method"], report["passes"], report["checked_subsets"]) == (
        "exhaustive", 2, 64,
    )


def test_repeated_witness_label_exits_one(capsys, f14_file, tmp_path):
    # four distinct vertices would otherwise pass as a five-vertex witness
    assert main(["verify", "nice", "--input", f14_file,
                 "--witness", "w4,w4,wp1,wp2,wp3"]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and "witness repeats label 'w4'" in lines[0]
    doc = jsonio.read_json(f14_file)
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


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # every build, verify and extract line of the README's CLI block, in order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [
        shlex.split(line)[1:] for line in block.splitlines()
        if line.startswith(("sparsehg build", "sparsehg verify", "sparsehg extract"))
    ]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()


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
        ["ramsey", "check", "--input", "c.json", "--p", "4", "--q", "5"], "n <= 14"),
    "ramsey-implication": (
        {"c.json": lambda: jsonio.coloring_to_obj(random_coloring(13, 0))},
        ["ramsey", "implication", "--input", "c.json", "--p", "4", "--q", "5"], "n <= 12"),
    "project": (
        {"h.json": lambda: {"r": 4, "vertices": [f"u{i}" for i in range(41)],
                            "edges": [["u0", "u1", "u2", "u3"]]}},
        ["project", "--input", "h.json", "--k", "2", "--e", "3"], "projection limited"),
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
    g = jsonio.graph_from_obj(jsonio.read_json(sub))
    assert g.edge_count == 130
    steps = jsonio.read_json(trace)
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
    proj = jsonio.projection_from_obj(jsonio.read_json(ppath))
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
    lifted = jsonio.graph_from_obj(jsonio.read_json(lpath))
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
    shadow = jsonio.graph_from_obj(jsonio.read_json(out))
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
    path.write_text(json.dumps(doc))
    assert main(argv + ["--input", str(path)]) == 1
    lines = error_lines(capsys)
    assert len(lines) == 1 and message in lines[0]


@pytest.mark.parametrize("subcopies", [[], None, 1, "s", True])
@pytest.mark.parametrize("command", ["nice", "gl-props"])
def test_non_object_subcopies_exit_one(capsys, f14_file, command, subcopies):
    with open(f14_file) as fh:
        doc = json.load(fh)
    doc["subcopies"] = subcopies
    with open(f14_file, "w") as fh:
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
    # load_s and check_s sit under "timings" next to wall_s, which the
    # digest drops: the digest is that of the report without them
    g0 = str(tmp_path / "g0.json")
    assert run(capsys, "build", "g-ell", "--ell", "0", "-o", g0)[0] == 0
    for argv in (
        ["verify", "nice", "--input", f14_file],
        ["verify", "nice", "--input", f14_file, "--samples", "100", "--seed", "1"],
        ["verify", "gl-props", "--input", g0],
        ["verify", "claim63"],
        ["search", "config", "--input", f14_file, "--v", "9", "--e", "5"],
        ["search", "copies", "--input", f14_file, "--pattern", cycle_file],
    ):
        code, report = run(capsys, *argv)
        assert code == 0
        timings = report["timings"]
        assert set(timings) == {"load_s", "check_s", "wall_s"}
        assert 0 <= timings["load_s"] + timings["check_s"] <= timings["wall_s"] + 1e-5
        digest = report.pop("report_sha256")
        assert digest == jsonio.report_digest({k: v for k, v in report.items() if k != "timings"})
        report["timings"] = {"wall_s": 0.0}
        assert digest == jsonio.report_digest(report)


def test_console_script_entry_point():
    # the child imports the same sparsehg as this process, installed or not
    src = os.path.dirname(os.path.dirname(sparsehg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "sparsehg.cli", "ramsey", "qquad", "--p", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q_quad"] == 6
