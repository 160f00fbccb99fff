import hashlib
import json
import os
import re
import signal
import stat
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsehg import jsonio
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import (
    LabeledConfiguration,
    f14,
    factorial_family,
    geometric_tower,
    linear_three_cycle,
)
from sparsehg.projection import project
from sparsehg.ramsey import ColoringInstance, packed_coloring, random_coloring

import oracles


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=99_999))
def test_graph_roundtrip(seed):
    vertices, edges = oracles.random_3graph(seed)
    g = Hypergraph(3, vertices, edges)
    wire = json.loads(json.dumps(jsonio.graph_to_obj(g)))
    back = jsonio.graph_from_obj(wire)
    assert back == g
    assert back.vertices == g.vertices


@pytest.mark.parametrize(
    "builder",
    [linear_three_cycle, f14, lambda: factorial_family(5), lambda: geometric_tower(f14(), 1)],
)
def test_config_roundtrip(builder):
    cfg = builder()
    wire = json.loads(json.dumps(jsonio.config_to_obj(cfg)))
    back = jsonio.config_from_obj(wire)
    assert back.graph == cfg.graph
    assert back.roles == cfg.roles
    assert back.family == cfg.family
    assert back.subcopies == cfg.subcopies
    assert back.levels is None  # derived data never crosses the wire


def test_load_any_dispatches_on_roles():
    g = f14().graph
    assert isinstance(jsonio.load_any(jsonio.graph_to_obj(g)), Hypergraph)
    assert isinstance(jsonio.load_any(jsonio.config_to_obj(f14())), LabeledConfiguration)


def test_graph_obj_validation():
    with pytest.raises(HypergraphError, match="missing key"):
        jsonio.graph_from_obj({"r": 3, "vertices": ["a"]})
    with pytest.raises(HypergraphError, match="list of strings"):
        jsonio.graph_from_obj({"r": 3, "vertices": [1, 2, 3], "edges": []})
    with pytest.raises(HypergraphError, match="must be int"):
        jsonio.graph_from_obj({"r": "3", "vertices": [], "edges": []})
    with pytest.raises(HypergraphError, match="distinct members"):
        jsonio.graph_from_obj({"r": 3, "vertices": ["a", "b"], "edges": [["a", "a", "b"]]})


def test_config_obj_validation():
    base = jsonio.graph_to_obj(f14().graph)
    with pytest.raises(HypergraphError, match="unknown vertex"):
        jsonio.config_from_obj({**base, "roles": {"A": ["ghost"]}})
    with pytest.raises(HypergraphError, match="targets unknown vertex"):
        jsonio.config_from_obj(
            {**base, "roles": {}, "subcopies": {"V_1": {"v1": "ghost"}}}
        )
    with pytest.raises(HypergraphError, match="'family'"):
        jsonio.config_from_obj({**base, "roles": {}, "family": "cycle"})


def test_coloring_roundtrip():
    for c in (packed_coloring(8, 8), random_coloring(10, 3)):
        wire = json.loads(json.dumps(jsonio.coloring_to_obj(c)))
        assert jsonio.coloring_from_obj(wire) == c


def test_coloring_validation():
    with pytest.raises(HypergraphError, match="missing"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"1,2": 0, "1,3": 0}})
    with pytest.raises(HypergraphError, match="bad pair key"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"1-2": 0}})
    with pytest.raises(HypergraphError, match="out of range"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"2,1": 0}})
    with pytest.raises(HypergraphError, match="integer"):
        jsonio.coloring_from_obj({"n": 2, "colors": {"1,2": "red"}})


def test_missing_pairs_are_counted_not_listed():
    # a tiny file naming a large n must not allocate every missing pair
    tracemalloc.start()
    try:
        with pytest.raises(HypergraphError, match=r"1999000 pairs missing, first \(1, 2\)"):
            jsonio.coloring_from_obj({"n": 2000, "colors": {}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coloring_instance_counts_missing_pairs_without_listing_them():
    # the library check, with one pair given, is as bounded as the JSON path
    tracemalloc.start()
    try:
        with pytest.raises(HypergraphError, match=r"1998999 pairs missing, first \(1, 3\)"):
            ColoringInstance(2000, {(1, 2): 0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coloring_key_parts_must_be_integers():
    with pytest.raises(HypergraphError, match="bad pair key 'a,b', want integers"):
        jsonio.coloring_from_obj({"n": 3, "colors": {"a,b": 0}})


@pytest.mark.parametrize("alias", ["01,2", " 1,2", "+1,2", "1, 2", "1,2 ", "1,0_2"])
def test_coloring_keys_must_be_canonical(alias):
    # each alias parses to the pair (1, 2): beside "1,2" its colour would
    # silently replace that pair's, and alone it would stand in for "1,2"
    colors = {"1,3": 1, "2,3": 2}
    for given in ({"1,2": 0, alias: 5, **colors}, {alias: 0, **colors}):
        with pytest.raises(HypergraphError, match=re.escape(f"bad pair key {alias!r}, want '1,2'")):
            jsonio.coloring_from_obj({"n": 3, "colors": given})


def test_projection_roundtrip_both_cases():
    heavy_src = Hypergraph(
        4,
        [f"u{i}" for i in range(6)],
        [("u0", "u1", "u2", "u3"), ("u0", "u1", "u2", "u4")],
    )
    proj_src = Hypergraph(
        4,
        [f"u{i}" for i in range(9)],
        [("u0", "u1", "u2", "u3"), ("u3", "u4", "u5", "u6"), ("u0", "u4", "u7", "u8")],
    )
    for g, e in ((heavy_src, 2), (proj_src, 3)):
        result = project(g, 2, e)
        wire = json.loads(json.dumps(jsonio.projection_to_obj(result)))
        assert jsonio.projection_from_obj(wire) == result


def test_projection_unknown_case_rejected():
    with pytest.raises(HypergraphError, match="unknown case"):
        jsonio.projection_from_obj(
            {"r": 4, "k": 2, "e": 3, "anchors": [], "case": "Nope"}
        )


def test_canonical_json_is_sorted_and_newline_terminated():
    text = jsonio.canonical_json({"b": 1, "a": [3, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_report_digest_drops_only_top_level_timings():
    report = {"timings": 1, "keep": {"timings": [2], "x": 3}}
    assert jsonio.report_digest(report) == jsonio.report_digest({**report, "timings": 9})
    assert jsonio.report_digest(report) != jsonio.report_digest({**report, "keep": {"x": 3}})
    assert jsonio.report_digest(report) != jsonio.report_digest(
        {**report, "keep": {"timings": [9], "x": 3}})


def test_report_digest_ignores_timings_only():
    a = {"x": 1, "timings": {"wall": 0.5}}
    b = {"timings": {"wall": 99.0}, "x": 1}
    c = {"x": 2, "timings": {"wall": 0.5}}
    assert jsonio.report_digest(a) == jsonio.report_digest(b)
    assert jsonio.report_digest(a) != jsonio.report_digest(c)


def test_file_helpers(tmp_path):
    path = tmp_path / "g.json"
    jsonio.write_json(path, jsonio.graph_to_obj(f14().graph))
    doc, d1 = jsonio.read_json(path)
    assert jsonio.graph_from_obj(doc) == f14().graph
    jsonio.write_json(path, jsonio.graph_to_obj(f14().graph))
    assert jsonio.read_json(path) == (doc, d1)


# text with non-ASCII, quotes, backslashes, control characters and lone
# surrogates, which the encoder escapes: two pieces of any characters,
# each after a drawn special character or none. One alphabet strategy,
# not a union of two, keeps hypothesis off its per-character path
_SPECIAL = st.sampled_from(["", '"', "\\", "\n", "\t", "\x00", "\x7f"])
_PIECE = st.text(st.characters(exclude_categories=()))
_TEXT = st.builds(lambda a, s, b, t: a + s + b + t, _SPECIAL, _PIECE, _SPECIAL, _PIECE)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(_TEXT, inner),
    max_leaves=10,
)


# reports, whose dicts hold "timings" keys at any depth
_TIMED = st.just("timings") | _TEXT
_REPORT = st.dictionaries(_TIMED, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(_TIMED, inner),
    max_leaves=20,
))


@settings(max_examples=200)
@given(_REPORT)
def test_report_digest_is_hashlibs(report):
    text = jsonio.canonical_json({k: v for k, v in report.items() if k != "timings"})
    assert jsonio.report_digest(report) == hashlib.sha256(text.encode()).hexdigest()


def test_file_digest_is_hashlibs(tmp_path):
    path = tmp_path / "f8.json"  # 2.35 MB
    jsonio.write_json(path, jsonio.config_to_obj(factorial_family(8)))
    assert jsonio.read_json(path)[1] == hashlib.sha256(path.read_bytes()).hexdigest()


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON)
def test_written_files_are_canonical(tmp_path, obj):
    path = tmp_path / "out.json"
    jsonio.write_json(path, obj)
    assert path.read_bytes() == jsonio.canonical_json(obj).encode()


def test_large_writes_stream(tmp_path):
    # F_8 is 2.35 MB of JSON; building it as one string first held about
    # 12 MB of encoder chunks
    obj = jsonio.config_to_obj(factorial_family(8))
    path = tmp_path / "f8.json"
    tracemalloc.start()
    try:
        jsonio.write_json(path, obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == jsonio.canonical_json(obj).encode()
    assert peak < 2 << 20


def test_failed_write_leaves_the_target(tmp_path):
    # mixed key types fail under sort_keys only after the encoder has
    # streamed a few chunks
    path = tmp_path / "out.json"
    jsonio.write_json(path, {"a": 1})
    with pytest.raises(TypeError):
        jsonio.write_json(path, {"a": [1, 2], "b": {1: 0, "c": 0}})
    assert path.read_bytes() == jsonio.canonical_json({"a": 1}).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# A CLI build of f14 to argv[1] that sends itself SIGTERM at the point
# argv[2] names: as the temporary file's open returns, after part of the
# document, or just after the rename.
_SIGTERM_DURING_WRITE = """
import os, signal, sys
from sparsehg import cli, jsonio

def open_(*args, **kwargs):
    open(*args, **kwargs).close()  # the file now exists
    os.kill(os.getpid(), signal.SIGTERM)

def dump(obj, fp):
    fp.write("{")
    fp.flush()
    os.kill(os.getpid(), signal.SIGTERM)

def replace(src, dst, replace=os.replace):
    replace(src, dst)
    os.kill(os.getpid(), signal.SIGTERM)

if sys.argv[2] == "after-open":
    jsonio.open = open_
elif sys.argv[2] == "mid-dump":
    jsonio._dump = dump
else:
    os.replace = replace
sys.exit(cli.main(["build", "f14", "-o", sys.argv[1]]))
"""


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
@pytest.mark.parametrize("when", ["after-open", "mid-dump", "after-rename"])
def test_sigterm_during_a_write_leaves_no_temp_file(tmp_path, when):
    path = tmp_path / "out.json"
    jsonio.write_json(path, {"a": 1})
    proc = subprocess.run([sys.executable, "-c", _SIGTERM_DURING_WRITE, str(path), when],
                          capture_output=True, text=True, encoding="utf-8",
                          env=oracles.child_env())
    # the process exits through the clean-up, not by the signal's default action
    assert proc.returncode == 128 + signal.SIGTERM
    assert proc.stdout == "" and proc.stderr == ""
    # the target is the old document, or, once renamed, the whole new one
    old = jsonio.canonical_json({"a": 1}).encode()
    new = jsonio.canonical_json(jsonio.config_to_obj(f14())).encode()
    assert path.read_bytes() == (new if when == "after-rename" else old)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_stale_temp_file_is_left_alone(tmp_path):
    # the temporary file's name is the target's plus this process's pid; one
    # already there was not made by this call, so it is neither used nor removed
    path = tmp_path / "out.json"
    jsonio.write_json(path, {"a": 1})
    stale = tmp_path / f"out.json.{os.getpid()}.tmp"
    stale.write_bytes(b"stale")
    with pytest.raises(FileExistsError):
        jsonio.write_json(path, {"b": 2})
    assert path.read_bytes() == jsonio.canonical_json({"a": 1}).encode()
    assert stale.read_bytes() == b"stale"


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
def test_rewrites_keep_the_targets_mode(tmp_path, mode):
    path = tmp_path / "out.json"
    path.write_text("old\n", encoding="utf-8")
    path.chmod(mode)
    jsonio.write_json(path, [1])
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"[\n  1\n]\n"


def test_new_files_take_the_umask_default(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    path = tmp_path / "out.json"
    jsonio.write_json(path, [1])
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_writes_go_through_symlinks(tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n", encoding="utf-8")
    link.symlink_to(real)
    jsonio.write_json(link, [1])
    assert link.is_symlink() and real.read_bytes() == b"[\n  1\n]\n"


def test_pipes_are_written_in_place(tmp_path):
    # as /dev/stdout would be: no file beside it replaces the pipe
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        jsonio.write_json(fifo, [1])
        assert os.read(fd, 100) == b"[\n  1\n]\n"
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(HypergraphError, match="not valid JSON"):
        jsonio.read_json(path)


@pytest.mark.parametrize("encoding", ["utf-16-le", "utf-32-le", "utf-16"])
def test_read_json_decodes_utf8_only(tmp_path, encoding):
    # json.loads would detect these encodings in bytes and accept them
    path = tmp_path / "wide.json"
    path.write_bytes('{"r": 3}'.encode(encoding))
    with pytest.raises(HypergraphError, match="not UTF-8 text|not valid JSON"):
        jsonio.read_json(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_json_digests_a_pipe_as_read():
    # a pipe gives its bytes once: a second read would see none
    data = jsonio.canonical_json(jsonio.graph_to_obj(f14().graph)).encode()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        doc, digest = jsonio.read_json(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert jsonio.graph_from_obj(doc) == f14().graph
    assert digest == hashlib.sha256(data).hexdigest()
