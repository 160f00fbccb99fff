import contextlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg import search
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import f14, linear_three_cycle
from sparsehg.search import (
    count_copies,
    find_configuration,
    find_configuration_unpruned,
    verify_embedding,
)

import oracles


def complete_3graph(n):
    verts = [f"k{i}" for i in range(n)]
    return Hypergraph(3, verts, list(itertools.combinations(verts, 3)))


@st.composite
def small_hosts(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=r, max_value=12))
    labels = draw(st.permutations([f"t{i}" for i in range(n)]))
    pool = list(itertools.combinations(labels, r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=30, unique=True))
    return Hypergraph(r, labels, edges)


@settings(max_examples=300, deadline=None)
@given(small_hosts(), st.data())
def test_nodes_explored_matches_stack_dfs(g, data):
    e = data.draw(st.integers(min_value=0, max_value=7))
    v = data.draw(st.integers(min_value=0, max_value=g.vertex_count))
    found, picked, nodes = oracles.search_nodes(g.edges, v, e)
    result = find_configuration(g, v, e)
    assert (result.found, result.nodes_explored) == (found, nodes)
    if found:
        spanned = {u for edge in picked for u in edge}
        assert result.witness == (tuple(u for u in g.vertices if u in spanned), picked)
    else:
        assert result.witness is None


def test_search_deeper_than_recursion_limit():
    k20 = complete_3graph(20)
    assert k20.edge_count == 1140
    result = find_configuration(k20, 20, 1140)
    assert result.found and result.nodes_explored == 1140
    assert result.witness == (k20.vertices, k20.edges)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=99_999),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=4),
)
def test_pruned_matches_unpruned(seed, v, e):
    vertices, edges = oracles.random_3graph(seed, max_n=8, max_m=8)
    g = Hypergraph(3, vertices, edges)
    a = find_configuration(g, v, e)
    b = find_configuration_unpruned(g, v, e)
    assert a.found == b.found
    assert a.witness == b.witness


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=99_999),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=4),
)
def test_search_matches_naive(seed, v, e):
    vertices, edges = oracles.random_3graph(seed, max_n=8, max_m=8)
    g = Hypergraph(3, vertices, edges)
    found, witness = oracles.find_configuration(list(g.edges), v, e)
    result = find_configuration(g, v, e)
    assert result.found == found
    if found:
        span, picked = result.witness
        assert picked == witness
        assert len(span) <= v


def test_zero_edge_target_always_found():
    g = Hypergraph(3, ["a", "b", "c"], [])
    result = find_configuration(g, 0, 0)
    assert result.found and result.witness == ((), ())


def test_more_edges_than_graph_has():
    g = Hypergraph(3, ["a", "b", "c"], [("a", "b", "c")])
    assert not find_configuration(g, 10, 2).found


def test_witness_is_lex_first():
    verts = [f"v{i}" for i in range(6)]
    g = Hypergraph(
        3,
        verts,
        [("v0", "v1", "v2"), ("v0", "v1", "v3"), ("v0", "v2", "v3"), ("v3", "v4", "v5")],
    )
    result = find_configuration(g, 4, 2)
    assert result.found
    span, picked = result.witness
    assert span == ("v0", "v1", "v2", "v3")
    assert picked == (("v0", "v1", "v2"), ("v0", "v1", "v3"))


def test_guard_rejects_oversized_inputs():
    verts = [f"v{i}" for i in range(25)]
    edges = list(itertools.combinations(verts, 3))[:70]
    g = Hypergraph(3, verts, edges)
    with pytest.raises(HypergraphError):
        find_configuration(g, 6, 3)


@pytest.mark.parametrize("search_fn", [find_configuration, find_configuration_unpruned])
@pytest.mark.parametrize("v, e", [(-1, 2), (6, -1)])
def test_negative_targets_rejected_after_the_size_guard(search_fn, v, e):
    g = f14().graph
    with pytest.raises(HypergraphError, match="[ve] must be an integer >= 0, got -1"):
        search_fn(g, v, e)
    verts = [f"v{i}" for i in range(25)]
    oversized = Hypergraph(3, verts, list(itertools.combinations(verts, 3))[:70])
    with pytest.raises(HypergraphError, match="search limited to"):
        search_fn(oversized, v, e)


def test_guard_allows_either_small_side():
    # many vertices but few edges is fine; many edges but few vertices too
    verts = [f"v{i}" for i in range(30)]
    g = Hypergraph(3, verts, [("v0", "v1", "v2")])
    assert find_configuration(g, 3, 1).found
    k8 = complete_3graph(8)
    assert k8.edge_count == 56
    assert find_configuration(k8, 4, 3).found


def test_cycle_copies_in_complete_hosts():
    cycle = linear_three_cycle().graph
    in_k6 = count_copies(complete_3graph(6), cycle)
    assert in_k6.copies == 120
    assert in_k6.embeddings == 720
    assert in_k6.nodes_explored == 1957
    in_k7 = count_copies(complete_3graph(7), cycle)
    assert in_k7.copies == 840
    in_k8 = count_copies(complete_3graph(8), cycle)
    assert (in_k8.embeddings, in_k8.copies, in_k8.nodes_explored) == (20_160, 3_360, 28_961)


def test_single_edge_counts_closed_form():
    pattern = Hypergraph(3, ["a", "b", "c"], [("a", "b", "c")])
    k7 = complete_3graph(7)
    result = count_copies(k7, pattern)
    assert result.copies == 35  # C(7,3)
    assert result.embeddings == 35 * 6


def test_isolated_pattern_vertex_breaks_the_automorphism_identity():
    # copies are distinct edge images: the isolated s takes either of the
    # two host vertices off the edge, so 120 = 10 * 12, not 10 * |Aut| = 60
    k5 = complete_3graph(5)
    with_isolated = Hypergraph(3, ["p", "q", "r", "s"], [("p", "q", "r")])
    bare = Hypergraph(3, ["p", "q", "r"], [("p", "q", "r")])
    for pattern, counts in ((with_isolated, (120, 10)), (bare, (60, 10))):
        result = count_copies(k5, pattern)
        assert (result.embeddings, result.copies) == counts


def test_empty_pattern_counts():
    pattern = Hypergraph(3, ["a", "b"], [])
    host = complete_3graph(4)
    result = count_copies(host, pattern)
    assert result.embeddings == 12  # ordered pairs of 4 vertices
    assert result.copies == 1  # a single empty edge image
    assert result.nodes_explored == 1 + 4 + 12  # partial maps of 0, 1, 2 vertices


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=9_999))
def test_embedding_count_matches_naive(seed):
    host_vertices, host_edges = oracles.random_3graph(seed, max_n=7, max_m=7)
    pat_vertices, pat_edges = oracles.random_3graph(seed + 1, max_n=4, max_m=2)
    host = Hypergraph(3, host_vertices, host_edges)
    pattern = Hypergraph(3, pat_vertices, pat_edges)
    naive = oracles.count_embeddings(host_vertices, host.edges, pat_vertices, pattern.edges)
    assert count_copies(host, pattern).embeddings == naive


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([3, 4]),
    st.integers(min_value=0, max_value=9_999),
    st.booleans(),
    st.booleans(),
)
def test_copy_counts_match_naive(r, seed, isolated, induced):
    # hosts of at most 7 vertices; patterns of r or r + 1 vertices and at
    # most two edges, plus with `isolated` a vertex in no edge
    random_graph = oracles.random_3graph if r == 3 else oracles.random_4graph
    host = Hypergraph(r, *random_graph(seed, max_n=7, max_m=12))
    rng = random.Random(seed + 1)
    pat_vertices = [f"p{i}" for i in range(rng.randint(r, r + 1))]
    pool = list(itertools.combinations(pat_vertices, r))
    pat_edges = rng.sample(pool, rng.randint(0, min(2, len(pool))))
    if isolated:
        pat_vertices.append("isolated")
    pattern = Hypergraph(r, pat_vertices, pat_edges)
    result = count_copies(host, pattern, induced=induced)
    naive = oracles.copy_counts(
        host.vertices, host.edges, pattern.vertices, pattern.edges, induced=induced
    )
    assert (result.embeddings, result.copies) == naive


def test_induced_counts_filter():
    # one edge on 3 vertices: induced copies exclude triples covered twice
    host = Hypergraph(
        3, ["a", "b", "c", "d"], [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")]
    )
    pattern = Hypergraph(3, ["p", "q", "r", "s"], [("p", "q", "r")])
    plain = count_copies(host, pattern)
    induced = count_copies(host, pattern, induced=True)
    assert plain.copies > induced.copies


def test_verify_embedding_accepts_subcopy_maps():
    cfg = f14()
    cycle = linear_three_cycle().graph
    for vmap in cfg.subcopies.values():
        assert verify_embedding(cfg.graph, cycle, vmap)


def test_verify_embedding_rejects_bad_maps():
    cfg = f14()
    cycle = linear_three_cycle().graph
    good = dict(cfg.subcopies["V_1"])
    collapsed = dict(good)
    collapsed["v1"] = collapsed["v2"]
    assert not verify_embedding(cfg.graph, cycle, collapsed)
    wrong = dict(good)
    wrong["v5"], wrong["v6"] = wrong["v6"], wrong["v5"]
    # swapping the two degree-2 vertices breaks at least one edge image
    assert not verify_embedding(cfg.graph, cycle, wrong)


def test_verify_embedding_error_paths():
    cycle = linear_three_cycle().graph
    host = f14().graph
    with pytest.raises(HypergraphError, match="map"):
        verify_embedding(host, cycle, {"v1": "w1"})
    bad_target = {f"v{i}": lbl for i, lbl in enumerate(
        ["w1", "w2", "w3", "w4", "w5missing", "x5"], start=1)}
    with pytest.raises(HypergraphError):
        verify_embedding(host, cycle, bad_target)


def test_uniformity_mismatch_rejected():
    host = Hypergraph(4, ["a", "b", "c", "d"], [("a", "b", "c", "d")])
    pattern = Hypergraph(3, ["a", "b", "c"], [("a", "b", "c")])
    with pytest.raises(HypergraphError, match="uniformity"):
        count_copies(host, pattern)


def test_nodes_explored_reported():
    f14_host, k8 = f14().graph, complete_3graph(8)
    for g, v, e, found, nodes in (
        (f14_host, 3, 2, False, 55),  # two edges span >= 4: every pair is tried
        (f14_host, 8, 5, False, 243),
        (f14_host, 9, 5, True, 23),
        (k8, 4, 4, True, 22),
        (k8, 4, 5, False, 14579),
    ):
        result = find_configuration(g, v, e)
        assert (result.found, result.nodes_explored) == (found, nodes)


# -- the root split over forked workers ----------------------------------------


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forking(cpus=2, after=0):
    """Fork once `after` nodes are explored (at the first task by default),
    with `cpus` workers whatever this host has."""
    return mock.patch.multiple(search, _FORK_AFTER_NODES=after, _cpus=lambda: cpus)


def linear_3graph(seed, n=60, m=60):
    """Random 3-graph in which no two edges share two vertices."""
    rng = random.Random(seed)
    covered, edges = set(), []
    while len(edges) < m:
        edge = tuple(sorted(rng.sample(range(n), 3)))
        pairs = set(itertools.combinations(edge, 2))
        if not pairs & covered:
            covered |= pairs
            edges.append(edge)
    verts = [f"v{i:02d}" for i in range(n)]
    return Hypergraph(3, verts, [[verts[i] for i in edge] for edge in edges])


def cycle_then_forest(k=8, leaves=46):
    """Graph whose root 0 closes a (k+1)-cycle at once: k+1 edges on k+1
    vertices. Without root 0 the graph is a forest, so no later root has
    such a witness, and root 1's subtree alone is 73.6M nodes (about 17 s
    of DFS on a 2-core x86 host)."""
    path = [f"a{i}" for i in range(k + 1)]
    star = [f"c{i:02d}" for i in range(leaves)]
    edges = [(path[0], path[k])] + list(zip(path, path[1:])) + [("b", c) for c in star]
    return Hypergraph(2, path + ["b"] + star, edges)


@settings(max_examples=100, deadline=None)
@given(small_hosts(), st.data())
def test_forked_search_matches_stack_dfs(g, data):
    e = data.draw(st.integers(min_value=1, max_value=max(1, min(7, g.edge_count))))
    v = data.draw(st.integers(min_value=0, max_value=g.vertex_count))
    cpus = data.draw(st.integers(min_value=2, max_value=4))
    found, picked, nodes = oracles.search_nodes(g.edges, v, e)
    # a fork point anywhere in the search, most often inside a root's pairs
    after = data.draw(st.integers(min_value=0, max_value=nodes))
    with forking(cpus, after):
        result = find_configuration(g, v, e)
    assert (result.found, result.nodes_explored) == (found, nodes)
    if found:
        spanned = {u for edge in picked for u in edge}
        assert result.witness == (tuple(u for u in g.vertices if u in spanned), picked)
    else:
        assert result.witness is None
    assert_no_children()


def test_forked_search_stops_at_the_first_witness_root():
    g = cycle_then_forest()
    t0 = time.perf_counter()
    in_process = find_configuration(g, 9, 9)
    t1 = time.perf_counter()
    with forking():
        forked = find_configuration(g, 9, 9)
    t2 = time.perf_counter()
    assert in_process.found and in_process.nodes_explored == 9
    assert forked == in_process
    # the worker still on root 1 is killed, not waited for
    assert t2 - t1 < (t1 - t0) + 2.0
    assert_no_children()


def test_dead_worker_is_an_error():
    parent = os.getpid()
    real = search._subtree

    def dies_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    g = linear_3graph(0, n=12, m=12)
    with forking(), mock.patch.object(search, "_subtree", dies_in_worker):
        with pytest.raises(HypergraphError, match="exit status 3"):
            find_configuration(g, 5, 3)
    assert_no_children()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_failed_fork_searches_in_process(call):
    g = linear_3graph(1, n=12, m=12)
    want = [find_configuration(g, v, e) for v, e in ((5, 3), (6, 3), (7, 4))]

    def fails(*args):
        raise OSError("no more processes")

    with forking(), mock.patch.object(os, call, fails):
        got = [find_configuration(g, v, e) for v, e in ((5, 3), (6, 3), (7, 4))]
    assert got == want
    assert_no_children()


def search_argv(tmp_path, g, v, e):
    """A `search config` CLI call on g, and the environment that finds the package."""
    host = tmp_path / "host.json"
    host.write_text(json.dumps({"r": g.r, "vertices": list(g.vertices),
                                "edges": [list(edge) for edge in g.edges]}), encoding="utf-8")
    argv = [sys.executable, "-m", "sparsehg.cli", "search", "config",
            "--input", str(host), "--v", str(v), "--e", str(e)]
    return argv, oracles.child_env()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_same_report_on_one_cpu_and_on_all(tmp_path):
    argv, env = search_argv(tmp_path, linear_3graph(2), 8, 6)

    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    reports = []
    for preexec in (one_cpu, None):
        proc = subprocess.run(argv, capture_output=True, text=True, encoding="utf-8",
                              preexec_fn=preexec, env=env)
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        # enough nodes that a process with two CPUs splits the search
        assert report["nodes_explored"] > search._FORK_AFTER_NODES
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]


def children_of(pid):
    """The pids of pid's children, from /proc (Linux)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="utf-8") as f:
            return f.read().split()
    except FileNotFoundError:  # pid has exited
        return []


@pytest.mark.skipif(not os.path.exists(f"/proc/self/task/{os.getpid()}/children"),
                    reason="needs /proc child lists")
@pytest.mark.skipif(search._cpus() < 2, reason="needs two CPUs to fork")
def test_sigterm_kills_and_reaps_the_workers(tmp_path):
    # over 10 s of search on a 2-core x86 host: the workers are busy when
    # SIGTERM comes
    argv, env = search_argv(tmp_path, linear_3graph(2), 15, 12)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, encoding="utf-8", env=env, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(children_of(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signal.SIGTERM
        assert out == "" and "Traceback" not in err
        # the call ran in its own session: its process group is empty
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
        proc.communicate()


# Runs `search._split` over two workers that each sleep as if on a long task,
# and sends this process SIGTERM just after the argv[2]-th call of
# os.<argv[1]> that this process makes returns.
_SIGTERM_DURING_SPLIT = """
import os, signal, sys, time
from sparsehg import search

parent, name, nth = os.getpid(), sys.argv[1], int(sys.argv[2])
real, made = getattr(os, name), 0

def call(*args):
    global made
    result = real(*args)
    if os.getpid() == parent:
        made += 1
        if made == nth:
            os.kill(parent, signal.SIGTERM)
    return result

setattr(os, name, call)
search._cpus = lambda: 2
search._worker = lambda *args: time.sleep(60)
search._split((0b111, 0b1110), 3, 1, [(0,), (1,)])
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("call, nth", [("fork", 2), ("close", 1)],
                         ids=["as-the-second-fork-returns", "after-the-first-close"])
def test_sigterm_while_forking_kills_and_reaps_the_workers(tmp_path, call, nth):
    # a SIGTERM between a fork and its worker's record would leave that
    # worker running, and one between a close and its record would close
    # that descriptor twice. Output goes to a file, which a worker left
    # running would not hold open the way it would a pipe.
    env = oracles.child_env()
    out = tmp_path / "out.txt"
    with open(out, "w", encoding="utf-8") as fp:
        proc = subprocess.Popen([sys.executable, "-c", _SIGTERM_DURING_SPLIT, call, str(nth)],
                                stdout=fp, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
    try:
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM, out.read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == ""
        # the call ran in its own session: its process group is empty
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
