"""The three benchmark workloads: generated inputs, the CLI calls of one pass,
and the answers each call must give.

A workload's `prepare(seed, workdir, build)` writes every input file into
`workdir` and returns the calls of one pass. `build(argv)` runs a `sparsehg`
CLI call outside the timed region; certify-small uses it to write its
family hosts. Expected answers come from three sources, in this order of
preference: facts from the paper (f14 is NICE over 16,384 subsets, claim 6.3
holds over 64 subsets, K_8 holds 3,360 linear 3-cycles), oracles written
here that recompute the answer independently of the package, and values
pinned from the seed commit. `report_sha256` is never compared across
commits, because reports may legitimately gain keys.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Optional

# A check returns None when the report is right, else a one-line reason.
Check = Callable[[dict, Path], Optional[str]]


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    rc: int = 0
    expect: dict = field(default_factory=dict)
    check: Optional[Check] = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    # a run makes round(seconds / pass_s) passes, so the number of samples
    # per run does not depend on how fast the host happens to be
    pass_s: float
    prepare: Callable[[int, Path, Callable[[list], None]], list]


# -- shared --------------------------------------------------------------

PROBE_P = 8


def q_quad(p: int) -> int:
    """Paper threshold: C(p,2) - floor(p/2) + 2."""
    return comb(p, 2) - p // 2 + 2


# the start-up probe does no work beyond start-up
PROBE = Call(("ramsey", "qquad", "--p", str(PROBE_P)), expect={"q_quad": q_quad(PROBE_P)})


def with_probes(calls: list[Call]) -> list[Call]:
    """One pass: the probe before every call. With a single probe per pass,
    the start-up time and the small-call latencies rest on two samples per
    run on the 15-second workloads and spread by up to 26% between runs;
    many probes spread through the run steady them."""
    return [c for call in calls for c in (PROBE, call)]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_json(path: Path):
    return json.loads(path.read_text())


def _graph_obj(r: int, vertices: list[str], edges: list[tuple[str, ...]]) -> dict:
    return {"r": r, "vertices": vertices, "edges": [list(e) for e in edges]}


def _host_edges(obj: dict) -> set[tuple[str, ...]]:
    return {tuple(sorted(e)) for e in obj["edges"]}


def _check_graph_file(path: Path, r: int, v: int, e: int) -> Optional[str]:
    """An r-uniform graph file with exactly v vertices and e distinct edges."""
    obj = _read_json(path)
    verts = obj.get("vertices", [])
    edges = obj.get("edges", [])
    known = set(verts)
    if len(known) != len(verts) or len(verts) != v:
        return f"{path.name}: {len(verts)} vertices, want {v}"
    if len({tuple(sorted(x)) for x in edges}) != len(edges) or len(edges) != e:
        return f"{path.name}: {len(edges)} edges, want {e} distinct"
    for x in edges:
        if len(set(x)) != r or not set(x) <= known:
            return f"{path.name}: bad edge {x!r}"
    return None


def _sample_stream_seed(seed: int, salt: int) -> int:
    """A per-call sampling seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# -- certify-small ---------------------------------------------------------

# checked_subsets of a sampled run with no violation is samples plus the
# stratified pass, whose size depends on the host and witness only
F5_SAMPLES = 4_000_000
F5_CHECKED = 4_025_396
G1_SAMPLES = 4_000_000
G1_CHECKED = 4_000_000


def prepare_certify_small(seed: int, workdir: Path, build) -> list[Call]:
    build(["build", "f14", "-o", "f14.json"])
    build(["build", "g-ell", "--ell", "0", "-o", "g0.json"])
    build(["build", "f-k", "--k", "5", "-o", "f5.json"])
    build(["build", "g-ell", "--ell", "1", "-o", "g1.json"])
    s5 = _sample_stream_seed(seed, 5)
    s1 = _sample_stream_seed(seed, 1)
    return with_probes([
        Call(("verify", "claim63"), expect={"holds": True, "checked_subsets": 64}),
        Call(
            ("verify", "nice", "--input", "f14.json"),
            expect={"verdict": "NICE", "checked_subsets": 1 << 14, "counterexample": None},
        ),
        Call(
            ("verify", "gl-props", "--input", "g0.json"),
            expect={"verdict": "NICE", "checked_subsets": 1 << 14, "counterexample": None},
        ),
        Call(
            ("verify", "nice", "--input", "f5.json", "--samples", str(F5_SAMPLES),
             "--seed", str(s5)),
            expect={"verdict": "SAMPLED_NO_VIOLATION", "checked_subsets": F5_CHECKED,
                    "counterexample": None, "seed": s5},
        ),
        Call(
            ("verify", "gl-props", "--input", "g1.json", "--samples", str(G1_SAMPLES),
             "--seed", str(s1)),
            expect={"verdict": "SAMPLED_NO_VIOLATION", "checked_subsets": G1_CHECKED,
                    "counterexample": None, "seed": s1},
        ),
    ])


# -- certify-large ---------------------------------------------------------

# (v, e) of each host built in the pass; F_k has 10*k!/24 edges and
# v = e + k, G^ell over f14 has v = e + 4 + ell
LARGE_BUILDS = {
    "f6.json": (("build", "f-k", "--k", "6"), 306, 300),
    "f7.json": (("build", "f-k", "--k", "7"), 2107, 2100),
    "f8.json": (("build", "f-k", "--k", "8"), 16808, 16800),
    "g2.json": (("build", "g-ell", "--ell", "2"), 216, 210),
    "g3.json": (("build", "g-ell", "--ell", "3"), 857, 850),
}
LARGE_VERIFY = [
    # (command, input, samples, checked_subsets pinned from the seed commit)
    ("nice", "f6.json", 50_000, 77_579),
    ("nice", "f7.json", 1_000, 29_786),
    ("gl-props", "g2.json", 50_000, 50_000),
    ("gl-props", "g3.json", 10_000, 10_000),
]
# extract --ell 4 over f14: t -> (v, delta, recursion steps), pinned from
# the seed commit; e is always 10 * t
EXTRACT_ELL = 4
EXTRACT_TRACE_T = {29: (297, 7, 4), 85: (857, 7, 2), 170: (1708, 8, 4), 256: (2568, 8, 1)}
EXTRACT_OUT_T = {133: (1338, 8, 3), 214: (2148, 8, 2), 300: (3008, 8, 3), 341: (3418, 8, 1)}


def _check_build(name: str, v: int, e: int) -> Check:
    def check(report: dict, workdir: Path) -> Optional[str]:
        return _check_graph_file(workdir / name, 3, v, e)

    return check


def _extract_call(t: int, pinned: tuple[int, int, int], flag: str, path: str) -> Call:
    """extract --ell 4 --t t writing `path`; --trace writes the descent
    trace, which must equal the report's, and -o the subgraph itself."""
    v, delta, steps = pinned

    def check(report: dict, workdir: Path) -> Optional[str]:
        if len(report.get("trace", ())) != steps:
            return f"trace has {len(report.get('trace', ()))} steps, want {steps}"
        if flag == "--trace":
            if _read_json(workdir / path) != report["trace"]:
                return f"{path} differs from the report's trace"
            return None
        return _check_graph_file(workdir / path, 3, v, 10 * t)

    return Call(
        ("extract", "--ell", str(EXTRACT_ELL), "--t", str(t), flag, path),
        expect={"v": v, "e": 10 * t, "delta": delta, "t": t},
        check=check,
    )


def prepare_certify_large(seed: int, workdir: Path, build) -> list[Call]:
    calls = []
    for name, (argv, v, e) in LARGE_BUILDS.items():
        calls.append(Call(argv + ("-o", name), expect={"v": v, "e": e},
                          check=_check_build(name, v, e)))
    for i, (cmd, name, samples, checked) in enumerate(LARGE_VERIFY):
        s = _sample_stream_seed(seed, 10 + i)
        calls.append(Call(
            ("verify", cmd, "--input", name, "--samples", str(samples), "--seed", str(s)),
            expect={"verdict": "SAMPLED_NO_VIOLATION", "checked_subsets": checked,
                    "counterexample": None, "seed": s},
        ))
    t_trace = sorted(EXTRACT_TRACE_T)[seed % len(EXTRACT_TRACE_T)]
    t_out = sorted(EXTRACT_OUT_T)[(seed // len(EXTRACT_TRACE_T)) % len(EXTRACT_OUT_T)]
    calls.append(_extract_call(t_trace, EXTRACT_TRACE_T[t_trace], "--trace", "trace.json"))
    calls.append(_extract_call(t_out, EXTRACT_OUT_T[t_out], "-o", "extract.json"))
    return with_probes(calls)


# -- search ----------------------------------------------------------------

SEARCH_N = 60
SEARCH_M = 60
SEARCH_VE = [(8, 6), (9, 7), (10, 8), (11, 9), (12, 10), (13, 10)]
# Generator seeds of random linear 3-graphs (60 vertices, 60 edges) where
# every (v, e) above is not found and the six searches visit 37.8-39.5M nodes
# in total, so a pass costs about the same on every workload seed. They are
# the hosts in that band among generator seeds 100-121. Each entry: generator
# seed -> (sha256 of the host file, nodes_explored per search), pinned from
# the seed commit.
SEARCH_HOSTS: dict[int, tuple[str, tuple[int, ...]]] = {
    102: ("4e3e0531519abb03d2f6bac67a4e2caff53c29fee0d239c0e36fa29e2ebcfa2b",
          (203928, 557940, 1317811, 3673549, 8960607, 24762561)),
    103: ("ef04cd19b1237acc6bd875ea766242f51c98994cca0b203e18c7c205ad6610ad",
          (201989, 548448, 1287668, 3575466, 8687762, 23657768)),
    104: ("d0ae39e73867474ddf727e94ecaee10033f6c10e205b6ef6b778e8f22a3078c0",
          (210469, 553509, 1321599, 3664171, 8810643, 24005405)),
    110: ("ca0dfb52151571053bb3ad2345bc9372f9fd51c94bc88564b4d9be7eda8e5205",
          (209646, 556383, 1329693, 3674005, 8882138, 24305446)),
    113: ("9e3a9360163a2112af23ec91934750f9864fa224990116695c0705e4d3521db6",
          (205941, 555796, 1314916, 3659088, 8881374, 24501332)),
    115: ("3d75ed14737487430aed5c647f306e0e132d850f7bb856e14f1245af94e8791a",
          (206194, 557718, 1315874, 3668191, 8902564, 24308537)),
    117: ("609a5c5547c94defd41217aba9292de5bdf698b9a89bd2013ee804a5efa0b137",
          (202440, 547077, 1281575, 3557418, 8616483, 23643555)),
    120: ("bd09e2bb881ea7c6fb95012959b6394362274b5fd4da1c0bcb47929672bf6117",
          (208471, 559249, 1328732, 3680613, 8921716, 24341483)),
}


def linear_host(gen_seed: int) -> dict:
    """Random linear 3-graph: no two edges share two vertices."""
    rng = random.Random(gen_seed)
    verts = [f"v{i:02d}" for i in range(SEARCH_N)]
    covered: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < SEARCH_M:
        t = tuple(sorted(rng.sample(range(SEARCH_N), 3)))
        pairs = list(itertools.combinations(t, 2))
        if any(p in covered for p in pairs):
            continue
        covered.update(pairs)
        edges.append(tuple(verts[i] for i in t))
    return _graph_obj(3, verts, edges)


def complete_host(n: int) -> dict:
    verts = [f"k{i}" for i in range(1, n + 1)]
    return _graph_obj(3, verts, list(itertools.combinations(verts, 3)))


def cycle_pattern() -> dict:
    """The linear 3-cycle: three edges, consecutive ones sharing one vertex."""
    verts = ["a", "b", "c", "d", "e", "f"]
    return _graph_obj(3, verts, [("a", "b", "c"), ("c", "d", "e"), ("a", "e", "f")])


K8_CYCLE_EMBEDDINGS = 20_160
K8_CYCLE_COPIES = 3_360

RAMSEY_N = 12
RAMSEY_P = 8
RAMSEY_PALETTE = 25


def random_coloring(seed: int) -> dict:
    rng = random.Random(seed)
    colors = {
        f"{i},{j}": rng.randrange(RAMSEY_PALETTE)
        for i, j in itertools.combinations(range(1, RAMSEY_N + 1), 2)
    }
    return {"n": RAMSEY_N, "colors": colors}


def colors_seen(coloring: dict, verts) -> int:
    return len({coloring["colors"][f"{i},{j}"] for i, j in itertools.combinations(sorted(verts), 2)})


def _check_clique_witness(coloring: dict, p: int, fewest: int) -> Check:
    """The reported p-clique must exist and see exactly the fewest colors."""

    def check(report: dict, workdir: Path) -> Optional[str]:
        verts = report.get("witness_kp") or []
        if len(set(verts)) != p or not set(verts) <= set(range(1, coloring["n"] + 1)):
            return f"witness_kp {verts!r} is not a {p}-clique"
        if colors_seen(coloring, verts) != fewest:
            return f"witness_kp sees {colors_seen(coloring, verts)} colors, want {fewest}"
        return None

    return check


PROJECT_N = 40
PROJECT_M = 120
PROJECT_K = 2
PROJECT_E = 3
LIFT_EDGES = 3


def sparse_4graph(seed: int) -> dict:
    """Random 4-graph whose edges pairwise share at most two vertices.

    No vertex triple then lies in two edges, so `project --k 2` never finds
    a heavy triple and keeps every edge as a link.
    """
    rng = random.Random(seed)
    verts = [f"u{i:02d}" for i in range(PROJECT_N)]
    covered: set[tuple[int, ...]] = set()
    edges = []
    while len(edges) < PROJECT_M:
        q = tuple(sorted(rng.sample(range(PROJECT_N), 4)))
        triples = list(itertools.combinations(q, 3))
        if any(t in covered for t in triples):
            continue
        covered.update(triples)
        edges.append(tuple(verts[i] for i in q))
    return _graph_obj(4, verts, edges)


def _check_project(host: dict) -> Check:
    host_edges = _host_edges(host)

    def check(report: dict, workdir: Path) -> Optional[str]:
        proj = _read_json(workdir / "proj.json")
        pairs = proj.get("projected", {}).get("pairs", [])
        links = {tuple(sorted(p["link"])) for p in pairs}
        if links != host_edges:
            return "projected links are not the host's edges"
        if any(tuple(p["triple"]) != tuple(sorted(p["link"]))[:3] for p in pairs):
            return "a projected triple is not the first three labels of its link"
        return None

    return check


def _check_lift(host: dict, config3: dict) -> Check:
    host_edges = _host_edges(host)
    wanted = {tuple(sorted(t)) for t in config3["edges"]}

    def check(report: dict, workdir: Path) -> Optional[str]:
        lifted = report.get("lifted", {})
        edges = {tuple(sorted(e)) for e in lifted.get("edges", [])}
        if not edges <= host_edges:
            return "a lifted edge is not a host edge"
        if {e[:3] for e in edges} != wanted:
            return "lifted edges do not extend the configuration's edges"
        return None

    return check


def prepare_search(seed: int, workdir: Path, build) -> list[Call]:
    gen_seeds = sorted(SEARCH_HOSTS)
    gen_seed = gen_seeds[seed % len(gen_seeds)]
    digest, nodes = SEARCH_HOSTS[gen_seed]
    _write_json(workdir / "host.json", linear_host(gen_seed))
    if hashlib.sha256((workdir / "host.json").read_bytes()).hexdigest() != digest:
        raise RuntimeError(f"search host {gen_seed} does not match its pinned digest")
    _write_json(workdir / "k8.json", complete_host(8))
    _write_json(workdir / "cycle.json", cycle_pattern())
    coloring = random_coloring(seed)
    _write_json(workdir / "coloring.json", coloring)
    host4 = sparse_4graph(seed)
    _write_json(workdir / "host4.json", host4)
    rng = random.Random(seed)
    chosen = rng.sample(host4["edges"], LIFT_EDGES)
    triples = [tuple(sorted(e))[:3] for e in chosen]
    config3 = _graph_obj(3, sorted(set().union(*map(set, triples))), triples)
    _write_json(workdir / "config3.json", config3)

    q = q_quad(RAMSEY_P)
    fewest = min(colors_seen(coloring, verts) for verts in
                 itertools.combinations(range(1, RAMSEY_N + 1), RAMSEY_P))
    calls = []
    for (v, e), n in zip(SEARCH_VE, nodes):
        calls.append(Call(
            ("search", "config", "--input", "host.json", "--v", str(v), "--e", str(e)),
            rc=2, expect={"found": False, "nodes_explored": n, "witness": None},
        ))
    calls += [
        Call(
            ("search", "copies", "--input", "k8.json", "--pattern", "cycle.json"),
            expect={"embeddings": K8_CYCLE_EMBEDDINGS, "copies": K8_CYCLE_COPIES},
        ),
        Call(
            ("ramsey", "check", "--input", "coloring.json", "--p", str(RAMSEY_P),
             "--q", str(q)),
            rc=0 if fewest >= q else 2,
            expect={"min_colors_on_some_kp": fewest, "valid": fewest >= q},
            check=_check_clique_witness(coloring, RAMSEY_P, fewest),
        ),
        Call(
            ("ramsey", "implication", "--input", "coloring.json", "--p", str(RAMSEY_P),
             "--q", str(q)),
            expect={"implication_holds": True},
        ),
        Call(
            ("project", "--input", "host4.json", "--k", str(PROJECT_K), "--e",
             str(PROJECT_E), "-o", "proj.json"),
            expect={"case": "Projected", "kept_links": PROJECT_M, "anchors": []},
            check=_check_project(host4),
        ),
        Call(
            ("lift", "--proj", "proj.json", "--config", "config3.json"),
            expect={"e": LIFT_EDGES},
            check=_check_lift(host4, config3),
        ),
    ]
    return with_probes(calls)


# nominal pass seconds on a 2-core x86 host with the numpy backend
WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-small", 3.9, prepare_certify_small),
        Workload("certify-large", 17.5, prepare_certify_large),
        Workload("search", 17.5, prepare_search),
    )
}
