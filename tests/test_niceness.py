import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsehg import kernels, niceness
from sparsehg.core import Hypergraph, HypergraphError
from sparsehg.families import (
    LabeledConfiguration,
    f14,
    factorial_family,
    geometric_tower,
    linear_three_cycle,
    single_edge,
)
from sparsehg.niceness import (
    NICE,
    NOT_NICE,
    SAMPLED_NO_VIOLATION,
    _stratified_masks,
    find_witness,
    sample_nice,
    verify_cycle_bounds,
    verify_nice,
    verify_tower_bounds,
)

import oracles


def test_f14_is_nice():
    report = verify_nice(f14())
    assert report.verdict == NICE
    assert report.checked_subsets == 1 << 14
    assert report.counterexample is None


def test_cycle_is_not_nice_with_frozen_counterexample():
    report = verify_nice(linear_three_cycle())
    assert report.verdict == NOT_NICE
    cx = report.counterexample
    assert cx.subset == ("v1", "v2", "v5")
    assert cx.condition == "Cond2"
    assert (cx.observed_delta, cx.required_bound) == (2, 3)
    assert report.checked_subsets == 20  # mask 19 is the first offender


def test_cycle_all_candidate_witnesses_fail():
    g = linear_three_cycle().graph
    candidates = list(itertools.combinations(g.vertices, 4))
    assert len(candidates) == 15
    for combo in candidates:
        assert verify_nice(g, combo).verdict == NOT_NICE
    assert find_witness(g) is None


def test_dependent_witness_reported_as_independence_failure():
    g = f14().graph
    report = verify_nice(g, ("w1", "w2", "x5", "x6", "y5"))  # contains an edge
    assert report.verdict == NOT_NICE
    assert report.counterexample.condition == "Independence"
    assert report.checked_subsets == 0


def test_wrong_witness_size_rejected():
    with pytest.raises(HypergraphError, match="witness size"):
        verify_nice(f14().graph, ("w1", "w2"))


def test_unknown_witness_label_rejected():
    with pytest.raises(HypergraphError):
        verify_nice(f14().graph, ("w1", "w2", "w3", "w4", "nope"))


def test_witness_defaults_to_role_a():
    cfg = f14()
    assert verify_nice(cfg).checked_subsets == verify_nice(cfg.graph, cfg.witness).checked_subsets


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=49_999))
def test_verify_nice_matches_naive(seed):
    vertices, edges = oracles.random_3graph(seed, max_n=9, max_m=9)
    g = Hypergraph(3, vertices, edges)
    k = g.delta
    if k < 0 or k + 1 > g.vertex_count:
        return
    wit = vertices[: k + 1]
    naive = oracles.nice_violation(vertices, edges, wit)
    indep = oracles.is_independent(edges, wit)
    report = verify_nice(g, wit)
    if not indep:
        assert report.verdict == NOT_NICE
        assert report.counterexample.condition == "Independence"
    elif naive is None:
        assert report.verdict == NICE
    else:
        subset, condition, observed, required = naive
        cx = report.counterexample
        assert (cx.subset, cx.condition) == (subset, condition)
        assert (cx.observed_delta, cx.required_bound) == (observed, required)


def test_sampling_is_deterministic():
    cfg = f14()
    a = sample_nice(cfg, samples=4000, seed=5)
    b = sample_nice(cfg, samples=4000, seed=5)
    assert a == b
    assert a.verdict == SAMPLED_NO_VIOLATION
    assert a.seed == 5
    assert a.checked_subsets > 4000  # stratified pass counts too


def test_sampling_finds_cycle_violation():
    # the violating subsets are dense enough that 3000 draws always hit one
    report = sample_nice(linear_three_cycle(), samples=3000, seed=0)
    assert report.verdict == NOT_NICE
    subset = set(report.counterexample.subset)
    g = linear_three_cycle().graph
    d = oracles.difference(g.edges, subset)
    assert d == report.counterexample.observed_delta
    assert d < report.counterexample.required_bound


def test_sample_counterexample_is_sound():
    # any reported violation must be checkable by the naive rules
    report = sample_nice(linear_three_cycle(), samples=500, seed=123)
    if report.verdict == NOT_NICE:
        cx = report.counterexample
        g = linear_three_cycle().graph
        wit = set(linear_three_cycle().witness)
        sub = set(cx.subset)
        d = oracles.difference(g.edges, sub)
        inter = len(sub & wit)
        if cx.condition == "Cond1":
            assert d < inter - (1 if wit <= sub else 0)
        else:
            assert d < inter + 1 and inter <= len(wit) - 2 and sub - wit


_family = functools.lru_cache(maxsize=None)(factorial_family)


@pytest.mark.parametrize("seed", [0, -977, 2**63 + 11])
@pytest.mark.parametrize("k", [5, 6, 7])
def test_stratified_masks_match_scalar_oracle(k, seed):
    # F_5..F_7 pools are large enough that every size from 3 or 4 up is drawn
    cfg = _family(k)
    expected = oracles.stratified_masks(cfg.graph, cfg.witness, seed, 1000)
    assert _stratified_masks(cfg.graph, cfg.witness, seed, 1000) == expected


@pytest.mark.parametrize("host_seed", range(8))
def test_stratified_masks_match_scalar_oracle_on_random_hosts(host_seed):
    # hosts 0 and 4-7 have pools large enough for drawn sizes, with all three
    # kinds of seed
    rng = random.Random(host_seed)
    vertices = [f"t{i}" for i in range(rng.randint(12, 22))]
    edges = {tuple(sorted(rng.sample(vertices, 3))) for _ in range(2 * len(vertices))}
    g = Hypergraph(3, vertices, edges)
    wit = tuple(rng.sample(vertices, rng.randint(1, 8)))
    seed = [0, -rng.getrandbits(70), 2**63 + rng.getrandbits(70)][host_seed % 3]
    cursor = rng.randrange(10**7)
    assert _stratified_masks(g, wit, seed, cursor) == oracles.stratified_masks(g, wit, seed, cursor)


def test_stratified_stream_follows_the_uniform_counters_on_wide_hosts(monkeypatch):
    # F_6 has 306 vertices, so each uniform sample takes 5 stream words; the
    # splitmix64 counter of each draw is recovered from the finalizer's input
    cfg = _family(6)
    seed, samples = 17, 300
    words = (cfg.graph.vertex_count + 63) // 64
    assert words > 1
    inverse = pow(kernels.GAMMA, -1, 1 << 64)
    used = {"uniform": set(), "stratified": set()}
    phase = ["uniform"]
    mix, stratified = kernels._mix_vec, niceness._stratified_masks

    def recording_mix(z):
        used[phase[0]].update((v - seed) * inverse % (1 << 64) for v in z.ravel().tolist())
        return mix(z)

    def recording_stratified(*args):
        phase[0] = "stratified"
        return stratified(*args)

    monkeypatch.setattr(kernels, "_mix_vec", recording_mix)
    monkeypatch.setattr(niceness, "_stratified_masks", recording_stratified)
    report = sample_nice(cfg, samples=samples, seed=seed)
    assert report.verdict == SAMPLED_NO_VIOLATION
    assert used["uniform"] == set(range(1, samples * words + 1))
    assert min(used["stratified"]) == samples * words + 1


@pytest.mark.parametrize("delta,bound", [(0, 5), (4, 3)])
def test_forged_violation_is_rechecked(monkeypatch, delta, bound):
    # full f14 has difference 4: the first forgery misstates it, the
    # second states it but against a bound it meets
    full = f14().graph.full_mask()

    def forged(*args):
        return 1, (full, 1, delta, bound)

    monkeypatch.setattr(kernels, "scan_range", forged)
    with pytest.raises(HypergraphError, match="false violation"):
        verify_nice(f14())


def test_verify_cycle_bounds_holds():
    assert verify_cycle_bounds(linear_three_cycle()) is True


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(6)), st.sets(st.integers(min_value=0, max_value=19), max_size=5))
def test_cycle_bounds_match_oracle(perm, edge_ids):
    # up to five of the 20 triples over six vertices, roles v1..v6 permuted
    labels = tuple(f"c{i}" for i in range(6))
    triples = list(itertools.combinations(labels, 3))
    edges = [triples[i] for i in sorted(edge_ids)]
    roles = {f"v{i + 1}": (labels[p],) for i, p in enumerate(perm)}
    config = LabeledConfiguration(
        graph=Hypergraph(3, labels, edges), roles=roles, family={"name": "cycle"}
    )
    expected = oracles.cycle_bounds_hold(labels, edges, {r: v[0] for r, v in roles.items()})
    assert verify_cycle_bounds(config) is expected


def test_verify_cycle_bounds_wants_the_cycle():
    with pytest.raises(HypergraphError):
        verify_cycle_bounds(f14())


def test_tower_bounds_exhaustive_level_zero():
    report = verify_tower_bounds(geometric_tower(f14(), 0))
    assert report.verdict == NICE
    assert report.checked_subsets == 1 << 14


def test_tower_bounds_exhaustive_edge_levels():
    for ell in (1, 2):
        cfg = geometric_tower(single_edge(), ell, allow_edge_base=True)
        report = verify_tower_bounds(cfg)
        assert report.verdict == NICE
        free = cfg.graph.vertex_count - ell
        assert report.checked_subsets == 1 << free


def test_tower_bounds_match_naive_on_edge_tower():
    cfg = geometric_tower(single_edge(), 2, allow_edge_base=True)
    g = cfg.graph
    x_labels = [cfg.role(f"x{j}")[0] for j in (1, 2)]
    y_labels = [cfg.role(f"y{j}")[0] for j in (0, 1, 2)]
    gl_vertices = set(cfg.subcopies["G^2"].values())
    naive = oracles.tower_violation(
        g.vertices, g.edges, x_labels, y_labels, cfg.role("A_ell"), gl_vertices
    )
    assert naive is None
    assert verify_tower_bounds(cfg).verdict == NICE


def test_tower_bounds_sampled_requires_seed():
    cfg = geometric_tower(f14(), 1)
    with pytest.raises(HypergraphError):
        verify_tower_bounds(cfg, exhaustive=False, samples=100)
    with pytest.raises(HypergraphError):
        verify_tower_bounds(cfg, exhaustive=False, seed=1)


def test_tower_bounds_exhaustive_takes_no_samples():
    # exhaustive is the default: samples given with it would be ignored
    with pytest.raises(HypergraphError, match="exhaustive mode takes no samples"):
        verify_tower_bounds(geometric_tower(f14(), 0), samples=100, seed=1)


def test_sampled_niceness_requires_seed():
    with pytest.raises(HypergraphError, match="needs a seed"):
        sample_nice(f14(), samples=10, seed=None)


def test_repeated_witness_label_is_rejected():
    # four distinct vertices counted as five would pass the size check
    wit = ("w4", "w4", "wp1", "wp2", "wp3")
    with pytest.raises(HypergraphError, match="witness repeats label 'w4'"):
        verify_nice(f14(), wit)
    with pytest.raises(HypergraphError, match="witness repeats label 'w4'"):
        sample_nice(f14(), wit, samples=100, seed=1)
    cfg = f14()
    doubled = dataclasses.replace(cfg, roles={**cfg.roles, "A": wit})
    with pytest.raises(HypergraphError, match="witness repeats label 'w4'"):
        verify_nice(doubled)


def test_tower_bounds_sampled_deterministic():
    cfg = geometric_tower(f14(), 1)
    a = verify_tower_bounds(cfg, exhaustive=False, samples=5000, seed=9)
    b = verify_tower_bounds(cfg, exhaustive=False, samples=5000, seed=9)
    assert a == b
    assert a.verdict == SAMPLED_NO_VIOLATION


def test_tower_bounds_exhaustive_guard_on_big_towers():
    with pytest.raises(HypergraphError, match="free"):
        verify_tower_bounds(geometric_tower(f14(), 1))


def test_tower_bounds_agree_with_naive_on_mangled_towers():
    # swap one edge for another triple (keeps delta) and compare verdicts
    cfg = geometric_tower(single_edge(), 1, allow_edge_base=True)
    g = cfg.graph
    x_labels = [cfg.role(f"x{j}")[0] for j in (1, 2)]
    y_labels = [cfg.role(f"y{j}")[0] for j in (0, 1)]
    gl_vertices = set(cfg.subcopies["G^1"].values())
    saw_violation = 0
    for drop in range(g.edge_count):
        for repl in itertools.combinations(g.vertices, 3):
            edges = [e for i, e in enumerate(g.edges) if i != drop]
            if tuple(sorted(repl)) in edges or tuple(sorted(repl)) == g.edges[drop]:
                continue
            edges.append(repl)
            mangled = Hypergraph(3, g.vertices, edges)
            damaged = type(cfg)(
                graph=mangled,
                roles=cfg.roles,
                family=cfg.family,
                subcopies=cfg.subcopies,
                levels=cfg.levels,
            )
            naive = oracles.tower_violation(
                mangled.vertices, mangled.edges, x_labels, y_labels,
                cfg.role("A_ell"), gl_vertices,
            )
            report = verify_tower_bounds(damaged)
            if naive is None:
                assert report.verdict == NICE
            else:
                saw_violation += 1
                subset, condition, observed, required = naive
                cx = report.counterexample
                assert set(cx.subset) == subset
                assert cx.condition == condition
                assert (cx.observed_delta, cx.required_bound) == (observed, required)
    assert saw_violation > 0
