import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
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
    _STRATIFIED_DRAWS,
    _nice_roles,
    _stratified_masks,
    check_cycle_bounds,
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


def test_find_witness_when_none_can_exist():
    # K_5^(3) has difference 5 - 10 = -5: a witness would have -4 vertices
    k5 = Hypergraph(3, "abcde", itertools.combinations("abcde", 3))
    assert find_witness(k5) is None


def test_find_witness_size_guard():
    with pytest.raises(HypergraphError, match="witness search limited to 20 vertices"):
        find_witness(factorial_family(5))


def test_find_witness_finds_f14s_first_witness():
    g = f14().graph
    wit = find_witness(g)
    assert wit == ("w2", "wp2", "wp3", "wp4", "z6")
    assert oracles.is_independent(g.edges, wit)
    assert oracles.nice_violation(g.vertices, g.edges, wit) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=49_999))
def test_find_witness_matches_naive(seed):
    # the first (delta + 1)-set in combination order that is independent
    # and breaks neither bound, or None
    vertices, edges = oracles.random_3graph(seed, max_n=8, max_m=8)
    size = len(vertices) - len(edges) + 1
    candidates = itertools.combinations(vertices, size) if size >= 0 else ()
    expected = next(
        (
            combo
            for combo in candidates
            if oracles.is_independent(edges, combo)
            and oracles.nice_violation(vertices, edges, combo) is None
        ),
        None,
    )
    assert find_witness(Hypergraph(3, vertices, edges)) == expected


def test_dependent_witness_reported_as_independence_failure():
    g = f14().graph
    report = verify_nice(g, ("w1", "w2", "x5", "x6", "y5"))  # contains an edge
    assert report.verdict == NOT_NICE
    assert report.counterexample.condition == "Independence"
    assert report.checked_subsets == 0


def test_dependent_witness_out_of_order_is_reported_in_host_order():
    # the independence refutation goes through the one report builder
    report = verify_nice(f14().graph, ("x5", "w1", "w2", "x6", "y5"))
    assert report.verdict == NOT_NICE
    assert report.checked_subsets == 0
    cx = report.counterexample
    assert cx.subset == ("w1", "w2", "x5", "x6", "y5")
    assert cx.condition == "Independence"
    assert (cx.observed_delta, cx.required_bound) == (4, 5)  # holds edge w1 w2 x5


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


def _stratified_host_masks(graph, wit, rng):
    # the stratified masks, drawn over pool positions, lifted to host bits
    pool, _ = niceness._pool(graph, wit)
    return [
        graph.mask_of(v for i, v in enumerate(pool) if m >> i & 1)
        for m in _stratified_masks(len(pool), rng)
    ]


def _after_uniform_pass(graph, seed, samples):
    """random.Random(seed) once a clean `samples`-sample uniform pass on
    `graph` has drawn from it, and the replayed one at the same point."""
    rng = random.Random(seed)
    nothing = kernels.Bounds(x=0, aell=0, xy=0, g=0, k=1, ell=0)
    n = graph.vertex_count
    assert kernels.sample_scan([], n, nothing, samples, rng) == (samples, None)
    replay = random.Random(seed)
    for _ in oracles.uniform_lanes(replay, n, samples, kernels._LANE_BITS):
        pass
    return rng, replay


@pytest.mark.parametrize("seed", [0, 977, 2**63 + 11])
@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_stratified_masks_match_scalar_oracle(k, seed):
    # F_5..F_8 pools are large enough that every size from 3 or 4 up is
    # drawn; the pass draws on where 100 uniform samples left the generator.
    # Compared in pool space: size 1 is enumerated on these pools (40 to 157
    # vertices), so equal position masks over an equal pool are equal host
    # masks, and a pool in another order fails the first assertion
    cfg = _family(k)
    rng, replay = _after_uniform_pass(cfg.graph, seed, 100)
    pool, _ = niceness._pool(cfg.graph, cfg.witness)
    assert pool == oracles.pool(cfg.graph, cfg.witness)
    assert _stratified_masks(len(pool), rng) == oracles.stratified_positions(len(pool), replay)


@pytest.mark.parametrize("host_seed", range(8))
def test_stratified_masks_match_scalar_oracle_on_random_hosts(host_seed):
    # hosts 0 and 4-7 have pools large enough for drawn sizes
    rng = random.Random(host_seed)
    vertices = [f"t{i}" for i in range(rng.randint(12, 22))]
    edges = {tuple(sorted(rng.sample(vertices, 3))) for _ in range(2 * len(vertices))}
    g = Hypergraph(3, vertices, edges)
    wit = tuple(rng.sample(vertices, rng.randint(1, 8)))
    seed = [0, rng.getrandbits(64), 2**64 - 1][host_seed % 3]
    for samples in (1, rng.randrange(1, 300)):
        drawn, replay = _after_uniform_pass(g, seed, samples)
        expected = oracles.stratified_masks(g, wit, replay)
        assert _stratified_host_masks(g, wit, drawn) == expected


@pytest.mark.parametrize("draws", [1, 7, 20, 35, 157])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, random.Random(5).getrandbits(64)])
@pytest.mark.parametrize("size", [1, 7, 40, 157])
def test_stratified_indices_are_successive_words_mod_the_pool_size(
    monkeypatch, draws, seed, size
):
    # index value i is the generator's i-th 64-bit word mod the pool size;
    # a size is enumerated when it has at most `draws` subsets: 7 = C(7, 1),
    # 35 = C(7, 3) and 157 = C(157, 1) sit on that edge, 1 draws one subset
    # for every size past the first, and 20 draws every size of 40 and 157
    monkeypatch.setattr(niceness, "_STRATIFIED_DRAWS", draws)
    got = _stratified_masks(size, random.Random(seed))
    assert got == oracles.stratified_positions(size, random.Random(seed), draws=draws)


@pytest.mark.parametrize(
    "size, hexdigest",
    [
        (40, "da18534913a7c2ddb60a984978ecb731a1aabfb336e5fbab2b88f3d9b8e037a6"),
        (157, "33c7714ef33a6484dc0d69d44ca9636a7e38de5411ae4e854440121892ccacde"),
    ],
)
def test_stratified_masks_are_pinned(size, hexdigest):
    # F_5's and F_8's pool sizes at seed 2026: a change to CPython's MT19937
    # or getrandbits, or to how the pass reads its stream, moves this digest;
    # clean reports hold only counts and would not show it
    masks = _stratified_masks(size, random.Random(2026))
    width = (size + 7) // 8
    digest = hashlib.sha256(b"".join(m.to_bytes(width, "little") for m in masks))
    assert digest.hexdigest() == hexdigest


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=99_999),
    st.integers(min_value=0, max_value=90),
    st.sampled_from([_STRATIFIED_DRAWS, 20]),
)
def test_pool_width_pass_matches_host_width_check(seed, pad, draws):
    # a random host of at most 12 vertices after `pad` isolated ones, so that
    # past 52 its edges sit beyond bit 64; 20 draws per size make the small
    # pools draw their larger sizes too. The pass at the pool's width and
    # check_masks on the whole host over the lifted masks agree, violation
    # included: with witnesses of 1-6 random vertices many hosts are NOT_NICE
    vertices, edges = oracles.random_3graph(seed, max_n=12, max_m=12)
    g = Hypergraph(3, [f"pad{i}" for i in range(pad)] + list(vertices), edges)
    rng = random.Random(seed)
    wit = tuple(rng.sample(vertices, rng.randint(1, min(6, len(vertices)))))
    k = len(wit) - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(niceness, "_STRATIFIED_DRAWS", draws)
        pooled = niceness._stratified_pass(g, wit, k, random.Random(seed))
        lifted = _stratified_host_masks(g, wit, random.Random(seed))
    host = kernels.check_masks(
        list(g.edge_masks), g.vertex_count, _nice_roles(g.mask_of(wit), k), lifted
    )
    assert pooled == host


def test_f8_sampled_check_splits_its_stratified_masks_into_two_batches():
    # F_8's pool of 157 vertices gives 28,829 stratified masks, more than
    # one batch even at the sampled width there; check_masks takes an eighth
    # of that lane budget, 3,328 masks a batch, so the pass runs nine batches
    cfg = _family(8)
    pool, _ = niceness._pool(cfg.graph, cfg.witness)
    assert len(pool) == 157
    assert oracles.batch_width(157, kernels._LANE_BITS) == 26_688
    report = sample_nice(cfg, samples=100, seed=3)
    assert report.verdict == SAMPLED_NO_VIOLATION
    assert report.checked_subsets == 100 + 28_829


@pytest.mark.parametrize("seed", [1, 17, 2**64 - 1])
@pytest.mark.parametrize("k, samples", [(5, 1), (5, 150), (6, 300)])
def test_stratified_pass_continues_the_uniform_draws(monkeypatch, k, samples, seed):
    # F_5 has 55 vertices and F_6 306, so a uniform sample takes one or five
    # words of each lane's getrandbits call; a clean check draws every
    # uniform sample, then the stratified masks the replay gives after them,
    # and counts them all
    cfg = _family(k)
    checked_masks = []
    real = niceness._stratified_masks

    def recording(size, rng):
        masks = real(size, rng)
        checked_masks.extend(masks)
        return masks

    monkeypatch.setattr(niceness, "_stratified_masks", recording)
    report = sample_nice(cfg, samples=samples, seed=seed)
    assert report.verdict == SAMPLED_NO_VIOLATION
    pool, _ = niceness._pool(cfg.graph, cfg.witness)
    lifted = [cfg.graph.mask_of(v for i, v in enumerate(pool) if m >> i & 1) for m in checked_masks]
    replay = oracles.sampled_nice_subsets(cfg.graph, cfg.witness, samples, seed, kernels._LANE_BITS)
    assert lifted == replay[samples:]
    assert report.checked_subsets == len(replay)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=99_999),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_sampled_niceness_stops_at_the_oracle_subset(host_seed, samples, seed):
    # random hosts of at most 12 vertices with a random independent witness
    # of delta + 1 vertices, many of them NOT_NICE. The report names the
    # first subset of the replayed stream, uniform then stratified, that
    # breaks a bound, and counts the subsets up to it
    vertices, edges = oracles.random_3graph(host_seed, max_n=12, max_m=12)
    g = Hypergraph(3, vertices, edges)
    size = g.delta + 1
    assume(1 <= size <= len(vertices))
    wit = tuple(random.Random(host_seed).sample(vertices, size))
    assume(g.is_independent(wit))
    report = sample_nice(g, wit, samples=samples, seed=seed)
    replay = oracles.sampled_nice_subsets(g, wit, samples, seed, kernels._LANE_BITS)
    for i, u in enumerate(replay):
        subset = g.labels_of_mask(u)
        broken = oracles.nice_condition(g.edges, wit, subset)
        if broken is not None:
            cx = report.counterexample
            assert (report.verdict, report.checked_subsets) == (NOT_NICE, i + 1)
            assert (cx.subset, cx.condition, cx.observed_delta, cx.required_bound) == (
                subset, *broken)
            return
    assert report == niceness.NicenessReport(SAMPLED_NO_VIOLATION, len(replay), None, seed=seed)


@pytest.mark.parametrize("delta,bound", [(0, 5), (4, 3)])
def test_forged_violation_is_rechecked(monkeypatch, delta, bound):
    # full f14 has difference 4: the first forgery misstates it, the
    # second states it but against a bound it meets
    full = (1 << f14().graph.vertex_count) - 1

    def forged(*args):
        return 1, (full, 1, delta, bound)

    monkeypatch.setattr(kernels, "scan_range", forged)
    with pytest.raises(HypergraphError, match="false violation"):
        verify_nice(f14())


def test_verify_cycle_bounds_holds():
    assert verify_cycle_bounds(linear_three_cycle()) is True


def test_check_cycle_bounds_reports_both_scans():
    holds, scans = check_cycle_bounds(linear_three_cycle())
    assert holds is True
    assert [(s.verdict, s.checked_subsets) for s in scans] == [(NICE, 64), (NICE, 64)]


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
    # the scans stop at the first that refutes
    holds, scans = check_cycle_bounds(config)
    verdicts = [s.verdict == NICE for s in scans]
    assert holds is expected
    assert verdicts == [True, True] if holds else verdicts in ([False], [True, False])


def test_verify_cycle_bounds_wants_the_cycle():
    with pytest.raises(HypergraphError):
        verify_cycle_bounds(f14())


@pytest.mark.parametrize("labels", [(), ("v1", "v2")], ids=["empty", "two-labels"])
@pytest.mark.parametrize("role", ["v1", "v6"])
def test_cycle_roles_name_exactly_one_vertex(role, labels):
    cfg = linear_three_cycle()
    cfg.roles[role] = labels
    with pytest.raises(HypergraphError, match=f"cycle role '{role}' must name exactly one vertex"):
        verify_cycle_bounds(cfg)
    del cfg.roles[role]
    with pytest.raises(HypergraphError, match=f"cycle role '{role}' must name exactly one vertex"):
        verify_cycle_bounds(cfg)


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


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 70) + 3])
def test_sampled_checks_reject_seeds_outside_64_bits(seed):
    # random.Random seeds from |seed|: -1 would draw what 1 draws
    with pytest.raises(HypergraphError, match=r"seed must be in \[0, 2\^64\)"):
        sample_nice(linear_three_cycle(), samples=5, seed=seed)
    with pytest.raises(HypergraphError, match=r"seed must be in \[0, 2\^64\)"):
        verify_tower_bounds(geometric_tower(f14(), 1), exhaustive=False, samples=5, seed=seed)


def test_tower_bounds_exhaustive_takes_no_seed():
    # an exhaustive scan draws nothing, so a seed given with it would be dropped
    with pytest.raises(HypergraphError, match="exhaustive mode takes no seed"):
        verify_tower_bounds(geometric_tower(f14(), 0), seed=5)


def test_sampled_niceness_requires_seed():
    with pytest.raises(HypergraphError, match="needs a seed"):
        sample_nice(f14(), samples=10, seed=None)


@pytest.mark.parametrize(
    "samples, seed",
    [(0, 1), (10, None), (10, -1), (10, 1 << 64)],
)
def test_sampled_arguments_are_checked_for_a_dependent_witness(samples, seed):
    # a witness that spans an edge is refuted before any scan, but the
    # sampled arguments are rejected first, as for an independent witness
    graph = linear_three_cycle().graph
    messages = []
    for witness in (("v1", "v2", "v4", "v3"), ("v1", "v2", "v5", "v3")):
        with pytest.raises(HypergraphError) as raised:
            sample_nice(graph, witness, samples=samples, seed=seed)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "samples, seed, message",
    [(None, 1, "samples must be"), (2.5, 1, "samples must be"), (10, 1.5, "seed must be in"),
     (True, 1, "samples must be"), (10, False, r"seed must be in \[0, 2\^64\), got False"),
     (True, False, "samples must be"), (10, True, "got True")],
)
def test_sampled_checks_reject_non_integer_arguments(samples, seed, message):
    # a bool is an int, but True is no sample count and False no seed
    with pytest.raises(HypergraphError, match=message):
        sample_nice(f14(), samples=samples, seed=seed)
    with pytest.raises(HypergraphError, match=message):
        verify_tower_bounds(
            geometric_tower(f14(), 1), exhaustive=False, samples=samples, seed=seed
        )


def test_repeated_witness_label_is_rejected():
    # four distinct vertices counted as five would pass the size check
    wit = ("w4", "w4", "wp1", "wp2", "wp3")
    with pytest.raises(HypergraphError, match="witness repeats label 'w4'"):
        verify_nice(f14(), wit)
    with pytest.raises(HypergraphError, match="witness repeats label 'w4'"):
        sample_nice(f14(), wit, samples=100, seed=1)
    cfg = f14()
    doubled = LabeledConfiguration(cfg.graph, {**cfg.roles, "A": wit}, cfg.family, cfg.subcopies)
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
