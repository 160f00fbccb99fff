"""Acceptance gate: the twelve headline checks, each with its runtime budget.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Seeds are fixed so every run checks the same instances.
"""

from __future__ import annotations

import itertools
import time
from math import comb, factorial
from pathlib import Path

import pytest

from sparsehg.cli import main as cli_main
from sparsehg.core import Hypergraph
from sparsehg.extraction import extract
from sparsehg.families import f14, factorial_family, geometric_tower, linear_three_cycle
from sparsehg.niceness import (
    NICE,
    NOT_NICE,
    SAMPLED_NO_VIOLATION,
    find_witness,
    sample_nice,
    verify_cycle_bounds,
    verify_nice,
    verify_tower_bounds,
)
from sparsehg.projection import HEAVY_TRIPLE, lift, project
from sparsehg.ramsey import packed_coloring, q_quad, random_coloring, verify_implication
from sparsehg.search import count_copies, find_configuration, find_configuration_unpruned

import oracles

SUITE_SEED = 20260819
SAMPLE_SEED = 2026


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.started
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime budget exceeded: {self.elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_criterion_01_cycle_bounds_exhaustive(capsys):
    with _Budget(1.0):
        assert verify_cycle_bounds(linear_three_cycle()) is True
        assert cli_main(["verify", "claim63"]) == 0
    report = capsys.readouterr().out
    assert '"checked_subsets": 64' in report


def test_criterion_02_f14_niceness():
    with _Budget(1.0):
        report = verify_nice(f14().graph, ("w4", "wp1", "wp2", "wp3", "wp4"))
    assert report.verdict == NICE
    assert report.checked_subsets == 16384


def test_criterion_03_cycle_not_nice():
    g = linear_three_cycle().graph
    with _Budget(1.0):
        candidates = list(itertools.combinations(g.vertices, 4))
        assert len(candidates) == 15
        for combo in candidates:
            assert verify_nice(g, combo).verdict == NOT_NICE
        assert find_witness(g) is None
        report = verify_nice(g, ("v1", "v2", "v3", "v4"))
    assert report.counterexample.subset == ("v1", "v2", "v5")


def test_criterion_04_factorial_counts():
    expected = {4: 10, 5: 50, 6: 300, 7: 2100}
    with _Budget(10.0):
        for k, e in expected.items():
            cfg = factorial_family(k)
            assert cfg.graph.edge_count == e
            assert cfg.graph.vertex_count == e + k
            wit = cfg.witness
            assert len(wit) == k + 1
            assert cfg.graph.is_independent(wit)


def test_criterion_05_tower_counts():
    expected = {0: 10, 1: 50, 2: 210, 3: 850}
    with _Budget(10.0):
        for ell, e in expected.items():
            cfg = geometric_tower(f14(), ell)
            assert cfg.graph.edge_count == e
            assert cfg.graph.delta == 4 + ell
            assert cfg.graph.is_independent(cfg.role("A_ell"))


def test_criterion_06_degeneracy_sweep():
    with _Budget(60.0):
        for ell in (1, 2):
            chain = geometric_tower(f14(), ell)
            aell = set(chain.role("A_ell"))
            ratio_prev = (4**ell - 1) // 3
            top = chain.graph.edge_count // 10
            for t in range(top + 1):
                sub = extract(chain, t).subgraph
                assert sub.edge_count == 10 * t
                d = oracles.difference(chain.graph.edges, sub.vertices)
                assert len(set(sub.vertices)) - sub.edge_count == d
                assert d <= 4 + ell
                if t > ratio_prev:
                    assert aell <= set(sub.vertices)


def test_criterion_07_f5_sampled_niceness():
    with _Budget(60.0):
        report = sample_nice(factorial_family(5), samples=1_000_000, seed=SAMPLE_SEED)
    assert report.verdict == SAMPLED_NO_VIOLATION
    assert report.checked_subsets >= 1_000_000


def test_criterion_08_tower_bounds():
    with _Budget(60.0):
        exhaustive = verify_tower_bounds(geometric_tower(f14(), 0))
        sampled = verify_tower_bounds(
            geometric_tower(f14(), 1),
            exhaustive=False,
            samples=1_000_000,
            seed=SAMPLE_SEED,
        )
    assert exhaustive.verdict == NICE
    assert exhaustive.checked_subsets == 16384
    assert sampled.verdict == SAMPLED_NO_VIOLATION
    assert sampled.checked_subsets == 1_000_000


def test_criterion_09_projection_roundtrip():
    e = 3
    lifted_count = 0
    with _Budget(120.0):
        for i in range(200):
            vertices, edges = oracles.random_4graph(SUITE_SEED + i)
            g = Hypergraph(4, vertices, edges)
            result = project(g, 2, e)
            if result.case_tag == HEAVY_TRIPLE:
                heavy = result.heavy_config
                assert heavy.edge_count == e
                assert heavy.vertex_count <= (g.r - 2) * e + 2
                assert find_configuration(g, heavy.vertex_count, e).found
                continue
            links = [set(y) for _, y in result.projected.pairs]
            for a, b in itertools.combinations(links, 2):
                assert len(a & b) <= 2
            hit = find_configuration(result.projected.graph3, 3 * e - 3, e)
            if not hit.found:
                continue
            span = sorted({u for edge in hit.witness[1] for u in edge})
            cfg3 = Hypergraph(3, span, hit.witness[1])
            lifted = lift(result, cfg3)
            assert lifted.vertex_count <= cfg3.vertex_count + e
            assert find_configuration(g, lifted.vertex_count, e).found
            lifted_count += 1
    assert lifted_count > 0


def test_criterion_10_ramsey_implication():
    with _Budget(120.0):
        assert (q_quad(4), q_quad(8), q_quad(10)) == (6, 26, 42)
        assert verify_implication(packed_coloring(8, 8), 8, 27) is True
        for i in range(1000):
            coloring = random_coloring(10, SUITE_SEED + i)
            assert verify_implication(coloring, 8, 27) is True


def test_criterion_11_oracle_equivalence():
    with _Budget(60.0):
        for i in range(100):
            vertices, edges = oracles.random_3graph(SUITE_SEED + i, max_n=10, max_m=12)
            g = Hypergraph(3, vertices, edges)
            assert g.edge_count <= 12
            for e in (2, 3):
                for v in (e + 2, 2 * e + 1, 3 * e - 3):
                    pruned = find_configuration(g, v, e)
                    plain = find_configuration_unpruned(g, v, e)
                    assert pruned.found == plain.found
                    assert pruned.witness == plain.witness
        cycle = linear_three_cycle().graph
        k6 = [f"k{i}" for i in range(6)]
        host6 = Hypergraph(3, k6, list(itertools.combinations(k6, 3)))
        assert count_copies(host6, cycle).copies == 120
        assert count_copies(host6, cycle).embeddings == 720
        k7 = [f"k{i}" for i in range(7)]
        host7 = Hypergraph(3, k7, list(itertools.combinations(k7, 3)))
        assert count_copies(host7, cycle).copies == 840
        one_edge = Hypergraph(3, ["a", "b", "c"], [("a", "b", "c")])
        assert count_copies(host7, one_edge).copies == comb(7, 3)


def _templates():
    """(row name, configuration, its witness, closed-form e, closed-form d)."""
    for k in range(4, 9):
        cfg = factorial_family(k)
        yield f"F_{k}", cfg, cfg.witness, 10 * factorial(k) // 24, k
    for k, ell in [(4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3), (6, 1)]:
        cfg = geometric_tower(factorial_family(k), ell)
        e = 10 * factorial(k) // 24 * (k ** (ell + 1) - 1) // (k - 1)
        yield f"G^{ell} over F_{k}", cfg, cfg.role("A_ell"), e, k + ell


def _readme_parameter_rows():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Parameters\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in row] for row in rows[1:]]


def test_criterion_12_parameter_table():
    rows = []
    with _Budget(10.0):
        for name, cfg, witness, e, d in _templates():
            g = cfg.graph
            assert g.edge_count == e
            assert g.vertex_count - g.edge_count == d
            assert g.is_independent(witness)
            # 2 + floor(log2 e), Sárközy-Selkow's excess, exactly
            excess = 1 + e.bit_length()
            assert d < excess
            rows.append([name, str(g.vertex_count), str(e), str(d), str(excess)])
    assert rows == _readme_parameter_rows()
    with _Budget(60.0):
        for ell in (3, 4):
            chain = geometric_tower(f14(), ell)
            aell = set(chain.role("A_ell"))
            ratio_prev = (4**ell - 1) // 3
            for t in range(chain.graph.edge_count // 10 + 1):
                sub = extract(chain, t).subgraph
                assert sub.edge_count == 10 * t
                d = oracles.difference(chain.graph.edges, sub.vertices)
                assert len(set(sub.vertices)) - sub.edge_count == d
                assert d <= 4 + ell
                if t > ratio_prev:
                    assert aell <= set(sub.vertices)
