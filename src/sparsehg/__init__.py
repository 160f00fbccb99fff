"""Sparse 3-uniform hypergraph families, subset-density checks, and oracles.

The names of sparsehg.niceness are re-exported lazily, on first access, so
the package and every command that does not check subsets start without
loading the checker; numpy is imported only by the sampled checks.
"""

import importlib

from sparsehg.core import (
    DifferenceReport,
    Hypergraph,
    HypergraphError,
    VertexSubset,
    subgraph_from_edges,
)
from sparsehg.extraction import ExtractionResult, extract, locate_subcopy
from sparsehg.families import (
    LabeledConfiguration,
    f14,
    factorial_family,
    geometric_tower,
    linear_three_cycle,
    single_edge,
)
from sparsehg.projection import (
    HEAVY_TRIPLE,
    PROJECTED,
    ProjectedMap,
    ProjectionResult,
    lift,
    project,
)
from sparsehg.ramsey import (
    ColoringInstance,
    RamseyReport,
    check_coloring,
    coloring_to_4graph,
    packed_coloring,
    q_quad,
    random_coloring,
    verify_implication,
)
from sparsehg.search import (
    CopyCount,
    SearchResult,
    count_copies,
    find_configuration,
    find_configuration_unpruned,
    verify_embedding,
)

__version__ = "0.1.0"

__all__ = [
    "ColoringInstance",
    "CopyCount",
    "Counterexample",
    "DifferenceReport",
    "ExtractionResult",
    "HEAVY_TRIPLE",
    "Hypergraph",
    "HypergraphError",
    "LabeledConfiguration",
    "NICE",
    "NOT_NICE",
    "NicenessReport",
    "PROJECTED",
    "ProjectedMap",
    "ProjectionResult",
    "RamseyReport",
    "SAMPLED_NO_VIOLATION",
    "SearchResult",
    "VertexSubset",
    "check_coloring",
    "coloring_to_4graph",
    "count_copies",
    "extract",
    "f14",
    "factorial_family",
    "find_configuration",
    "find_configuration_unpruned",
    "find_witness",
    "geometric_tower",
    "lift",
    "linear_three_cycle",
    "locate_subcopy",
    "packed_coloring",
    "project",
    "q_quad",
    "random_coloring",
    "sample_nice",
    "single_edge",
    "subgraph_from_edges",
    "verify_cycle_bounds",
    "verify_embedding",
    "verify_implication",
    "verify_nice",
    "verify_tower_bounds",
    "__version__",
]

# names resolved from sparsehg.niceness on first access (PEP 562)
_LAZY = frozenset({
    "NICE",
    "NOT_NICE",
    "SAMPLED_NO_VIOLATION",
    "Counterexample",
    "NicenessReport",
    "find_witness",
    "sample_nice",
    "verify_cycle_bounds",
    "verify_nice",
    "verify_tower_bounds",
})


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module("sparsehg.niceness"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY)
