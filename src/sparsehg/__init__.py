"""Sparse 3-uniform hypergraph families, subset-density checks, and oracles.

Every public name is resolved on first access (PEP 562) from the module
`_EXPORTS` names for it, so importing the package, or one of its modules,
loads only what is used: the CLI loads the modules of the command it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the sparsehg module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": ("DifferenceReport", "Hypergraph", "HypergraphError", "subgraph_from_edges"),
        "extraction": ("ExtractionResult", "extract", "locate_subcopy"),
        "families": ("LabeledConfiguration", "f14", "factorial_family", "geometric_tower",
                     "linear_three_cycle", "single_edge"),
        "niceness": ("NICE", "NOT_NICE", "SAMPLED_NO_VIOLATION", "Counterexample",
                     "NicenessReport", "check_cycle_bounds", "find_witness", "sample_nice",
                     "verify_cycle_bounds", "verify_nice", "verify_tower_bounds"),
        "projection": ("HEAVY_TRIPLE", "PROJECTED", "ProjectedMap", "ProjectionResult",
                       "lift", "project"),
        "ramsey": ("ColoringInstance", "RamseyReport", "check_coloring", "coloring_to_4graph",
                   "packed_coloring", "q_quad", "random_coloring", "verify_implication"),
        "search": ("CopyCount", "SearchResult", "count_copies", "find_configuration",
                   "find_configuration_unpruned", "verify_embedding"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"sparsehg.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
