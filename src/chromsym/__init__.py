"""Exact chromatic symmetric functions of sun and dumbbell graph families.

Everything is computed in exact rational arithmetic: integer-partition
combinatorics, sparse symmetric functions with power/elementary/Schur basis
conversion, graph builders with a small spec grammar, chromatic symmetric
functions and chromatic polynomials by independent engines plus closed family
forms, positivity certificates, and mechanical verification of the family
identities.

The package loads no submodule on import: each exported name imports its
module on first access (PEP 562), so a command pays only for what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the names the package exports from it
_EXPORTS = {
    "csf": """ChromPoly chromatic_poly_closed chromatic_poly_dc compute_csf csf_complete_closed
        csf_complete_dumbbell_closed csf_cycle_closed csf_dc csf_dumbbell_closed csf_lollipop_closed
        csf_path_closed csf_semicomplete_dumbbell_closed csf_spider_closed csf_subsets csf_tadpole_closed""",
    "graphs": """Graph GraphSpec SpecParseError complete_graph cycle_graph disjoint_union dumbbell_graph
        line_graph lollipop_graph parse_graph_spec path_graph spider_graph sun_graph tadpole_graph""",
    "identities": """IdentityReport VERIFIERS iter_grid run_grid verify_cdumbbell_lollipop_expansion
        verify_cdumbbell_recursion verify_chromatic_closed_forms verify_distinguishability
        verify_dumbbell_recursion verify_dumbbell_tadpole_expansion verify_small_sun_coefficient
        verify_sun_coefficient verify_sun_spider_reduction verify_triple_deletion""",
    "partitions": "Partition partitions_of",
    "positivity": """ConnectedPartitionWitness PositivityReport e_positivity gcd_missing_type
        has_connected_partition missing_partition_scan s_positivity spider_nonpositivity_criterion
        sun_matching_criterion triangle_sun_missing_type uniform_sun_missing_type""",
    "symfunc": "Basis SymFunc convert e_to_p e_to_s p_to_e s_to_e",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
