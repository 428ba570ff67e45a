"""Composite growth-competitiveness index toolkit.

Builds weighted aggregation trees with exact rational weights, scores
country panels on the 1-7 scale, ranks them, tests ranking stability with a
hand-rolled chi-square kernel, fits linear trends, and answers what-if
questions about rank movements driven by component-score changes.

The package exports lazily (PEP 562): `import gcindex` loads no submodule.
The first read of an exported name imports the module that defines it and
keeps the object in the package namespace, so later reads are plain lookups;
`gcindex.<submodule>` imports that submodule.
"""

from importlib import import_module

#: each submodule -> the names the package exports from it
_EXPORTS = {
    "cli": (),
    "data": (),
    "engine": ("LeafAssignment", "MissingPolicy", "compute_all", "evaluate_node"),
    "errors": (),
    "ingest": ("WEF_DEFAULT", "default_wef_tree", "dump_tree", "load_classes", "load_panel",
               "load_score_table", "load_tree"),
    "model": ("IndexTree", "InnovatorClass", "Node", "Normalization", "Panel", "RankTable",
              "ScoreTable", "validate_tree"),
    "ranking": ("RankDeltaReport", "rank_delta", "rank_scores", "rank_table_from_indicator"),
    "report": ("emit_report", "render_report"),
    "stats": ("ChiSquareResult", "CorrelationResult", "Decision", "TrendResult",
              "chi_square_isf", "chi_square_sf", "chi_square_statistic", "chi_square_test",
              "ols_fit", "pearson", "rank_homogeneity_test"),
    "svg": (),
    "whatif": ("STRICT_MARGIN", "Scenario", "WhatIfOutcome", "apply_scenario",
               "min_delta_for_rank_gain", "path_weight"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """The submodule `name`, or the exported `name` from its module, which
    is then bound in the package namespace; AttributeError otherwise."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
