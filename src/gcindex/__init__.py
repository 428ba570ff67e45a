"""Composite growth-competitiveness index toolkit.

Builds weighted aggregation trees with exact rational weights, scores
country panels on the 1-7 scale, ranks them, tests ranking stability with a
hand-rolled chi-square kernel, fits linear trends, and answers what-if
questions about rank movements driven by component-score changes.
"""

from .engine import (
    LeafAssignment,
    MissingPolicy,
    compute_all,
    evaluate_node,
    normalize_minmax,
)
from .ingest import (
    WEF_DEFAULT,
    DatasetManifest,
    default_wef_tree,
    dump_tree,
    emit_report,
    load_classes,
    load_panel,
    load_score_table,
    load_tree,
    render_report,
)
from .model import (
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Observation,
    Panel,
    RankTable,
    ScoreTable,
    validate_tree,
)
from .ranking import (
    RankDeltaReport,
    rank_delta,
    rank_scores,
    rank_table_from_indicator,
)
from .stats import (
    ChiSquareResult,
    CorrelationResult,
    Decision,
    TrendResult,
    chi_square_isf,
    chi_square_sf,
    chi_square_statistic,
    chi_square_test,
    ols_fit,
    pearson,
    rank_homogeneity_test,
)
from .whatif import (
    STRICT_MARGIN,
    Scenario,
    WhatIfOutcome,
    apply_scenario,
    min_delta_for_rank_gain,
    min_delta_to_overtake,
    path_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ChiSquareResult",
    "CorrelationResult",
    "DatasetManifest",
    "Decision",
    "IndexTree",
    "InnovatorClass",
    "LeafAssignment",
    "MissingPolicy",
    "Node",
    "Normalization",
    "Observation",
    "Panel",
    "RankDeltaReport",
    "RankTable",
    "Scenario",
    "ScoreTable",
    "STRICT_MARGIN",
    "TrendResult",
    "WEF_DEFAULT",
    "WhatIfOutcome",
    "apply_scenario",
    "chi_square_isf",
    "chi_square_sf",
    "chi_square_statistic",
    "chi_square_test",
    "compute_all",
    "default_wef_tree",
    "dump_tree",
    "emit_report",
    "evaluate_node",
    "load_classes",
    "load_panel",
    "load_score_table",
    "load_tree",
    "min_delta_for_rank_gain",
    "min_delta_to_overtake",
    "normalize_minmax",
    "ols_fit",
    "path_weight",
    "pearson",
    "rank_delta",
    "rank_homogeneity_test",
    "rank_scores",
    "rank_table_from_indicator",
    "render_report",
    "validate_tree",
]
