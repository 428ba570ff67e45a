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
)
from .ingest import (
    WEF_DEFAULT,
    default_wef_tree,
    dump_tree,
    load_classes,
    load_panel,
    load_score_table,
    load_tree,
)
from .model import (
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
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
from .report import emit_report, render_report
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
    path_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ChiSquareResult",
    "CorrelationResult",
    "Decision",
    "IndexTree",
    "InnovatorClass",
    "LeafAssignment",
    "MissingPolicy",
    "Node",
    "Normalization",
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
